"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the condensed detection head needs:
convolution (grouped, dilated, same-padded), adaptive average pooling,
affine maps, relu/add/concat plumbing, the truncated-max squash, peak lookup
and feature gathering, plus the scalar arithmetic the training objectives
are built from.

The recorded graph lives in the output tensors themselves: every operation
stores its tag, its input references and a backward closure over the saved
intermediates.  ``backward(loss)`` replays the recording reverse-
topologically, visiting each node exactly once; a second backward over the
same recording is rejected.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, GraphStateError, NonFiniteError

Shape = tuple[int, ...]


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Layout is row-major; feature maps use channels x height x width.
    Tensors created by operations carry the recorded node (op tag, parents,
    backward closure).  Leaf tensors have ``op == "leaf"``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 4:
            raise ContractViolation(f"tensors support up to 4 axes, got {arr.ndim}")
        self.data = np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_done = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> Shape:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def sum(self) -> "Tensor":
        return sum_all(self)

    def backward(self) -> None:
        backward(self)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


class KinkWatch:
    """Context manager recording how close a forward pass came to the
    non-smooth loci (relu at 0, smooth-L1 transition, argmax ties).

    Finite-difference checks only claim agreement away from these points, so
    they re-sample inputs until ``min_margin`` clears their exclusion radius.
    """

    def __init__(self):
        self.min_margin = float("inf")

    def note(self, margin: float) -> None:
        if margin < self.min_margin:
            self.min_margin = margin

    def __enter__(self) -> "KinkWatch":
        _kink_watches.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _kink_watches.remove(self)


_kink_watches: list[KinkWatch] = []


def _note_kink_margin(margin: float) -> None:
    for watch in _kink_watches:
        watch.note(margin)


def _record(data: np.ndarray, op: str, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    """Wrap an op result, noting the graph node and checking finiteness."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"operation {op!r} produced non-finite values")
    out = Tensor(data)
    out.op = op
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor reachable from ``loss``.

    Gradients accumulate into existing buffers (callers zero parameters
    between steps).  Raises GraphStateError on a second backward over the
    same recording or when ``loss`` is not the output of a recorded op.
    """
    if loss.data.size != 1:
        raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.op == "leaf":
        raise GraphStateError("loss was not produced by a recorded forward pass")
    if loss._backward_done:
        raise GraphStateError("backward already ran over this recording; run a new forward pass")
    loss._backward_done = True

    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over parents; each node appears exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# -- elementwise arithmetic ----------------------------------------------

def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ContractViolation(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _reduce_to(g: np.ndarray, shape: Shape) -> np.ndarray:
    """Collapse a broadcast gradient back onto a scalar operand."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(g, b.shape))

    return _record(a.data + b.data, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(-g, b.shape))

    return _record(a.data - b.data, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    a_data, b_data = a.data, b.data

    def bwd(g):
        _accumulate(a, _reduce_to(g * b_data, a.shape))
        _accumulate(b, _reduce_to(g * a_data, b.shape))

    return _record(a_data * b_data, "mul", (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "div")
    a_data, b_data = a.data, b.data

    def bwd(g):
        _accumulate(a, _reduce_to(g / b_data, a.shape))
        _accumulate(b, _reduce_to(-g * a_data / (b_data * b_data), b.shape))

    return _record(a_data / b_data, "div", (a, b), bwd)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0
    if _kink_watches:
        _note_kink_margin(float(np.min(np.abs(t.data))))

    def bwd(g):
        _accumulate(t, g * mask)

    return _record(np.where(mask, t.data, 0.0), "relu", (t,), bwd)


def smooth_l1(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise smooth L1 distance: 0.5 d^2 for |d| < 1, else |d| - 0.5.

    The gradient w.r.t. ``a`` is d clamped to [-1, 1].
    """
    _binary_shapes(a, b, "smooth_l1")
    d = a.data - b.data
    absd = np.abs(d)
    if _kink_watches:
        _note_kink_margin(float(np.min(np.abs(absd - 1.0))))
    out = np.where(absd < 1.0, 0.5 * d * d, absd - 0.5)
    slope = np.clip(d, -1.0, 1.0)

    def bwd(g):
        _accumulate(a, _reduce_to(g * slope, a.shape))
        _accumulate(b, _reduce_to(-g * slope, b.shape))

    return _record(out, "smooth_l1", (a, b), bwd)


def sum_all(t: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(t, np.full(t.shape, float(g.reshape(()))))

    return _record(np.asarray(t.data.sum()), "sum", (t,), bwd)


def add_n(terms: Iterable[Tensor]) -> Tensor:
    """Sum a sequence of same-shape tensors (empty input is rejected)."""
    terms = list(terms)
    if not terms:
        raise ContractViolation("add_n needs at least one term")
    acc = terms[0]
    for term in terms[1:]:
        acc = add(acc, term)
    return acc


def logsumexp(t: Tensor) -> Tensor:
    """log(sum(exp(t))) over a 1-D tensor, computed with the max shifted out."""
    if t.data.ndim != 1:
        raise ContractViolation(f"logsumexp needs a 1-D tensor, got shape {t.shape}")
    m = float(t.data.max())
    shifted = np.exp(t.data - m)
    total = shifted.sum()
    out = m + math.log(total)
    softmax = shifted / total

    def bwd(g):
        _accumulate(t, float(g.reshape(())) * softmax)

    return _record(np.asarray(out), "logsumexp", (t,), bwd)


# -- structural ops --------------------------------------------------------

def reshape(t: Tensor, shape: Shape) -> Tensor:
    if int(np.prod(shape)) != t.size:
        raise ContractViolation(f"reshape: cannot view {t.shape} as {shape}")

    def bwd(g):
        _accumulate(t, g.reshape(t.shape))

    return _record(t.data.reshape(shape), "reshape", (t,), bwd)


def flatten(t: Tensor) -> Tensor:
    return reshape(t, (t.size,))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Flatten each part row-major and concatenate in caller order.

    The gradient is routed back to each part by its range in the output.
    """
    parts = list(parts)
    if not parts:
        raise ContractViolation("concat needs at least one part")
    flats = [p.data.reshape(-1) for p in parts]
    offsets = np.cumsum([0] + [f.size for f in flats])

    def bwd(g):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(part, g[start:stop].reshape(part.shape))

    return _record(np.concatenate(flats), "concat", parts, bwd)


def slice1d(t: Tensor, start: int, stop: int) -> Tensor:
    if t.data.ndim != 1:
        raise ContractViolation(f"slice1d needs a 1-D tensor, got shape {t.shape}")
    if not (0 <= start <= stop <= t.size):
        raise ContractViolation(f"slice1d: range [{start}, {stop}) out of bounds for length {t.size}")

    def bwd(g):
        buf = np.zeros_like(t.data)
        buf[start:stop] = g
        _accumulate(t, buf)

    return _record(t.data[start:stop].copy(), "slice1d", (t,), bwd)


def item_at(t: Tensor, flat_index: int) -> Tensor:
    """Differentiable scalar lookup at a row-major flat index."""
    if not (0 <= flat_index < t.size):
        raise ContractViolation(f"item_at: index {flat_index} out of bounds for size {t.size}")

    def bwd(g):
        buf = np.zeros_like(t.data)
        buf.reshape(-1)[flat_index] = float(g.reshape(()))
        _accumulate(t, buf)

    return _record(np.asarray(t.data.reshape(-1)[flat_index]), "item_at", (t,), bwd)


def channel_sum(t: Tensor) -> Tensor:
    """Sum a C x H x W tensor over channels into a 1 x H x W map."""
    if t.data.ndim != 3:
        raise ContractViolation(f"channel_sum needs a 3-D tensor, got shape {t.shape}")

    def bwd(g):
        _accumulate(t, np.broadcast_to(g, t.shape).copy())

    return _record(t.data.sum(axis=0, keepdims=True), "channel_sum", (t,), bwd)


# -- peak lookup and gathering ---------------------------------------------

def _first_peaks(flat: np.ndarray) -> np.ndarray:
    """Row-major index of each row's first maximum; notes the gap between
    each row's two largest values as a kink margin."""
    if _kink_watches and flat.shape[1] > 1:
        top_two = np.partition(flat, -2, axis=1)[:, -2:]
        _note_kink_margin(float(np.min(top_two[:, 1] - top_two[:, 0])))
    return np.argmax(flat, axis=1)


def argmax2d(map2d: Tensor | np.ndarray) -> tuple[int, int, float]:
    """Coordinates and value of the maximum of an H x W map.

    Ties break to the smallest row-major linear index.  Not differentiable;
    used to freeze gather indices for the forward pass.
    """
    data = map2d.data if isinstance(map2d, Tensor) else np.asarray(map2d)
    if data.ndim != 2 or data.size == 0:
        raise ContractViolation(f"argmax2d needs a non-empty 2-D map, got shape {data.shape}")
    row, col = divmod(int(_first_peaks(data.reshape(1, -1))[0]), data.shape[1])
    return row, col, float(data[row, col])


def _maps_as_rows(t: Tensor, op: str) -> np.ndarray:
    """View a non-empty K x H x W tensor as K rows of H*W values."""
    if t.data.ndim != 3 or t.size == 0:
        raise ContractViolation(f"{op} needs non-empty K x H x W maps, got shape {t.shape}")
    return t.data.reshape(t.shape[0], -1)


def map_peaks(maps: Tensor) -> Tensor:
    """Each K x H x W map's value at its first row-major maximum, as a K-vector.

    The argmax is frozen: peak k's gradient goes to that one position of map k.
    """
    flat = _maps_as_rows(maps, "map_peaks")
    rows = np.arange(flat.shape[0])
    peak_idx = _first_peaks(flat)

    def bwd(g):
        buf = np.zeros_like(maps.data)
        buf.reshape(flat.shape)[rows, peak_idx] = g
        _accumulate(maps, buf)

    return _record(flat[rows, peak_idx], "map_peaks", (maps,), bwd)


def truncated_max_squash(raw: Tensor, alpha: float, epsilon: float) -> Tensor:
    """Squash K x H x W maps into [0, 1) by each map's truncated maximum.

    Map k with peak value c_m (first row-major maximum) becomes
    ``relu((c + alpha) / (relu(c_m + alpha - 1) + 1 + epsilon))``.  The peak
    position gets gradient through both the numerator and the denominator.
    """
    flat = _maps_as_rows(raw, "truncated_max_squash")
    k = flat.shape[0]
    rows = np.arange(k)
    peak_idx = _first_peaks(flat)
    shifted = flat[rows, peak_idx] + (alpha - 1.0)
    truncated = shifted > 0.0
    denom = (np.where(truncated, shifted, 0.0) + (1.0 + epsilon)).reshape(k, 1, 1)
    num = raw.data + alpha
    squashed = num / denom
    positive = squashed > 0.0
    if _kink_watches:
        _note_kink_margin(float(np.min(np.abs(shifted))))
        _note_kink_margin(float(np.min(np.abs(squashed))))

    def bwd(g):
        g = g * positive
        grad = g / denom
        g_denom = -g * num / (denom * denom)
        # one np.sum per map: the rounding of a scalar denominator's gradient
        g_peak = np.array([np.sum(term) for term in g_denom]) * truncated
        grad.reshape(flat.shape)[rows, peak_idx] += g_peak
        _accumulate(raw, grad)

    return _record(np.where(positive, squashed, 0.0), "truncated_max_squash", (raw,), bwd)


def gather_at(t: Tensor, points: Sequence[tuple[int, int]]) -> Tensor:
    """Collect the channel fiber at each (row, col) point into a P x C tensor.

    Row k of the output is the C-vector at ``points[k]``; the gradient
    scatters back to exactly those positions, accumulating on duplicates.
    """
    if t.data.ndim != 3:
        raise ContractViolation(f"gather_at needs a C x H x W tensor, got shape {t.shape}")
    c, h, w = t.shape
    points = [(int(r), int(col)) for r, col in points]
    for k, (r, col) in enumerate(points):
        if not (0 <= r < h and 0 <= col < w):
            raise ContractViolation(f"gather_at: point {k} = ({r}, {col}) outside {h}x{w} grid")
    out = np.stack([t.data[:, r, col] for r, col in points]) if points else np.zeros((0, c))

    def bwd(g):
        buf = np.zeros_like(t.data)
        for k, (r, col) in enumerate(points):
            buf[:, r, col] += g[k]
        _accumulate(t, buf)

    return _record(out, "gather_at", (t,), bwd)


# -- layers -----------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map weight @ x + bias for a 1-D input of length D."""
    if x.data.ndim != 1:
        raise ContractViolation(f"linear needs a 1-D input, got shape {x.shape}")
    if weight.data.ndim != 2 or weight.shape[1] != x.size:
        raise ContractViolation(
            f"linear: weight {weight.shape} does not accept input of length {x.size}")
    if bias.shape != (weight.shape[0],):
        raise ContractViolation(f"linear: bias {bias.shape} vs {weight.shape[0]} outputs")
    x_data, w_data = x.data, weight.data

    def bwd(g):
        _accumulate(x, w_data.T @ g)
        _accumulate(weight, np.outer(g, x_data))
        _accumulate(bias, g)

    return _record(w_data @ x_data + bias.data, "linear", (x, weight, bias), bwd)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, groups: int = 1,
           dilation: int = 1, padding: int | None = None) -> Tensor:
    """Same-padded 2-D cross-correlation with group and dilation structure.

    ``x`` is C_in x H x W, ``weight`` is C_out x (C_in/groups) x k x k with k
    odd, ``bias`` is C_out.  ``padding`` defaults to dilation*(k-1)//2, the
    unique zero-padding that preserves the spatial size; any other value is
    rejected.
    """
    if x.data.ndim != 3:
        raise ContractViolation(f"conv2d: input must be C x H x W, got shape {x.shape}")
    if weight.data.ndim != 4:
        raise ContractViolation(f"conv2d: weight must be 4-D, got shape {weight.shape}")
    c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if kh != kw:
        raise ContractViolation(f"conv2d: kernel must be square, got {kh}x{kw}")
    k = kh
    if k % 2 != 1:
        raise ConfigError(f"conv2d: kernel size must be odd, got {k}")
    if groups < 1 or dilation < 1:
        raise ConfigError(f"conv2d: groups={groups}, dilation={dilation} must be positive")
    if c_in % groups != 0 or c_out % groups != 0:
        raise ConfigError(
            f"conv2d: groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_in_g != c_in // groups:
        raise ContractViolation(
            f"conv2d: weight axis 1 is {c_in_g}, expected C_in/groups = {c_in // groups}")
    if bias.shape != (c_out,):
        raise ContractViolation(f"conv2d: bias {bias.shape} vs C_out={c_out}")
    if padding is None:
        padding = dilation * (k - 1) // 2
    if 2 * padding != dilation * (k - 1):
        raise ConfigError(
            f"conv2d: padding={padding} does not preserve spatial size "
            f"(needs {dilation * (k - 1) // 2} for k={k}, dilation={dilation})")

    cig = c_in // groups
    cog = c_out // groups
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x.data

    out = np.empty((c_out, h, w))
    for g_idx in range(groups):
        xg = xp[g_idx * cig:(g_idx + 1) * cig]
        wg = weight.data[g_idx * cog:(g_idx + 1) * cog]
        acc = np.zeros((cog, h, w))
        for i in range(k):
            for j in range(k):
                patch = xg[:, i * dilation:i * dilation + h, j * dilation:j * dilation + w]
                acc += np.einsum("oc,chw->ohw", wg[:, :, i, j], patch)
        out[g_idx * cog:(g_idx + 1) * cog] = acc + bias.data[g_idx * cog:(g_idx + 1) * cog,
                                                             None, None]

    w_data = weight.data.copy()

    def bwd(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w_data)
        gb = np.zeros(c_out)
        for g_idx in range(groups):
            xg = xp[g_idx * cig:(g_idx + 1) * cig]
            wg = w_data[g_idx * cog:(g_idx + 1) * cog]
            go = g[g_idx * cog:(g_idx + 1) * cog]
            for i in range(k):
                for j in range(k):
                    rows = slice(i * dilation, i * dilation + h)
                    cols = slice(j * dilation, j * dilation + w)
                    patch = xg[:, rows, cols]
                    gw[g_idx * cog:(g_idx + 1) * cog, :, i, j] += np.einsum(
                        "ohw,chw->oc", go, patch)
                    gxp[g_idx * cig:(g_idx + 1) * cig, rows, cols] += np.einsum(
                        "oc,ohw->chw", wg[:, :, i, j], go)
            gb[g_idx * cog:(g_idx + 1) * cog] = go.sum(axis=(1, 2))
        _accumulate(x, gxp[:, padding:padding + h, padding:padding + w])
        _accumulate(weight, gw)
        _accumulate(bias, gb)

    return _record(out, "conv2d", (x, weight, bias), bwd)


def _pool_bins(extent: int, out_len: int) -> list[tuple[int, int]]:
    """Half-open bin ranges [floor(i*E/L), ceil((i+1)*E/L)) per output index."""
    return [(math.floor(i * extent / out_len), math.ceil((i + 1) * extent / out_len))
            for i in range(out_len)]


def adaptive_avg_pool(x: Tensor, out_len: int) -> Tensor:
    """Average-pool a C x H x W tensor down to C x L x L.

    Bin (i, j) averages rows [floor(i*H/L), ceil((i+1)*H/L)) and the
    analogous column range; adjacent bins may overlap when L does not
    divide the extent.
    """
    if x.data.ndim != 3:
        raise ContractViolation(f"adaptive_avg_pool: input must be C x H x W, got {x.shape}")
    c, h, w = x.shape
    if not (1 <= out_len <= h and out_len <= w):
        raise ConfigError(f"adaptive_avg_pool: out_len={out_len} outside [1, min({h}, {w})]")
    row_bins = _pool_bins(h, out_len)
    col_bins = _pool_bins(w, out_len)

    out = np.empty((c, out_len, out_len))
    for i, (r0, r1) in enumerate(row_bins):
        for j, (c0, c1) in enumerate(col_bins):
            out[:, i, j] = x.data[:, r0:r1, c0:c1].mean(axis=(1, 2))

    def bwd(g):
        gx = np.zeros_like(x.data)
        for i, (r0, r1) in enumerate(row_bins):
            for j, (c0, c1) in enumerate(col_bins):
                gx[:, r0:r1, c0:c1] += g[:, i, j, None, None] / ((r1 - r0) * (c1 - c0))
        _accumulate(x, gx)

    return _record(out, "adaptive_avg_pool", (x,), bwd)


# -- finite-difference oracle ------------------------------------------------

def finite_diff_grad(f: Callable[[Tensor], float | Tensor], x: Tensor,
                     step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of ``x``.

    ``f`` is re-evaluated at x +/- step*e_i per element; it must be
    deterministic and must not mutate its argument.
    """
    def evaluate() -> float:
        out = f(x)
        return out.item() if isinstance(out, Tensor) else float(out)

    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        f_plus = evaluate()
        flat[i] = original - step
        f_minus = evaluate()
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad
