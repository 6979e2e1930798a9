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

Every op adds its gradients when its closure runs.  ``linear`` maps a whole
N x D batch at once, so its weight gradient is one ``g.T @ x`` product per
call; ``conv2d`` runs one example at a time and adds one product per example.

``conv2d`` multiplies first and shifts after: one batched matmul takes every
kernel tap of every output channel at every input position, and a sum over
one strided view of a padded copy adds the k*k shifted C_out-channel planes.
Its backward reads the output gradient's taps through the same kind of view,
so nothing C_in*k*k*H*W wide is built.  A 1x1 kernel is the matmul alone.

Ops do not check their outputs for NaN or Inf: training checks its loss and
its updated weights once per step.  Under a ``FiniteWatch``, which training
enters only to replay a diverged batch's forward pass, every op checks its
output and raises NonFiniteError naming the first op that went non-finite.

Under ``NoGrad`` ops record no graph: outputs keep no parents and no backward
closure, so the saved intermediates are freed with the output.  Every forward
pass that is never differentiated runs under it: ``evaluate``, the heatmap
export, each evaluation inside ``finite_diff_grad``, gradcheck's kink and
shape probes and training's replay of a diverged batch.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

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
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim > 4:
            raise ContractViolation(f"tensors support up to 4 axes, got {arr.ndim}")
        self.data = arr
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

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__


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


class FiniteWatch:
    """Context manager under which every op checks its output and raises
    NonFiniteError naming the first op whose output holds NaN or Inf.

    Outside a watch no op scans its output; ``train`` replays a batch under
    one only when that batch's loss came out non-finite.
    """

    def __enter__(self) -> "FiniteWatch":
        _finite_watches.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _finite_watches.remove(self)


_finite_watches: list[FiniteWatch] = []


class NoGrad:
    """Context manager under which ops record no graph: every output has
    ``requires_grad = False``, no parents and no backward closure.  It nests,
    and ``backward`` rejects a loss recorded under it."""

    def __enter__(self) -> "NoGrad":
        _no_grad.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _no_grad.remove(self)


_no_grad: list[NoGrad] = []


def _record(data: np.ndarray, op: str, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    """Wrap an op result, noting the graph node unless under ``NoGrad``.
    The output is checked for NaN and Inf only under a ``FiniteWatch``."""
    if _finite_watches and not np.isfinite(data).all():
        raise NonFiniteError(f"operation {op!r} produced non-finite values")
    out = Tensor(data)
    out.op = op
    if _no_grad:
        return out
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` to ``t.grad``.  ``fresh`` marks ``g`` as a new array of
    ``t``'s shape that nothing else holds: it becomes ``t.grad`` as is when
    ``t`` has none yet, sparing a zero-filled buffer."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if fresh:
            t.grad = g
            return
        t.grad = np.zeros_like(t.data)
    t.grad += g


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor reachable from ``loss``.

    Gradients accumulate into existing buffers (callers zero parameters
    between steps).  Raises GraphStateError on a second backward over the
    same recording, when ``loss`` is not the output of a recorded op, or
    when it depends on no tensor that requires a gradient (it was built from
    constants only, or under ``NoGrad``).
    """
    if loss.data.size != 1:
        raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.op == "leaf":
        raise GraphStateError("loss was not produced by a recorded forward pass")
    if not loss.requires_grad:
        raise GraphStateError(
            "loss depends on no tensor that requires a gradient; nothing to differentiate")
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
        _accumulate(a, _reduce_to(g * b_data, a.shape), fresh=True)
        _accumulate(b, _reduce_to(g * a_data, b.shape), fresh=True)

    return _record(a_data * b_data, "mul", (a, b), bwd)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0
    if _kink_watches:
        _note_kink_margin(float(np.min(np.abs(t.data))))

    def bwd(g):
        _accumulate(t, g * mask, fresh=True)

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
        _accumulate(a, _reduce_to(g * slope, a.shape), fresh=True)
        _accumulate(b, _reduce_to(-g * slope, b.shape), fresh=True)

    return _record(out, "smooth_l1", (a, b), bwd)


def sum_all(t: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(t, np.full(t.shape, float(g.reshape(()))), fresh=True)

    return _record(np.asarray(t.data.sum()), "sum", (t,), bwd)


def logsumexp(t: Tensor) -> Tensor:
    """log(sum(exp(t))) over the last axis of a 1-D or N x C tensor (a scalar
    or an N-vector), computed with each row's max shifted out."""
    if t.data.ndim not in (1, 2):
        raise ContractViolation(f"logsumexp needs a 1-D or 2-D tensor, got shape {t.shape}")
    m = t.data.max(axis=-1, keepdims=True)
    shifted = np.exp(t.data - m)
    total = shifted.sum(axis=-1, keepdims=True)
    softmax = shifted / total

    def bwd(g):
        _accumulate(t, g.reshape(m.shape) * softmax, fresh=True)

    return _record((m + np.log(total))[..., 0], "logsumexp", (t,), bwd)


# -- structural ops --------------------------------------------------------

def reshape(t: Tensor, shape: Shape) -> Tensor:
    if math.prod(shape) != t.size:
        raise ContractViolation(f"reshape: cannot view {t.shape} as {shape}")

    def bwd(g):
        _accumulate(t, g.reshape(t.shape))

    return _record(t.data.reshape(shape), "reshape", (t,), bwd)


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


def channel_sum(t: Tensor) -> Tensor:
    """Sum a C x H x W tensor over channels into a 1 x H x W map."""
    if t.data.ndim != 3:
        raise ContractViolation(f"channel_sum needs a 3-D tensor, got shape {t.shape}")

    def bwd(g):
        _accumulate(t, np.broadcast_to(g, t.shape).copy(), fresh=True)

    return _record(t.data.sum(axis=0, keepdims=True), "channel_sum", (t,), bwd)


# -- peak lookup and gathering ---------------------------------------------

def _first_peaks(flat: np.ndarray) -> np.ndarray:
    """Row-major index of each row's first maximum; notes the gap between
    each row's two largest values as a kink margin."""
    if _kink_watches and flat.shape[1] > 1:
        top_two = np.partition(flat, -2, axis=1)[:, -2:]
        _note_kink_margin(float(np.min(top_two[:, 1] - top_two[:, 0])))
    return np.argmax(flat, axis=1)


def _maps_as_rows(t: Tensor, op: str) -> np.ndarray:
    """View a non-empty K x H x W tensor as K rows of H*W values."""
    if t.data.ndim != 3 or t.size == 0:
        raise ContractViolation(f"{op} needs non-empty K x H x W maps, got shape {t.shape}")
    return t.data.reshape(t.shape[0], -1)


def map_peaks(map_sets: Sequence[Tensor]) -> Tensor:
    """Each map's value at its first row-major maximum, for every map of every
    K x H x W set in order, as one vector.

    The argmax is frozen: a peak's gradient goes to that one position of its map.
    """
    map_sets = list(map_sets)
    if not map_sets:
        raise ContractViolation("map_peaks needs at least one map set")
    flats = [_maps_as_rows(maps, "map_peaks") for maps in map_sets]
    picks = [(np.arange(flat.shape[0]), _first_peaks(flat)) for flat in flats]

    def bwd(g):
        start = 0
        for maps, flat, pick in zip(map_sets, flats, picks):
            buf = np.zeros_like(maps.data)
            buf.reshape(flat.shape)[pick] = g[start:start + flat.shape[0]]
            _accumulate(maps, buf, fresh=True)
            start += flat.shape[0]

    return _record(np.concatenate([flat[pick] for flat, pick in zip(flats, picks)]),
                   "map_peaks", map_sets, bwd)


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
        _accumulate(raw, grad, fresh=True)

    return _record(np.where(positive, squashed, 0.0), "truncated_max_squash", (raw,), bwd)


def gather_at(t: Tensor, points: Sequence[tuple[int, int]]) -> Tensor:
    """Collect the channel fiber at each (row, col) point into a P x C tensor.

    Row k of the output is the C-vector at ``points[k]``; the gradient
    scatters back to exactly those positions, accumulating on duplicates.
    """
    if t.data.ndim != 3:
        raise ContractViolation(f"gather_at needs a C x H x W tensor, got shape {t.shape}")
    _, h, w = t.shape
    try:
        rows, cols = np.array(points, dtype=np.intp).reshape(len(points), 2).T
    except OverflowError:
        raise ContractViolation(f"gather_at: a point lies outside the {h}x{w} grid") from None
    outside = np.flatnonzero((rows < 0) | (rows >= h) | (cols < 0) | (cols >= w))
    if outside.size:
        k = int(outside[0])
        raise ContractViolation(
            f"gather_at: point {k} = ({rows[k]}, {cols[k]}) outside {h}x{w} grid")

    def bwd(g):
        buf = np.zeros_like(t.data)
        np.add.at(buf, (slice(None), rows, cols), g.T)
        _accumulate(t, buf, fresh=True)

    return _record(t.data[:, rows, cols].T, "gather_at", (t,), bwd)


# -- layers -----------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight.T + bias of a length-D vector or of each row of
    an N x D batch; the output is O or N x O for an O x D weight."""
    if x.data.ndim not in (1, 2):
        raise ContractViolation(f"linear needs a D or N x D input, got shape {x.shape}")
    d = x.shape[-1]
    if weight.data.ndim != 2 or weight.shape[1] != d:
        raise ContractViolation(
            f"linear: weight {weight.shape} does not accept input of length {d}")
    if bias.shape != (weight.shape[0],):
        raise ContractViolation(f"linear: bias {bias.shape} vs {weight.shape[0]} outputs")
    x_data, w_data = x.data, weight.data

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g @ w_data, fresh=True)
        g_rows = g.reshape(-1, w_data.shape[0])
        _accumulate(weight, g_rows.T @ x_data.reshape(-1, d), fresh=True)
        _accumulate(bias, g_rows.sum(axis=0), fresh=True)

    return _record(x_data @ w_data.T + bias.data, "linear", (x, weight, bias), bwd)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, groups: int = 1,
           dilation: int = 1, padding: int | None = None) -> Tensor:
    """Same-padded 2-D cross-correlation with group and dilation structure.

    ``x`` is C_in x H x W, ``weight`` is C_out x (C_in/groups) x k x k with k
    odd, ``bias`` is C_out.  ``padding`` defaults to dilation*(k-1)//2, the
    unique zero-padding that preserves the spatial size; any other value is
    rejected.

    Each group's (C_out/groups * k*k) x (C_in/groups) kernel taps multiply
    the grid viewed as (C_in/groups) x (H*W); output (r, c) then sums tap
    (i, j) at input position (r + d*i - p, c + d*j - p).  The backward pass
    multiplies the output gradient's flipped taps by the grid (weight
    gradient) and by the transposed taps (input gradient).
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

    cog, cig, taps = c_out // groups, c_in // groups, k * k
    x_mat = x.data.reshape(groups, cig, h * w)
    w_taps = (weight.data.reshape(groups, cog, cig, taps).transpose(0, 1, 3, 2)
              .reshape(groups, cog * taps, cig))
    y = w_taps @ x_mat  # every tap of every output channel, at every input position
    if k == 1:
        out = y.reshape(c_out, h, w)
    else:  # col2im: output (r, c) sums tap (i, j) of y at (r + d*i, c + d*j) of a padded y
        planes = np.zeros((c_out, k, k, h + 2 * padding, w + 2 * padding))
        planes[..., padding:padding + h, padding:padding + w] = y.reshape(c_out, k, k, h, w)
        s_o, s_i, s_j, s_r, s_c = planes.strides
        out = np.ndarray((c_out, k, k, h, w), np.float64, planes, 0, (
            s_o, s_i + dilation * s_r, s_j + dilation * s_c, s_r, s_c)).sum(axis=(1, 2))
    out += bias.data[:, None, None]

    def bwd(g):
        if k == 1:
            g_y = g.reshape(groups, cog, h * w)
        else:  # im2col of g, taps flipped: tap (i, j) of y at (r, c) fed (r+p-d*i, c+p-d*j)
            g_pad = np.zeros((c_out, h + 2 * padding, w + 2 * padding))
            g_pad[:, padding:padding + h, padding:padding + w] = g
            s_o, s_r, s_c = g_pad.strides
            g_taps = np.ndarray((c_out, k, k, h, w), np.float64, g_pad, 0, (
                s_o, dilation * s_r, dilation * s_c, s_r, s_c))
            g_y = g_taps[:, ::-1, ::-1].reshape(groups, cog * taps, h * w)
        g_w = (g_y @ x_mat.transpose(0, 2, 1)).reshape(groups, cog, taps, cig)
        _accumulate(weight, np.ascontiguousarray(g_w.transpose(0, 1, 3, 2))
                    .reshape(weight.shape), fresh=True)
        _accumulate(bias, g.sum(axis=(1, 2)), fresh=True)
        if x.requires_grad:
            _accumulate(x, (w_taps.transpose(0, 2, 1) @ g_y).reshape(c_in, h, w), fresh=True)

    return _record(out, "conv2d", (x, weight, bias), bwd)


def _pool_matrix(extent: int, out_len: int) -> np.ndarray:
    """L x E matrix whose row i averages [floor(i*E/L), ceil((i+1)*E/L))."""
    bins = np.arange(out_len + 1) * extent
    start, stop = bins[:-1] // out_len, -(-bins[1:] // out_len)
    pos = np.arange(extent)
    inside = (pos >= start[:, None]) & (pos < stop[:, None])
    return inside / (stop - start)[:, None]


@functools.cache
def _pool_kernel(h: int, w: int, out_len: int) -> np.ndarray:
    """Read-only (L*L) x (H*W) matrix that pools a row-major H x W grid: the
    Kronecker product of the row and column averaging matrices."""
    kernel = np.kron(_pool_matrix(h, out_len), _pool_matrix(w, out_len))
    kernel.flags.writeable = False
    return kernel


def adaptive_avg_pool(x: Tensor, out_len: int) -> Tensor:
    """Average-pool a C x H x W tensor down to C x L x L.

    Bin (i, j) averages rows [floor(i*H/L), ceil((i+1)*H/L)) and the
    analogous column range; adjacent bins may overlap when L does not
    divide the extent.  The pooling is one matmul of the C x (H*W) grid
    against an averaging matrix built once per (H, W, L).
    """
    if x.data.ndim != 3:
        raise ContractViolation(f"adaptive_avg_pool: input must be C x H x W, got {x.shape}")
    c, h, w = x.shape
    if not (1 <= out_len <= h and out_len <= w):
        raise ConfigError(f"adaptive_avg_pool: out_len={out_len} outside [1, min({h}, {w})]")
    kernel = _pool_kernel(h, w, out_len)

    def bwd(g):
        _accumulate(x, (g.reshape(c, -1) @ kernel).reshape(x.shape), fresh=True)

    return _record((x.data.reshape(c, h * w) @ kernel.T).reshape(c, out_len, out_len),
                   "adaptive_avg_pool", (x,), bwd)


# -- finite-difference oracle ------------------------------------------------

def finite_diff_grad(f: Callable[[Tensor], float | Tensor], x: Tensor,
                     step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of ``x``.

    ``f`` is re-evaluated at x +/- step*e_i per element, under ``NoGrad``; it
    must be deterministic and must not mutate its argument.  ``x`` is restored
    even when ``f`` raises.
    """
    def evaluate() -> float:
        out = f(x)
        return out.item() if isinstance(out, Tensor) else float(out)

    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    with NoGrad():
        for i in range(flat.size):
            original = flat[i]
            try:
                flat[i] = original + step
                f_plus = evaluate()
                flat[i] = original - step
                f_minus = evaluate()
            finally:
                flat[i] = original
            grad_flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad
