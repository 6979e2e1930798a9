"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the condensed detection head needs:
convolution (grouped, dilated, same-padded), adaptive average pooling,
affine maps, relu/add/concat/stack/pick plumbing, the truncated-max squash,
peak lookup and feature gathering, plus the scalar arithmetic the training
objectives are built from.

The recorded graph lives in the output tensors themselves: every operation
stores its tag, its input references and a backward closure over the saved
intermediates.  ``backward(loss)`` replays the recording reverse-
topologically, visiting each node exactly once; a second backward over the
same recording is rejected.

Every op adds its gradients when its closure runs.  ``linear`` maps a whole
N x D batch at once, so its weight gradient is one ``g.T @ x`` product per
call.  A process that may run on more than one CPU keeps one worker thread
(``_worker``), made the first time some work is large enough to split:
``linear`` splits each of its three products whose weight has at least
``_LINEAR_SPLIT_MIN`` values, the worker's thread computing one half of the
output's longer axis and the calling thread the other, into one array.
The reduction axis is never split; the halves match the whole product's
bytes at the FPN-VOC head shapes, but not at every shape (see ``linear``).
Every op but ``conv2d`` takes one form, a batch led by its example axis N:
the grid and map ops (``adaptive_avg_pool``, ``gather_at``,
``truncated_max_squash``, ``map_peaks``, ``channel_sum``) take N x C x H x W,
``linear`` and ``logsumexp`` take N x D rows, and ``concat`` joins parts that
share their leading axis N, row by row.  ``conv2d`` takes N x C x H x W and
also one C x H x W grid, the N = 1 case with the example axis dropped; a
batched ``conv2d`` sums its examples' weight-gradient products.  ``stack``
joins N tensors into a batch and ``pick`` reads one example back out of it,
as a view.

``conv2d`` multiplies first and shifts after: one batched matmul takes every
kernel tap of every output channel at every input position, and a sum over
one strided view of a padded copy adds the k*k shifted C_out-channel planes.
Its backward reads the output gradient's taps through the same kind of view,
so nothing C_in*k*k*H*W wide is built.  A 1x1 kernel is the matmul alone.

Ops do not check their outputs for NaN or Inf: training checks its loss and
its updated weights once per step, and names a diverged batch's op by walking
the graph its loss recorded (``_first_non_finite_op``).

Under ``NoGrad`` ops record no graph: outputs keep no parents and no backward
closure, so the saved intermediates are freed with the output.  Every forward
pass that is never differentiated runs under it: ``evaluate``, the heatmap
export, each evaluation inside ``finite_diff_grad`` and gradcheck's kink and
shape probes.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, GraphStateError

Shape = tuple[int, ...]


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Layout is row-major; a batch of feature maps is N x channels x height x
    width.
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


def _worker():
    """The process's one worker thread, as a one-thread executor, or None
    while ``os.sched_getaffinity`` lets the process run on one CPU only.

    It is made, and ``concurrent.futures`` imported, the first time some
    work large enough to split asks for it, so a process that runs only
    small models never loads the module (the import alone raised toy-size
    peak RSS by ~0.6 MB); every later call returns the same executor.  Its
    thread, ``kphead-worker_0``, sleeps between hand-offs and is joined at
    interpreter exit.  Whoever hands it work waits for it before returning
    or raising, so it is idle between ops.  A forked child starts with an
    empty slot: the parent's thread does not exist there."""
    global _pool
    if _pool is None and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        with _pool_lock:
            if _pool is None:
                from concurrent.futures import ThreadPoolExecutor

                _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kphead-worker")
    return _pool


def _forget_worker() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_pool = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _record(data: np.ndarray, op: str, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    """Wrap an op result, noting the graph node unless under ``NoGrad``."""
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


def _first_non_finite_op(root: Tensor) -> str | None:
    """The tag of the first op in ``root``'s recorded graph, in post-order,
    whose output holds NaN or Inf, or None.  Every input of a node comes
    before it, so the named op read no non-finite output of another op: the
    bad value started there, or in a leaf that it read."""
    for node in _topological_order(root):
        if node.op != "leaf" and not np.isfinite(node.data).all():
            return node.op
    return None


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
    """log(sum(exp(row))) for each row of an N x C tensor, an N-vector,
    computed with each row's max shifted out."""
    if t.data.ndim != 2:
        raise ContractViolation(f"logsumexp needs N x C rows, got shape {t.shape}")
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
    """Join parts in caller order, row by row.

    Every part is N x ..., read row-major as N rows, and row i of the N x D
    result is row i of every part, joined.  The gradient is routed back to
    each part by its columns in the output.
    """
    parts = list(parts)
    lead = parts[0].shape[:1] if parts else ()
    if not lead or any(p.shape[:1] != lead for p in parts):
        raise ContractViolation(f"concat needs N x ... parts that share their leading "
                                f"axis N, got shapes {[p.shape for p in parts]}")
    n = lead[0]
    flats = [p.data.reshape(n, -1) for p in parts]
    offsets = list(itertools.accumulate((f.shape[1] for f in flats), initial=0))

    def bwd(g):
        for part, start, stop in zip(parts, offsets, offsets[1:]):
            _accumulate(part, g[:, start:stop].reshape(part.shape))

    return _record(np.concatenate(flats, axis=1), "concat", parts, bwd)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Join N tensors of one shape along a new leading example axis; example
    i's gradient goes back to part i."""
    parts = list(parts)
    if not parts or any(p.shape != parts[0].shape for p in parts):
        raise ContractViolation(
            f"stack needs tensors of one shape, got {[p.shape for p in parts]}")

    def bwd(g):
        for part, g_part in zip(parts, g):
            _accumulate(part, g_part)

    return _record(np.array([p.data for p in parts]), "stack", parts, bwd)


def pick(batch: Tensor, i: int) -> Tensor:
    """Example ``i`` of an N x ... batch, as a view of the batch's data.  Its
    gradient is added into slot i of the batch's one gradient buffer, so the
    gradients of repeated picks accumulate."""
    if batch.data.ndim < 2 or not 0 <= i < batch.shape[0]:
        raise ContractViolation(f"pick: no example {i} in a batch of shape {batch.shape}")

    def bwd(g):
        if batch.grad is None:
            batch.grad = np.zeros_like(batch.data)
        batch.grad[i] += g

    return _record(batch.data[i], "pick", (batch,), bwd)


def channel_sum(t: Tensor) -> Tensor:
    """Sum each example of an N x C x H x W tensor over its channels into
    N x 1 x H x W."""
    if t.data.ndim != 4:
        raise ContractViolation(f"channel_sum needs an N x C x H x W tensor, got shape {t.shape}")

    def bwd(g):
        _accumulate(t, np.broadcast_to(g, t.shape).copy(), fresh=True)

    return _record(t.data.sum(axis=-3, keepdims=True), "channel_sum", (t,), bwd)


# -- peak lookup and gathering ---------------------------------------------

def _first_peaks(flat: np.ndarray) -> np.ndarray:
    """Row-major index of each row's first maximum; notes the gap between
    each row's two largest values as a kink margin."""
    if _kink_watches and flat.shape[1] > 1:
        top_two = np.partition(flat, -2, axis=1)[:, -2:]
        _note_kink_margin(float(np.min(top_two[:, 1] - top_two[:, 0])))
    return np.argmax(flat, axis=1)


def _maps_as_rows(t: Tensor, op: str) -> np.ndarray:
    """View non-empty N x K x H x W maps as N*K rows of H*W values."""
    if t.data.ndim != 4 or t.size == 0:
        raise ContractViolation(f"{op} needs non-empty N x K x H x W maps, got shape {t.shape}")
    return t.data.reshape(-1, t.shape[-2] * t.shape[-1])


def map_peaks(maps: Tensor) -> Tensor:
    """Each map's value at its first row-major maximum, N x K for N x K x H x W
    maps.

    The argmax is frozen: a peak's gradient goes to that one position of its map.
    """
    flat = _maps_as_rows(maps, "map_peaks")
    pick = (np.arange(flat.shape[0]), _first_peaks(flat))

    def bwd(g):
        buf = np.zeros_like(maps.data)
        buf.reshape(flat.shape)[pick] = g.reshape(-1)
        _accumulate(maps, buf, fresh=True)

    return _record(flat[pick].reshape(maps.shape[:-2]), "map_peaks", (maps,), bwd)


def truncated_max_squash(raw: Tensor, alpha: float, epsilon: float) -> Tensor:
    """Squash N x K x H x W maps into [0, 1) by each map's truncated maximum.

    Map k with peak value c_m (first row-major maximum) becomes
    ``relu((c + alpha) / (relu(c_m + alpha - 1) + 1 + epsilon))``.  The peak
    position gets gradient through both the numerator and the denominator.
    """
    flat = _maps_as_rows(raw, "truncated_max_squash")
    rows = np.arange(flat.shape[0])
    peak_idx = _first_peaks(flat)
    shifted = flat[rows, peak_idx] + (alpha - 1.0)
    truncated = shifted > 0.0
    denom = (np.where(truncated, shifted, 0.0) + (1.0 + epsilon)).reshape(
        raw.shape[:-2] + (1, 1))
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
        # one pairwise sum along each map's row: np.sum's rounding per map
        g_peak = g_denom.reshape(flat.shape).sum(axis=1) * truncated
        grad.reshape(flat.shape)[rows, peak_idx] += g_peak
        _accumulate(raw, grad, fresh=True)

    return _record(np.where(positive, squashed, 0.0), "truncated_max_squash", (raw,), bwd)


def gather_at(t: Tensor, points: np.ndarray) -> Tensor:
    """Collect the channel fiber at each (row, col) point of each example.

    ``t`` is N x C x H x W and ``points`` a signed integer N x P x 2 array
    of (row, col) pairs; the output is N x P x C, row (i, p) being example i's
    C-vector at ``points[i, p]``.  The gradient scatters back to exactly
    those positions, accumulating on duplicates.
    """
    shape = t.data.shape
    if len(shape) != 4:
        raise ContractViolation(f"gather_at needs an N x C x H x W tensor, got shape {shape}")
    n, h, w = shape[0], shape[2], shape[3]
    if not (isinstance(points, np.ndarray) and points.dtype.kind == "i"
            and points.ndim == 3 and points.shape[0] == n and points.shape[2] == 2):
        raise ContractViolation(
            f"gather_at: points must be a signed integer N x P x 2 array of (row, col) pairs "
            f"for a {shape} tensor")
    rows, cols = points.transpose(2, 0, 1)
    examples = np.arange(n)[:, None]
    try:  # an index past the grid raises; a negative one would wrap around
        if points.size and points.min() < 0:
            raise IndexError
        # the advanced indices around the channel slice put the N x P axes first
        fibers = t.data[examples, :, rows, cols]
    except IndexError:
        i, p = np.argwhere((rows < 0) | (rows >= h) | (cols < 0) | (cols >= w))[0]
        raise ContractViolation(
            f"gather_at: point {p} = ({rows[i, p]}, {cols[i, p]}) outside {h}x{w} grid") from None

    def bwd(g):
        buf = np.zeros_like(t.data)
        np.add.at(buf, (examples, slice(None), rows, cols), g)
        _accumulate(t, buf, fresh=True)

    return _record(fibers, "gather_at", (t,), bwd)


# -- layers -----------------------------------------------------------------

# Weight values from which ``linear`` splits its products.  Below it the
# hand-off to the worker thread costs more than the second CPU saves.  Per
# product on the 2-CPU Xeon this was sized on, BLAS on 1 thread: a 128 x 1024
# weight was level at N = 16 (x @ W.T 0.101 vs 0.077 ms, g.T @ x 0.068 vs
# 0.071) and slower split at N = 4 (0.017 vs 0.045 ms); at 256 x 1024 every
# product at both N was faster split (x @ W.T 0.134 -> 0.051 ms at N = 4),
# and a 1024 x 1024 one 0.78 -> 0.46 ms at N = 16.  At the FPN-VOC setting
# fc, fc1 and fc2 split, cls and reg do not; at the toy setting the
# baseline's fc1 (256 x 3136) splits and nothing else does.
_LINEAR_SPLIT_MIN = 1 << 18


def _split_matmul(a: np.ndarray, b: np.ndarray, pool) -> np.ndarray:
    """``a @ b`` for 2-D ``a`` and ``b``, with the output's longer axis cut in
    two: ``pool``'s thread computes the second half into the output while
    the calling thread computes the first.  The reduction axis is never cut,
    so each output element is still one BLAS dot product."""
    rows, cols = a.shape[0], b.shape[1]
    out = np.empty((rows, cols))
    if cols >= rows:
        h = cols // 2
        first, second = (a, b[:, :h], out[:, :h]), (a, b[:, h:], out[:, h:])
    else:
        h = rows // 2
        first, second = (a[:h], b, out[:h]), (a[h:], b, out[h:])
    later = pool.submit(np.matmul, *second)
    try:
        np.matmul(*first)
    finally:
        later.result()
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight.T + bias of each row of an N x D batch; the
    output is N x O for an O x D weight.

    An N x D batch against a weight of at least ``_LINEAR_SPLIT_MIN`` values,
    on a process with a worker thread (``_worker``), computes each of its
    three products (``x @ W.T``, ``g.T @ x``, ``g @ W``) into one new array,
    half on the worker's thread and half on the calling thread
    (``_split_matmul``); the size is tested first, so smaller layers never
    ask for the worker.  The halves may round differently from the whole
    product, because BLAS blocks a narrower matrix differently.  With
    OpenBLAS 0.3.31 the bytes were the same for every product of fc1
    (1024 x 12544), fc (1024 x 6480) and fc2 (1024 x 1024) at N = 1..16.
    Over odd shapes (N in {1, 3, 16}, D and O from 5 to 4097) 48 of 225
    products differed, by up to 2.7e-15 of the largest output magnitude
    (16 x 4097 @ 4097 x 1023).  On one usable CPU the products are plain
    ``@``.
    """
    if x.data.ndim != 2:
        raise ContractViolation(f"linear needs an N x D input, got shape {x.shape}")
    d = x.shape[1]
    if weight.data.ndim != 2 or weight.shape[1] != d:
        raise ContractViolation(
            f"linear: weight {weight.shape} does not accept input of length {d}")
    if bias.shape != (weight.shape[0],):
        raise ContractViolation(f"linear: bias {bias.shape} vs {weight.shape[0]} outputs")
    x_data, w_data = x.data, weight.data
    split = w_data.size >= _LINEAR_SPLIT_MIN

    def bwd(g):
        pool = _worker() if split else None
        if x.requires_grad:
            _accumulate(x, g @ w_data if pool is None else _split_matmul(g, w_data, pool),
                        fresh=True)
        _accumulate(weight, g.T @ x_data if pool is None
                    else _split_matmul(g.T, x_data, pool), fresh=True)
        _accumulate(bias, g.sum(axis=0), fresh=True)

    pool = _worker() if split else None
    out = x_data @ w_data.T if pool is None else _split_matmul(x_data, w_data.T, pool)
    return _record(out + bias.data, "linear", (x, weight, bias), bwd)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, groups: int = 1,
           dilation: int = 1, padding: int | None = None) -> Tensor:
    """Same-padded 2-D cross-correlation with group and dilation structure.

    ``x`` is C_in x H x W, or N x C_in x H x W for N examples at once;
    ``weight`` is C_out x (C_in/groups) x k x k with k odd, ``bias`` is
    C_out.  ``padding`` defaults to dilation*(k-1)//2, the unique
    zero-padding that preserves the spatial size; any other value is
    rejected.

    Each group's (C_out/groups * k*k) x (C_in/groups) kernel taps multiply
    each example's grid viewed as (C_in/groups) x (H*W); output (r, c) then
    sums tap (i, j) at input position (r + d*i - p, c + d*j - p).  The
    backward pass multiplies the output gradient's flipped taps by the grid
    (weight gradient, summed over the examples) and by the transposed taps
    (input gradient).
    """
    x_shape, w_shape = x.data.shape, weight.data.shape
    if len(x_shape) == 3:  # lead is (N,) for a batch, () for one example
        lead = ()
        c_in, h, w = x_shape
    elif len(x_shape) == 4:
        lead = x_shape[:1]
        c_in, h, w = x_shape[1:]
    else:
        raise ContractViolation(
            f"conv2d: input must be C x H x W or N x C x H x W, got shape {x_shape}")
    if len(w_shape) != 4:
        raise ContractViolation(f"conv2d: weight must be 4-D, got shape {w_shape}")
    c_out, c_in_g, kh, kw = w_shape
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
    if bias.data.shape != (c_out,):
        raise ContractViolation(f"conv2d: bias {bias.data.shape} vs C_out={c_out}")
    if padding is None:
        padding = dilation * (k - 1) // 2
    if 2 * padding != dilation * (k - 1):
        raise ConfigError(
            f"conv2d: padding={padding} does not preserve spatial size "
            f"(needs {dilation * (k - 1) // 2} for k={k}, dilation={dilation})")

    cog, cig, taps = c_out // groups, c_in // groups, k * k
    x_mat = x.data.reshape(lead + (groups, cig, h * w))
    if k == 1:  # the one tap is the weight matrix as it is
        w_taps = weight.data.reshape(groups, cog, cig)
        out = (w_taps @ x_mat).reshape(lead + (c_out, h, w))
    else:  # col2im: output (r, c) sums tap (i, j) of y at (r + d*i, c + d*j) of a padded y
        w_taps = (weight.data.reshape(groups, cog, cig, taps).transpose(0, 1, 3, 2)
                  .reshape(groups, cog * taps, cig))
        y = w_taps @ x_mat  # every tap of every output channel, at every input position
        tap_shape = lead + (c_out, k, k, h, w)
        planes = np.zeros(lead + (c_out, k, k, h + 2 * padding, w + 2 * padding))
        planes[..., padding:padding + h, padding:padding + w] = y.reshape(tap_shape)
        st = planes.strides
        s_i, s_j, s_r, s_c = st[-4:]
        out = np.ndarray(tap_shape, np.float64, planes, 0, st[:-4] + (
            s_i + dilation * s_r, s_j + dilation * s_c, s_r, s_c)).sum(axis=(-4, -3))
    out += bias.data[:, None, None]

    def bwd(g):
        if k == 1:
            g_y = g.reshape(lead + (groups, cog, h * w))
        else:  # im2col of g, taps flipped: tap (i, j) of y at (r, c) fed (r+p-d*i, c+p-d*j),
            # read through negative tap strides from the last tap's offset
            g_pad = np.zeros(lead + (c_out, h + 2 * padding, w + 2 * padding))
            g_pad[..., padding:padding + h, padding:padding + w] = g
            st = g_pad.strides
            s_r, s_c = st[-2:]
            g_taps = np.ndarray(lead + (c_out, k, k, h, w), np.float64, g_pad,
                                2 * padding * (s_r + s_c),
                                st[:-2] + (-dilation * s_r, -dilation * s_c, s_r, s_c))
            g_y = g_taps.reshape(lead + (groups, cog * taps, h * w))
        g_w = g_y @ x_mat.swapaxes(-1, -2)
        g_b = g.sum(axis=(-2, -1))
        if lead:  # one product per example: sum the examples'
            g_w, g_b = g_w.sum(axis=0), g_b.sum(axis=0)
        _accumulate(weight, np.ascontiguousarray(
            g_w.reshape(groups, cog, taps, cig).transpose(0, 1, 3, 2)).reshape(w_shape),
            fresh=True)
        _accumulate(bias, g_b, fresh=True)
        if x.requires_grad:
            _accumulate(x, (w_taps.transpose(0, 2, 1) @ g_y).reshape(x_shape), fresh=True)

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
    """Average-pool each example of an N x C x H x W tensor down to
    N x C x L x L.

    Bin (i, j) averages rows [floor(i*H/L), ceil((i+1)*H/L)) and the
    analogous column range; adjacent bins may overlap when L does not
    divide the extent.  The pooling is one matmul of the N*C x (H*W) grid
    against an averaging matrix built once per (H, W, L).
    """
    if x.data.ndim != 4:
        raise ContractViolation(
            f"adaptive_avg_pool: input must be N x C x H x W, got {x.shape}")
    h, w = x.shape[-2:]
    if not (1 <= out_len <= h and out_len <= w):
        raise ConfigError(f"adaptive_avg_pool: out_len={out_len} outside [1, min({h}, {w})]")
    kernel = _pool_kernel(h, w, out_len)

    def bwd(g):
        _accumulate(x, (g.reshape(-1, out_len * out_len) @ kernel).reshape(x.shape),
                    fresh=True)

    return _record((x.data.reshape(-1, h * w) @ kernel.T)
                   .reshape(x.shape[:-2] + (out_len, out_len)),
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
