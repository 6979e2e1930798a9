"""Minibatch SGD training of the baseline and condensed heads on the toy task,
plus flat-file parameter serialization (f32 payload + plain-text manifest).

Training takes no thread of its own.  On a process that may run on more
than one CPU, large ``linear`` products and large momentum steps share the
process's one worker thread (``tensor._worker``) with the calling thread:
each decides on its own size whether to split, and waits for the worker
before it returns or raises."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import losses, tensor
from .dataset import ToyExample, check_examples
from .discovery import DiscoveryConfig, DiscoveryParams, init_discovery_params, named_tensors
from .errors import ConfigError, ContractViolation, TrainingDivergence
from .head import (BaselineParams, Forward, HeadConfig, HeadParams, baseline_forward,
                   full_condensed_forward, init_baseline_params, init_head_params)
from .tensor import Tensor, backward


@dataclass
class TrainConfig:
    learning_rate: float = 0.02
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 16
    okpd_loss_weight: float = 2.0
    seed: int = 0
    batch_mean: bool = True          # divide the batch's total loss by its size
    use_discriminative: bool = True  # ablation switches for the discovery objective
    use_uniqueness: bool = True

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.okpd_loss_weight < math.inf:
            raise ConfigError(
                f"okpd_loss_weight must be finite and >= 0, got {self.okpd_loss_weight}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class _Model:
    """What training, evaluation and the parameter files use of a model:
    ``forward(*xs)`` runs a batch of grids and returns a ``Forward``, and
    ``named_tensors`` lists its parameters; ``kind`` names the head in
    parameter manifests."""

    def scalar_count(self) -> int:
        return sum(t.size for _, t in self.named_tensors())


@dataclass
class CondensedModel(_Model):
    kind = "condensed"
    disc_cfg: DiscoveryConfig
    head_cfg: HeadConfig
    disc_params: DiscoveryParams
    head_params: HeadParams

    def forward(self, *xs: Tensor) -> Forward:
        return full_condensed_forward(xs, self.disc_params, self.head_params,
                                      self.disc_cfg, self.head_cfg)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return named_tensors("discovery", self.disc_params) + \
            named_tensors("head", self.head_params)


@dataclass
class BaselineModel(_Model):
    kind = "baseline"
    head_cfg: HeadConfig
    params: BaselineParams

    def forward(self, *xs: Tensor) -> Forward:
        return Forward(output=baseline_forward(xs, self.params, self.head_cfg))

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return named_tensors("baseline", self.params)


def build_condensed(disc_cfg: DiscoveryConfig, head_cfg: HeadConfig,
                    seed: int) -> CondensedModel:
    rng = np.random.default_rng([seed, 11])
    return CondensedModel(disc_cfg=disc_cfg, head_cfg=head_cfg,
                          disc_params=init_discovery_params(disc_cfg, rng),
                          head_params=init_head_params(head_cfg, rng))


def build_baseline(head_cfg: HeadConfig, seed: int) -> BaselineModel:
    rng = np.random.default_rng([seed, 12])
    return BaselineModel(head_cfg=head_cfg, params=init_baseline_params(head_cfg, rng))


@dataclass
class EpochLog:
    epoch: int
    det_loss: float
    l_d: float
    l_u: float
    acc: float

    def csv_row(self) -> str:
        return (f"{self.epoch},{self.det_loss:.6f},{self.l_d:.6f},"
                f"{self.l_u:.6f},{self.acc:.6f}")


LOG_HEADER = "epoch,det_loss,l_d,l_u,acc"


def write_log(path, rows: list[EpochLog]) -> None:
    with open(path, "w") as fh:
        fh.write(LOG_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def train(model, examples: list[ToyExample], cfg: TrainConfig) -> list[EpochLog]:
    """Minibatch SGD with momentum; deterministic given the config seed.

    Each step sets ``v = momentum * v + g`` and ``w -= learning_rate * v`` per
    parameter, exactly and in place (see ``_momentum_step``); the velocity
    starts at zero on every call.  The loss per batch is the detection loss
    plus ``okpd_loss_weight`` times the discovery objective (condensed model
    only), divided by the batch size if ``batch_mean`` is set.  Returns with
    no gradient attached to any parameter.  Examples that ``evaluate`` would
    refuse (``dataset.check_examples``) are refused before any step.

    Finiteness is checked twice per step, not per op.  A non-finite batch
    loss stops training before ``backward``: TrainingDivergence names the
    first op, in post-order of the graph the loss recorded, whose output
    holds NaN or Inf (``tensor._first_non_finite_op``).  That op read no
    non-finite output of another op, so it is where the bad value started.
    Where one batch has two such ops, this may name a different one than
    the first of them to run.  A bad value that starts in the detection
    loss names ``class_box_loss``, its one node.  The loss alone misses a NaN that relu or TMR
    maps to 0, so ``_momentum_step`` also checks each updated weight and
    raises TrainingDivergence naming the parameter.

    On a process that may run on more than one CPU, the worker thread
    (``tensor._worker``) computes half of each ``linear`` product whose
    weight has at least ``tensor._LINEAR_SPLIT_MIN`` values, and about half
    of the blocks of each step that updates at least ``_SPLIT_MIN`` values.
    The step's bytes are those of the one-thread step, and the products'
    bytes are the same at the FPN-VOC head shapes (see ``tensor.linear``).
    """
    check_examples(examples, model.head_cfg.num_classes, "train")
    named = model.named_tensors()
    for _, t in named:
        t.grad = None
    velocity: dict[str, np.ndarray] = {}
    block = min(_STEP_BLOCK, max(t.size for _, t in named))
    scratch = np.empty((2, block))  # the worker's row is only touched on a split step
    order_rng = np.random.default_rng([cfg.seed, 21])
    logs: list[EpochLog] = []
    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(examples))
        det_sum = ld_sum = lu_sum = 0.0
        correct = 0
        for batch_idx, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            with np.errstate(over="ignore", invalid="ignore"):
                total, det_v, ld_v, lu_v, hits = _batch_loss(model, batch, cfg)
                if not math.isfinite(total.item()):
                    op = tensor._first_non_finite_op(total)
                    raise TrainingDivergence(epoch, batch_idx,
                                             f"operation {op!r} produced non-finite values")
                backward(total)
            _momentum_step(named, velocity, cfg, scratch, epoch, batch_idx)
            det_sum += det_v
            ld_sum += ld_v
            lu_sum += lu_v
            correct += hits
        n = len(examples)
        logs.append(EpochLog(epoch=epoch, det_loss=det_sum / n, l_d=ld_sum / n,
                             l_u=lu_sum / n, acc=correct / n))
    return logs


# Values per block of the momentum step.  A block's five passes (decay, add,
# scale, subtract, finiteness dot) each read a block of the weight, velocity,
# gradient or scratch array that an earlier pass has just touched, where a
# whole array of fc1.weight's size would be streamed from memory on each
# pass.  At 64 Ki values the four blocks take 2 MiB, a whole L2 of the 2-CPU
# Xeon this was sized on.  32 Ki made serial steps with a velocity faster
# there (8.2 vs 8.8 ms for the paper-size condensed head), but one-step
# train() calls of both paper-size heads, on the split path, 1-5% slower;
# toy-size calls were level.
_STEP_BLOCK = 1 << 16

# x * 0 is +-0 for finite x and NaN for NaN or Inf, so a block's dot product
# with zeros is 0.0 exactly when every value in the block is finite; it cannot
# overflow, and it reads the block once while it is still in cache.
_ZEROS = np.zeros(_STEP_BLOCK)
_ZEROS.flags.writeable = False

# Values from which a momentum step hands half of its blocks to the worker
# thread, given one (see ``tensor._worker``).  Below it the hand-off costs
# more than the second CPU saves.  Per step on the 2-CPU Xeon this was sized
# on, BLAS on 1 thread, serial vs split, first step (gradient adopted as the
# velocity) and velocity step: 256 Ki values 0.34 vs 0.42 ms and 0.67 vs
# 0.58; 512 Ki 0.76 vs 0.69 and 0.93 vs 0.71; the toy baseline's 0.87M 1.11
# vs 0.95 and 1.64 vs 1.23.  The toy condensed head (0.16M) does not split.
_SPLIT_MIN = 1 << 19


def _momentum_step(named, velocity: dict[str, np.ndarray], cfg: TrainConfig,
                   scratch: np.ndarray, epoch: int, batch: int) -> None:
    """One SGD-with-momentum update of every parameter, in place.

    Each element goes through ``v = v * m; v = v + g; s = v * lr; w = w - s``,
    which rounds exactly as the textbook ``v = m*v + g; w -= lr*v``, block by
    block over flat views of the row-major parameters and gradients.  A
    parameter's first step adopts its gradient as the velocity, since
    ``0*m + g == g``: every gradient is a new array that nothing else holds,
    and the step takes it off ``t.grad``.  A parameter without a gradient
    keeps decaying and moving by its velocity, or stays as it is if it has
    none yet.

    ``scratch`` has two rows of at least a block each.  A step that updates
    at least ``_SPLIT_MIN`` values, on a process with a worker thread
    (``tensor._worker``), cuts its (parameter, block) list in ``named`` order
    into two contiguous shares of about equal value count: the worker
    updates the second share, with the second row, while the calling thread
    updates the first.  Every value goes through the same passes either way,
    so the bytes do not change.

    Each updated block of weights is checked for NaN and Inf, and a share
    stops at its first non-finite block.  The step then raises
    TrainingDivergence at ``epoch`` and ``batch``, naming the earliest
    parameter in ``named`` order that a share stopped on.  By then every
    gradient is off ``t.grad``.  In each share the blocks up to the one it
    stopped on have taken the step and the later ones have not; a share that
    found no non-finite block has taken all of its blocks.  With one thread
    there is one share, so the parameters before the named one, and its
    blocks up to the non-finite one, have moved.
    """
    work = []  # (name, weights, velocity, gradient or None, first) per block
    count = 0
    for name, t in named:
        g, t.grad = t.grad, None
        v = velocity.get(name)
        first = v is None
        if first:
            if g is None:
                continue
            velocity[name] = v = g
        w, v = t.data.reshape(-1), v.reshape(-1)
        g = None if first or g is None else g.reshape(-1)
        count += w.size
        for lo in range(0, w.size, _STEP_BLOCK):
            hi = lo + _STEP_BLOCK
            work.append((name, w[lo:hi], v[lo:hi], None if g is None else g[lo:hi], first))
    pool = tensor._worker() if count >= _SPLIT_MIN else None
    if pool is None:
        stopped = _step_blocks(work, cfg, scratch[0])
    else:
        # the calling thread takes blocks until it holds half of the values
        cut, rest = 0, count / 2
        while rest > 0:
            rest -= work[cut][1].size
            cut += 1
        later = pool.submit(_step_blocks, work[cut:], cfg, scratch[1])
        try:
            stopped = _step_blocks(work[:cut], cfg, scratch[0])
        finally:
            stopped_later = later.result()
        stopped = stopped or stopped_later
    if stopped is not None:
        raise TrainingDivergence(epoch, batch, what=f"parameter {stopped!r}")


def _step_blocks(work, cfg: TrainConfig, scratch: np.ndarray) -> str | None:
    """Update the blocks of ``work`` in order; return the name of the first
    one that holds a non-finite weight after its update, or None."""
    m, lr = cfg.momentum, cfg.learning_rate
    for name, wb, vb, gb, first in work:
        if not first:
            vb *= m
            if gb is not None:
                vb += gb
        wb -= np.multiply(vb, lr, out=scratch[:vb.size])
        if not np.dot(wb, _ZEROS[:wb.size]) == 0.0:
            return name
    return None


def _batch_loss(model, batch, cfg: TrainConfig):
    fwd = model.forward(*(ex.x for ex in batch))
    classes = [ex.class_id for ex in batch]
    det = losses.detection_loss(fwd.output, classes, [ex.box_target for ex in batch],
                                model.head_cfg)
    hits = int(np.sum(np.argmax(fwd.output.v_cls.data, axis=1) == classes))

    # logged values are batch sums, so epoch rows average per example
    total = det
    ld_value = lu_value = 0.0
    if fwd.maps is not None and (cfg.use_discriminative or cfg.use_uniqueness):
        labels = [ex.y_hat for ex in batch]
        terms = []
        if cfg.use_discriminative:
            terms.append(losses.discriminative_loss(fwd.maps, labels))
            ld_value = terms[-1].item()
        if cfg.use_uniqueness:
            terms.append(losses.uniqueness_loss(fwd.maps, labels))
            lu_value = terms[-1].item()
        total = total + cfg.okpd_loss_weight * sum(terms[1:], terms[0])
    if cfg.batch_mean:
        total = total * (1.0 / len(batch))
    return total, det.item(), ld_value, lu_value, hits


# -- parameter files -----------------------------------------------------------

_PARAMS_BANNER = "kphead-params v1"

# Values that save_params converts to f32, checks and writes at a time, through
# one buffer that the conversion, the finiteness check and the write each read
# while it is in cache.  Saving the paper-size heads (6.78M and 14.0M values)
# over their own earlier files on a 2-CPU Xeon, BLAS on 1 thread, took
# 15.0/31.6 ms at 16 Ki values, 12.7/25.8 at 32 Ki, 11.9/24.3 at 64 Ki,
# 12.3/24.6 at 128 Ki, 13.4/26.7 at 256 Ki, 13.8/26.6 at 512 Ki and 13.4/26.8
# at 1 Mi (medians of 20).
_SAVE_BLOCK = 1 << 16


def manifest_path(payload_path) -> str:
    return str(payload_path) + ".manifest"


def save_params(payload_path, model, meta: dict[str, str]) -> None:
    """Write a flat little-endian f32 payload plus a plain-text sidecar
    listing metadata and (tensor name, shape, byte offset) rows.

    Each parameter goes to f32 a block at a time, and each block is checked
    before it is written.  A value that is not a finite f32 (NaN, Inf, or a
    finite float64 beyond f32's range) raises ContractViolation naming the
    tensor and the value's flat index in it, which ``load_params`` would
    refuse anyway.

    A manifest already at the path is removed first, and the new one is
    written last, so a save that stops part way leaves no manifest: its
    payload is refused.  The payload is written over an existing file in
    place and then cut to length, which spares the filesystem freeing and
    reallocating a file of the same size (on ext4, a 27 MB rewrite took
    ~26 ms after truncation and ~6 ms in place).  A refused save removes
    the payload file as well, so neither file is left at the path."""
    named = model.named_tensors()
    lines = [_PARAMS_BANNER, f"model = {model.kind}"]
    for key in sorted(meta):
        lines.append(f"{key} = {meta[key]}")
    lines.append("tensors:")
    offset = 0
    for name, t in named:
        lines.append(f"{name} {'x'.join(str(s) for s in t.shape)} {offset}")
        offset += 4 * t.size
    try:
        os.remove(manifest_path(payload_path))
    except FileNotFoundError:
        pass
    try:
        with open(os.open(payload_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            _write_payload(fh, payload_path, named)
            fh.truncate()
    except ContractViolation:
        os.remove(payload_path)
        raise
    with open(manifest_path(payload_path), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_payload(fh, payload_path, named) -> None:
    block = np.empty(_SAVE_BLOCK, dtype="<f4")
    # the cast overflows only on a value that the check below refuses
    with np.errstate(over="ignore"):
        for name, t in named:
            flat = t.data.reshape(-1)
            for lo in range(0, flat.size, _SAVE_BLOCK):
                part = block[:min(_SAVE_BLOCK, flat.size - lo)]
                np.copyto(part, flat[lo:lo + _SAVE_BLOCK])
                finite = np.isfinite(part)
                if not finite.all():
                    raise ContractViolation(
                        f"{payload_path}: tensor {name!r} holds a value that is not a "
                        f"finite f32 at index {lo + int(np.argmin(finite))}")
                fh.write(part)


def load_params(payload_path) -> tuple[str, dict[str, str], dict[str, np.ndarray]]:
    """Read (model kind, metadata, tensor name -> array).

    The payload is read into one buffer, and each tensor is a reshaped
    little-endian f32 view of its bytes; ``restore_into`` widens them into a
    model's float64 arrays.  The buffer is read, not memory-mapped: a later
    save to the same path rewrites the file in place, which would change
    mapped arrays under their holder, and cuts it to length, after which
    reading a mapped page past the new end raises SIGBUS."""
    path = manifest_path(payload_path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ContractViolation(f"{path}: manifest is not UTF-8 text") from None
    lines = text.split("\n")
    if lines[0] != _PARAMS_BANNER:
        raise ContractViolation(f"{path}: not a parameter manifest")
    if lines.pop() != "":
        raise ContractViolation(f"{path}: manifest is cut short (no final newline)")
    meta: dict[str, str] = {}
    rows: list[tuple[str, tuple[int, ...], int]] = []
    in_tensors = False
    for line in lines[1:]:
        if not line.strip():
            continue
        if line == "tensors:":
            in_tensors = True
            continue
        if not in_tensors:
            key, _, value = line.partition(" = ")
            meta[key.strip()] = value.strip()
        else:
            try:
                name, shape_s, offset_s = line.split()
                shape = tuple(int(s) for s in shape_s.split("x"))
                rows.append((name, shape, int(offset_s)))
            except ValueError:
                raise ContractViolation(f"{path}: malformed tensor row {line!r}") from None
    kind = meta.pop("model", "")
    payload = np.fromfile(payload_path, dtype=np.uint8)
    spans = []
    tensors: dict[str, np.ndarray] = {}
    for name, shape, offset in rows:
        if name in tensors:
            raise ContractViolation(f"{path}: tensor {name!r} is listed twice")
        count = math.prod(shape)
        stop = offset + 4 * count
        if offset < 0 or offset % 4 or min(shape) < 0 or stop > payload.size:
            raise ContractViolation(
                f"{payload_path}: tensor {name!r} ({count} values at byte {offset}) "
                f"lies outside the {payload.size}-byte payload")
        values = payload[offset:stop].view("<f4")
        if not np.isfinite(values).all():
            raise ContractViolation(
                f"{payload_path}: tensor {name!r} holds a non-finite value at index "
                f"{int(np.argmin(np.isfinite(values)))}")
        tensors[name] = values.reshape(shape)
        spans.append((offset, stop))
    # the spans in order of offset cover [0, reach) until one starts past reach
    reach = 0
    for lo, hi in sorted(spans):
        if lo > reach:
            break
        reach = max(reach, hi)
    if reach < payload.size:
        raise ContractViolation(
            f"{payload_path}: payload byte {reach} lies in no tensor of the manifest")
    return kind, meta, tensors


def restore_into(model, tensors: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into a freshly built model of the matching kind,
    each into the model's own float64 array, so no second copy of a
    parameter is made and the dict can be changed afterwards.  The f32
    views that ``load_params`` returns are widened to float64 as they are
    copied."""
    named = model.named_tensors()
    extra = sorted(set(tensors) - {name for name, _ in named})
    if extra:
        raise ContractViolation(
            f"parameter file has tensor {extra[0]!r}, which a {model.kind} model lacks")
    for name, t in named:
        if name not in tensors:
            raise ContractViolation(f"parameter file is missing tensor {name!r}")
        if tensors[name].shape != t.shape:
            raise ContractViolation(
                f"tensor {name!r}: file shape {tensors[name].shape} vs model {t.shape}")
        np.copyto(t.data, tensors[name])
