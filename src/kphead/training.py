"""Minibatch SGD training of the baseline and condensed heads on the toy task,
plus flat-file parameter serialization (f32 payload + plain-text manifest)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from . import tensor as T
from .dataset import ToyExample
from .discovery import DiscoveryConfig, DiscoveryParams, init_discovery_params
from .errors import ConfigError, ContractViolation, NonFiniteError, TrainingDivergence
from .head import (BaselineParams, HeadConfig, HeadParams, baseline_forward,
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
    batch_mean: bool = True          # divide both loss terms by the batch size
    use_discriminative: bool = True  # ablation switches for the discovery objective
    use_uniqueness: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


@dataclass
class CondensedModel:
    kind = "condensed"
    disc_cfg: DiscoveryConfig
    head_cfg: HeadConfig
    disc_params: DiscoveryParams
    head_params: HeadParams

    def forward(self, x: Tensor):
        return full_condensed_forward(x, self.disc_params, self.head_params,
                                      self.disc_cfg, self.head_cfg)

    def named_tensors(self):
        return self.disc_params.named_tensors() + self.head_params.named_tensors()

    def scalar_count(self) -> int:
        return sum(t.size for _, t in self.named_tensors())


@dataclass
class BaselineModel:
    kind = "baseline"
    head_cfg: HeadConfig
    params: BaselineParams

    def forward(self, x: Tensor):
        return baseline_forward(x, self.params, self.head_cfg)

    def named_tensors(self):
        return self.params.named_tensors()

    def scalar_count(self) -> int:
        return sum(t.size for _, t in self.named_tensors())


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

    The loss per batch is the detection loss plus ``okpd_loss_weight`` times
    the discovery objective (condensed model only).  Aborts with
    TrainingDivergence if the loss goes non-finite.
    """
    if not examples:
        raise ContractViolation("train: empty dataset")
    named = model.named_tensors()
    velocity = {name: np.zeros_like(t.data) for name, t in named}
    order_rng = np.random.default_rng([cfg.seed, 21])
    condensed = model.kind == "condensed"
    logs: list[EpochLog] = []

    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(examples))
        det_sum = ld_sum = lu_sum = 0.0
        correct = 0
        for batch_idx, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            for _, t in named:
                t.grad = None
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    total, det_v, ld_v, lu_v, hits = _batch_loss(model, batch, cfg,
                                                                 condensed)
                    backward(total)
            except NonFiniteError as exc:
                raise TrainingDivergence(epoch, batch_idx, str(exc)) from exc
            for name, t in named:
                v = velocity[name]
                v *= cfg.momentum
                v += t.grad if t.grad is not None else 0.0
                t.data -= cfg.learning_rate * v
            det_sum += det_v
            ld_sum += ld_v
            lu_sum += lu_v
            correct += hits
        n = len(examples)
        logs.append(EpochLog(epoch=epoch, det_loss=det_sum / n, l_d=ld_sum / n,
                             l_u=lu_sum / n, acc=correct / n))
    return logs


def _batch_loss(model, batch, cfg: TrainConfig, condensed: bool):
    det_terms = []
    maps_batch = []
    labels = []
    hits = 0
    for ex in batch:
        if condensed:
            fwd = model.forward(ex.x)
            out = fwd.output
            maps_batch.append(fwd.maps)
            labels.append(ex.y_hat)
        else:
            out = model.forward(ex.x)
        det_terms.append(losses.detection_loss(out, ex.class_id, ex.box_target,
                                               model.head_cfg))
        if int(np.argmax(out.v_cls.data)) == ex.class_id:
            hits += 1

    det = T.add_n(det_terms)
    if cfg.batch_mean:
        det = det * (1.0 / len(batch))
    # logged values are always batch sums so epoch rows average per example
    det_value = det.item() * (len(batch) if cfg.batch_mean else 1.0)

    total = det
    ld_value = lu_value = 0.0
    if condensed and (cfg.use_discriminative or cfg.use_uniqueness):
        terms = []
        if cfg.use_discriminative:
            ld = losses.discriminative_loss(maps_batch, labels, batch_mean=cfg.batch_mean)
            ld_value = ld.item() * (len(batch) if cfg.batch_mean else 1.0)
            terms.append(ld)
        if cfg.use_uniqueness:
            lu = losses.uniqueness_loss(maps_batch, labels, batch_mean=cfg.batch_mean)
            lu_value = lu.item() * (len(batch) if cfg.batch_mean else 1.0)
            terms.append(lu)
        total = total + cfg.okpd_loss_weight * T.add_n(terms)
    return total, det_value, ld_value, lu_value, hits


# -- parameter files -----------------------------------------------------------

_PARAMS_BANNER = "kphead-params v1"


def manifest_path(payload_path) -> str:
    return str(payload_path) + ".manifest"


def save_params(payload_path, model, meta: dict[str, str]) -> None:
    """Write a flat little-endian f32 payload plus a plain-text sidecar
    listing metadata and (tensor name, shape, byte offset) rows."""
    lines = [_PARAMS_BANNER, f"model = {model.kind}"]
    for key in sorted(meta):
        lines.append(f"{key} = {meta[key]}")
    lines.append("tensors:")
    offset = 0
    chunks = []
    for name, t in model.named_tensors():
        data = t.data.astype("<f4")
        shape = "x".join(str(s) for s in t.shape)
        lines.append(f"{name} {shape} {offset}")
        chunks.append(data.tobytes())
        offset += data.nbytes
    with open(payload_path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    with open(manifest_path(payload_path), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(payload_path) -> tuple[str, dict[str, str], dict[str, np.ndarray]]:
    """Read (model kind, metadata, tensor name -> float64 array)."""
    with open(manifest_path(payload_path)) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != _PARAMS_BANNER:
        raise ContractViolation(f"{manifest_path(payload_path)}: not a parameter manifest")
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
                raise ContractViolation(
                    f"{manifest_path(payload_path)}: malformed tensor row {line!r}") from None
    kind = meta.pop("model", "")
    payload = np.fromfile(payload_path, dtype="<f4")
    tensors: dict[str, np.ndarray] = {}
    for name, shape, offset in rows:
        count = int(np.prod(shape))
        start = offset // 4
        if offset < 0 or offset % 4 or min(shape) < 0 or start + count > payload.size:
            raise ContractViolation(
                f"{payload_path}: tensor {name!r} ({count} values at byte {offset}) "
                f"lies outside the {payload.size * 4}-byte payload")
        tensors[name] = payload[start:start + count].astype(np.float64).reshape(shape)
    return kind, meta, tensors


def restore_into(model, tensors: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into a freshly built model of the matching kind."""
    for name, t in model.named_tensors():
        if name not in tensors:
            raise ContractViolation(f"parameter file is missing tensor {name!r}")
        if tensors[name].shape != t.shape:
            raise ContractViolation(
                f"tensor {name!r}: file shape {tensors[name].shape} vs model {t.shape}")
        t.data = tensors[name].copy()
