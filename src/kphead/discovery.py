"""Key-part discovery network: concentration blocks, confidence prediction,
truncated maximum regularization and peak extraction.

The network refines a proposal feature grid with a few residual blocks
(grouped dilated 3x3 conv -> relu -> 1x1 restore -> add input), predicts one
raw confidence map per key part with a 1x1 convolution, squashes the maps
into [0, 1) and reads each part's location off its map's peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractViolation
from .tensor import Tensor


@dataclass
class DiscoveryConfig:
    """Shape and hyperparameters of the discovery network.

    ``reduction`` shrinks channels inside each block (3x3 conv maps C to
    C/reduction); ``groups``/``dilation`` parameterize that 3x3 conv.
    ``alpha`` offsets raw confidences before squashing and ``epsilon`` keeps
    the squashed maximum strictly below 1.  ``gather_from_refined`` switches
    the downstream feature gather from the raw input grid to the refined one.
    """

    channels: int
    num_parts: int
    num_blocks: int = 2
    reduction: int = 8
    groups: int = 32
    dilation: int = 2
    alpha: float = 0.5
    epsilon: float = 0.1
    gather_from_refined: bool = False

    def __post_init__(self):
        c = self.channels
        if self.num_parts < 1:
            raise ConfigError(f"num_parts must be >= 1, got {self.num_parts}")
        if self.num_blocks < 1 or self.reduction < 1 or self.groups < 1 or self.dilation < 1:
            raise ConfigError("num_blocks, reduction, groups and dilation must be positive")
        if c % self.reduction != 0:
            raise ConfigError(f"channels={c} not divisible by reduction={self.reduction}")
        if c % self.groups != 0:
            raise ConfigError(f"channels={c} not divisible by groups={self.groups}")
        if (c // self.reduction) % self.groups != 0:
            raise ConfigError(
                f"reduced channels {c // self.reduction} not divisible by groups={self.groups}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")

    @property
    def reduced_channels(self) -> int:
        return self.channels // self.reduction


@dataclass
class ConvParams:
    weight: Tensor
    bias: Tensor


@dataclass
class BlockParams:
    reduce: ConvParams   # 3x3 grouped dilated, C -> C/reduction
    restore: ConvParams  # 1x1, C/reduction -> C


@dataclass
class DiscoveryParams:
    """Learnable tensors of the discovery network."""

    blocks: list[BlockParams] = field(default_factory=list)
    predict: ConvParams | None = None

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, blk in enumerate(self.blocks):
            named.append((f"discovery.block{i}.reduce.weight", blk.reduce.weight))
            named.append((f"discovery.block{i}.reduce.bias", blk.reduce.bias))
            named.append((f"discovery.block{i}.restore.weight", blk.restore.weight))
            named.append((f"discovery.block{i}.restore.bias", blk.restore.bias))
        named.append(("discovery.predict.weight", self.predict.weight))
        named.append(("discovery.predict.bias", self.predict.bias))
        return named


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_discovery_params(cfg: DiscoveryConfig, rng: np.random.Generator) -> DiscoveryParams:
    """Uniform +/-(1/sqrt(fan_in)) weights, zero biases."""
    c, mid = cfg.channels, cfg.reduced_channels
    blocks = []
    for _ in range(cfg.num_blocks):
        reduce = ConvParams(
            weight=_uniform_init(rng, (mid, c // cfg.groups, 3, 3), 9 * (c // cfg.groups)),
            bias=_zeros((mid,)))
        restore = ConvParams(
            weight=_uniform_init(rng, (c, mid, 1, 1), mid),
            bias=_zeros((c,)))
        blocks.append(BlockParams(reduce=reduce, restore=restore))
    predict = ConvParams(
        weight=_uniform_init(rng, (cfg.num_parts, c, 1, 1), c),
        bias=_zeros((cfg.num_parts,)))
    return DiscoveryParams(blocks=blocks, predict=predict)


@dataclass
class KeyPartSet:
    """Discovered part locations: points[k] is the peak of map k."""

    points: list[tuple[int, int]]
    confidences: list[float]

    def __len__(self) -> int:
        return len(self.points)


def concentration_forward(x: Tensor, params: DiscoveryParams, cfg: DiscoveryConfig) -> Tensor:
    """Apply the residual concentration blocks; spatial size is preserved."""
    if x.data.ndim != 3 or x.shape[0] != cfg.channels:
        raise ConfigError(
            f"concentration input must be {cfg.channels} x H x W, got shape {x.shape}")
    out = x
    for blk in params.blocks:
        mid = T.relu(T.conv2d(out, blk.reduce.weight, blk.reduce.bias,
                              groups=cfg.groups, dilation=cfg.dilation))
        restored = T.conv2d(mid, blk.restore.weight, blk.restore.bias)
        out = T.add(out, restored)
    return out


def predict_confidence(refined: Tensor, params: DiscoveryParams,
                       cfg: DiscoveryConfig) -> Tensor:
    """Raw (unbounded) per-part confidence maps from a 1x1 convolution."""
    if refined.shape[0] != cfg.channels:
        raise ContractViolation(
            f"predict_confidence: expected {cfg.channels} channels, got {refined.shape[0]}")
    return T.conv2d(refined, params.predict.weight, params.predict.bias)


def tmr_squash(raw: Tensor, alpha: float = 0.5, epsilon: float = 0.1) -> Tensor:
    """Squash raw confidence maps into [0, 1) by truncated maximum regularization.

    Per map with raw maximum c_m, every value c becomes
    ``max(0, (c + alpha) / (max(0, (c_m + alpha) - 1) + 1 + epsilon))``.
    While c_m + alpha <= 1 this is the plain linear map (c + alpha)/(1 + eps);
    once the maximum grows past that, every value competes against it.

    c_m is the tensor value at the winning position (row-major tie-break), so
    gradients reach that position through both the numerator and the
    denominator.
    """
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    if raw.data.ndim != 3:
        raise ContractViolation(f"tmr_squash needs K x H x W maps, got shape {raw.shape}")
    return T.truncated_max_squash(raw, alpha, epsilon)


def extract_key_parts(maps: Tensor) -> KeyPartSet:
    """Read each map's peak location and value; not differentiable by design.

    Peaks may coincide across maps: spreading them apart is a training-time
    pressure, not a structural guarantee.
    """
    flat = T._maps_as_rows(maps, "extract_key_parts")
    peak_idx = T._first_peaks(flat)
    rows, cols = np.divmod(peak_idx, maps.shape[2])
    return KeyPartSet(points=list(zip(rows.tolist(), cols.tolist())),
                      confidences=flat[np.arange(flat.shape[0]), peak_idx].tolist())
