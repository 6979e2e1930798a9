"""Key-part discovery network: concentration blocks, confidence prediction,
truncated maximum regularization and peak extraction.

The network refines a proposal feature grid with a few residual blocks
(grouped dilated 3x3 conv -> relu -> 1x1 restore -> add input), predicts one
raw confidence map per key part with a 1x1 convolution, squashes the maps
into [0, 1) and reads each part's location off its map's peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class LayerParams:
    """Weight and bias of one convolution or fully connected layer."""

    weight: Tensor
    bias: Tensor


@dataclass
class BlockParams:
    reduce: LayerParams   # 3x3 grouped dilated, C -> C/reduction
    restore: LayerParams  # 1x1, C/reduction -> C


@dataclass
class DiscoveryParams:
    """Learnable tensors of the discovery network."""

    blocks: list[BlockParams]
    predict: LayerParams


def _init_layer(rng: np.random.Generator, shape: tuple[int, ...]) -> LayerParams:
    """Weight of ``shape`` uniform in +/-(1/sqrt(fan_in)), where fan_in is the
    product of all but the output axis; zero bias, one per output."""
    bound = 1.0 / np.sqrt(math.prod(shape[1:]))
    return LayerParams(weight=Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True),
                       bias=Tensor(np.zeros(shape[0]), requires_grad=True))


def named_tensors(prefix: str, params) -> list[tuple[str, Tensor]]:
    """(dotted name, tensor) for every tensor of a params dataclass, in field
    order; item i of a list field ``<x>s`` is named ``<x>i`` (``blocks`` gives
    ``block0``, ``block1``, ...).  These names key the parameter files.

    Reads the instance's attributes, which a dataclass's ``__init__`` sets in
    field order, rather than ``dataclasses.fields``: it is several times
    faster, and models list their tensors on every save, restore and train.
    """
    named = []
    for name, value in vars(params).items():
        if isinstance(value, Tensor):
            named.append((f"{prefix}.{name}", value))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                named += named_tensors(f"{prefix}.{name[:-1]}{i}", item)
        else:
            named += named_tensors(f"{prefix}.{name}", value)
    return named


def init_discovery_params(cfg: DiscoveryConfig, rng: np.random.Generator) -> DiscoveryParams:
    """Uniform +/-(1/sqrt(fan_in)) weights, zero biases."""
    c, mid = cfg.channels, cfg.reduced_channels
    blocks = [BlockParams(reduce=_init_layer(rng, (mid, c // cfg.groups, 3, 3)),
                          restore=_init_layer(rng, (c, mid, 1, 1)))
              for _ in range(cfg.num_blocks)]
    return DiscoveryParams(blocks=blocks, predict=_init_layer(rng, (cfg.num_parts, c, 1, 1)))


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
