"""Key-part discovery network: concentration blocks, confidence prediction,
truncated maximum regularization and peak extraction.

The network refines a proposal feature grid with a few residual blocks
(grouped dilated 3x3 conv -> relu -> 1x1 restore -> add input), predicts one
raw confidence map per key part with a 1x1 convolution, squashes the maps
into [0, 1) and reads each part's location off its map's peak.  Every step
takes a batch of N grids at once; only the grouped 3x3 conv runs once per
grid.
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
        _check_squash_bounds(self.alpha, self.epsilon)

    @property
    def reduced_channels(self) -> int:
        return self.channels // self.reduction


def _check_squash_bounds(alpha: float, epsilon: float) -> None:
    """TMR's bounds, ``0 <= alpha < inf`` and ``0 < epsilon < inf``, which a
    NaN fails."""
    if not 0 < epsilon < math.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    if not 0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")


def discovery_layers(cfg: DiscoveryConfig, height: int = 7, width: int = 7) -> list[LayerSpec]:
    """The discovery network on a ``height`` x ``width`` grid, as counted
    layers; ``init_discovery_params`` builds the network from this list."""
    c, mid, grid = cfg.channels, cfg.reduced_channels, {"h_out": height, "w_out": width}
    layers = []
    for i in range(cfg.num_blocks):
        layers += [LayerSpec(f"block{i}.reduce3x3", "conv", c_in=c, c_out=mid, kernel=3,
                             groups=cfg.groups, **grid),
                   LayerSpec(f"block{i}.relu", "activation"),
                   LayerSpec(f"block{i}.restore1x1", "conv", c_in=mid, c_out=c, **grid)]
    return layers + [LayerSpec("predict1x1", "conv", c_in=c, c_out=cfg.num_parts, **grid)]


LAYER_KINDS = ("conv", "fc", "pool", "gather", "concat", "activation")


@dataclass(frozen=True)
class LayerSpec:
    """One counted layer.  conv uses c_in/c_out/kernel/groups and the output
    extent; fc uses d_in/d_out; the remaining kinds carry no parameters."""

    name: str
    kind: str
    c_in: int = 0
    c_out: int = 0
    kernel: int = 1
    groups: int = 1
    h_out: int = 1
    w_out: int = 1
    d_in: int = 0
    d_out: int = 0
    bias: bool = True

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv":
            if self.c_in <= 0 or self.c_out <= 0 or self.kernel <= 0:
                raise ConfigError(f"conv layer {self.name!r} has non-positive extents")
            if self.c_in % self.groups != 0:
                raise ConfigError(
                    f"conv layer {self.name!r}: groups={self.groups} does not divide "
                    f"c_in={self.c_in}")
        if self.kind == "fc" and (self.d_in <= 0 or self.d_out <= 0):
            raise ConfigError(f"fc layer {self.name!r} has non-positive extents")

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """(c_out, c_in/groups, k, k) for a conv, (d_out, d_in) for an fc, else ()."""
        if self.kind == "conv":
            return (self.c_out, self.c_in // self.groups, self.kernel, self.kernel)
        if self.kind == "fc":
            return (self.d_out, self.d_in)
        return ()

    def params(self) -> int:
        shape = self.weight_shape
        if not shape:
            return 0
        return math.prod(shape) + (shape[0] if self.bias else 0)

    def macs(self) -> int:
        """One per weight at each output position; an fc has one position."""
        shape = self.weight_shape
        return math.prod(shape) * self.h_out * self.w_out if shape else 0


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


def init_layers(layers: list[LayerSpec], rng: np.random.Generator) -> list[LayerParams]:
    """One LayerParams per conv or fc layer of ``layers``, in list order: a
    ``weight_shape`` weight uniform in +/-(1/sqrt(fan_in)), fan_in the product
    of all but the output axis, and a zero bias, one per output."""
    built = []
    for shape in (spec.weight_shape for spec in layers if spec.weight_shape):
        bound = 1.0 / np.sqrt(math.prod(shape[1:]))
        built.append(LayerParams(
            weight=Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True),
            bias=Tensor(np.zeros(shape[0]), requires_grad=True)))
    return built


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
    *layers, predict = init_layers(discovery_layers(cfg), rng)
    blocks = [BlockParams(reduce, restore) for reduce, restore in zip(layers[::2], layers[1::2])]
    return DiscoveryParams(blocks=blocks, predict=predict)


def concentration_forward(x: Tensor, params: DiscoveryParams, cfg: DiscoveryConfig) -> Tensor:
    """Apply the residual concentration blocks to N x C x H x W grids; the
    shape is preserved.

    In each block the grouped dilated 3x3 conv runs once per example, on
    ``pick(out, i)``, and one ``stack`` joins the N outputs.  The relu, the
    1x1 restore conv and the residual add run once over the batch.
    """
    if x.data.ndim != 4 or x.shape[1] != cfg.channels:
        raise ContractViolation(f"concentration input must be N x {cfg.channels} x H x W, "
                                f"got shape {x.shape}")
    # the grouped 3x3 runs once per example: perfbench's tracing test pins
    # 2 x 16 discovery.block0.reduce3x3 calls for 2 epochs of 16 examples,
    # and the batched 3x3's form is still unchosen (ROADMAP item 2)
    out = x
    for blk in params.blocks:
        mid = T.relu(T.stack([T.conv2d(T.pick(out, i), blk.reduce.weight, blk.reduce.bias,
                                       groups=cfg.groups, dilation=cfg.dilation)
                              for i in range(x.shape[0])]))
        out = T.add(out, T.conv2d(mid, blk.restore.weight, blk.restore.bias))
    return out


def predict_confidence(refined: Tensor, params: DiscoveryParams,
                       cfg: DiscoveryConfig) -> Tensor:
    """Raw (unbounded) per-part confidence maps from a 1x1 convolution:
    N x K x H x W for N x C x H x W grids."""
    if refined.data.ndim != 4:
        raise ContractViolation(f"predict_confidence: expected N x C x H x W grids, "
                                f"got shape {refined.shape}")
    if refined.shape[1] != cfg.channels:
        raise ContractViolation(f"predict_confidence: expected {cfg.channels} channels, "
                                f"got {refined.shape[1]}")
    return T.conv2d(refined, params.predict.weight, params.predict.bias)


def tmr_squash(raw: Tensor, alpha: float = 0.5, epsilon: float = 0.1) -> Tensor:
    """Squash N x K x H x W raw confidence maps into [0, 1) by truncated
    maximum regularization.

    Per map with raw maximum c_m, every value c becomes
    ``max(0, (c + alpha) / (max(0, (c_m + alpha) - 1) + 1 + epsilon))``.
    While c_m + alpha <= 1 this is the plain linear map (c + alpha)/(1 + eps);
    once the maximum grows past that, every value competes against it.

    c_m is the tensor value at the winning position (row-major tie-break), so
    gradients reach that position through both the numerator and the
    denominator.  Raises ConfigError unless 0 <= alpha < inf and
    0 < epsilon < inf.
    """
    _check_squash_bounds(alpha, epsilon)
    return T.truncated_max_squash(raw, alpha, epsilon)


def extract_key_parts(maps: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Each map's peak of N x K x H x W maps: the N x K x 2 integer (row, col)
    points and the N x K peak values; not differentiable by design.  One
    argmax runs over all N*K maps.

    Peaks may coincide across maps: spreading them apart is a training-time
    pressure, not a structural guarantee.
    """
    flat = T._maps_as_rows(maps, "extract_key_parts")
    peak_idx = T._first_peaks(flat)
    points = np.stack(np.divmod(peak_idx, maps.shape[3]), axis=-1)
    confidences = flat[np.arange(flat.shape[0]), peak_idx]
    return points.reshape(maps.shape[:2] + (2,)), confidences.reshape(maps.shape[:2])
