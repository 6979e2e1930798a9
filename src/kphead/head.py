"""Condensed detection head: key-part modeling, global modeling and the
single-FC classifier/regressor, plus the two-FC baseline head it replaces.

The condensed head decomposes proposal appearance into a key-part block
(ordered feature fibers at discovered peaks plus the confidence maps) and a
global block (spatially pooled, channel-reduced descriptor), concatenates
the two and runs one fully connected layer before the output heads.  Every
step runs once over the batch's N x C x H x W grids and N x K x H x W maps,
except discovery's grouped 3x3 convs, which run per grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .discovery import (DiscoveryConfig, DiscoveryParams, LayerParams, LayerSpec,
                        concentration_forward, discovery_layers, extract_key_parts,
                        init_layers, predict_confidence, tmr_squash)
from .errors import ConfigError, ContractViolation
from .tensor import Tensor


@dataclass
class HeadConfig:
    """Dimensions of the condensed head.

    ``num_parts`` (K) and ``pool_len`` (L) control how much of the proposal
    grid survives condensation; ``channel_keep``, in (0, 1], is the fraction
    of channels the global branch keeps.  ``reg_per_class`` selects 4 box
    offsets per foreground class versus a single class-agnostic set.
    """

    channels: int
    num_classes: int
    num_parts: int
    pool_len: int
    height: int = 7
    width: int = 7
    channel_keep: float = 0.25
    hidden: int = 1024
    reg_per_class: bool = True

    def __post_init__(self):
        if not 0 < self.channel_keep <= 1:
            raise ConfigError(f"channel_keep={self.channel_keep} outside (0, 1]")
        if not (1 <= self.pool_len <= min(self.height, self.width)):
            raise ConfigError(
                f"pool_len={self.pool_len} outside [1, min({self.height}, {self.width})]")
        if not (1 <= self.num_parts <= self.height * self.width):
            raise ConfigError(
                f"num_parts={self.num_parts} outside [1, {self.height * self.width}]")
        kept = self.channels * self.channel_keep
        if abs(kept - round(kept)) > 1e-9 or round(kept) < 1:
            raise ConfigError(
                f"channels*channel_keep = {kept} must be a positive integer")
        if self.hidden < 1:
            raise ConfigError(f"hidden={self.hidden} must be >= 1")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes={self.num_classes} must be >= 1")

    @property
    def kept_channels(self) -> int:
        return round(self.channels * self.channel_keep)

    @property
    def key_part_len(self) -> int:
        return self.num_parts * self.channels + self.num_parts * self.height * self.width

    @property
    def global_len(self) -> int:
        return self.pool_len * self.pool_len * self.kept_channels

    @property
    def descriptor_len(self) -> int:
        """Input width of the single FC layer."""
        return self.key_part_len + self.global_len

    @property
    def cls_len(self) -> int:
        return self.num_classes + 1  # background included

    @property
    def reg_len(self) -> int:
        return 4 * self.num_classes if self.reg_per_class else 4

    def reg_start(self, class_id: int) -> int:
        """Index in ``v_reg`` of the first of foreground ``class_id``'s 4 box offsets."""
        return (class_id - 1) * 4 if self.reg_per_class else 0


def head_layers(cfg: HeadConfig, with_fc: bool = True) -> list[LayerSpec]:
    """The condensed head after discovery, as counted layers;
    ``init_head_params`` builds the head from this list."""
    fc = [LayerSpec("fc", "fc", d_in=cfg.descriptor_len, d_out=cfg.hidden),
          LayerSpec("fc.relu", "activation")] if with_fc else []
    out_in = cfg.hidden if with_fc else cfg.descriptor_len
    return [LayerSpec("gather_fibers", "gather"), LayerSpec("global_pool", "pool"),
            LayerSpec("global1x1", "conv", c_in=cfg.channels, c_out=cfg.kept_channels,
                      h_out=cfg.pool_len, w_out=cfg.pool_len),
            LayerSpec("descriptor_concat", "concat"), *fc,
            LayerSpec("cls", "fc", d_in=out_in, d_out=cfg.cls_len),
            LayerSpec("reg", "fc", d_in=out_in, d_out=cfg.reg_len)]


def condensed_head_layers(head_cfg: HeadConfig, disc_cfg: DiscoveryConfig,
                          with_fc: bool = True) -> list[LayerSpec]:
    """The condensed head as counted layers: discovery's, then the head's."""
    if head_cfg.channels != disc_cfg.channels or head_cfg.num_parts != disc_cfg.num_parts:
        raise ConfigError("head and discovery configs disagree on channels/num_parts")
    return (discovery_layers(disc_cfg, head_cfg.height, head_cfg.width)
            + head_layers(head_cfg, with_fc))


def baseline_head_layers(num_classes: int, channels: int = 256, height: int = 7,
                         width: int = 7, hidden: int = 1024,
                         prefix: str = "") -> list[LayerSpec]:
    """Two-FC head: flatten -> fc -> fc -> classifier/regressor.

    Output widths follow the counted convention of the published totals:
    classifier num_classes+1, regressor 4*(num_classes+1).
    ``init_baseline_params`` builds the baseline from this list.
    """
    flat = channels * height * width
    return [
        LayerSpec(prefix + "fc1", "fc", d_in=flat, d_out=hidden),
        LayerSpec(prefix + "fc1.relu", "activation"),
        LayerSpec(prefix + "fc2", "fc", d_in=hidden, d_out=hidden),
        LayerSpec(prefix + "fc2.relu", "activation"),
        LayerSpec(prefix + "cls", "fc", d_in=hidden, d_out=num_classes + 1),
        LayerSpec(prefix + "reg", "fc", d_in=hidden, d_out=4 * (num_classes + 1)),
    ]


@dataclass
class HeadParams:
    """Learnable tensors of the condensed head (global conv + FC + outputs)."""

    global_conv: LayerParams
    fc: LayerParams
    cls: LayerParams
    reg: LayerParams


def init_head_params(cfg: HeadConfig, rng: np.random.Generator) -> HeadParams:
    return HeadParams(*init_layers(head_layers(cfg), rng))


@dataclass
class HeadOutput:
    v_cls: Tensor  # N x (num_classes + 1) logits, background at index 0
    v_reg: Tensor  # N x (4*num_classes or 4) box offsets


def key_part_modeling(x: Tensor, maps: Tensor, points: np.ndarray) -> tuple[Tensor, Tensor]:
    """Each example's key-part block, as its two pieces: the channel fiber at
    each part's peak, in part order, then the K full confidence maps.  Read
    row-major, example i's pieces are its K*C + K*H*W block.

    ``x`` is the N x C x H x W grid, ``maps`` the N x K x H x W squashed maps
    and ``points`` their N x K x 2 (row, col) peaks; the pieces are the
    N x K x C fibers and ``maps`` itself.  Gather indices are constants of
    the forward pass; gradients flow into ``x`` at the gathered positions
    and into ``maps`` everywhere.
    """
    if maps.data.ndim != 4 or np.shape(points) != maps.shape[:2] + (2,):
        raise ContractViolation(
            f"key_part_modeling: maps {maps.shape} and points {np.shape(points)} disagree")
    return T.gather_at(x, points), maps


def global_activation(x: Tensor, params: HeadParams, cfg: HeadConfig) -> Tensor:
    """Pool each grid to L x L, then 1x1-convolve down to the kept channels:
    N x C x H x W in, N x kept_channels x L x L out."""
    pooled = T.adaptive_avg_pool(x, cfg.pool_len)
    return T.conv2d(pooled, params.global_conv.weight, params.global_conv.bias)


def head_forward(z_k: Sequence[Tensor], z_g: Tensor, params: HeadParams,
                 cfg: HeadConfig) -> HeadOutput:
    """Example i's descriptor row is its key-part block, the pieces ``z_k``
    (``key_part_modeling``'s fibers and maps) at example i, then its global
    block ``z_g[i]``, each read row-major; one row-wise join makes the N x D
    matrix.  The N rows go through the single FC -> relu -> parallel
    classifier and regressor as one batch."""
    pieces = [*z_k, z_g]
    descriptor = T.concat(pieces)
    if descriptor.shape[1] != cfg.descriptor_len:
        raise ContractViolation(
            f"head_forward: blocks {[p.shape for p in pieces]} give descriptors of "
            f"length {descriptor.shape[1]}, not {cfg.descriptor_len}")
    hidden = T.relu(T.linear(descriptor, params.fc.weight, params.fc.bias))
    v_cls = T.linear(hidden, params.cls.weight, params.cls.bias)
    v_reg = T.linear(hidden, params.reg.weight, params.reg.bias)
    return HeadOutput(v_cls=v_cls, v_reg=v_reg)


@dataclass
class Forward:
    """Everything a forward pass over N grids yields: the N output rows plus,
    for the condensed head, the intermediates the losses and visualizations
    consume (``None`` for the baseline head, which has none).  A descriptor's
    global block is its example's global map read row-major."""

    output: HeadOutput
    maps: Tensor | None = None              # N x K x H x W, squashed
    points: np.ndarray | None = None        # N x K x 2, each map's (row, col) peak
    confidences: np.ndarray | None = None   # N x K, each map's peak value
    global_map: Tensor | None = None        # N x kept_channels x L x L


def _check_grids(xs: Sequence[Tensor], cfg: HeadConfig) -> None:
    if not xs:
        raise ContractViolation("a forward pass needs at least one grid")
    want = (cfg.channels, cfg.height, cfg.width)
    for x in xs:
        if x.shape != want:
            raise ContractViolation(f"input grid {x.shape} != configured {want}")


def full_condensed_forward(xs: Sequence[Tensor], disc_params: DiscoveryParams,
                           head_params: HeadParams, disc_cfg: DiscoveryConfig,
                           head_cfg: HeadConfig) -> Forward:
    """Run the whole condensed head on a batch of proposal grids.

    The N grids are stacked once, and everything runs once for the batch
    except the concentration blocks' grouped 3x3 conv, which runs per grid:
    the blocks' relus, 1x1 convs and residual adds, the confidence
    prediction, TMR, the peak search, the key-part gather, the global
    branch, the descriptor join, the FC layers and the outputs.
    """
    if disc_cfg.channels != head_cfg.channels or disc_cfg.num_parts != head_cfg.num_parts:
        raise ConfigError("discovery and head configs disagree on channels/num_parts")
    _check_grids(xs, head_cfg)
    grids = T.stack(xs)
    refined = concentration_forward(grids, disc_params, disc_cfg)
    maps = tmr_squash(predict_confidence(refined, disc_params, disc_cfg),
                      disc_cfg.alpha, disc_cfg.epsilon)
    points, confidences = extract_key_parts(maps)
    z_k = key_part_modeling(refined if disc_cfg.gather_from_refined else grids, maps, points)
    global_map = global_activation(grids, head_params, head_cfg)
    output = head_forward(z_k, global_map, head_params, head_cfg)
    return Forward(output=output, maps=maps, points=points, confidences=confidences,
                   global_map=global_map)


# -- baseline two-FC head -----------------------------------------------------

@dataclass
class BaselineParams:
    """Flatten -> FC -> relu -> FC -> relu -> classifier/regressor."""

    fc1: LayerParams
    fc2: LayerParams
    cls: LayerParams
    reg: LayerParams


def init_baseline_params(cfg: HeadConfig, rng: np.random.Generator) -> BaselineParams:
    table = baseline_head_layers(cfg.num_classes, cfg.channels, cfg.height, cfg.width, cfg.hidden)
    # the published totals count a 4*(C+1)-wide regressor; the built one is reg_len wide
    table[-1] = replace(table[-1], d_out=cfg.reg_len)
    return BaselineParams(*init_layers(table, rng))


def baseline_forward(xs: Sequence[Tensor], params: BaselineParams,
                     cfg: HeadConfig) -> HeadOutput:
    """Run the two-FC head on a batch of proposal grids, one flattened grid
    per row."""
    _check_grids(xs, cfg)
    rows = T.reshape(T.stack(xs), (len(xs), xs[0].size))
    h1 = T.relu(T.linear(rows, params.fc1.weight, params.fc1.bias))
    h2 = T.relu(T.linear(h1, params.fc2.weight, params.fc2.bias))
    v_cls = T.linear(h2, params.cls.weight, params.cls.bias)
    v_reg = T.linear(h2, params.reg.weight, params.reg.bias)
    return HeadOutput(v_cls=v_cls, v_reg=v_reg)
