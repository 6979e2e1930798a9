"""Condensed detection head: key-part modeling, global modeling and the
single-FC classifier/regressor, plus the two-FC baseline head it replaces.

The condensed head decomposes proposal appearance into a key-part block
(ordered feature fibers at discovered peaks plus the confidence maps) and a
global block (spatially pooled, channel-reduced descriptor), concatenates
the two and runs one fully connected layer before the output heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .discovery import (DiscoveryConfig, DiscoveryParams, KeyPartSet, LayerParams,
                        _init_layer, concentration_forward, extract_key_parts,
                        predict_confidence, tmr_squash)
from .errors import ConfigError, ContractViolation
from .tensor import Tensor


@dataclass
class HeadConfig:
    """Dimensions of the condensed head.

    ``num_parts`` (K) and ``pool_len`` (L) control how much of the proposal
    grid survives condensation; ``channel_keep`` is the fraction of channels
    the global branch keeps.  ``reg_per_class`` selects 4 box offsets per
    foreground class versus a single class-agnostic set.
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


@dataclass
class HeadParams:
    """Learnable tensors of the condensed head (global conv + FC + outputs)."""

    global_conv: LayerParams
    fc: LayerParams
    cls: LayerParams
    reg: LayerParams


def init_head_params(cfg: HeadConfig, rng: np.random.Generator) -> HeadParams:
    return HeadParams(global_conv=_init_layer(rng, (cfg.kept_channels, cfg.channels, 1, 1)),
                      fc=_init_layer(rng, (cfg.hidden, cfg.descriptor_len)),
                      cls=_init_layer(rng, (cfg.cls_len, cfg.hidden)),
                      reg=_init_layer(rng, (cfg.reg_len, cfg.hidden)))


@dataclass
class HeadOutput:
    v_cls: Tensor  # N x (num_classes + 1) logits, background at index 0
    v_reg: Tensor  # N x (4*num_classes or 4) box offsets


def key_part_modeling(x: Tensor, maps: Tensor, parts: KeyPartSet) -> Tensor:
    """Gather the channel fiber at each part's peak, in part order, then
    append the K full confidence maps (row-major flattened).

    Gather indices are constants of the forward pass; gradients flow into
    ``x`` at the gathered positions and into ``maps`` everywhere.
    """
    if len(parts) != maps.shape[0]:
        raise ContractViolation(
            f"key_part_modeling: {len(parts)} parts vs {maps.shape[0]} maps")
    fibers = T.gather_at(x, parts.points)
    return T.concat([fibers, maps])


def global_activation(x: Tensor, params: HeadParams, cfg: HeadConfig) -> Tensor:
    """Pool the grid to L x L, then 1x1-convolve down to the kept channels."""
    pooled = T.adaptive_avg_pool(x, cfg.pool_len)
    return T.conv2d(pooled, params.global_conv.weight, params.global_conv.bias)


def head_forward(z_ks: Sequence[Tensor], z_gs: Sequence[Tensor], params: HeadParams,
                 cfg: HeadConfig) -> HeadOutput:
    """Each example's descriptor row is its key-part block ``z_ks[i]`` then its
    global block ``z_gs[i]``, both read row-major; the N rows go through the
    single FC -> relu -> parallel classifier and regressor as one batch."""
    descriptor = T.concat([z for pair in zip(z_ks, z_gs) for z in pair])
    if len(z_ks) != len(z_gs) or descriptor.size != len(z_ks) * cfg.descriptor_len:
        raise ContractViolation(
            f"head_forward: {len(z_ks)} key-part and {len(z_gs)} global blocks of "
            f"{descriptor.size} values in all, for descriptors of length {cfg.descriptor_len}")
    rows = T.reshape(descriptor, (len(z_ks), cfg.descriptor_len))
    hidden = T.relu(T.linear(rows, params.fc.weight, params.fc.bias))
    v_cls = T.linear(hidden, params.cls.weight, params.cls.bias)
    v_reg = T.linear(hidden, params.reg.weight, params.reg.bias)
    return HeadOutput(v_cls=v_cls, v_reg=v_reg)


@dataclass
class Forward:
    """Everything a forward pass over N grids yields: the N output rows plus,
    for the condensed head, one entry per example of the intermediates the
    losses and visualizations consume (``None`` for the baseline head, which
    has none).  A descriptor's global block is its global map read row-major."""

    output: HeadOutput
    maps: list[Tensor] | None = None        # K x H x W each, squashed
    parts: list[KeyPartSet] | None = None
    global_map: list[Tensor] | None = None  # kept_channels x L x L each


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

    Discovery, key-part extraction and global pooling run per grid, since
    each grid has its own peaks; the FC layers and outputs run once for all.
    """
    if disc_cfg.channels != head_cfg.channels or disc_cfg.num_parts != head_cfg.num_parts:
        raise ConfigError("discovery and head configs disagree on channels/num_parts")
    _check_grids(xs, head_cfg)
    maps, parts, z_k, global_map = [], [], [], []
    for x in xs:
        refined = concentration_forward(x, disc_params, disc_cfg)
        raw = predict_confidence(refined, disc_params, disc_cfg)
        maps.append(tmr_squash(raw, disc_cfg.alpha, disc_cfg.epsilon))
        parts.append(extract_key_parts(maps[-1]))
        gather_source = refined if disc_cfg.gather_from_refined else x
        z_k.append(key_part_modeling(gather_source, maps[-1], parts[-1]))
        global_map.append(global_activation(x, head_params, head_cfg))
    output = head_forward(z_k, global_map, head_params, head_cfg)
    return Forward(output=output, maps=maps, parts=parts, global_map=global_map)


# -- baseline two-FC head -----------------------------------------------------

@dataclass
class BaselineParams:
    """Flatten -> FC -> relu -> FC -> relu -> classifier/regressor."""

    fc1: LayerParams
    fc2: LayerParams
    cls: LayerParams
    reg: LayerParams


def init_baseline_params(cfg: HeadConfig, rng: np.random.Generator) -> BaselineParams:
    flat = cfg.channels * cfg.height * cfg.width
    return BaselineParams(fc1=_init_layer(rng, (cfg.hidden, flat)),
                          fc2=_init_layer(rng, (cfg.hidden, cfg.hidden)),
                          cls=_init_layer(rng, (cfg.cls_len, cfg.hidden)),
                          reg=_init_layer(rng, (cfg.reg_len, cfg.hidden)))


def baseline_forward(xs: Sequence[Tensor], params: BaselineParams,
                     cfg: HeadConfig) -> HeadOutput:
    """Run the two-FC head on a batch of proposal grids, one flattened grid
    per row."""
    _check_grids(xs, cfg)
    rows = T.reshape(T.concat(xs), (len(xs), xs[0].size))
    h1 = T.relu(T.linear(rows, params.fc1.weight, params.fc1.bias))
    h2 = T.relu(T.linear(h1, params.fc2.weight, params.fc2.bias))
    v_cls = T.linear(h2, params.cls.weight, params.cls.bias)
    v_reg = T.linear(h2, params.reg.weight, params.reg.bias)
    return HeadOutput(v_cls=v_cls, v_reg=v_reg)
