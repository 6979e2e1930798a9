"""Condensed detection head: key-part modeling, global modeling and the
single-FC classifier/regressor, plus the two-FC baseline head it replaces.

The condensed head decomposes proposal appearance into a key-part block
(ordered feature fibers at discovered peaks plus the confidence maps) and a
global block (spatially pooled, channel-reduced descriptor), concatenates
the two and runs one fully connected layer before the output heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .discovery import (ConvParams, DiscoveryConfig, DiscoveryParams, KeyPartSet,
                        _uniform_init, _zeros, concentration_forward,
                        extract_key_parts, predict_confidence, tmr_squash)
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
class LinearParams:
    weight: Tensor
    bias: Tensor


@dataclass
class HeadParams:
    """Learnable tensors of the condensed head (global conv + FC + outputs)."""

    global_conv: ConvParams
    fc: LinearParams
    cls: LinearParams
    reg: LinearParams

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [
            ("head.global_conv.weight", self.global_conv.weight),
            ("head.global_conv.bias", self.global_conv.bias),
            ("head.fc.weight", self.fc.weight),
            ("head.fc.bias", self.fc.bias),
            ("head.cls.weight", self.cls.weight),
            ("head.cls.bias", self.cls.bias),
            ("head.reg.weight", self.reg.weight),
            ("head.reg.bias", self.reg.bias),
        ]


def init_head_params(cfg: HeadConfig, rng: np.random.Generator) -> HeadParams:
    c, kept = cfg.channels, cfg.kept_channels
    return HeadParams(
        global_conv=ConvParams(weight=_uniform_init(rng, (kept, c, 1, 1), c),
                               bias=_zeros((kept,))),
        fc=LinearParams(weight=_uniform_init(rng, (cfg.hidden, cfg.descriptor_len),
                                             cfg.descriptor_len),
                        bias=_zeros((cfg.hidden,))),
        cls=LinearParams(weight=_uniform_init(rng, (cfg.cls_len, cfg.hidden), cfg.hidden),
                         bias=_zeros((cfg.cls_len,))),
        reg=LinearParams(weight=_uniform_init(rng, (cfg.reg_len, cfg.hidden), cfg.hidden),
                         bias=_zeros((cfg.reg_len,))),
    )


@dataclass
class HeadOutput:
    v_cls: Tensor  # logits, num_classes + 1 (background at index 0)
    v_reg: Tensor  # box offsets, 4*num_classes or 4


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


def global_modeling(x: Tensor, params: HeadParams, cfg: HeadConfig) -> Tensor:
    """Flattened holistic descriptor (spatial then channel sub-sampling)."""
    return T.flatten(global_activation(x, params, cfg))


def head_forward(z_k: Tensor, z_g: Tensor, params: HeadParams, cfg: HeadConfig) -> HeadOutput:
    """Concat -> single FC -> relu -> parallel classifier and regressor."""
    descriptor = T.concat([z_k, z_g])
    if descriptor.size != cfg.descriptor_len:
        raise ContractViolation(
            f"head_forward: descriptor length {descriptor.size} != expected "
            f"{cfg.descriptor_len}")
    hidden = T.relu(T.linear(descriptor, params.fc.weight, params.fc.bias))
    v_cls = T.linear(hidden, params.cls.weight, params.cls.bias)
    v_reg = T.linear(hidden, params.reg.weight, params.reg.bias)
    return HeadOutput(v_cls=v_cls, v_reg=v_reg)


@dataclass
class CondensedForward:
    """Everything a forward pass yields: detection outputs plus the
    intermediates the losses and visualizations consume."""

    output: HeadOutput
    maps: Tensor            # K x H x W, squashed
    parts: KeyPartSet
    z_k: Tensor
    z_g: Tensor
    global_map: Tensor      # kept_channels x L x L, pre-flatten


def full_condensed_forward(x: Tensor, disc_params: DiscoveryParams,
                           head_params: HeadParams, disc_cfg: DiscoveryConfig,
                           head_cfg: HeadConfig) -> CondensedForward:
    """Run the whole condensed head on one proposal grid."""
    if disc_cfg.channels != head_cfg.channels or disc_cfg.num_parts != head_cfg.num_parts:
        raise ConfigError("discovery and head configs disagree on channels/num_parts")
    if x.shape != (head_cfg.channels, head_cfg.height, head_cfg.width):
        raise ContractViolation(
            f"input grid {x.shape} != configured "
            f"({head_cfg.channels}, {head_cfg.height}, {head_cfg.width})")
    refined = concentration_forward(x, disc_params, disc_cfg)
    raw = predict_confidence(refined, disc_params, disc_cfg)
    maps = tmr_squash(raw, disc_cfg.alpha, disc_cfg.epsilon)
    parts = extract_key_parts(maps)
    gather_source = refined if disc_cfg.gather_from_refined else x
    z_k = key_part_modeling(gather_source, maps, parts)
    global_map = global_activation(x, head_params, head_cfg)
    z_g = T.flatten(global_map)
    output = head_forward(z_k, z_g, head_params, head_cfg)
    return CondensedForward(output=output, maps=maps, parts=parts,
                            z_k=z_k, z_g=z_g, global_map=global_map)


# -- baseline two-FC head -----------------------------------------------------

@dataclass
class BaselineParams:
    """Flatten -> FC -> relu -> FC -> relu -> classifier/regressor."""

    fc1: LinearParams
    fc2: LinearParams
    cls: LinearParams
    reg: LinearParams

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [
            ("baseline.fc1.weight", self.fc1.weight),
            ("baseline.fc1.bias", self.fc1.bias),
            ("baseline.fc2.weight", self.fc2.weight),
            ("baseline.fc2.bias", self.fc2.bias),
            ("baseline.cls.weight", self.cls.weight),
            ("baseline.cls.bias", self.cls.bias),
            ("baseline.reg.weight", self.reg.weight),
            ("baseline.reg.bias", self.reg.bias),
        ]


def init_baseline_params(cfg: HeadConfig, rng: np.random.Generator) -> BaselineParams:
    flat = cfg.channels * cfg.height * cfg.width
    return BaselineParams(
        fc1=LinearParams(weight=_uniform_init(rng, (cfg.hidden, flat), flat),
                         bias=_zeros((cfg.hidden,))),
        fc2=LinearParams(weight=_uniform_init(rng, (cfg.hidden, cfg.hidden), cfg.hidden),
                         bias=_zeros((cfg.hidden,))),
        cls=LinearParams(weight=_uniform_init(rng, (cfg.cls_len, cfg.hidden), cfg.hidden),
                         bias=_zeros((cfg.cls_len,))),
        reg=LinearParams(weight=_uniform_init(rng, (cfg.reg_len, cfg.hidden), cfg.hidden),
                         bias=_zeros((cfg.reg_len,))),
    )


def baseline_forward(x: Tensor, params: BaselineParams, cfg: HeadConfig) -> HeadOutput:
    flat = T.flatten(x)
    h1 = T.relu(T.linear(flat, params.fc1.weight, params.fc1.bias))
    h2 = T.relu(T.linear(h1, params.fc2.weight, params.fc2.bias))
    v_cls = T.linear(h2, params.cls.weight, params.cls.bias)
    v_reg = T.linear(h2, params.reg.weight, params.reg.bias)
    return HeadOutput(v_cls=v_cls, v_reg=v_reg)
