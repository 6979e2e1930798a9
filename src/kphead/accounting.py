"""Closed-form parameter and multiply-accumulate counting for detection heads.

Counts are derived from architecture descriptions alone: conv layers cost
k^2 * (C_in/groups) * C_out (+C_out with bias) parameters and that times
H_out*W_out MACs per proposal; fully connected layers cost D_in*D_out (+D_out).
Pooling, gathering, concatenation and activations carry no parameters and are
counted as zero-MAC.

Presets reconstruct the head definitions of common two-stage architectures;
the FPN heads reconstruct exactly, the others to the precision their
published definitions allow (see each preset's note).
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass, field

from .discovery import DiscoveryConfig
from .errors import ConfigError
from .head import HeadConfig

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
    dilation: int = 1
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

    def params(self) -> int:
        if self.kind == "conv":
            n = self.kernel * self.kernel * (self.c_in // self.groups) * self.c_out
            return n + (self.c_out if self.bias else 0)
        if self.kind == "fc":
            return self.d_in * self.d_out + (self.d_out if self.bias else 0)
        return 0

    def macs(self) -> int:
        if self.kind == "conv":
            per_pos = self.kernel * self.kernel * (self.c_in // self.groups) * self.c_out
            return per_pos * self.h_out * self.w_out
        if self.kind == "fc":
            return self.d_in * self.d_out
        return 0


@dataclass
class ParamReport:
    """Per-layer parameter and per-proposal MAC counts with totals."""

    title: str
    rows: list[tuple[str, int, int]] = field(default_factory=list)  # (name, params, macs)
    baseline_params: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r[1] for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r[2] for r in self.rows)

    @property
    def reduction_ratio(self) -> float | None:
        """Fraction of baseline parameters waived: 1 - condensed/baseline."""
        if self.baseline_params is None:
            return None
        return 1.0 - self.total_params / self.baseline_params

    def render(self) -> str:
        out = io.StringIO()
        out.write(f"{self.title}\n")
        for note in self.notes:
            out.write(f"  note: {note}\n")
        name_w = max([len("layer")] + [len(r[0]) for r in self.rows])
        out.write(f"  {'layer':<{name_w}}  {'params':>12}  {'macs/proposal':>14}\n")
        for name, params, macs in self.rows:
            out.write(f"  {name:<{name_w}}  {params:>12,}  {macs:>14,}\n")
        out.write(f"  {'total':<{name_w}}  {self.total_params:>12,}  {self.total_macs:>14,}\n")
        if self.baseline_params is not None:
            out.write(f"  baseline params     : {self.baseline_params:,}\n")
            out.write(f"  params vs baseline  : {self.total_params / self.baseline_params:.4f}\n")
            out.write(f"  reduction ratio     : {self.reduction_ratio:.4f}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = ["layer,params,macs"]
        lines += [f"{name},{params},{macs}" for name, params, macs in self.rows]
        lines.append(f"total,{self.total_params},{self.total_macs}")
        return "\n".join(lines) + "\n"


def count_params(layers: list[LayerSpec], title: str = "head",
                 baseline_params: int | None = None) -> ParamReport:
    """Closed-form per-layer counting; deterministic and training-free."""
    report = ParamReport(title=title, baseline_params=baseline_params)
    report.rows = [(l.name, l.params(), l.macs()) for l in layers]
    return report


# -- layer builders -----------------------------------------------------------

def discovery_layers(cfg: DiscoveryConfig, height: int = 7, width: int = 7) -> list[LayerSpec]:
    mid = cfg.reduced_channels
    layers: list[LayerSpec] = []
    for i in range(cfg.num_blocks):
        layers.append(LayerSpec(f"block{i}.reduce3x3", "conv", c_in=cfg.channels, c_out=mid,
                                kernel=3, groups=cfg.groups, dilation=cfg.dilation,
                                h_out=height, w_out=width))
        layers.append(LayerSpec(f"block{i}.relu", "activation"))
        layers.append(LayerSpec(f"block{i}.restore1x1", "conv", c_in=mid, c_out=cfg.channels,
                                kernel=1, h_out=height, w_out=width))
    layers.append(LayerSpec("predict1x1", "conv", c_in=cfg.channels, c_out=cfg.num_parts,
                            kernel=1, h_out=height, w_out=width))
    return layers


def condensed_head_layers(head_cfg: HeadConfig, disc_cfg: DiscoveryConfig,
                          with_fc: bool = True) -> list[LayerSpec]:
    """The condensed head as counted layers; mirrors the instantiated model."""
    if head_cfg.channels != disc_cfg.channels or head_cfg.num_parts != disc_cfg.num_parts:
        raise ConfigError("head and discovery configs disagree on channels/num_parts")
    h, w, L = head_cfg.height, head_cfg.width, head_cfg.pool_len
    layers = discovery_layers(disc_cfg, h, w)
    layers.append(LayerSpec("gather_fibers", "gather"))
    layers.append(LayerSpec("global_pool", "pool"))
    layers.append(LayerSpec("global1x1", "conv", c_in=head_cfg.channels,
                            c_out=head_cfg.kept_channels, kernel=1, h_out=L, w_out=L))
    layers.append(LayerSpec("descriptor_concat", "concat"))
    out_in = head_cfg.descriptor_len
    if with_fc:
        layers.append(LayerSpec("fc", "fc", d_in=head_cfg.descriptor_len,
                                d_out=head_cfg.hidden))
        layers.append(LayerSpec("fc.relu", "activation"))
        out_in = head_cfg.hidden
    layers.append(LayerSpec("cls", "fc", d_in=out_in, d_out=head_cfg.cls_len))
    layers.append(LayerSpec("reg", "fc", d_in=out_in, d_out=head_cfg.reg_len))
    return layers


def baseline_head_layers(num_classes: int, channels: int = 256, height: int = 7,
                         width: int = 7, hidden: int = 1024,
                         prefix: str = "") -> list[LayerSpec]:
    """Two-FC head: flatten -> fc -> fc -> classifier/regressor.

    Output widths follow the counted convention of the published totals:
    classifier num_classes+1, regressor 4*(num_classes+1).
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


def count_params_condensed(head_cfg: HeadConfig, disc_cfg: DiscoveryConfig,
                           baseline_params: int | None = None,
                           title: str = "condensed head") -> ParamReport:
    """Parameter report for a condensed head configuration."""
    return count_params(condensed_head_layers(head_cfg, disc_cfg),
                        title=title, baseline_params=baseline_params)


# -- named presets --------------------------------------------------------------

def _fpn_configs(num_classes: int, num_parts: int, pool_len: int,
                 num_blocks: int = 2) -> tuple[HeadConfig, DiscoveryConfig]:
    head = HeadConfig(channels=256, num_classes=num_classes, num_parts=num_parts,
                      pool_len=pool_len)
    disc = DiscoveryConfig(channels=256, num_parts=num_parts, num_blocks=num_blocks)
    return head, disc


def _resnet_stage5_layers() -> list[LayerSpec]:
    """Final ResNet bottleneck stage (3 blocks, 1024 -> 2048), conv weights
    only; the per-channel affine normalization parameters (<0.2% of the
    total) are not counted."""
    layers = [
        LayerSpec("res5a.conv1x1a", "conv", c_in=1024, c_out=512, kernel=1, bias=False,
                  h_out=7, w_out=7),
        LayerSpec("res5a.conv3x3", "conv", c_in=512, c_out=512, kernel=3, bias=False,
                  h_out=7, w_out=7),
        LayerSpec("res5a.conv1x1b", "conv", c_in=512, c_out=2048, kernel=1, bias=False,
                  h_out=7, w_out=7),
        LayerSpec("res5a.downsample", "conv", c_in=1024, c_out=2048, kernel=1, bias=False,
                  h_out=7, w_out=7),
    ]
    for blk in ("res5b", "res5c"):
        layers += [
            LayerSpec(f"{blk}.conv1x1a", "conv", c_in=2048, c_out=512, kernel=1, bias=False,
                      h_out=7, w_out=7),
            LayerSpec(f"{blk}.conv3x3", "conv", c_in=512, c_out=512, kernel=3, bias=False,
                      h_out=7, w_out=7),
            LayerSpec(f"{blk}.conv1x1b", "conv", c_in=512, c_out=2048, kernel=1, bias=False,
                      h_out=7, w_out=7),
        ]
    return layers


def _baseline_fpn(num_classes: int) -> tuple[list[LayerSpec], int | None, list[str]]:
    return baseline_head_layers(num_classes), None, []


def _condensed_fpn(num_classes: int) -> tuple[list[LayerSpec], int | None, list[str]]:
    head, disc = _fpn_configs(num_classes, num_parts=16, pool_len=5)
    baseline = count_params(baseline_head_layers(num_classes)).total_params
    return condensed_head_layers(head, disc), baseline, []


def _baseline_faster_rcnn() -> tuple[list[LayerSpec], int | None, list[str]]:
    layers = _resnet_stage5_layers()
    layers.append(LayerSpec("cls", "fc", d_in=2048, d_out=21))
    layers.append(LayerSpec("reg", "fc", d_in=2048, d_out=84))
    return layers, None, ["entire final backbone stage counted as the head; "
                          "normalization affine parameters excluded"]


def _condensed_faster_rcnn() -> tuple[list[LayerSpec], int | None, list[str]]:
    head = HeadConfig(channels=1024, num_classes=20, num_parts=4, pool_len=3)
    disc = DiscoveryConfig(channels=1024, num_parts=4, num_blocks=4)
    baseline = count_params(_baseline_faster_rcnn()[0]).total_params
    return condensed_head_layers(head, disc), baseline, []


def _baseline_rfcn() -> tuple[list[LayerSpec], int | None, list[str]]:
    layers = [
        LayerSpec("reduce1x1", "conv", c_in=2048, c_out=1024, kernel=1, h_out=7, w_out=7),
        LayerSpec("ps_cls", "conv", c_in=1024, c_out=49 * 21, kernel=1, h_out=7, w_out=7),
        LayerSpec("ps_reg", "conv", c_in=1024, c_out=49 * 8, kernel=1, h_out=7, w_out=7),
    ]
    return layers, None, ["position-sensitive score maps with 49*(20+1) class and "
                          "49*8 box channels"]


def _condensed_rfcn() -> tuple[list[LayerSpec], int | None, list[str]]:
    head = HeadConfig(channels=256, num_classes=20, num_parts=16, pool_len=3)
    disc = DiscoveryConfig(channels=256, num_parts=16)
    layers = [LayerSpec("reduce1x1", "conv", c_in=2048, c_out=256, kernel=1,
                        h_out=7, w_out=7)]
    layers += condensed_head_layers(head, disc, with_fc=False)
    baseline = count_params(_baseline_rfcn()[0]).total_params
    return layers, baseline, ["no fully connected layer: classifier and regressor "
                              "attach directly to the concatenated descriptor"]


def _baseline_cascade() -> tuple[list[LayerSpec], int | None, list[str]]:
    layers = []
    for stage in range(3):
        layers += baseline_head_layers(20, prefix=f"stage{stage}.")
    return layers, None, ["three refinement stages, each a two-FC head"]


def _condensed_cascade() -> tuple[list[LayerSpec], int | None, list[str]]:
    layers = []
    for stage, blocks in enumerate((2, 3, 4)):
        head, disc = _fpn_configs(20, num_parts=16, pool_len=5, num_blocks=blocks)
        layers += [dataclasses.replace(l, name=f"stage{stage}.{l.name}")
                   for l in condensed_head_layers(head, disc)]
    baseline = count_params(_baseline_cascade()[0]).total_params
    return layers, baseline, ["concentration depth 2/3/4 across the three stages"]


PRESETS = {
    "baseline-fpn-voc": lambda: _baseline_fpn(20),
    "baseline-fpn-coco": lambda: _baseline_fpn(80),
    "condensed-fpn-voc": lambda: _condensed_fpn(20),
    "condensed-fpn-coco": lambda: _condensed_fpn(80),
    "baseline-faster-rcnn": _baseline_faster_rcnn,
    "condensed-faster-rcnn": _condensed_faster_rcnn,
    "baseline-rfcn": _baseline_rfcn,
    "condensed-rfcn": _condensed_rfcn,
    "baseline-cascade": _baseline_cascade,
    "condensed-cascade": _condensed_cascade,
}


def preset_report(name: str) -> ParamReport:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    layers, baseline, notes = PRESETS[name]()
    report = count_params(layers, title=name, baseline_params=baseline)
    report.notes = notes
    return report


# -- (K, L) sweep ------------------------------------------------------------------

DEFAULT_SWEEP_PARTS = (1, 2, 4, 8, 16)
DEFAULT_SWEEP_POOL = (1, 2, 3, 4, 5)


def sweep(parts_grid=DEFAULT_SWEEP_PARTS, pool_grid=DEFAULT_SWEEP_POOL,
          num_classes: int = 20, channels: int = 256, hidden: int = 1024,
          groups: int = 32, reduction: int = 8,
          num_blocks: int = 2) -> list[tuple[int, int, int, float]]:
    """Condensed totals over a (num_parts, pool_len) grid.

    Returns (K, L, params, params/baseline) rows; totals increase strictly
    in K for fixed L and in L for fixed K.
    """
    baseline = count_params(baseline_head_layers(num_classes, channels=channels,
                                                 hidden=hidden)).total_params
    rows = []
    for k in parts_grid:
        for L in pool_grid:
            head = HeadConfig(channels=channels, num_classes=num_classes,
                              num_parts=k, pool_len=L, hidden=hidden)
            disc = DiscoveryConfig(channels=channels, num_parts=k, groups=groups,
                                   reduction=reduction, num_blocks=num_blocks)
            total = count_params(condensed_head_layers(head, disc)).total_params
            rows.append((k, L, total, total / baseline))
    return rows


def render_sweep(rows: list[tuple[int, int, int, float]]) -> str:
    out = ["  K   L        params   vs-baseline"]
    for k, L, params, ratio in rows:
        out.append(f"{k:>3} {L:>3}  {params:>12,}   {ratio:.4f}")
    return "\n".join(out) + "\n"
