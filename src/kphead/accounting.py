"""Closed-form parameter and multiply-accumulate counting for detection heads.

Counts are derived from ``LayerSpec`` tables alone, the same tables the
init functions of ``discovery`` and ``head`` build the models from: conv
layers cost k^2 * (C_in/groups) * C_out (+C_out with bias) parameters and
that times H_out*W_out MACs per proposal; fully connected layers cost
D_in*D_out (+D_out).  Pooling, gathering, concatenation and activations
carry no parameters and are counted as zero-MAC.

Presets reconstruct the head definitions of common two-stage architectures;
the FPN heads reconstruct exactly, the others to the precision their
published definitions allow (see each preset's note).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

from .discovery import DiscoveryConfig, LayerSpec
from .errors import ConfigError
from .head import HeadConfig, baseline_head_layers, condensed_head_layers


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


def baseline_params(head: HeadConfig) -> int:
    """Parameters of the two-FC baseline on ``head``'s grid, classes and hidden width."""
    return count_params(baseline_head_layers(head.num_classes, head.channels, head.height,
                                             head.width, head.hidden)).total_params


def count_params_condensed(head_cfg: HeadConfig, disc_cfg: DiscoveryConfig,
                           baseline_params: int | None = None,
                           title: str = "condensed head") -> ParamReport:
    """Parameter report for a condensed head configuration."""
    return count_params(condensed_head_layers(head_cfg, disc_cfg),
                        title=title, baseline_params=baseline_params)


# -- named presets --------------------------------------------------------------

def fpn_configs(num_classes: int, num_parts: int = 16, pool_len: int = 5,
                num_blocks: int = 2) -> tuple[HeadConfig, DiscoveryConfig]:
    """The FPN head (256 channels, 7x7 grid, 1024 hidden) and its discovery network."""
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


def _baseline_faster_rcnn() -> list[LayerSpec]:
    return _resnet_stage5_layers() + [LayerSpec("cls", "fc", d_in=2048, d_out=21),
                                      LayerSpec("reg", "fc", d_in=2048, d_out=84)]


def _condensed_faster_rcnn() -> list[LayerSpec]:
    head = HeadConfig(channels=1024, num_classes=20, num_parts=4, pool_len=3)
    disc = DiscoveryConfig(channels=1024, num_parts=4, num_blocks=4)
    return condensed_head_layers(head, disc)


def _baseline_rfcn() -> list[LayerSpec]:
    return [
        LayerSpec("reduce1x1", "conv", c_in=2048, c_out=1024, kernel=1, h_out=7, w_out=7),
        LayerSpec("ps_cls", "conv", c_in=1024, c_out=49 * 21, kernel=1, h_out=7, w_out=7),
        LayerSpec("ps_reg", "conv", c_in=1024, c_out=49 * 8, kernel=1, h_out=7, w_out=7),
    ]


def _condensed_rfcn() -> list[LayerSpec]:
    head = HeadConfig(channels=256, num_classes=20, num_parts=16, pool_len=3)
    disc = DiscoveryConfig(channels=256, num_parts=16)
    return [LayerSpec("reduce1x1", "conv", c_in=2048, c_out=256, kernel=1,
                      h_out=7, w_out=7)] + condensed_head_layers(head, disc, with_fc=False)


def _baseline_cascade() -> list[LayerSpec]:
    return [layer for stage in range(3)
            for layer in baseline_head_layers(20, prefix=f"stage{stage}.")]


def _condensed_cascade() -> list[LayerSpec]:
    return [replace(layer, name=f"stage{stage}.{layer.name}")
            for stage, blocks in enumerate((2, 3, 4))
            for layer in condensed_head_layers(*fpn_configs(20, num_blocks=blocks))]


# name -> (layer builder, report notes); a condensed-* preset's baseline is the
# total of the baseline-* preset of the same name
PRESETS = {
    "baseline-fpn-voc": (lambda: baseline_head_layers(20), []),
    "baseline-fpn-coco": (lambda: baseline_head_layers(80), []),
    "condensed-fpn-voc": (lambda: condensed_head_layers(*fpn_configs(20)), []),
    "condensed-fpn-coco": (lambda: condensed_head_layers(*fpn_configs(80)), []),
    "baseline-faster-rcnn": (_baseline_faster_rcnn, [
        "entire final backbone stage counted as the head; "
        "normalization affine parameters excluded"]),
    "condensed-faster-rcnn": (_condensed_faster_rcnn, []),
    "baseline-rfcn": (_baseline_rfcn, [
        "position-sensitive score maps with 49*(20+1) class and 49*8 box channels"]),
    "condensed-rfcn": (_condensed_rfcn, [
        "no fully connected layer: classifier and regressor "
        "attach directly to the concatenated descriptor"]),
    "baseline-cascade": (_baseline_cascade, ["three refinement stages, each a two-FC head"]),
    "condensed-cascade": (_condensed_cascade,
                          ["concentration depth 2/3/4 across the three stages"]),
}


def preset_report(name: str) -> ParamReport:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    build, notes = PRESETS[name]
    baseline = None
    if name.startswith("condensed-"):
        baseline = preset_report(name.replace("condensed-", "baseline-", 1)).total_params
    report = count_params(build(), title=name, baseline_params=baseline)
    report.notes = list(notes)
    return report


# -- (K, L) sweep ------------------------------------------------------------------

DEFAULT_SWEEP_PARTS = (1, 2, 4, 8, 16)
DEFAULT_SWEEP_POOL = (1, 2, 3, 4, 5)


def sweep(parts_grid=DEFAULT_SWEEP_PARTS, pool_grid=DEFAULT_SWEEP_POOL,
          head: HeadConfig | None = None,
          disc: DiscoveryConfig | None = None) -> list[tuple[int, int, int, float]]:
    """Condensed totals of ``head`` and ``disc`` (default: the FPN-VOC pair)
    over a (num_parts, pool_len) grid, against ``head``'s two-FC baseline.

    Returns (K, L, params, params/baseline) rows; totals increase strictly
    in K for fixed L and in L for fixed K.  Cells too large for the head's
    grid are left out.  Raises ConfigError when only one of ``head`` and
    ``disc`` is given.
    """
    if (head is None) != (disc is None):
        raise ConfigError("sweep needs both head and disc, or neither")
    if head is None:
        head, disc = fpn_configs(20)
    baseline = baseline_params(head)
    rows = []
    for k in parts_grid:
        for L in pool_grid:
            if k > head.height * head.width or L > min(head.height, head.width):
                continue
            total = count_params_condensed(replace(head, num_parts=k, pool_len=L),
                                           replace(disc, num_parts=k)).total_params
            rows.append((k, L, total, total / baseline))
    return rows


def render_sweep(rows: list[tuple[int, int, int, float]]) -> str:
    out = ["  K   L        params   vs-baseline"]
    for k, L, params, ratio in rows:
        out.append(f"{k:>3} {L:>3}  {params:>12,}   {ratio:.4f}")
    return "\n".join(out) + "\n"
