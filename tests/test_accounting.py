"""Closed-form parameter/MAC counting: exact baseline reconstruction,
condensed totals, sweep monotonicity and agreement with instantiated models."""

from dataclasses import replace

import numpy as np
import pytest

from kphead.accounting import (LayerSpec, baseline_head_layers, condensed_head_layers,
                               count_params, count_params_condensed, fpn_configs,
                               preset_report, render_sweep, sweep)
from kphead.discovery import DiscoveryConfig
from kphead.errors import ConfigError
from kphead.head import HeadConfig
from kphead.training import build_baseline, build_condensed


class TestLayerFormulas:
    def test_biased_fc_10_to_10(self):
        assert LayerSpec("fc", "fc", d_in=10, d_out=10).params() == 110

    def test_fc_macs_are_the_product(self):
        assert LayerSpec("fc", "fc", d_in=12544, d_out=1024).macs() == 12_845_056

    def test_pointwise_conv_macs(self):
        layer = LayerSpec("g", "conv", c_in=256, c_out=64, kernel=1, h_out=5, w_out=5)
        assert layer.macs() == 409_600

    def test_grouped_conv_params(self):
        layer = LayerSpec("c", "conv", c_in=256, c_out=32, kernel=3, groups=32)
        assert layer.params() == 9 * 8 * 32 + 32

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            LayerSpec("x", "norm")

    def test_zero_param_kinds(self):
        for kind in ("pool", "gather", "concat", "activation"):
            layer = LayerSpec("x", kind)
            assert layer.params() == 0 and layer.macs() == 0


class TestBaselineReconstruction:
    def test_fpn_voc_exact(self):
        report = preset_report("baseline-fpn-voc")
        assert report.total_params == 14_003_305
        rows = dict((name, params) for name, params, _ in report.rows)
        assert rows["fc1"] == 12_846_080
        assert rows["fc2"] == 1_049_600
        assert rows["cls"] == 21_525
        assert rows["reg"] == 86_100

    def test_fpn_coco_exact(self):
        assert preset_report("baseline-fpn-coco").total_params == 14_310_805

    def test_faster_rcnn_near_published(self):
        total = preset_report("baseline-faster-rcnn").total_params
        assert round(total / 1e6, 1) == 15.2

    def test_rfcn_near_published(self):
        total = preset_report("baseline-rfcn").total_params
        assert abs(total - 3.5e6) / 3.5e6 < 0.03


class TestCondensedReconstruction:
    def test_fpn_voc_within_two_percent(self):
        report = preset_report("condensed-fpn-voc")
        assert abs(report.total_params - 6.8e6) / 6.8e6 < 0.02
        rows = dict((name, params) for name, params, _ in report.rows)
        assert rows["fc"] == 6480 * 1024 + 1024  # the dominant layer

    def test_fpn_coco_within_two_percent(self):
        report = preset_report("condensed-fpn-coco")
        assert abs(report.total_params - 7.1e6) / 7.1e6 < 0.02

    def test_reduction_ratio_near_half(self):
        report = preset_report("condensed-fpn-voc")
        assert 0.48 <= report.reduction_ratio <= 0.54

    def test_minimal_configuration_waives_96_percent(self):
        head = HeadConfig(channels=256, num_classes=20, num_parts=1, pool_len=1)
        disc = DiscoveryConfig(channels=256, num_parts=1)
        report = count_params_condensed(head, disc, baseline_params=14_003_305)
        assert report.total_params / 14_003_305 <= 0.05

    def test_cascade_and_faster_rcnn_presets_order(self):
        for name, published in (("condensed-faster-rcnn", 8.0e6),
                                ("condensed-cascade", 20.3e6),
                                ("condensed-rfcn", 1.5e6)):
            report = preset_report(name)
            assert report.reduction_ratio > 0.4, name
            assert report.total_params < report.baseline_params, name
            # published columns reproduced loosely (definitions allow slack)
            assert abs(report.total_params - published) / published < 0.3, name


class TestMacOrdering:
    def test_condensed_fpn_has_fewer_macs_than_baseline(self):
        condensed = preset_report("condensed-fpn-voc").total_macs
        baseline = preset_report("baseline-fpn-voc").total_macs
        assert condensed < baseline


class TestSweep:
    def test_monotone_in_parts_and_pool(self):
        rows = sweep(parts_grid=(1, 2, 4, 8, 16), pool_grid=(1, 2, 3, 4, 5))
        table = {(k, L): params for k, L, params, _ in rows}
        for L in (1, 2, 3, 4, 5):
            seq = [table[(k, L)] for k in (1, 2, 4, 8, 16)]
            assert all(a < b for a, b in zip(seq, seq[1:]))
        for k in (1, 2, 4, 8, 16):
            seq = [table[(k, L)] for L in (1, 2, 3, 4, 5)]
            assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_full_setting_near_half_and_minimal_below_5_percent(self):
        rows = {(k, L): ratio for k, L, _, ratio in sweep()}
        assert abs(rows[(16, 5)] - 0.49) < 0.02
        assert rows[(1, 1)] <= 0.05

    def test_zero_parts_rejected(self):
        with pytest.raises(ConfigError):
            sweep(parts_grid=(0,), pool_grid=(1,))

    def test_head_without_disc_or_disc_without_head_rejected(self):
        head, disc = fpn_configs(20)
        for one in ({"head": head}, {"disc": disc}):
            with pytest.raises(ConfigError, match="both head and disc"):
                sweep(**one)

    def test_cells_larger_than_the_grid_are_left_out(self):
        head, disc = fpn_configs(20, num_parts=4, pool_len=3)
        rows = sweep(parts_grid=(4, 16), pool_grid=(3, 4),
                     head=replace(head, height=3, width=3), disc=disc)
        assert [(k, L) for k, L, _, _ in rows] == [(4, 3)]

    def test_render_includes_every_row(self):
        rows = sweep(parts_grid=(1, 16), pool_grid=(1, 5))
        text = render_sweep(rows)
        assert text.count("\n") == 5  # header + 4 rows


class TestModelConsistency:
    """Counted totals equal the number of learnable scalars instantiated for
    the same configuration."""

    def test_twenty_random_configurations(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 20:
            groups = int(rng.choice([1, 2, 4]))
            reduction = int(rng.choice([2, 4, 8]))
            channels = reduction * groups * int(rng.integers(1, 5))
            if (channels // reduction) % groups or channels % 4:
                continue
            k = int(rng.integers(1, 17))
            pool = int(rng.integers(1, 6))
            classes = int(rng.integers(1, 21))
            head = HeadConfig(channels=channels, num_classes=classes, num_parts=k,
                              pool_len=pool, hidden=int(rng.choice([64, 256, 1024])))
            disc = DiscoveryConfig(channels=channels, num_parts=k,
                                   num_blocks=int(rng.integers(1, 5)),
                                   reduction=reduction, groups=groups)
            model = build_condensed(disc, head, seed=0)
            report = count_params_condensed(head, disc)
            assert report.total_params == model.scalar_count()
            checked += 1

    def test_table_shapes_are_the_built_shapes(self):
        """Every conv and fc layer of a head's table, in order, is one weight
        of its ``weight_shape`` and one bias per output in the built model's
        ``named_tensors()``.  The baseline's table counts the published
        4*(C+1)-wide regressor; with the built reg_len width it totals the
        built baseline."""
        def shapes(layers):
            return [shape for s in layers if s.weight_shape
                    for shape in (s.weight_shape, s.weight_shape[:1])]

        def built(model):
            return [t.shape for _, t in model.named_tensors()]

        rng = np.random.default_rng(21)
        for _ in range(20):
            groups, reduction = int(rng.choice([1, 2])), int(rng.choice([2, 4]))
            channels = 4 * groups * reduction * int(rng.integers(1, 3))
            height, width = (int(v) for v in rng.integers(2, 8, size=2))
            head = HeadConfig(channels=channels, num_classes=int(rng.integers(1, 21)),
                              num_parts=int(rng.integers(1, min(16, height * width) + 1)),
                              pool_len=int(rng.integers(1, min(height, width) + 1)),
                              height=height, width=width,
                              channel_keep=float(rng.choice([0.25, 0.5, 1.0])),
                              hidden=int(rng.choice([8, 33, 256])),
                              reg_per_class=bool(rng.integers(2)))
            disc = DiscoveryConfig(channels=channels, num_parts=head.num_parts,
                                   num_blocks=int(rng.integers(1, 4)),
                                   reduction=reduction, groups=groups)
            assert shapes(condensed_head_layers(head, disc)) == built(
                build_condensed(disc, head, seed=0))
            counted = baseline_head_layers(head.num_classes, channels, height, width,
                                           head.hidden)
            assert counted[-1].d_out == 4 * (head.num_classes + 1)
            table = counted[:-1] + [replace(counted[-1], d_out=head.reg_len)]
            baseline = build_baseline(head, seed=0)
            assert shapes(table) == built(baseline)
            assert count_params(table).total_params == baseline.scalar_count()

    def test_baseline_head_consistency(self):
        head = HeadConfig(channels=64, num_classes=4, num_parts=4, pool_len=3,
                          hidden=256)
        model = build_baseline(head, seed=0)
        layers = [
            LayerSpec("fc1", "fc", d_in=64 * 49, d_out=256),
            LayerSpec("fc2", "fc", d_in=256, d_out=256),
            LayerSpec("cls", "fc", d_in=256, d_out=5),
            LayerSpec("reg", "fc", d_in=256, d_out=16),
        ]
        assert count_params(layers).total_params == model.scalar_count()


class TestReportRendering:
    def test_csv_has_layer_params_macs_columns(self):
        report = preset_report("baseline-fpn-voc")
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "layer,params,macs"
        assert lines[-1].startswith("total,14003305,")

    def test_render_mentions_totals_and_ratio(self):
        report = preset_report("condensed-fpn-voc")
        text = report.render()
        assert "total" in text and "reduction ratio" in text

    def test_unknown_preset_rejected_with_listing(self):
        with pytest.raises(ConfigError, match="available"):
            preset_report("nope")
