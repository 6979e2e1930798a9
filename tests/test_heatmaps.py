"""Graymap export: file count, round trips, normalization guard, sidecar."""

from pathlib import Path

import numpy as np
import pytest

from kphead import tensor as T
from kphead.dataset import ToyDatasetSpec, generate_dataset
from kphead.errors import ConfigError, ContractViolation
from kphead.heatmaps import export_heatmaps, normalize01, read_pgm, write_pgm
from kphead.runconfig import RunConfig
from kphead.training import build_baseline, build_condensed


def tiny_condensed():
    cfg = RunConfig()
    cfg.data = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=2,
                              n_train=8, n_test=4, seed=2)
    cfg.head.num_parts = 3
    cfg.head.pool_len = 2
    cfg.head.hidden = 8
    cfg.okpd.groups = 2
    model = build_condensed(cfg.discovery_config(), cfg.head_config(), seed=0)
    data, _ = generate_dataset(cfg.data)
    return model, data


class TestPgm:
    def test_round_trip_within_one_step(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, size=(7, 7))
        path = tmp_path / "m.pgm"
        write_pgm(path, values)
        back = read_pgm(path)
        assert np.max(np.abs(back - values)) <= 1.0 / 255.0 + 1e-12

    def test_header_is_binary_graymap(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.zeros((3, 5)))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n5 3\n255\n")
        assert len(blob) == len(b"P5\n5 3\n255\n") + 15

    @pytest.mark.parametrize("blob, problem", [
        (b"P6\n4 4\n255\n" + bytes(16), "not a binary graymap"),
        (b"P5\n4 x\n255\n" + bytes(16), "dimensions"),
        (b"P5\n4 0\n255\n", "dimensions"),
        (b"P5\n4\n255\n" + bytes(4), "dimensions"),
        (b"P5\n4 4\n0\n" + bytes(16), "maxval"),
        (b"P5\n4 4\n256\n" + bytes(16), "maxval"),
        (b"P5\n4 4\n255\n" + bytes(11), "11 pixel bytes"),
        (b"P5\n4 4\n255\n" + bytes(17), "17 pixel bytes"),
    ], ids=["magic", "text_dim", "zero_dim", "one_dim", "maxval_0", "maxval_256",
            "truncated", "overlong"])
    def test_malformed_graymap_rejected_naming_path(self, tmp_path, blob, problem):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(ContractViolation, match=problem) as info:
            read_pgm(path)
        assert str(path) in str(info.value)


class TestNormalization:
    def test_constant_map_becomes_mid_gray(self):
        out = normalize01(np.full((4, 4), 7.3))
        np.testing.assert_array_equal(out, np.full((4, 4), 0.5))

    def test_min_max_hits_zero_and_one(self):
        out = normalize01(np.array([[1.0, 3.0], [2.0, 5.0]]))
        assert out.min() == 0.0 and out.max() == 1.0


class TestExport:
    def test_k_maps_produce_k_plus_one_graymaps(self, tmp_path):
        model, data = tiny_condensed()
        paths = export_heatmaps(model, data[0], tmp_path / "out")
        pgms = [p for p in paths if p.endswith(".pgm")]
        assert len(pgms) == 3 + 1
        assert any(p.endswith("global.pgm") for p in pgms)

    def test_export_records_no_graph(self, tmp_path, monkeypatch):
        model, data = tiny_condensed()
        forwards = []

        def capturing(*xs):
            forwards.append(type(model).forward(model, *xs))
            return forwards[-1]

        monkeypatch.setattr(model, "forward", capturing)
        export_heatmaps(model, data[0], tmp_path / "out")
        (fwd,) = forwards
        recorded = [fwd.output.v_cls, fwd.output.v_reg, fwd.maps, fwd.global_map]
        assert all(t._backward_fn is None and not t._parents for t in recorded)

    def test_confidence_maps_round_trip(self, tmp_path):
        model, data = tiny_condensed()
        export_heatmaps(model, data[0], tmp_path / "out")
        fwd = model.forward(data[0].x)
        back = read_pgm(tmp_path / "out" / "part_00.pgm")
        assert np.max(np.abs(back - fwd.maps.data[0, 0])) <= 1.0 / 255.0 + 1e-12

    def test_sidecar_lists_every_part_with_threshold_flag(self, tmp_path):
        model, data = tiny_condensed()
        paths = export_heatmaps(model, data[0], tmp_path / "out", threshold=0.1)
        sidecar = [p for p in paths if p.endswith(".txt")][0]
        lines = Path(sidecar).read_text().splitlines()
        assert "0.1" in lines[0]
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 3
        for row in rows:
            fields = row.split()
            assert fields[-1] in ("yes", "no")

    def test_baseline_model_is_rejected_before_any_file_is_written(self, tmp_path):
        model, data = tiny_condensed()
        baseline = build_baseline(model.head_cfg, seed=0)
        with pytest.raises(ConfigError, match="condensed model"):
            export_heatmaps(baseline, data[0], tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_split_products_write_the_same_files(tmp_path, forced_split, monkeypatch):
    model, data = tiny_condensed()
    with monkeypatch.context() as m:
        m.setattr(T, "_worker", lambda: None)
        plain = export_heatmaps(model, data[0], tmp_path / "one")
    assert not forced_split
    split = export_heatmaps(model, data[0], tmp_path / "two")
    assert forced_split
    assert [Path(p).read_bytes() for p in split] == [Path(p).read_bytes() for p in plain]
