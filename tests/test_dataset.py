"""Synthetic dataset: determinism, composition, decoder oracle, file format."""

import struct

import numpy as np
import pytest

import oracles
from kphead.dataset import (ToyDatasetSpec, ToyExample, class_signatures, generate_dataset,
                            read_dataset, write_dataset)
from kphead.errors import ConfigError, ContractViolation
from kphead.tensor import Tensor

SMALL = ToyDatasetSpec(channels=16, num_classes=3, parts_per_class=4,
                       n_train=40, n_test=24, seed=5)


class TestGeneration:
    def test_same_seed_bit_identical(self):
        a_train, a_test = generate_dataset(SMALL)
        b_train, b_test = generate_dataset(SMALL)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.x.data.tobytes() == b.x.data.tobytes()
            assert a.planted_points == b.planted_points
            assert np.array_equal(a.box_target, b.box_target)

    def test_different_seed_differs(self):
        other = ToyDatasetSpec(channels=16, num_classes=3, parts_per_class=4,
                               n_train=40, n_test=24, seed=6)
        a, _ = generate_dataset(SMALL)
        b, _ = generate_dataset(other)
        assert a[0].x.data.tobytes() != b[0].x.data.tobytes()

    def test_zero_noise_grids_are_signatures_only(self):
        spec = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=3,
                              noise_sigma=0.0, n_train=20, n_test=10, seed=7)
        train, _ = generate_dataset(spec)
        for ex in train:
            if ex.y_hat == 0:
                assert np.all(ex.x.data == 0.0)
            else:
                mask = np.zeros((7, 7), dtype=bool)
                for r, c in ex.planted_points:
                    mask[r, c] = True
                assert np.all(ex.x.data[:, ~mask] == 0.0)
                assert np.all(np.abs(ex.x.data[:, mask]).sum(axis=0) > 0)

    def test_background_fraction_within_one_example(self):
        spec = ToyDatasetSpec(n_train=101, n_test=33, background_fraction=0.25, seed=8)
        train, test = generate_dataset(spec)
        assert abs(sum(1 - e.y_hat for e in train) - 0.25 * 101) <= 1.0
        assert abs(sum(1 - e.y_hat for e in test) - 0.25 * 33) <= 1.0

    def test_planted_points_distinct_and_in_bounds(self):
        train, _ = generate_dataset(SMALL)
        for ex in train:
            if ex.y_hat:
                assert len(set(ex.planted_points)) == len(ex.planted_points)
                assert all(0 <= r < 7 and 0 <= c < 7 for r, c in ex.planted_points)
            else:
                assert ex.planted_points == [] and ex.class_id == 0

    def test_box_targets_cover_planted_rect(self):
        train, _ = generate_dataset(SMALL)
        ex = next(e for e in train if e.y_hat)
        rows = [p[0] for p in ex.planted_points]
        cols = [p[1] for p in ex.planted_points]
        cy, cx, bh, bw = ex.box_target
        assert cy == pytest.approx((min(rows) + max(rows) + 1) / 2 / 7, abs=1e-6)
        assert bw == pytest.approx((max(cols) - min(cols) + 1) / 7, abs=1e-6)

    def test_oversized_parts_rejected(self):
        with pytest.raises(ConfigError):
            ToyDatasetSpec(parts_per_class=50)


class TestDecoderOracle:
    def test_perfect_at_zero_noise(self):
        spec = ToyDatasetSpec(channels=16, num_classes=4, noise_sigma=0.0,
                              n_train=60, n_test=30, seed=9)
        train, test = generate_dataset(spec)
        assert oracles.nearest_signature_accuracy(train, spec) == 1.0
        assert oracles.nearest_signature_accuracy(test, spec) == 1.0

    def test_high_at_default_noise(self):
        train, test = generate_dataset(SMALL)
        assert oracles.nearest_signature_accuracy(test, SMALL) > 0.9

    def test_signatures_have_requested_norm(self):
        sigs = class_signatures(SMALL)
        norms = np.linalg.norm(sigs, axis=-1)
        np.testing.assert_allclose(norms, SMALL.signature_norm, rtol=1e-6)


class TestFileFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        train, _ = generate_dataset(SMALL)
        path = tmp_path / "d.bin"
        write_dataset(path, SMALL, train)
        info, loaded = read_dataset(path)
        assert info["channels"] == 16 and info["count"] == 40
        assert info["seed"] == SMALL.seed
        for a, b in zip(train, loaded):
            assert a.y_hat == b.y_hat and a.class_id == b.class_id
            assert a.planted_points == b.planted_points
            np.testing.assert_array_equal(a.x.data, b.x.data)
            np.testing.assert_array_equal(a.box_target, b.box_target)

    def test_header_is_32_bytes_with_magic(self, tmp_path):
        train, _ = generate_dataset(SMALL)
        path = tmp_path / "d.bin"
        write_dataset(path, SMALL, train)
        blob = path.read_bytes()
        assert blob[:4] == b"OKPD"
        per_example = 2 + 16 + 2 * SMALL.parts_per_class + 16 * 49 * 4
        assert len(blob) == 32 + 40 * per_example

    def test_write_is_byte_deterministic(self, tmp_path):
        train, _ = generate_dataset(SMALL)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_dataset(p1, SMALL, train)
        write_dataset(p2, SMALL, train)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_hand_packed_golden(self, tmp_path):
        spec = ToyDatasetSpec(channels=1, height=2, width=3, num_classes=2,
                              parts_per_class=2, n_train=2, n_test=1, seed=7)
        fg = ToyExample(x=Tensor(np.arange(6.0).reshape(1, 2, 3)), y_hat=1, class_id=2,
                        box_target=np.array([0.5, 0.25, 1.0, 0.75]),
                        planted_points=[(0, 2), (1, 0)])
        bg = ToyExample(x=Tensor(np.full((1, 2, 3), -1.5)), y_hat=0, class_id=0,
                        box_target=np.zeros(4))
        path = tmp_path / "d.bin"
        write_dataset(path, spec, [fg, bg])
        golden = (b"OKPD" + struct.pack("<HHHHHHIQ", 1, 1, 2, 3, 2, 2, 2, 7) + bytes(4)
                  + struct.pack("<BB4f4B6f", 1, 2, 0.5, 0.25, 1.0, 0.75, 0, 2, 1, 0,
                                *range(6))
                  + struct.pack("<BB4f4B6f", 0, 0, 0, 0, 0, 0, *[0xFF] * 4, *[-1.5] * 6))
        assert path.read_bytes() == golden

    def test_background_sentinel_round_trips(self, tmp_path):
        train, _ = generate_dataset(SMALL)
        bg = [e for e in train if not e.y_hat]
        path = tmp_path / "d.bin"
        write_dataset(path, SMALL, bg)
        _, loaded = read_dataset(path)
        assert all(e.planted_points == [] for e in loaded)

    def test_non_dataset_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dataset at all, promise!" + b"\x00" * 10)
        with pytest.raises(Exception):
            read_dataset(path)

    # byte offsets inside the first example: y_hat, class_id, box, points, grid
    NAN = np.array([np.nan], dtype="<f4").tobytes()
    POINTS_AT = 32 + 2 + 16

    @pytest.mark.parametrize("offset, patch, problem", [
        (32, b"\x02", "y_hat is not 0 or 1"),
        (33, b"\x04", "class_id exceeds the header's 3"),
        (32, b"\x00\x02", "y_hat is not 1 exactly when class_id is not 0"),
        (32, b"\x01\x00", "y_hat is not 1 exactly when class_id is not 0"),
        (34, NAN, "non-finite box"),
        (POINTS_AT, b"\x07\x00", "planted point"),
        (POINTS_AT + 2 * SMALL.parts_per_class + 4 * 17, NAN, "non-finite grid"),
    ], ids=["y_hat", "class_id", "background_y_hat_with_a_class",
            "foreground_y_hat_without_a_class", "box", "point", "grid"])
    def test_bad_example_values_rejected(self, tmp_path, offset, patch, problem):
        train, _ = generate_dataset(SMALL)
        path = tmp_path / "d.bin"
        write_dataset(path, SMALL, train)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractViolation, match=f"example 0: {problem}"):
            read_dataset(path)

    def test_bad_value_past_the_first_read_chunk_names_its_example(self, tmp_path):
        spec = ToyDatasetSpec(channels=16, num_classes=3, parts_per_class=4,
                              n_train=70, n_test=1, seed=5)
        train, _ = generate_dataset(spec)
        path = tmp_path / "d.bin"
        write_dataset(path, spec, train)
        blob = bytearray(path.read_bytes())
        blob[-4:] = self.NAN
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractViolation, match="example 69: non-finite grid value"):
            read_dataset(path)
