"""Forward semantics of every tensor operation against naive loop oracles."""

import numpy as np
import pytest

import oracles
from kphead import tensor as T
from kphead.errors import ConfigError, ContractViolation
from kphead.tensor import Tensor


class TestConv2d:
    def test_scaling_identity(self):
        """1x1 weight [2] on an all-ones grid doubles every value."""
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_bias_only(self):
        x = Tensor(np.zeros((1, 3, 3)))
        w = Tensor(np.random.default_rng(0).standard_normal((1, 1, 3, 3)))
        b = Tensor(np.array([0.7]))
        out = T.conv2d(x, w, b)
        np.testing.assert_allclose(out.data, np.full((1, 3, 3), 0.7))

    def test_grouped_dilated_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        b = Tensor(rng.standard_normal(4))
        out = T.conv2d(x, w, b, groups=2, dilation=2)
        expected = oracles.conv2d_loops(x.data, w.data, b.data, groups=2, dilation=2)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("case", range(20))
    def test_random_cases_match_oracle(self, case):
        rng = np.random.default_rng([7, case])
        groups = int(rng.choice([1, 2, 4]))
        dilation = int(rng.choice([1, 2]))
        k = int(rng.choice([1, 3]))
        cig = int(rng.integers(1, 3))
        cog = int(rng.integers(1, 3))
        c_in, c_out = groups * cig, groups * cog
        h, w_ = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        x = Tensor(rng.standard_normal((c_in, h, w_)))
        w = Tensor(rng.standard_normal((c_out, cig, k, k)))
        b = Tensor(rng.standard_normal(c_out))
        out = T.conv2d(x, w, b, groups=groups, dilation=dilation)
        expected = oracles.conv2d_loops(x.data, w.data, b.data, groups, dilation)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_group_mismatch_rejected(self):
        x = Tensor(np.zeros((3, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, Tensor(np.zeros(2)), groups=2)

    def test_shape_mismatch_names_axis(self):
        x = Tensor(np.zeros((4, 4, 4)))
        w = Tensor(np.zeros((2, 3, 3, 3)))
        with pytest.raises(ContractViolation, match="axis 1"):
            T.conv2d(x, w, Tensor(np.zeros(2)))

    def test_non_preserving_padding_rejected(self):
        x = Tensor(np.zeros((1, 5, 5)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, Tensor(np.zeros(1)), padding=0)


class TestAdaptiveAvgPool:
    def test_identity_when_out_len_matches(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        np.testing.assert_array_equal(T.adaptive_avg_pool(x, 4).data, x.data)

    def test_global_average(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 5, 5)))
        out = T.adaptive_avg_pool(x, 1)
        np.testing.assert_allclose(out.data[:, 0, 0], x.data.mean(axis=(1, 2)))

    def test_seven_to_five_bin_boundaries(self):
        """7 -> 5 bins are [0,2), [1,3), [2,5), [4,6), [5,7)."""
        assert oracles.pool_bin_ranges(7, 5) == [(0, 2), (1, 3), (2, 5), (4, 6), (5, 7)]
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 7, 7)))
        out = T.adaptive_avg_pool(x, 5)
        np.testing.assert_allclose(out.data, oracles.adaptive_avg_pool_loops(x.data, 5),
                                   atol=1e-12)

    @pytest.mark.parametrize("case", range(10))
    def test_random_cases_match_oracle(self, case):
        rng = np.random.default_rng([11, case])
        h = int(rng.integers(2, 10))
        w = int(rng.integers(2, 10))
        out_len = int(rng.integers(1, min(h, w) + 1))
        x = Tensor(rng.standard_normal((int(rng.integers(1, 5)), h, w)))
        np.testing.assert_allclose(T.adaptive_avg_pool(x, out_len).data,
                                   oracles.adaptive_avg_pool_loops(x.data, out_len),
                                   atol=1e-12)

    def test_out_of_range_rejected(self):
        x = Tensor(np.zeros((1, 4, 4)))
        with pytest.raises(ConfigError):
            T.adaptive_avg_pool(x, 5)


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.arange(4.0))
        out = T.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        x = Tensor(np.arange(5.0))
        b = np.array([1.5, -2.0])
        out = T.linear(x, Tensor(np.zeros((2, 5))), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(8))
        w = Tensor(rng.standard_normal((3, 8)))
        b = Tensor(rng.standard_normal(3))
        np.testing.assert_allclose(T.linear(x, w, b).data,
                                   oracles.linear_loops(x.data, w.data, b.data),
                                   atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            T.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


class TestElementwiseAndConcat:
    def test_relu(self):
        out = T.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_matches_elementwise(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_concat_order_preserved(self):
        out = T.concat([Tensor(np.array([1.0])), Tensor(np.array([2.0, 3.0]))])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_flattens_row_major(self):
        part = Tensor(np.arange(6.0).reshape(2, 3))
        out = T.concat([part, Tensor(np.array([9.0]))])
        np.testing.assert_array_equal(out.data, [0, 1, 2, 3, 4, 5, 9])


class TestArgmax2d:
    def test_all_equal_breaks_to_origin(self):
        assert T.argmax2d(Tensor(np.zeros((3, 3))))[:2] == (0, 0)

    def test_planted_peak(self):
        m = np.zeros((7, 7))
        m[3, 5] = 2.0
        assert T.argmax2d(Tensor(m)) == (3, 5, 2.0)

    def test_row_major_tie_break(self):
        m = np.zeros((4, 4))
        m[1, 2] = 1.0
        m[2, 1] = 1.0
        assert T.argmax2d(Tensor(m))[:2] == (1, 2)

    @pytest.mark.parametrize("case", range(10))
    def test_matches_scan_oracle(self, case):
        rng = np.random.default_rng([13, case])
        m = rng.standard_normal((6, 5))
        assert T.argmax2d(Tensor(m)) == oracles.argmax2d_loops(m)


class TestFusedPeakOps:
    @staticmethod
    def maps_with_hard_cases(rng):
        """Random maps; map 0 has a tied raw maximum, map 1 has c_m + alpha < 1."""
        raw = rng.standard_normal((4, 5, 6)) * 2.0
        raw[0, 1, 4] = raw[0, 3, 2] = raw[0].max() + 1.0
        raw[1] = rng.uniform(-2.0, 0.3, size=(5, 6))
        return raw

    @pytest.mark.parametrize("case", range(5))
    def test_truncated_max_squash_matches_loop_oracle(self, case):
        rng = np.random.default_rng([14, case])
        raw_data = self.maps_with_hard_cases(rng)
        g = rng.standard_normal(raw_data.shape)
        raw = Tensor(raw_data, requires_grad=True)
        out = T.truncated_max_squash(raw, 0.5, 0.1)
        np.testing.assert_allclose(out.data, oracles.tmr_loops(raw_data, 0.5, 0.1),
                                   atol=1e-12)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        np.testing.assert_allclose(raw.grad, oracles.tmr_vjp_loops(raw_data, 0.5, 0.1, g),
                                   atol=1e-12)

    @pytest.mark.parametrize("case", range(5))
    def test_map_peaks_tie_break_matches_argmax_oracle(self, case):
        rng = np.random.default_rng([15, case])
        maps_data = rng.integers(0, 3, size=(4, 5, 6)).astype(float)  # many ties
        maps = Tensor(maps_data, requires_grad=True)
        peaks = T.map_peaks(maps)
        T.backward(T.sum_all(T.mul(peaks, Tensor(np.arange(1.0, 5.0)))))
        for k in range(4):
            r, c, value = oracles.argmax2d_loops(maps_data[k])
            assert peaks.data[k] == value
            want = np.zeros((5, 6))
            want[r, c] = k + 1.0
            np.testing.assert_array_equal(maps.grad[k], want)

    @pytest.mark.parametrize("op", [T.map_peaks,
                                    lambda t: T.truncated_max_squash(t, 0.5, 0.1)])
    def test_non_map_input_rejected(self, op):
        with pytest.raises(ContractViolation):
            op(Tensor(np.zeros((3, 3))))


class TestGatherAt:
    def test_origin_fiber(self):
        x = Tensor(np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3))
        out = T.gather_at(x, [(0, 0)])
        np.testing.assert_array_equal(out.data, [[0.0, 9.0]])

    def test_duplicate_points_give_identical_rows(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 4, 4)))
        out = T.gather_at(x, [(1, 2), (1, 2)])
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((8, 7, 7)))
        points = [(int(r), int(c)) for r, c in rng.integers(0, 7, size=(4, 2))]
        np.testing.assert_allclose(T.gather_at(x, points).data,
                                   oracles.gather_loops(x.data, points), atol=1e-12)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ContractViolation):
            T.gather_at(Tensor(np.zeros((1, 3, 3))), [(3, 0)])


class TestDeterminism:
    def test_bit_identical_reruns(self):
        """Identical inputs produce bit-identical outputs across runs."""
        def compute():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((4, 6, 6)))
            w = Tensor(rng.standard_normal((4, 2, 3, 3)))
            b = Tensor(rng.standard_normal(4))
            out = T.adaptive_avg_pool(T.relu(T.conv2d(x, w, b, groups=2, dilation=2)), 3)
            return out.data.tobytes()

        assert compute() == compute()


class TestForwardOracleSweep:
    """100 random instances per forward op stay within 1e-12 of the loop
    oracles, on shapes up to 8 x 9 x 9."""

    def test_conv2d_100(self):
        for case in range(100):
            rng = np.random.default_rng([101, case])
            groups = int(rng.choice([1, 2]))
            dilation = int(rng.choice([1, 2]))
            k = int(rng.choice([1, 3]))
            c_in = groups * int(rng.integers(1, 5))
            c_out = groups * int(rng.integers(1, 5))
            h, w_ = int(rng.integers(3, 10)), int(rng.integers(3, 10))
            x = Tensor(rng.standard_normal((c_in, h, w_)))
            w = Tensor(rng.standard_normal((c_out, c_in // groups, k, k)))
            b = Tensor(rng.standard_normal(c_out))
            got = T.conv2d(x, w, b, groups=groups, dilation=dilation)
            want = oracles.conv2d_loops(x.data, w.data, b.data, groups, dilation)
            np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_pool_linear_gather_100(self):
        for case in range(100):
            rng = np.random.default_rng([103, case])
            c = int(rng.integers(1, 9))
            h, w_ = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            x = Tensor(rng.standard_normal((c, h, w_)))
            out_len = int(rng.integers(1, min(h, w_) + 1))
            np.testing.assert_allclose(
                T.adaptive_avg_pool(x, out_len).data,
                oracles.adaptive_avg_pool_loops(x.data, out_len), atol=1e-12)

            d, m = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            xv = Tensor(rng.standard_normal(d))
            wv = Tensor(rng.standard_normal((m, d)))
            bv = Tensor(rng.standard_normal(m))
            np.testing.assert_allclose(
                T.linear(xv, wv, bv).data,
                oracles.linear_loops(xv.data, wv.data, bv.data), atol=1e-12)

            points = [(int(r), int(cc))
                      for r, cc in zip(rng.integers(0, h, 4), rng.integers(0, w_, 4))]
            np.testing.assert_allclose(T.gather_at(x, points).data,
                                       oracles.gather_loops(x.data, points), atol=1e-12)
