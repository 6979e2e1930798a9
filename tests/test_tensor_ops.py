"""Forward semantics of every tensor operation against naive loop oracles."""

import re

import numpy as np
import pytest

import oracles
from kphead import gradcheck
from kphead import tensor as T
from kphead.discovery import (DiscoveryConfig, concentration_forward, extract_key_parts,
                              init_discovery_params, predict_confidence, tmr_squash)
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

    @staticmethod
    def random_case(case):
        rng = np.random.default_rng([7, case])
        groups = int(rng.choice([1, 2, 4]))
        dilation = int(rng.choice([1, 2]))
        k = int(rng.choice([1, 3]))
        cig = int(rng.integers(1, 3))
        cog = int(rng.integers(1, 3))
        c_in, c_out = groups * cig, groups * cog
        h, w_ = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        x = Tensor(rng.standard_normal((c_in, h, w_)), requires_grad=True)
        w = Tensor(rng.standard_normal((c_out, cig, k, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(c_out), requires_grad=True)
        return x, w, b, groups, dilation

    @pytest.mark.parametrize("case", range(20))
    def test_random_cases_match_oracle(self, case):
        x, w, b, groups, dilation = self.random_case(case)
        out = T.conv2d(x, w, b, groups=groups, dilation=dilation)
        expected = oracles.conv2d_loops(x.data, w.data, b.data, groups, dilation)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

        g = np.random.default_rng([8, case]).standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        for t in (x, w, b):
            want = T.finite_diff_grad(lambda _: T.sum_all(T.mul(
                T.conv2d(x, w, b, groups=groups, dilation=dilation), Tensor(g))), t)
            np.testing.assert_allclose(t.grad, want, rtol=1e-6, atol=1e-6)

    def test_random_cases_cover_every_variant(self):
        cases = [self.random_case(case) for case in range(20)]
        assert {w.shape[2] for _, w, _, _, _ in cases} == {1, 3}
        assert {groups for *_, groups, _ in cases} == {1, 2, 4}
        assert {dilation for *_, dilation in cases} == {1, 2}
        assert any(x.shape[1] != x.shape[2] for x, *_ in cases)

    @staticmethod
    def vjp_case(case):
        """Shapes for the gradient sweep: every kernel size, dilation and group
        count, with several input and output channels per group."""
        rng = np.random.default_rng([11, case])
        k = (1, 3, 5)[case % 3]
        dilation = 1 + (case // 3) % 3
        groups = (1, 2, 8)[(case // 9) % 3]
        cig, cog = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w_ = (1, 1) if case % 10 == 0 else (int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        return (rng.standard_normal((groups * cig, h, w_)),
                rng.standard_normal((groups * cog, cig, k, k)),
                rng.standard_normal(groups * cog), groups, dilation)

    def test_vjp_cases_cover_every_variant(self):
        cases = [self.vjp_case(case) for case in range(54)]
        assert {w.shape[2] for _, w, *_ in cases} == {1, 3, 5}
        assert {dilation for *_, dilation in cases} == {1, 2, 3}
        assert {groups for *_, groups, _ in cases} == {1, 2, 8}
        assert any(g == 8 and x.shape[0] > 8 and w.shape[0] > 8 for x, w, _, g, _ in cases)
        assert any(x.shape[1] != x.shape[2] for x, *_ in cases)
        assert any(x.shape[1:] == (1, 1) for x, *_ in cases)

    @pytest.mark.parametrize("case", range(54))
    def test_gradients_match_loop_oracle(self, case):
        x_data, w_data, b_data, groups, dilation = self.vjp_case(case)
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = T.conv2d(x, w, b, groups=groups, dilation=dilation)
        g = np.random.default_rng([12, case]).standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        want = oracles.conv2d_vjp_loops(x_data, w_data, g, groups, dilation)
        for t, expected in zip((x, w, b), want):
            np.testing.assert_allclose(t.grad, expected, rtol=0, atol=1e-12)

    def test_input_without_gradient_gets_none(self):
        """A data grid, like block 0's input, gets no gradient; the weight
        and bias gradients are the same as when it needs one."""
        x_data, w_data, b_data, groups, dilation = self.vjp_case(13)
        x = Tensor(x_data)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = T.conv2d(x, w, b, groups=groups, dilation=dilation)
        g = np.random.default_rng(13).standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        assert x.grad is None
        _, gw, gb = oracles.conv2d_vjp_loops(x_data, w_data, g, groups, dilation)
        np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)

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
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        np.testing.assert_array_equal(T.adaptive_avg_pool(x, 4).data, x.data)

    def test_global_average(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        out = T.adaptive_avg_pool(x, 1)
        np.testing.assert_allclose(out.data[0, :, 0, 0], x.data[0].mean(axis=(1, 2)))

    def test_seven_to_five_bin_boundaries(self):
        """7 -> 5 bins are [0,2), [1,3), [2,5), [4,6), [5,7)."""
        assert oracles.pool_bin_ranges(7, 5) == [(0, 2), (1, 3), (2, 5), (4, 6), (5, 7)]
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((1, 3, 7, 7)))
        out = T.adaptive_avg_pool(x, 5)
        np.testing.assert_allclose(out.data[0], oracles.adaptive_avg_pool_loops(x.data[0], 5),
                                   atol=1e-12)

    @staticmethod
    def random_case(case):
        rng = np.random.default_rng([11, case])
        h = int(rng.integers(2, 10))
        w = int(rng.integers(2, 10))
        out_len = int(rng.integers(1, min(h, w) + 1))
        x = Tensor(rng.standard_normal((1, int(rng.integers(1, 5)), h, w)), requires_grad=True)
        return x, out_len

    @pytest.mark.parametrize("case", range(10))
    def test_random_cases_match_oracle(self, case):
        x, out_len = self.random_case(case)
        out = T.adaptive_avg_pool(x, out_len)
        np.testing.assert_allclose(out.data[0],
                                   oracles.adaptive_avg_pool_loops(x.data[0], out_len),
                                   atol=1e-12)

        g = np.random.default_rng([12, case]).standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        want = T.finite_diff_grad(
            lambda t: T.sum_all(T.mul(T.adaptive_avg_pool(t, out_len), Tensor(g))), x)
        np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-6)

    def test_random_cases_cover_non_dividing_bins(self):
        cases = [self.random_case(case) for case in range(10)]
        assert any(x.shape[2] != x.shape[3] for x, _ in cases)
        assert any(x.shape[2] % out_len or x.shape[3] % out_len for x, out_len in cases)

    def test_out_of_range_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ConfigError):
            T.adaptive_avg_pool(x, 5)


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.arange(4.0)[None])
        out = T.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        x = Tensor(np.arange(5.0)[None])
        b = np.array([1.5, -2.0])
        out = T.linear(x, Tensor(np.zeros((2, 5))), Tensor(b))
        np.testing.assert_array_equal(out.data, [b])

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 8)))
        w = Tensor(rng.standard_normal((3, 8)))
        b = Tensor(rng.standard_normal(3))
        np.testing.assert_allclose(T.linear(x, w, b).data[0],
                                   oracles.linear_loops(x.data[0], w.data, b.data),
                                   atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            T.linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))

    def test_batch_rows_match_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((5, 8)))
        w = Tensor(rng.standard_normal((3, 8)))
        b = Tensor(rng.standard_normal(3))
        out = T.linear(x, w, b)
        assert out.shape == (5, 3)
        for row, x_row in zip(out.data, x.data):
            np.testing.assert_allclose(row, oracles.linear_loops(x_row, w.data, b.data),
                                       atol=1e-12)


@pytest.fixture
def split_linear(monkeypatch, worker_tasks):
    """``run(split, *args)``: ``_linear_with_vjp(*args)``, plain or with every
    batched product split on the process's worker thread."""
    def run(split, *args):
        monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 0 if split else 1 << 62)
        return _linear_with_vjp(*args)

    return run


def _linear_with_vjp(x, w, b, g):
    """Output of ``T.linear`` and the gradients of ``sum(out * g)`` with
    respect to x, the weight and the bias."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.linear(xt, wt, bt)
    T.backward(T.sum_all(T.mul(out, Tensor(g))))
    return out.data, xt.grad, wt.grad, bt.grad


class TestSplitLinear:
    """``linear`` with the worker thread: each product's output is cut in two
    along its longer axis, one half computed on the worker's thread."""

    @pytest.mark.parametrize("n", [1, 3, 16])
    @pytest.mark.parametrize("d, o", [(7, 5), (33, 65), (1025, 1023)])
    def test_forward_and_vjp_match_the_unsplit_op(self, split_linear, worker_tasks, n, d, o):
        rng = np.random.default_rng([n, d, o])
        args = (rng.standard_normal((n, d)), rng.standard_normal((o, d)),
                rng.standard_normal(o), rng.standard_normal((n, o)))
        plain = split_linear(False, *args)
        assert not worker_tasks
        split = split_linear(True, *args)
        assert len(worker_tasks) == 3  # x @ W.T, g @ W and g.T @ x
        for got, want in zip(split, plain):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_the_paper_hidden_layer_is_byte_identical(self, split_linear, worker_tasks):
        rng = np.random.default_rng(7)
        args = (rng.standard_normal((16, 1024)), rng.standard_normal((1024, 1024)),
                rng.standard_normal(1024), rng.standard_normal((16, 1024)))
        plain = split_linear(False, *args)
        split = split_linear(True, *args)
        assert len(worker_tasks) == 3
        assert [a.tobytes() for a in split] == [a.tobytes() for a in plain]

    def test_gradcheck_passes_on_the_split_path(self, forced_split):
        err = gradcheck.CHECKS["linear"](np.random.default_rng([0, 0, 2]))
        assert forced_split and err < gradcheck.GRAD_TOL

    def test_small_weights_do_not_split(self, worker_tasks, monkeypatch):
        monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 6)
        rng = np.random.default_rng(8)
        _linear_with_vjp(rng.standard_normal((4, 2)), rng.standard_normal((2, 2)),
                         np.zeros(2), rng.standard_normal((4, 2)))
        assert not worker_tasks

    def test_one_usable_cpu_makes_no_worker(self, one_cpu, monkeypatch):
        monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 0)
        rng = np.random.default_rng(9)
        args = (rng.standard_normal((4, 3)), rng.standard_normal((2, 3)), np.zeros(2),
                rng.standard_normal((4, 2)))
        _linear_with_vjp(*args)
        assert T._pool is None


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
        out = T.concat([Tensor(np.array([[1.0]])), Tensor(np.array([[2.0, 3.0]]))])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_concat_flattens_row_major(self):
        part = Tensor(np.arange(6.0).reshape(1, 2, 3))
        out = T.concat([part, Tensor(np.array([[9.0]]))])
        np.testing.assert_array_equal(out.data, [[0, 1, 2, 3, 4, 5, 9]])

    def test_logsumexp_runs_over_each_row(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6))
        want = [oracles.cross_entropy_ref(list(row), 0) + row[0] for row in x]
        np.testing.assert_allclose(T.logsumexp(Tensor(x)).data, want, rtol=1e-14)
        assert T.logsumexp(Tensor(x[:1])).item() == pytest.approx(want[0], rel=1e-14)
        for leaf in (Tensor(x, requires_grad=True), Tensor(x[:1], requires_grad=True)):
            T.backward(T.sum_all(T.logsumexp(leaf)))
            fd = T.finite_diff_grad(lambda t: T.sum_all(T.logsumexp(t)), leaf)
            np.testing.assert_allclose(leaf.grad, fd, atol=1e-8)


class TestArgmax2d:
    """The 2-D argmax ``extract_key_parts`` reads a key part at: the first
    row-major maximum of each map."""

    @staticmethod
    def argmax2d(m):
        points, confidences = extract_key_parts(Tensor(m[None, None]))
        return (*points[0, 0].tolist(), confidences[0, 0])

    def test_all_equal_breaks_to_origin(self):
        assert self.argmax2d(np.zeros((3, 3)))[:2] == (0, 0)

    def test_planted_peak(self):
        m = np.zeros((7, 7))
        m[3, 5] = 2.0
        assert self.argmax2d(m) == (3, 5, 2.0)

    def test_row_major_tie_break(self):
        m = np.zeros((4, 4))
        m[1, 2] = 1.0
        m[2, 1] = 1.0
        assert self.argmax2d(m)[:2] == (1, 2)

    @pytest.mark.parametrize("case", range(10))
    def test_matches_scan_oracle(self, case):
        rng = np.random.default_rng([13, case])
        m = rng.standard_normal((6, 5))
        assert self.argmax2d(m) == oracles.argmax2d_loops(m)


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
        raw = Tensor(raw_data[None], requires_grad=True)
        out = T.truncated_max_squash(raw, 0.5, 0.1)
        np.testing.assert_allclose(out.data[0], oracles.tmr_loops(raw_data, 0.5, 0.1),
                                   atol=1e-12)
        T.backward(T.sum_all(T.mul(out, Tensor(g[None]))))
        np.testing.assert_allclose(raw.grad[0], oracles.tmr_vjp_loops(raw_data, 0.5, 0.1, g),
                                   atol=1e-12)

    @pytest.mark.parametrize("case", range(5))
    def test_map_peaks_tie_break_matches_argmax_oracle(self, case):
        """2 x 2 maps give 2 x 2 peaks, example by example, in order."""
        rng = np.random.default_rng([15, case])
        maps_data = rng.integers(0, 3, size=(4, 5, 6)).astype(float)  # many ties
        maps = Tensor(maps_data.reshape(2, 2, 5, 6), requires_grad=True)
        peaks = T.map_peaks(maps)
        assert peaks.shape == (2, 2)
        T.backward(T.sum_all(T.mul(peaks, Tensor(np.arange(1.0, 5.0).reshape(2, 2)))))
        grad = maps.grad.reshape(4, 5, 6)
        for k in range(4):
            r, c, value = oracles.argmax2d_loops(maps_data[k])
            assert peaks.data.reshape(-1)[k] == value
            want = np.zeros((5, 6))
            want[r, c] = k + 1.0
            np.testing.assert_array_equal(grad[k], want)

    @pytest.mark.parametrize("op", [lambda t: T.map_peaks(t),
                                    lambda t: T.truncated_max_squash(t, 0.5, 0.1)],
                             ids=["map_peaks", "<lambda>"])
    def test_non_map_input_rejected(self, op):
        with pytest.raises(ContractViolation):
            op(Tensor(np.zeros((3, 3))))

    @staticmethod
    def tmr_grad_summing_each_map(raw, alpha, epsilon, g):
        """TMR's input gradient with each map's denominator gradient summed by
        its own ``np.sum`` over that H x W map, one map at a time."""
        flat = raw.reshape(-1, raw.shape[-2] * raw.shape[-1])
        rows = np.arange(flat.shape[0])
        peak_idx = np.argmax(flat, axis=1)
        shifted = flat[rows, peak_idx] + (alpha - 1.0)
        denom = (np.maximum(shifted, 0.0) + (1.0 + epsilon)).reshape(raw.shape[:-2] + (1, 1))
        num = raw + alpha
        g = g * (num / denom > 0.0)
        grad = g / denom
        g_denom = (-g * num / (denom * denom)).reshape((-1,) + raw.shape[-2:])
        g_peak = np.array([np.sum(term) for term in g_denom]) * (shifted > 0.0)
        grad.reshape(flat.shape)[rows, peak_idx] += g_peak
        return grad

    @pytest.mark.parametrize("shape", [(3, 4, 7, 7), (2, 16, 7, 7), (1, 5, 9, 13), (2, 3, 20, 20),
                                       (1, 1, 1, 300), (2, 2, 300, 1)])
    def test_tmr_denominator_gradient_rounds_as_a_per_map_np_sum(self, shape):
        """One row sum over all N*K maps gives, bit for bit, the gradient that
        summing each map with its own np.sum gives; maps of more than 128
        values cover np.sum's pairwise blocks."""
        rng = np.random.default_rng(list(shape))
        raw_data = rng.standard_normal(shape) * 3.0 + 1.0  # most maps truncated
        g = rng.standard_normal(shape) * np.exp(rng.standard_normal(shape))
        raw = Tensor(raw_data, requires_grad=True)
        T.backward(T.sum_all(T.mul(T.truncated_max_squash(raw, 0.5, 0.1), Tensor(g))))
        np.testing.assert_array_equal(raw.grad,
                                      self.tmr_grad_summing_each_map(raw_data, 0.5, 0.1, g))


class TestGatherAt:
    def test_origin_fiber(self):
        x = Tensor(np.arange(2 * 3 * 3, dtype=float).reshape(1, 2, 3, 3))
        out = T.gather_at(x, np.array([[(0, 0)]]))
        np.testing.assert_array_equal(out.data, [[[0.0, 9.0]]])

    def test_duplicate_points_give_identical_rows(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        out = T.gather_at(x, np.array([[(1, 2), (1, 2)]]))
        np.testing.assert_array_equal(out.data[0, 0], out.data[0, 1])

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((1, 8, 7, 7)))
        points = [(int(r), int(c)) for r, c in rng.integers(0, 7, size=(4, 2))]
        np.testing.assert_allclose(T.gather_at(x, np.array([points])).data[0],
                                   oracles.gather_loops(x.data[0], points), atol=1e-12)

    def test_no_points_give_empty_rows(self):
        points = np.zeros((1, 0, 2), dtype=int)
        assert T.gather_at(Tensor(np.zeros((1, 5, 3, 4))), points).shape == (1, 0, 5)

    def test_duplicate_points_accumulate_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 3, 4, 5)), requires_grad=True)
        g = rng.standard_normal((1, 3, 3))
        picked = T.gather_at(x, np.array([[(1, 2), (3, 4), (1, 2)]]))
        T.backward(T.sum_all(T.mul(picked, Tensor(g))))
        want = np.zeros((1, 3, 4, 5))
        want[0, :, 1, 2] = g[0, 0] + g[0, 2]
        want[0, :, 3, 4] = g[0, 1]
        np.testing.assert_array_equal(x.grad, want)

    def test_out_of_bounds_rejected(self):
        """The first point outside the grid is named, a negative one too."""
        x = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ContractViolation, match=re.escape("point 0 = (3, 0) outside 3x3")):
            T.gather_at(x, np.array([[(3, 0)]]))
        for bad in ((-1, 2), (0, -1)):
            with pytest.raises(ContractViolation, match=re.escape(f"point 1 = {bad} outside")):
                T.gather_at(x, np.array([[(0, 0), bad, (5, 5)]]))
        with pytest.raises(ContractViolation, match="outside"):
            T.gather_at(x, np.array([[(0, 0), (2**62, 0)]]))


class TestDeterminism:
    def test_bit_identical_reruns(self):
        """Identical inputs produce bit-identical outputs across runs."""
        def compute():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((1, 4, 6, 6)))
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
            x = Tensor(rng.standard_normal((1, c, h, w_)))
            out_len = int(rng.integers(1, min(h, w_) + 1))
            np.testing.assert_allclose(
                T.adaptive_avg_pool(x, out_len).data[0],
                oracles.adaptive_avg_pool_loops(x.data[0], out_len), atol=1e-12)

            d, m = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            xv = Tensor(rng.standard_normal((1, d)))
            wv = Tensor(rng.standard_normal((m, d)))
            bv = Tensor(rng.standard_normal(m))
            np.testing.assert_allclose(
                T.linear(xv, wv, bv).data[0],
                oracles.linear_loops(xv.data[0], wv.data, bv.data), atol=1e-12)

            points = [(int(r), int(cc))
                      for r, cc in zip(rng.integers(0, h, 4), rng.integers(0, w_, 4))]
            np.testing.assert_allclose(T.gather_at(x, np.array([points])).data[0],
                                       oracles.gather_loops(x.data[0], points), atol=1e-12)


def batched_and_per_example(op, batch, params=(), seed=0):
    """Run ``op(x, i, *params)`` once on the N x ... ``batch`` (``i`` None)
    and once per example ``i`` on a batch of one holding it, backward from
    one random output gradient.  Returns the batched [output, input
    gradient, parameter gradients...] and the per-example ones, outputs and
    input gradients joined along the example axis and parameter gradients
    summed over the examples."""
    rng = np.random.default_rng(seed)
    x = Tensor(batch.copy(), requires_grad=True)
    ps = [Tensor(p.copy(), requires_grad=True) for p in params]
    out = op(x, None, *ps)
    g = rng.standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, Tensor(g))))
    batched = [out.data, x.grad] + [p.grad for p in ps]
    outs, x_grads, p_grads = [], [], [np.zeros_like(p) for p in params]
    for i in range(len(batch)):
        xi = Tensor(batch[i:i + 1].copy(), requires_grad=True)
        psi = [Tensor(p.copy(), requires_grad=True) for p in params]
        oi = op(xi, i, *psi)
        T.backward(T.sum_all(T.mul(oi, Tensor(g[i:i + 1]))))
        outs.append(oi.data)
        x_grads.append(xi.grad)
        for total, p in zip(p_grads, psi):
            total += p.grad
    return batched, [np.concatenate(outs), np.concatenate(x_grads)] + p_grads, g


class TestExampleAxis:
    """Every op that takes a leading example axis: a batch of N equals N
    batches of one, forward and vector-Jacobian product, within ``TOL`` (a
    product or a sum over the examples may round in another order); the
    loop oracles check the batched forms at 1e-12."""

    TOL = 1e-13

    def assert_equivalent(self, batched, per_example):
        for got, want in zip(batched, per_example):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=self.TOL, atol=self.TOL)

    @pytest.mark.parametrize("case", range(12))
    def test_conv2d(self, case):
        rng = np.random.default_rng([21, case])
        groups, dilation, k = (1, 2, 4)[case % 3], 1 + case % 2, (1, 3, 5)[case % 3]
        cig, cog = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n, h, w = int(rng.integers(1, 5)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
        xs = rng.standard_normal((n, groups * cig, h, w))
        weight = rng.standard_normal((groups * cog, cig, k, k))
        bias = rng.standard_normal(groups * cog)
        batched, per_example, g = batched_and_per_example(
            lambda x, i, wt, b: T.conv2d(x, wt, b, groups=groups, dilation=dilation),
            xs, (weight, bias), seed=case)
        self.assert_equivalent(batched, per_example)
        out, gx, gw, gb = batched
        g_w, g_b = np.zeros_like(weight), np.zeros_like(bias)
        for i in range(n):
            np.testing.assert_allclose(
                out[i], oracles.conv2d_loops(xs[i], weight, bias, groups, dilation), atol=1e-12)
            vjp = oracles.conv2d_vjp_loops(xs[i], weight, g[i], groups, dilation)
            np.testing.assert_allclose(gx[i], vjp[0], rtol=0, atol=1e-12)
            g_w += vjp[1]
            g_b += vjp[2]
        np.testing.assert_allclose(gw, g_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gb, g_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", range(8))
    def test_adaptive_avg_pool(self, case):
        rng = np.random.default_rng([22, case])
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        out_len = int(rng.integers(1, min(h, w) + 1))
        xs = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 5)), h, w))
        batched, per_example, _ = batched_and_per_example(
            lambda x, i: T.adaptive_avg_pool(x, out_len), xs, seed=case)
        self.assert_equivalent(batched, per_example)
        for got, x in zip(batched[0], xs):
            np.testing.assert_allclose(got, oracles.adaptive_avg_pool_loops(x, out_len),
                                       atol=1e-12)

    @pytest.mark.parametrize("case", range(8))
    def test_gather_at(self, case):
        rng = np.random.default_rng([23, case])
        n, c, h, w = 1 + case % 4, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 5
        xs = rng.standard_normal((n, c, h, w))
        points = np.array([[(int(r), int(col)) for r, col in zip(rng.integers(0, h, 6),
                                                                 rng.integers(0, 3, 6))]
                           for _ in range(n)])  # 6 points among 3h cells: duplicates
        batched, per_example, _ = batched_and_per_example(
            lambda x, i: T.gather_at(x, points if i is None else points[i:i + 1]), xs,
            seed=case)
        self.assert_equivalent(batched, per_example)
        for got, x, pts in zip(batched[0], xs, points):
            np.testing.assert_allclose(got, oracles.gather_loops(x, pts), atol=1e-12)

    @pytest.mark.parametrize("case", range(5))
    def test_truncated_max_squash(self, case):
        rng = np.random.default_rng([24, case])
        raw = np.stack([TestFusedPeakOps.maps_with_hard_cases(rng) for _ in range(3)])
        batched, per_example, g = batched_and_per_example(
            lambda x, i: T.truncated_max_squash(x, 0.5, 0.1), raw, seed=case)
        self.assert_equivalent(batched, per_example)
        for out, grad, r, gi in zip(batched[0], batched[1], raw, g):
            np.testing.assert_allclose(out, oracles.tmr_loops(r, 0.5, 0.1), atol=1e-12)
            np.testing.assert_allclose(grad, oracles.tmr_vjp_loops(r, 0.5, 0.1, gi),
                                       atol=1e-12)

    @pytest.mark.parametrize("case", range(5))
    def test_map_peaks(self, case):
        rng = np.random.default_rng([25, case])
        maps = rng.integers(0, 3, size=(4, 3, 5, 6)).astype(float)  # many ties
        batched, per_example, _ = batched_and_per_example(lambda x, i: T.map_peaks(x), maps,
                                                          seed=case)
        self.assert_equivalent(batched, per_example)
        for peaks, example in zip(batched[0], maps):
            assert list(peaks) == [oracles.argmax2d_loops(m)[2] for m in example]

    @pytest.mark.parametrize("case", range(3))
    def test_channel_sum(self, case):
        rng = np.random.default_rng([26, case])
        maps = rng.standard_normal((3, 2 + case, 4, 5))
        batched, per_example, _ = batched_and_per_example(lambda x, i: T.channel_sum(x), maps,
                                                          seed=case)
        self.assert_equivalent(batched, per_example)
        for got, example in zip(batched[0], maps):
            want = np.zeros((1, 4, 5))
            for channel in example:
                want[0] += channel
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_concat(self):
        """``concat`` of N-row parts stacks the N rows that ``concat`` gives
        each example's batch of one; its gradient is each part's columns."""
        rng = np.random.default_rng(27)
        a, b = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 5))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = T.concat([ta, tb])
        want = np.concatenate([T.concat([Tensor(a[i:i + 1]), Tensor(b[i:i + 1])]).data
                               for i in range(3)])
        np.testing.assert_array_equal(out.data, want)
        g = rng.standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        np.testing.assert_array_equal(ta.grad, g[:, :4].reshape(a.shape))
        np.testing.assert_array_equal(tb.grad, g[:, 4:])
        with pytest.raises(ContractViolation):
            T.concat([Tensor(a), Tensor(b[:2])])

    def test_stack(self):
        """``stack`` puts part i at example i and routes example i's gradient
        back to part i."""
        rng = np.random.default_rng(29)
        arrays = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
        parts = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.stack(parts)
        np.testing.assert_array_equal(out.data, np.stack(arrays))
        g = rng.standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(part.grad, g[i])
        for bad in ([], [Tensor(arrays[0]), Tensor(arrays[1][:1])]):
            with pytest.raises(ContractViolation):
                T.stack(bad)

    def test_pick(self):
        """``pick`` views example i of the batch; the gradients of repeated
        picks add up in the batch's slot i, and an example never picked gets
        zeros."""
        rng = np.random.default_rng(30)
        data = rng.standard_normal((3, 2, 4))
        batch = Tensor(data, requires_grad=True)
        picks = [T.pick(batch, i) for i in (2, 0, 2)]
        assert all(np.shares_memory(p.data, data) for p in picks)
        for p, i in zip(picks, (2, 0, 2)):
            np.testing.assert_array_equal(p.data, data[i])
        gs = [rng.standard_normal((2, 4)) for _ in picks]
        T.backward(T.sum_all(T.concat([T.mul(p, Tensor(g)) for p, g in zip(picks, gs)])))
        np.testing.assert_array_equal(batch.grad, [gs[1], np.zeros((2, 4)), gs[0] + gs[2]])
        for bad in (-1, 3):
            with pytest.raises(ContractViolation, match="no example"):
                T.pick(batch, bad)
        with pytest.raises(ContractViolation):
            T.pick(Tensor(np.zeros(3)), 0)

    def test_three_axis_input_is_the_one_example_case(self):
        """A C x H x W ``conv2d`` input, the one op that takes it, gives the
        N = 1 batch's output without its example axis."""
        rng = np.random.default_rng(28)
        x = rng.standard_normal((4, 5, 6))
        w, b = Tensor(rng.standard_normal((2, 2, 3, 3))), Tensor(rng.standard_normal(2))
        one = T.conv2d(Tensor(x), w, b, groups=2, dilation=2).data
        batch = T.conv2d(Tensor(x[None]), w, b, groups=2, dilation=2).data
        assert batch.shape == (1,) + one.shape
        np.testing.assert_array_equal(batch[0], one)

    def test_gather_points_must_match_the_examples(self):
        """Points are one signed integer N x P x 2 array; lists are refused,
        not converted, also where they would make one, and so are unsigned
        arrays, whose largest values would wrap around to negative indices."""
        x = Tensor(np.zeros((2, 3, 4, 4)))
        for points in (np.array([(0, 0)]), np.array([[(0, 0)]]), np.zeros((3, 1, 2), int),
                       np.array([[(0, 0, 1)]] * 2), [[(0, 0)], [(1, 1)]],
                       [[(0, 0)], [(1, 1), (2, 2)]], [[], []], [[(0, 0)], [(2**70, 0)]],
                       np.full((2, 1, 2), 2**64 - 1, dtype=np.uint64)):
            with pytest.raises(ContractViolation, match="integer N x P x 2 array"):
                T.gather_at(x, points)
        with pytest.raises(ContractViolation, match="outside"):
            T.gather_at(x, np.array([[(0, 0)], [(4, 0)]]))
        assert T.gather_at(x, np.zeros((2, 0, 2), int)).shape == (2, 0, 3)


_GRID = Tensor(np.zeros((2, 3, 4)))


_DISC_CFG = DiscoveryConfig(channels=2, num_parts=1, reduction=1, groups=1)


def _discovery(step, grid):
    """``step`` (``predict_confidence`` or ``concentration_forward``) of a
    discovery network over 2 channels."""
    return step(grid, init_discovery_params(_DISC_CFG, np.random.default_rng(0)), _DISC_CFG)


@pytest.mark.parametrize("op, shape", [
    (lambda: T.adaptive_avg_pool(_GRID, 2), "N x C x H x W"),
    (lambda: T.channel_sum(_GRID), "N x C x H x W"),
    (lambda: T.map_peaks(_GRID), "N x K x H x W"),
    (lambda: T.truncated_max_squash(_GRID, 0.5, 0.1), "N x K x H x W"),
    (lambda: extract_key_parts(_GRID), "N x K x H x W"),
    (lambda: tmr_squash(_GRID), "N x K x H x W"),
    (lambda: _discovery(predict_confidence, _GRID), "N x C x H x W"),
    (lambda: _discovery(concentration_forward, _GRID), "N x 2 x H x W"),
    (lambda: T.gather_at(_GRID, np.array([(0, 0), (1, 2)])), "N x C x H x W"),
    (lambda: T.gather_at(Tensor(np.zeros((1, 2, 3, 4))), np.array([(0, 0), (1, 2)])), "N x P"),
    (lambda: T.gather_at(Tensor(np.zeros((2, 2, 3, 4))), np.zeros((0, 2), int)), "N x P"),
    (lambda: T.gather_at(Tensor(np.zeros((1, 2, 3, 4))), np.array([[(0.0, 1.0)]])), "N x P"),
    (lambda: T.gather_at(Tensor(np.zeros((1, 2, 3, 4))), np.array([[(True, False)]])),
     "N x P"),
    (lambda: T.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))),
     "N x D"),
    (lambda: T.logsumexp(Tensor(np.zeros(3))), "N x C"),
    (lambda: T.concat([Tensor(np.zeros((2, 3))), Tensor(1.0)]), "N x ..."),
    (lambda: T.concat([Tensor(np.zeros(3)), Tensor(np.zeros((2, 3)))]), "N x ..."),
], ids=["adaptive_avg_pool", "channel_sum", "map_peaks", "truncated_max_squash",
        "extract_key_parts", "tmr_squash", "predict_confidence", "concentration_forward",
        "gather_at_grid", "gather_at_pairs", "gather_at_no_pairs", "gather_at_float",
        "gather_at_bool", "linear", "logsumexp", "concat_scalar", "concat_vector"])
def test_per_example_forms_are_rejected(op, shape):
    """Every op but ``conv2d`` takes N-leading batches only: a C x H x W grid,
    a K x H x W map, a 1-D row, P pairs for one grid or a part without the
    shared leading axis raises, naming the form it needs.  So do float and
    bool points, which would be truncated or read as 0 and 1."""
    with pytest.raises(ContractViolation, match=re.escape(shape)):
        op()
