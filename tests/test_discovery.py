"""Discovery network: concentration blocks, confidence prediction, the
truncated-maximum squash and key-part extraction."""

import numpy as np
import pytest

import oracles
from kphead import tensor as T
from kphead.discovery import (DiscoveryConfig, extract_key_parts, init_discovery_params,
                              concentration_forward, named_tensors, predict_confidence,
                              tmr_squash)
from kphead.errors import ConfigError, ContractViolation
from kphead.tensor import Tensor, backward

TOY_CFG = DiscoveryConfig(channels=8, num_parts=2, num_blocks=1, reduction=2,
                          groups=2, dilation=2)


def toy_params(cfg=TOY_CFG, seed=0):
    return init_discovery_params(cfg, np.random.default_rng(seed))


class TestDiscoveryConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            DiscoveryConfig(channels=64, num_parts=4, reduction=8, groups=32)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError):
            DiscoveryConfig(channels=8, num_parts=1, reduction=2, groups=2, epsilon=0.0)

    def test_defaults_match_full_scale_head(self):
        cfg = DiscoveryConfig(channels=256, num_parts=16)
        assert (cfg.num_blocks, cfg.reduction, cfg.groups, cfg.dilation) == (2, 8, 32, 2)
        assert (cfg.alpha, cfg.epsilon) == (0.5, 0.1)


class TestConcentration:
    def test_zero_weights_give_residual_identity(self):
        params = toy_params()
        for blk in params.blocks:
            blk.reduce.weight.data[:] = 0.0
            blk.restore.weight.data[:] = 0.0
            blk.restore.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).standard_normal((8, 5, 5)))
        out = concentration_forward(x, params, TOY_CFG)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_block_loop_oracle(self):
        rng = np.random.default_rng(2)
        params = toy_params()
        x = Tensor(rng.standard_normal((8, 5, 5)))
        out = concentration_forward(x, params, TOY_CFG)
        blk = params.blocks[0]
        want = oracles.residual_block_loops(
            x.data, blk.reduce.weight.data, blk.reduce.bias.data,
            blk.restore.weight.data, blk.restore.bias.data,
            groups=TOY_CFG.groups, dilation=TOY_CFG.dilation)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_batch_matches_block_loop_oracle(self):
        rng = np.random.default_rng(21)
        params = toy_params()
        x = Tensor(rng.standard_normal((3, 8, 5, 5)))
        out = concentration_forward(x, params, TOY_CFG)
        blk = params.blocks[0]
        want = oracles.residual_block_loops(
            x.data, blk.reduce.weight.data, blk.reduce.bias.data,
            blk.restore.weight.data, blk.restore.bias.data,
            groups=TOY_CFG.groups, dilation=TOY_CFG.dilation)
        assert want.shape == (3, 8, 5, 5)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_batch_matches_each_grid_on_its_own(self):
        """Concentration then prediction over N stacked grids gives each grid's
        raw maps of a pass over that grid alone, and the same vector-Jacobian
        product: each grid's input gradient, and parameter gradients summed
        over the grids (a sum over the examples may round in another order)."""
        cfg = DiscoveryConfig(channels=8, num_parts=3, num_blocks=2, reduction=2,
                              groups=2, dilation=2)
        params = toy_params(cfg, seed=22)
        named = named_tensors("discovery", params)
        rng = np.random.default_rng(23)
        grids = rng.standard_normal((4, 8, 6, 5))
        g = rng.standard_normal((4, 3, 6, 5))

        def run(x_data, g_data):
            for _, t in named:
                t.grad = None
            x = Tensor(x_data.copy(), requires_grad=True)
            raw = predict_confidence(concentration_forward(x, params, cfg), params, cfg)
            backward(T.sum_all(T.mul(raw, Tensor(g_data))))
            return [raw.data, x.grad] + [t.grad for _, t in named]

        batched = run(grids, g)
        per_grid = [run(x, gi) for x, gi in zip(grids, g)]
        want = ([np.stack([one[0] for one in per_grid]), np.stack([one[1] for one in per_grid])]
                + [sum(one[j] for one in per_grid) for j in range(2, len(batched))])
        for got, expected in zip(batched, want):
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    def test_shape_preserved_at_full_scale(self):
        cfg = DiscoveryConfig(channels=256, num_parts=16)
        params = init_discovery_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(3).standard_normal((256, 7, 7)))
        assert concentration_forward(x, params, cfg).shape == (256, 7, 7)


class TestPredictConfidence:
    def test_zero_weights_give_per_map_bias(self):
        params = toy_params()
        params.predict.weight.data[:] = 0.0
        params.predict.bias.data[:] = [0.3, -0.2]
        x = Tensor(np.random.default_rng(4).standard_normal((8, 5, 5)))
        out = predict_confidence(x, params, TOY_CFG)
        np.testing.assert_allclose(out.data[0], 0.3)
        np.testing.assert_allclose(out.data[1], -0.2)

    def test_mean_filter_weight_gives_channel_mean(self):
        cfg = DiscoveryConfig(channels=8, num_parts=1, num_blocks=1, reduction=2, groups=2)
        params = init_discovery_params(cfg, np.random.default_rng(0))
        params.predict.weight.data[:] = 1.0 / 8.0
        params.predict.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(5).standard_normal((8, 4, 4)))
        out = predict_confidence(x, params, cfg)
        np.testing.assert_allclose(out.data[0], x.data.mean(axis=0), atol=1e-12)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        params = toy_params()
        x = Tensor(rng.standard_normal((8, 5, 5)))
        out = predict_confidence(x, params, TOY_CFG)
        want = oracles.conv2d_loops(x.data, params.predict.weight.data,
                                    params.predict.bias.data)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_wrong_channel_count_names_the_channel_axis(self):
        params = toy_params()
        for shape in ((6, 5, 5), (8, 6, 5, 5)):
            with pytest.raises(ContractViolation, match="expected 8 channels, got 6$"):
                predict_confidence(Tensor(np.zeros(shape)), params, TOY_CFG)
        with pytest.raises(ContractViolation, match=r"got shape \(8, 5\)"):
            predict_confidence(Tensor(np.zeros((8, 5))), params, TOY_CFG)


class TestTruncatedMaxSquash:
    def test_all_zero_map_closed_form(self):
        """Zero raw values squash to 0.5/1.1 everywhere."""
        out = tmr_squash(Tensor(np.zeros((1, 3, 3))), alpha=0.5, epsilon=0.1)
        np.testing.assert_allclose(out.data, 0.5 / 1.1)

    def test_worked_three_value_map(self):
        """Raw [-1, 0.3, 1.5]: maximum pushes the denominator to 2.1."""
        raw = Tensor(np.array([-1.0, 0.3, 1.5]).reshape(1, 1, 3))
        out = tmr_squash(raw, alpha=0.5, epsilon=0.1)
        np.testing.assert_allclose(out.data.reshape(-1),
                                   [0.0, 0.8 / 2.1, 2.0 / 2.1], atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((4, 6, 6)) * 2.0
        out = tmr_squash(Tensor(raw))
        np.testing.assert_allclose(out.data, oracles.tmr_loops(raw, 0.5, 0.1), atol=1e-12)

    def test_range_and_max_properties(self):
        """Outputs stay in [0,1); the per-map max hits the closed form."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            raw = rng.uniform(-3, 3, size=(3, 5, 5)) * rng.uniform(0.1, 3)
            out = tmr_squash(Tensor(raw)).data
            assert np.all(out >= 0.0) and np.all(out < 1.0)
            for k in range(3):
                c_m = raw[k].max()
                want = max(0.0, (c_m + 0.5) / (max(0.0, c_m + 0.5 - 1.0) + 1.1))
                assert abs(out[k].max() - want) < 1e-12
                assert out[k].max() < 1.0

    def test_order_preservation_within_map(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            raw = rng.uniform(-2, 4, size=(1, 4, 4))
            out = tmr_squash(Tensor(raw)).data[0]
            flat_raw = raw[0].reshape(-1)
            flat_out = out.reshape(-1)
            order = np.argsort(flat_raw, kind="stable")
            assert np.all(np.diff(flat_out[order]) >= -1e-15)

    def test_linear_regime_identity(self):
        """With the map max at or below 0.5 the squash is max(0, (c+0.5)/1.1)."""
        rng = np.random.default_rng(10)
        raw = np.minimum(rng.uniform(-2, 0.5, size=(2, 4, 4)), 0.5)
        out = tmr_squash(Tensor(raw)).data
        np.testing.assert_allclose(out, np.maximum(0.0, (raw + 0.5) / 1.1), atol=1e-15)

    def test_gradient_reaches_peak_through_both_paths(self):
        """With a saturated maximum, the winning cell's gradient includes the
        denominator path (it differs from a non-winning cell's)."""
        raw = Tensor(np.array([[[2.0, 0.0], [0.0, 0.0]]]), requires_grad=True)
        out = tmr_squash(raw)
        backward(T.sum_all(out))
        assert raw.grad[0, 0, 0] != raw.grad[0, 0, 1]
        assert raw.grad[0, 0, 0] < raw.grad[0, 0, 1]  # peak growth hurts the others

    def test_tied_raw_maximum_is_a_kink(self):
        raw = np.random.default_rng(16).uniform(-1, 1, size=(2, 4, 4))
        raw[1, 0, 3] = raw[1, 2, 1] = 2.0
        with T.KinkWatch() as watch:
            tmr_squash(Tensor(raw))
        assert watch.min_margin == 0.0


class TestExtractKeyParts:
    def test_planted_peaks(self):
        maps = np.zeros((2, 7, 7))
        maps[0, 1, 1] = 1.0
        maps[1, 6, 3] = 1.0
        (parts,) = extract_key_parts(Tensor(maps))
        assert parts.points == [(1, 1), (6, 3)]
        assert parts.confidences == [1.0, 1.0]

    def test_constant_maps_duplicate_origin(self):
        (parts,) = extract_key_parts(Tensor(np.zeros((3, 4, 4))))
        assert parts.points == [(0, 0)] * 3

    def test_permuting_maps_permutes_points(self):
        rng = np.random.default_rng(11)
        maps = rng.standard_normal((4, 5, 5))
        perm = [2, 0, 3, 1]
        (base,) = extract_key_parts(Tensor(maps))
        (shuffled,) = extract_key_parts(Tensor(maps[perm]))
        assert shuffled.points == [base.points[i] for i in perm]

    def test_batch_gives_each_examples_parts(self):
        """One search over N x K x H x W maps returns, per example, what a
        search over that example's K x H x W maps returns."""
        rng = np.random.default_rng(12)
        maps = rng.integers(0, 3, size=(3, 2, 4, 5)).astype(float)  # many ties
        batched = extract_key_parts(Tensor(maps))
        assert len(batched) == 3
        for parts, example in zip(batched, maps):
            assert parts == extract_key_parts(Tensor(example))[0]


class TestTranslationEquivariance:
    """Same-padded convolutions are translation-equivariant away from the
    padded border, so interior confidences and peaks follow cyclic shifts."""

    CFG = DiscoveryConfig(channels=8, num_parts=2, num_blocks=2, reduction=2,
                          groups=2, dilation=2)

    def _raw_maps(self, params, x):
        refined = concentration_forward(Tensor(x), params, self.CFG)
        return predict_confidence(refined, params, self.CFG).data

    def test_interior_values_follow_cyclic_shift(self):
        rng = np.random.default_rng(12)
        params = init_discovery_params(self.CFG, rng)
        x = rng.standard_normal((8, 12, 12))
        dr, dc = 1, 1
        shifted = np.roll(x, shift=(dr, dc), axis=(1, 2))
        base = self._raw_maps(params, x)
        moved = self._raw_maps(params, shifted)
        margin = self.CFG.dilation * self.CFG.num_blocks + 1  # receptive radius + 1
        for r in range(margin, 12 - margin - dr):
            for c in range(margin, 12 - margin - dc):
                np.testing.assert_allclose(moved[:, r + dr, c + dc], base[:, r, c],
                                           atol=1e-12)

    def test_interior_peak_follows_cyclic_shift(self):
        rng = np.random.default_rng(0)
        params = init_discovery_params(self.CFG, rng)
        # pick a channel both prediction maps respond to positively
        w = params.predict.weight.data[:, :, 0, 0]
        ch = int(np.argmax(w.min(axis=0)))
        assert w[:, ch].min() > 0, "seed must give a jointly positive channel"
        x = 0.01 * rng.standard_normal((8, 12, 12))
        x[ch, 5, 6] = 50.0  # dominant interior spike
        shifted = np.roll(x, shift=(1, 1), axis=(1, 2))
        (base,) = extract_key_parts(tmr_squash(Tensor(self._raw_maps(params, x))))
        (moved,) = extract_key_parts(tmr_squash(Tensor(self._raw_maps(params, shifted))))
        assert base.points == [(5, 6)] * 2
        assert moved.points == [(6, 7)] * 2
