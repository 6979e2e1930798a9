"""Condensed head: descriptor layout, global modeling, forward contracts."""

import dataclasses

import numpy as np
import pytest

import oracles
from kphead import tensor as T
from kphead.discovery import DiscoveryConfig, KeyPartSet, init_discovery_params
from kphead.errors import ContractViolation
from kphead.head import (HeadConfig, baseline_forward, full_condensed_forward,
                         global_activation, head_forward, init_baseline_params,
                         init_head_params, key_part_modeling)
from kphead.runconfig import RunConfig
from kphead.tensor import Tensor, backward

TOY_HEAD = HeadConfig(channels=8, num_classes=3, num_parts=2, pool_len=3,
                      height=5, width=5, channel_keep=0.25, hidden=16)
TOY_DISC = DiscoveryConfig(channels=8, num_parts=2, num_blocks=1, reduction=2,
                           groups=2, dilation=2)


def toy_models(seed=0):
    rng = np.random.default_rng(seed)
    return init_discovery_params(TOY_DISC, rng), init_head_params(TOY_HEAD, rng)


def key_part_blocks(x, maps, parts):
    """The N x (K*C + K*H*W) key-part blocks: ``key_part_modeling``'s pieces
    joined row-wise, as ``head_forward`` joins them."""
    return T.concat(key_part_modeling(x, maps, parts), rows=x.shape[0])


class TestDescriptorArithmetic:
    def test_full_scale_lengths(self):
        cfg = HeadConfig(channels=256, num_classes=20, num_parts=16, pool_len=5)
        assert cfg.key_part_len == 16 * 256 + 16 * 49 == 4880
        assert cfg.global_len == 25 * 64 == 1600
        assert cfg.descriptor_len == 6480

    def test_minimal_lengths(self):
        cfg = HeadConfig(channels=256, num_classes=20, num_parts=1, pool_len=1)
        assert cfg.descriptor_len == 256 + 49 + 64 == 369


class TestKeyPartModeling:
    def test_layout_fiber_then_map(self):
        """Single part at (0,0): descriptor is the fiber then the raw map."""
        x = Tensor(np.zeros((1, 4, 2, 2)))
        x.data[0, :, 0, 0] = [1.0, 2.0, 3.0, 4.0]
        maps = Tensor(np.array([[[[0.9, 0.1], [0.2, 0.3]]]]))
        parts = KeyPartSet(points=[(0, 0)], confidences=[0.9])
        z_k = key_part_blocks(x, maps, [parts])
        np.testing.assert_array_equal(z_k.data, [[1, 2, 3, 4, 0.9, 0.1, 0.2, 0.3]])

    def test_swapping_parts_swaps_blocks(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        maps = rng.uniform(0, 0.9, size=(2, 4, 4))
        parts = KeyPartSet(points=[(1, 1), (2, 3)], confidences=[0.5, 0.6])
        swapped = KeyPartSet(points=[(2, 3), (1, 1)], confidences=[0.6, 0.5])
        z = key_part_blocks(x, Tensor(maps[None]), [parts]).data[0]
        z_sw = key_part_blocks(x, Tensor(maps[None, [1, 0]]), [swapped]).data[0]
        c, hw = 3, 16
        np.testing.assert_array_equal(z_sw[:c], z[c:2 * c])
        np.testing.assert_array_equal(z_sw[c:2 * c], z[:c])
        np.testing.assert_array_equal(z_sw[2 * c:2 * c + hw], z[2 * c + hw:])

    def test_random_matches_concatenation_oracle(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 8, 7, 7)))
        maps = Tensor(rng.uniform(0, 0.9, size=(3, 4, 7, 7)))
        parts = [KeyPartSet(points=[(int(r), int(c)) for r, c in rng.integers(0, 7, size=(4, 2))],
                            confidences=[0.0] * 4) for _ in range(3)]
        z_k = key_part_blocks(x, maps, parts).data
        for i in range(3):  # one row per example
            want = np.concatenate([oracles.gather_loops(x.data[i], parts[i].points).reshape(-1),
                                   maps.data[i].reshape(-1)])
            np.testing.assert_array_equal(z_k[i], want)

    def test_parts_must_match_the_maps(self):
        x, maps = Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros((2, 2, 4, 4)))
        two = KeyPartSet(points=[(0, 0), (1, 1)], confidences=[0.0, 0.0])
        for parts in ([two], [two, KeyPartSet(points=[(0, 0)], confidences=[0.0])]):
            with pytest.raises(ContractViolation):
                key_part_modeling(x, maps, parts)


class TestGlobalModeling:
    def test_degenerate_identity_config(self):
        """L = H = W with channel_keep 1 and identity 1x1 weights flattens x."""
        cfg = HeadConfig(channels=4, num_classes=2, num_parts=1, pool_len=3,
                         height=3, width=3, channel_keep=1.0, hidden=4)
        params = init_head_params(cfg, np.random.default_rng(0))
        params.global_conv.weight.data[:] = np.eye(4).reshape(4, 4, 1, 1)
        params.global_conv.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).standard_normal((4, 3, 3)))
        np.testing.assert_allclose(global_activation(x, params, cfg).data, x.data,
                                   atol=1e-12)

    def test_constant_grid_passes_through_pooling(self):
        params = init_head_params(TOY_HEAD, np.random.default_rng(2))
        params.global_conv.bias.data[:] = 0.0
        x = Tensor(np.full((8, 5, 5), 3.0))
        z_g = global_activation(x, params, TOY_HEAD).data
        row_sums = params.global_conv.weight.data.reshape(2, 8).sum(axis=1)
        for ch in range(2):
            np.testing.assert_allclose(z_g[ch], 3.0 * row_sums[ch], atol=1e-12)

    def test_random_matches_pool_then_conv_oracle(self):
        rng = np.random.default_rng(3)
        cfg = HeadConfig(channels=8, num_classes=3, num_parts=2, pool_len=5,
                         height=7, width=7, channel_keep=0.25, hidden=16)
        params = init_head_params(cfg, rng)
        x = Tensor(rng.standard_normal((8, 7, 7)))
        pooled = oracles.adaptive_avg_pool_loops(x.data, 5)
        want = oracles.conv2d_loops(pooled, params.global_conv.weight.data,
                                    params.global_conv.bias.data).reshape(-1)
        np.testing.assert_allclose(global_activation(x, params, cfg).data.reshape(-1), want,
                                   atol=1e-12)


class TestHeadForward:
    def test_zero_fc_weights_give_bias_logits(self):
        params = init_head_params(TOY_HEAD, np.random.default_rng(4))
        params.fc.weight.data[:] = 0.0
        params.fc.bias.data[:] = 0.0
        params.cls.bias.data[:] = [0.1, 0.2, 0.3, 0.4]
        z_k = Tensor(np.random.default_rng(5).standard_normal((1, TOY_HEAD.key_part_len)))
        z_g = Tensor(np.random.default_rng(6).standard_normal((1, TOY_HEAD.global_len)))
        out = head_forward([z_k], z_g, params, TOY_HEAD)
        np.testing.assert_array_equal(out.v_cls.data, [[0.1, 0.2, 0.3, 0.4]])

    def test_output_lengths(self):
        params = init_head_params(TOY_HEAD, np.random.default_rng(7))
        z_k = Tensor(np.zeros((1, TOY_HEAD.key_part_len)))
        z_g = Tensor(np.zeros((1, TOY_HEAD.global_len)))
        out = head_forward([z_k], z_g, params, TOY_HEAD)
        assert out.v_cls.shape == (1, TOY_HEAD.num_classes + 1)
        assert out.v_reg.shape == (1, 4 * TOY_HEAD.num_classes)

    def test_wrong_descriptor_length_rejected(self):
        params = init_head_params(TOY_HEAD, np.random.default_rng(8))
        with pytest.raises(ContractViolation):
            head_forward([Tensor(np.zeros((1, 3)))], Tensor(np.zeros((1, 3))), params,
                         TOY_HEAD)
        with pytest.raises(ContractViolation):  # blocks of two examples and of one
            head_forward([Tensor(np.zeros((2, TOY_HEAD.key_part_len)))],
                         Tensor(np.zeros((1, TOY_HEAD.global_len))), params, TOY_HEAD)

    def test_end_to_end_matches_composed_oracles(self):
        rng = np.random.default_rng(9)
        params = init_head_params(TOY_HEAD, rng)
        z_k = Tensor(rng.standard_normal((1, TOY_HEAD.key_part_len)))
        z_g = Tensor(rng.standard_normal((1, TOY_HEAD.global_len)))
        out = head_forward([z_k], z_g, params, TOY_HEAD)
        d = np.concatenate([z_k.data[0], z_g.data[0]])
        hidden = np.maximum(oracles.linear_loops(d, params.fc.weight.data,
                                                 params.fc.bias.data), 0.0)
        np.testing.assert_allclose(
            out.v_cls.data[0],
            oracles.linear_loops(hidden, params.cls.weight.data, params.cls.bias.data),
            atol=1e-12)

    def test_relu_scale_invariance(self):
        """Doubling the FC weights and halving the output weights is a no-op
        when every hidden pre-activation is nonnegative."""
        rng = np.random.default_rng(10)
        params = init_head_params(TOY_HEAD, rng)
        params.fc.bias.data[:] = 5.0  # push pre-activations positive
        z_k = Tensor(0.01 * rng.standard_normal((1, TOY_HEAD.key_part_len)))
        z_g = Tensor(0.01 * rng.standard_normal((1, TOY_HEAD.global_len)))
        base = head_forward([z_k], z_g, params, TOY_HEAD)
        params.fc.weight.data *= 2.0
        params.fc.bias.data *= 2.0
        params.cls.weight.data *= 0.5
        params.reg.weight.data *= 0.5
        scaled = head_forward([z_k], z_g, params, TOY_HEAD)
        np.testing.assert_allclose(scaled.v_cls.data, base.v_cls.data, atol=1e-10)
        np.testing.assert_allclose(scaled.v_reg.data, base.v_reg.data, atol=1e-10)


class TestFullForward:
    def test_full_scale_shape_contract(self):
        head_cfg = HeadConfig(channels=256, num_classes=20, num_parts=16, pool_len=5)
        disc_cfg = DiscoveryConfig(channels=256, num_parts=16)
        rng = np.random.default_rng(11)
        disc = init_discovery_params(disc_cfg, rng)
        head = init_head_params(head_cfg, rng)
        x = Tensor(rng.standard_normal((256, 7, 7)))
        fwd = full_condensed_forward([x], disc, head, disc_cfg, head_cfg)
        assert fwd.output.v_cls.shape == (1, 21)
        assert fwd.output.v_reg.shape == (1, 80)
        grids = Tensor(x.data[None])
        assert key_part_blocks(grids, fwd.maps, fwd.parts).shape == (1, 4096 + 784)
        assert fwd.global_map.shape == (1, 64, 5, 5) and fwd.global_map.size == 1600
        assert fwd.maps.shape == (1, 16, 7, 7)
        assert len(fwd.parts) == 1 and len(fwd.parts[0]) == 16

    def test_deterministic_reruns(self):
        disc_params, head_params = toy_models()
        cfg = HeadConfig(channels=8, num_classes=3, num_parts=2, pool_len=3,
                         height=5, width=5, channel_keep=0.25, hidden=16)
        x = Tensor(np.random.default_rng(12).standard_normal((8, 5, 5)))
        a = full_condensed_forward([x], disc_params, head_params, TOY_DISC, cfg)
        b = full_condensed_forward([x], disc_params, head_params, TOY_DISC, cfg)
        assert a.output.v_cls.data.tobytes() == b.output.v_cls.data.tobytes()
        assert a.output.v_reg.data.tobytes() == b.output.v_reg.data.tobytes()

    def test_gradient_flows_to_input_everywhere_finite(self):
        disc_params, head_params = toy_models(13)
        cfg = HeadConfig(channels=8, num_classes=3, num_parts=2, pool_len=3,
                         height=5, width=5, channel_keep=0.25, hidden=16)
        x = Tensor(np.random.default_rng(14).standard_normal((8, 5, 5)),
                   requires_grad=True)
        fwd = full_condensed_forward([x], disc_params, head_params, TOY_DISC, cfg)
        backward(T.sum_all(fwd.output.v_cls) + T.sum_all(fwd.output.v_reg))
        assert x.grad is not None
        assert np.all(np.isfinite(x.grad))
        gathered = {p for p in fwd.parts[0].points}
        assert any(abs(x.grad[:, r, c]).sum() > 0 for r, c in gathered)

    @pytest.mark.parametrize("from_refined", [False, True])
    def test_batch_matches_each_grid_on_its_own(self, from_refined):
        """One pass over N grids gives each grid's outputs, maps, parts, global
        map and input gradient of a pass over that grid alone."""
        disc_params, head_params = toy_models(18)
        disc_cfg = dataclasses.replace(TOY_DISC, gather_from_refined=from_refined)
        grids = np.random.default_rng(19).standard_normal((3, 8, 5, 5))
        g = np.random.default_rng(20).standard_normal((3, TOY_HEAD.cls_len))

        def run(data, g_rows):
            xs = [Tensor(x.copy(), requires_grad=True) for x in data]
            fwd = full_condensed_forward(xs, disc_params, head_params, disc_cfg, TOY_HEAD)
            backward(T.sum_all(T.mul(fwd.output.v_cls, Tensor(g_rows))))
            return fwd, np.stack([x.grad for x in xs])

        fwd, grad = run(grids, g)
        assert fwd.maps.shape == (3, 2, 5, 5) and fwd.global_map.shape == (3, 2, 3, 3)
        for i in range(3):
            one, one_grad = run(grids[i:i + 1], g[i:i + 1])
            assert fwd.parts[i] == one.parts[0]
            for got, want in ((fwd.output.v_cls, one.output.v_cls),
                              (fwd.output.v_reg, one.output.v_reg),
                              (fwd.maps, one.maps), (fwd.global_map, one.global_map)):
                np.testing.assert_allclose(got.data[i], want.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad[i], one_grad[0], rtol=0, atol=1e-12)

    def test_toy_forward_graph_stays_small(self):
        """TMR records one node for all K maps, not a chain per map."""
        cfg = RunConfig()
        rng = np.random.default_rng(17)
        disc_cfg, head_cfg = cfg.discovery_config(), cfg.head_config()
        x = Tensor(rng.standard_normal((head_cfg.channels, head_cfg.height, head_cfg.width)))
        fwd = full_condensed_forward([x], init_discovery_params(disc_cfg, rng),
                                     init_head_params(head_cfg, rng), disc_cfg, head_cfg)
        assert len(oracles.recorded_nodes(fwd.output.v_cls, fwd.output.v_reg)) <= 19


class TestBaselineHead:
    def test_output_lengths_and_determinism(self):
        params = init_baseline_params(TOY_HEAD, np.random.default_rng(15))
        x = Tensor(np.random.default_rng(16).standard_normal((8, 5, 5)))
        out1 = baseline_forward([x], params, TOY_HEAD)
        out2 = baseline_forward([x], params, TOY_HEAD)
        assert out1.v_cls.shape == (1, 4) and out1.v_reg.shape == (1, 12)
        assert out1.v_cls.data.tobytes() == out2.v_cls.data.tobytes()
