"""Training objectives: worked smooth-L1 arithmetic and loss contracts."""

import math

import numpy as np
import pytest

import oracles
from kphead import tensor as T
from kphead.discovery import tmr_squash
from kphead.errors import ContractViolation
from kphead.head import HeadConfig, HeadOutput
from kphead.losses import (detection_loss, discovery_objective, discriminative_loss,
                           uniqueness_loss)
from kphead.tensor import Tensor, backward


def maps_with_peaks(peaks, shape=(4, 4)):
    """One confidence map per peak value, planted at distinct positions."""
    k = len(peaks)
    maps = np.zeros((k, *shape))
    for i, peak in enumerate(peaks):
        maps[i, i % shape[0], (i * 2 + 1) % shape[1]] = peak
    return maps


def batch_of(*examples):
    """The N examples' K x H x W maps as one N x K x H x W tensor."""
    return Tensor(np.stack(examples))


def smooth_l1(a: float, b: float) -> float:
    return T.smooth_l1(Tensor(a), Tensor(b)).item()


class TestSmoothL1:
    def test_zero_at_equal_inputs(self):
        assert smooth_l1(1.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert smooth_l1(0.5, 1.0) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert smooth_l1(3.0, 0.0) == pytest.approx(2.5)

    def test_tensor_path_matches_float_path(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            got = T.smooth_l1(Tensor(np.asarray(a)), Tensor(np.asarray(b))).item()
            assert got == pytest.approx(oracles.smooth_l1_ref(a, b), abs=1e-15)


class TestDiscriminativeLoss:
    def test_zero_when_peaks_equal_labels(self):
        batch = batch_of(maps_with_peaks([1.0, 1.0]), maps_with_peaks([0.0, 0.0]))
        assert discriminative_loss(batch, [1, 0]).item() == 0.0

    def test_worked_two_map_positive(self):
        """Peaks (0.5, 1.0) on a positive example cost 0.125 + 0."""
        loss = discriminative_loss(batch_of(maps_with_peaks([0.5, 1.0])), [1])
        assert loss.item() == pytest.approx(0.125)

    def test_random_batch_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        batch, labels, want = [], [], 0.0
        for i in range(5):
            maps = rng.uniform(0, 0.95, size=(3, 4, 4))
            y = int(rng.integers(0, 2))
            batch.append(maps)
            labels.append(y)
            for k in range(3):
                want += oracles.smooth_l1_ref(maps[k].max(), float(y))
        assert discriminative_loss(batch_of(*batch), labels).item() == \
            pytest.approx(want, abs=1e-12)

    def test_batch_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            discriminative_loss(batch_of(maps_with_peaks([0.5])), [1, 0])
        with pytest.raises(ContractViolation):
            discriminative_loss(Tensor(maps_with_peaks([0.5])), [1])  # no example axis

    def test_monotone_pressure_below_one(self):
        """Raising a positive example's peak toward 1 strictly lowers the loss."""
        values = [discriminative_loss(batch_of(maps_with_peaks([p])), [1]).item()
                  for p in (0.2, 0.5, 0.8, 0.99)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestUniquenessLoss:
    def test_zero_when_summed_peak_is_one(self):
        maps = np.zeros((2, 3, 3))
        maps[0, 1, 1] = 0.6
        maps[1, 1, 1] = 0.4
        assert uniqueness_loss(batch_of(maps), [1]).item() == 0.0

    def test_negative_examples_contribute_zero(self):
        rng = np.random.default_rng(2)
        maps = batch_of(rng.uniform(0, 0.9, size=(3, 4, 4)))
        assert uniqueness_loss(maps, [0]).item() == 0.0
        colocated = np.zeros((2, 4, 4))
        colocated[:, 2, 2] = 0.9  # 0.32 as a foreground, as in the worked case
        mixed = batch_of(colocated, rng.uniform(0, 0.9, size=(2, 4, 4)), colocated)
        assert uniqueness_loss(mixed, [1, 0, 0]).item() == pytest.approx(0.32, abs=1e-15)

    def test_worked_colocated_peaks(self):
        """Two identical maps peaking at 0.9 on one cell: smooth_l1(1.8, 1) = 0.32."""
        maps = np.zeros((2, 4, 4))
        maps[0, 2, 2] = 0.9
        maps[1, 2, 2] = 0.9
        assert uniqueness_loss(batch_of(maps), [1]).item() == pytest.approx(0.32)

    def test_all_negative_batch_is_zero(self):
        rng = np.random.default_rng(3)
        batch = Tensor(rng.uniform(0, 0.9, size=(4, 2, 3, 3)))
        assert uniqueness_loss(batch, [0, 0, 0, 0]).item() == 0.0


class TestDiscoveryObjective:
    def test_zero_components_sum_to_zero(self):
        maps = np.zeros((1, 3, 3))
        maps[0, 0, 0] = 1.0
        assert discovery_objective(batch_of(maps), [1]).item() == 0.0

    def test_additivity_of_worked_values(self):
        first = maps_with_peaks([0.5, 1.0])
        second = np.zeros((2, 4, 4))
        second[0, 2, 2] = 0.9
        second[1, 2, 2] = 0.9
        batch, batch2 = batch_of(first), batch_of(second)
        total = discriminative_loss(batch, [1]).item() \
            + discriminative_loss(batch2, [1]).item() \
            + uniqueness_loss(batch, [1]).item() + uniqueness_loss(batch2, [1]).item()
        got = discovery_objective(batch_of(first, second), [1, 1]).item()
        assert got == pytest.approx(total, abs=1e-12)

    def test_spatial_permutation_invariance(self):
        """Permuting cells identically across maps leaves both losses unchanged."""
        rng = np.random.default_rng(4)
        maps = rng.uniform(0, 0.9, size=(3, 4, 4))
        perm = rng.permutation(16)
        permuted = maps.reshape(3, -1)[:, perm].reshape(3, 4, 4)
        for loss in (discriminative_loss, uniqueness_loss):
            assert loss(batch_of(maps), [1]).item() == \
                pytest.approx(loss(batch_of(permuted), [1]).item(), abs=1e-12)

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            batch = Tensor(rng.uniform(0, 0.99, size=(3, 2, 3, 3)))
            labels = [int(v) for v in rng.integers(0, 2, size=3)]
            assert discovery_objective(batch, labels).item() >= 0.0

    def test_gradient_wrt_raw_maps_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        raw = Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)), requires_grad=True)

        def build():
            return discovery_objective(tmr_squash(raw), [1])

        backward(build())
        fd = T.finite_diff_grad(lambda _: build(), raw)
        np.testing.assert_allclose(raw.grad, fd, atol=1e-6)


def per_example_terms(maps_batch, labels):
    """The discriminative and uniqueness terms built one example at a time
    from its K x H x W maps, the per-example sums chained with ``+``."""
    disc = uniq = None
    for maps, y in zip(maps_batch, labels):
        d = T.sum_all(T.smooth_l1(T.map_peaks(maps), Tensor(float(y))))
        disc = d if disc is None else disc + d
        if y:
            u = T.sum_all(T.smooth_l1(T.map_peaks(T.channel_sum(maps)), Tensor(1.0)))
            uniq = u if uniq is None else uniq + u
    return disc, uniq


class TestBatchedDiscoveryTerms:
    """Each discovery term is one graph over the N x K x H x W maps, and the
    gradient it sends to every example's maps is bit-for-bit the
    per-example build's (zero where that build sends none)."""

    @staticmethod
    def batch(rng):
        maps = [rng.uniform(0, 0.99, size=(3, 4, 5)) for _ in range(5)]
        maps[1][2, 0, 1] = maps[1][2, 3, 4] = 1.5  # a tie within one map
        maps[3][:, 1, 1] = maps[3][:, 2, 3] = 0.7  # a tie in the channel sum
        return maps

    @staticmethod
    def term_grads(terms, leaves):
        """Each term's gradient on each leaf, from its own backward pass."""
        grads = []
        for term in terms:
            for leaf in leaves:
                leaf.grad = None
            if term is not None and term.op != "leaf":
                backward(2.0 * term)
            grads.append([leaf.grad for leaf in leaves])
        return grads

    @pytest.mark.parametrize("labels", [[1, 0, 1, 1, 0], [0, 0, 0, 0, 0]])
    def test_map_gradients_equal_the_per_example_build(self, labels):
        arrays = self.batch(np.random.default_rng(10))
        maps = Tensor(np.stack(arrays), requires_grad=True)
        terms = (discriminative_loss(maps, labels), uniqueness_loss(maps, labels))
        grads = [g for (g,) in self.term_grads(terms, [maps])]
        examples = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        want_terms = per_example_terms(examples, labels)
        want_grads = self.term_grads(want_terms, examples)
        assert [t.item() for t in terms] == pytest.approx(
            [t.item() if t is not None else 0.0 for t in want_terms], abs=1e-14)
        for got, want in zip(grads, want_grads):
            assert (got is None) == all(w is None for w in want)
            if got is not None:
                assert np.array_equal(got, np.stack(
                    [w if w is not None else np.zeros_like(a) for w, a in zip(want, arrays)]))
        assert grads[0][1, 2, 0, 1] != 0.0 and grads[0][1, 2, 3, 4] == 0.0


class TestDetectionLoss:
    CFG = HeadConfig(channels=8, num_classes=3, num_parts=1, pool_len=1,
                     height=4, width=4, channel_keep=0.5, hidden=4)

    def test_uniform_logits_give_log_n(self):
        out = HeadOutput(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 8))))
        cfg = HeadConfig(channels=8, num_classes=2, num_parts=1, pool_len=1,
                         height=4, width=4, channel_keep=0.5, hidden=4)
        loss = detection_loss(out, [0], [np.zeros(4)], cfg)
        assert loss.item() == pytest.approx(math.log(3))

    def test_large_margin_drives_loss_to_zero(self):
        cfg = HeadConfig(channels=8, num_classes=2, num_parts=1, pool_len=1,
                         height=4, width=4, channel_keep=0.5, hidden=4)
        logits = np.zeros((1, 3))
        logits[0, 2] = 10.0
        out = HeadOutput(Tensor(logits), Tensor(np.zeros((1, 8))))
        loss = detection_loss(out, [2], [np.zeros(4)], cfg)
        assert loss.item() < 1e-4

    def test_background_ignores_regression(self):
        rng = np.random.default_rng(7)
        cls = rng.standard_normal((1, 4))
        out_a = HeadOutput(Tensor(cls.copy()), Tensor(rng.standard_normal((1, 12))))
        out_b = HeadOutput(Tensor(cls.copy()), Tensor(rng.standard_normal((1, 12))))
        box = rng.standard_normal(4)
        assert detection_loss(out_a, [0], [box], self.CFG).item() == \
            pytest.approx(detection_loss(out_b, [0], [box], self.CFG).item(), abs=1e-15)

    def test_class_out_of_range_rejected(self):
        out = HeadOutput(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 12))))
        with pytest.raises(ContractViolation):
            detection_loss(out, [4], [np.zeros(4)], self.CFG)

    def test_matches_cross_entropy_plus_box_oracle(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal(4)
        regs = rng.standard_normal(12)
        box = rng.standard_normal(4)
        out = HeadOutput(Tensor(logits[None]), Tensor(regs[None]))
        want = oracles.cross_entropy_ref(list(logits), 2)
        want += sum(oracles.smooth_l1_ref(regs[4 + i], box[i]) for i in range(4))
        assert detection_loss(out, [2], [box], self.CFG).item() == pytest.approx(want)

    def test_batch_is_the_sum_of_its_rows(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((3, 4))
        regs = rng.standard_normal((3, 12))
        boxes = rng.standard_normal((3, 4))
        classes = [2, 0, 3]
        want = sum(oracles.cross_entropy_ref(list(logits[i]), c) for i, c in enumerate(classes))
        want += sum(oracles.smooth_l1_ref(regs[i, 4 * (c - 1) + j], boxes[i, j])
                    for i, c in enumerate(classes) if c for j in range(4))
        out = HeadOutput(Tensor(logits), Tensor(regs))
        assert detection_loss(out, classes, boxes, self.CFG).item() == pytest.approx(want)

    def test_rows_and_targets_must_agree(self):
        out = HeadOutput(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 12))))
        with pytest.raises(ContractViolation):
            detection_loss(out, [1], [np.zeros(4)], self.CFG)
