"""Evaluation metrics: recall matching, chance-level estimate, fixtures."""

import contextlib
import dataclasses
import importlib
import os

import numpy as np
import pytest

import oracles
from kphead import tensor as T
from kphead.dataset import ToyDatasetSpec, generate_dataset
from kphead.errors import ContractViolation
from kphead.evaluate import chance_recall_estimate, evaluate, key_part_hits
from kphead.runconfig import RunConfig
from kphead.training import build_baseline, build_condensed


def recall(points, planted):
    """(hits, total) of one example's points against its planted cells."""
    planted = np.array(planted).reshape(-1, 2)
    each = np.broadcast_to(np.array(points), (len(planted), len(points), 2))
    return int(np.count_nonzero(key_part_hits(each, planted))), len(planted)


class TestKeyPartRecall:
    def test_exact_hits(self):
        hits, total = recall([(1, 1), (5, 5)], [(1, 1), (5, 5)])
        assert (hits, total) == (2, 2)

    def test_chebyshev_one_counts(self):
        hits, total = recall([(2, 2)], [(3, 3), (0, 0)])
        assert (hits, total) == (1, 2)

    def test_perfect_predictor_fixture_gives_recall_one(self):
        """A predictor that outputs the planted cells scores exactly 1.0."""
        spec = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=3,
                              n_train=16, n_test=8, seed=4)
        train, _ = generate_dataset(spec)
        for ex in train:
            if ex.y_hat:
                hits, total = recall(list(ex.planted_points), ex.planted_points)
                assert hits == total

    def test_far_points_missed(self):
        hits, total = recall([(0, 0)], [(6, 6)])
        assert (hits, total) == (0, 1)


class TestChanceLevel:
    def test_formula(self):
        assert chance_recall_estimate(4, 4, 7, 7) == 16 / 49

    def test_matches_uniform_coincidence_monte_carlo(self):
        """The reported chance level equals the expected number of exact
        planted-cell/key-point coincidences under uniform placement."""
        rng = np.random.default_rng(0)
        h = w = 7
        d = k = 4
        trials = 20000
        coincidences = 0
        for _ in range(trials):
            planted = set(map(int, rng.choice(h * w, size=d, replace=False)))
            points = rng.integers(0, h * w, size=k)
            coincidences += sum(1 for p in points if int(p) in planted)
        estimate = coincidences / trials
        assert abs(estimate - chance_recall_estimate(d, k, h, w)) < 0.02


def _small_models_and_test_set(n_test=20, reg_per_class=True):
    cfg = RunConfig()
    cfg.data = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=2,
                              n_train=8, n_test=n_test, seed=5)
    cfg.head.num_parts = 2
    cfg.head.pool_len = 2
    cfg.head.hidden = 8
    cfg.head.reg_per_class = reg_per_class
    cfg.okpd.groups = 2
    models = {"condensed": build_condensed(cfg.discovery_config(), cfg.head_config(), seed=0),
              "baseline": build_baseline(cfg.head_config(), seed=0)}
    return models, generate_dataset(cfg.data)[1]


# ``kphead.evaluate`` is shadowed by the function the package re-exports
evaluate_mod = importlib.import_module("kphead.evaluate")


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_records_no_graph_and_matches_a_recorded_run(self, kind, monkeypatch):
        models, test_set = _small_models_and_test_set()
        model = models[kind]
        forwards = []

        def capturing(*xs):
            fwd = type(model).forward(model, *xs)
            forwards.append(fwd)
            return fwd

        def run():
            forwards.clear()
            with monkeypatch.context() as m:
                m.setattr(model, "forward", capturing)
                return evaluate(model, test_set).csv_row(), list(forwards)

        row, fwds = run()
        assert len(fwds) == 2  # 16 + 4 examples
        for fwd in fwds:
            outputs = [fwd.output.v_cls, fwd.output.v_reg] + (
                [fwd.maps, fwd.global_map] if fwd.maps is not None else [])
            assert all(t._backward_fn is None and not t._parents for t in outputs)
        assert all(t.grad is None for _, t in model.named_tensors())

        monkeypatch.setattr(evaluate_mod, "NoGrad", contextlib.nullcontext)
        recorded_row, recorded = run()
        assert all(f.output.v_cls._backward_fn is not None for f in recorded)
        assert row == recorded_row

    def test_untrained_model_reports_all_fields(self):
        models, test_set = _small_models_and_test_set()
        m = evaluate(models["condensed"], test_set)
        assert 0.0 <= m.accuracy <= 1.0
        assert 0.0 <= m.part_recall <= 1.0
        assert m.chance_level == chance_recall_estimate(2, 2, 7, 7)
        assert m.mean_distinct_parts >= 1.0
        assert np.isfinite(m.box_mae)
        row = m.csv_row()
        assert len(row.split(",")) == len(m.CSV_HEADER.split(","))


class TestEvaluateMatchesTheLoopOracle:
    """``evaluate``'s array reading of each pass gives the rows of the
    per-example loop in ``oracles.evaluate_loops``, byte for byte."""

    CASES = {
        "short_last_chunk": lambda test_set: test_set[:20],  # one example with a duplicate peak
        "single_example": lambda test_set: test_set[:1],
        "all_background": lambda test_set: [ex for ex in test_set if ex.y_hat == 0][:16],
        "planted_counts_differ": lambda test_set: [
            dataclasses.replace(ex, planted_points=ex.planted_points[:i % 3])
            for i, ex in enumerate(test_set[:35])],
        "background_cells_not_counted": lambda test_set: [
            ex if ex.y_hat else dataclasses.replace(ex, planted_points=[(3, 3)])
            for ex in test_set[:20]],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_rows_equal_the_oracle(self, kind, case):
        models, test_set = _small_models_and_test_set(n_test=48)
        examples = self.CASES[case](test_set)
        if case == "all_background":
            assert len(examples) == 16
        model = models[kind]
        assert evaluate(model, examples).csv_row() == \
            oracles.evaluate_loops(model, examples).csv_row()

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_class_agnostic_boxes(self, kind):
        models, test_set = _small_models_and_test_set(reg_per_class=False)
        assert evaluate(models[kind], test_set).csv_row() == \
            oracles.evaluate_loops(models[kind], test_set).csv_row()

    def test_duplicate_peaks(self):
        """Map 1 copies map 0's prediction weights, so each example's two
        peaks coincide and it has one distinct part."""
        models, test_set = _small_models_and_test_set(n_test=48)
        model = models["condensed"]
        predict = model.disc_params.predict
        predict.weight.data[1] = predict.weight.data[0]
        predict.bias.data[1] = predict.bias.data[0]
        m = evaluate(model, test_set)
        assert m.mean_distinct_parts == 1.0
        assert m.csv_row() == oracles.evaluate_loops(model, test_set).csv_row()


class TestEvaluateRefusesBadClasses:
    @pytest.mark.parametrize("class_id", [-1, 3, 7])
    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_class_outside_the_model_is_refused(self, kind, class_id):
        """A 2-class model reads classes 0..2; any other is refused by name
        before a forward pass, not broadcast or read off the wrong offsets."""
        models, test_set = _small_models_and_test_set()
        test_set[5] = dataclasses.replace(test_set[5], class_id=class_id)
        with pytest.raises(ContractViolation,
                           match=rf"example 5: class_id {class_id} outside \[0, 2\]"):
            evaluate(models[kind], test_set)

    @pytest.mark.parametrize("class_id", [1.0, 1.5, True])
    def test_a_class_that_is_not_an_integer_is_refused(self, class_id, monkeypatch):
        """A float or bool class is refused by name before a forward pass, not
        left to fail as an index."""
        models, test_set = _small_models_and_test_set()
        test_set[5] = dataclasses.replace(test_set[5], y_hat=1, class_id=class_id)
        model = models["condensed"]
        monkeypatch.setattr(model, "forward", None)
        with pytest.raises(ContractViolation,
                           match=rf"example 5: class_id {class_id} is not an integer"):
            evaluate(model, test_set)

    @pytest.mark.parametrize("y_hat, class_id", [(1, 0), (0, 2), (7, 1)])
    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_a_label_that_disagrees_with_the_class_is_refused(self, kind, y_hat, class_id,
                                                              monkeypatch):
        """``y_hat`` is 1 exactly when ``class_id`` is not 0, as in a dataset
        file; a mismatch is refused by name before a forward pass."""
        models, test_set = _small_models_and_test_set()
        test_set[5] = dataclasses.replace(test_set[5], y_hat=y_hat, class_id=class_id)
        model = models[kind]
        monkeypatch.setattr(model, "forward", None)
        with pytest.raises(ContractViolation,
                           match=rf"example 5: y_hat {y_hat} disagrees with class_id {class_id}"):
            evaluate(model, test_set)


class TestEvaluateThreads:
    """``evaluate`` hands half of each large ``linear`` product to the
    process's worker thread; a small model never asks for it."""

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_a_small_model_starts_no_thread(self, kind, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(T, "_pool", None)
        models, test_set = _small_models_and_test_set()
        evaluate(models[kind], test_set)
        assert T._pool is None

    def test_one_usable_cpu_makes_no_executor(self, one_cpu, monkeypatch):
        monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 0)
        models, test_set = _small_models_and_test_set()
        evaluate(models["baseline"], test_set)
        assert T._pool is None

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_a_large_model_leaves_no_thread_and_the_same_metrics(self, kind, forced_split,
                                                                 monkeypatch):
        models, test_set = _small_models_and_test_set()
        with monkeypatch.context() as m:
            m.setattr(T, "_worker", lambda: None)
            want = evaluate(models[kind], test_set).csv_row()
        assert not forced_split
        assert evaluate(models[kind], test_set).csv_row() == want
        assert forced_split

    def test_an_error_mid_forward_leaves_no_thread(self, forced_split):
        models, test_set = _small_models_and_test_set()
        bad = test_set[16]  # the second forward pass's first example
        test_set[16] = dataclasses.replace(bad, x=T.Tensor(bad.x.data[1:]))
        with pytest.raises(ContractViolation):
            evaluate(models["baseline"], test_set)
        assert forced_split  # the first forward pass used the worker
