"""Evaluation metrics: recall matching, chance-level estimate, fixtures."""

import contextlib
import importlib

import numpy as np
import pytest

from kphead.dataset import ToyDatasetSpec, generate_dataset
from kphead.evaluate import chance_recall_estimate, evaluate, key_part_recall
from kphead.runconfig import RunConfig
from kphead.training import build_baseline, build_condensed


class TestKeyPartRecall:
    def test_exact_hits(self):
        hits, total = key_part_recall([(1, 1), (5, 5)], [(1, 1), (5, 5)])
        assert (hits, total) == (2, 2)

    def test_chebyshev_one_counts(self):
        hits, total = key_part_recall([(2, 2)], [(3, 3), (0, 0)])
        assert (hits, total) == (1, 2)

    def test_perfect_predictor_fixture_gives_recall_one(self):
        """A predictor that outputs the planted cells scores exactly 1.0."""
        spec = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=3,
                              n_train=16, n_test=8, seed=4)
        train, _ = generate_dataset(spec)
        for ex in train:
            if ex.y_hat:
                hits, total = key_part_recall(list(ex.planted_points),
                                              ex.planted_points)
                assert hits == total

    def test_far_points_missed(self):
        hits, total = key_part_recall([(0, 0)], [(6, 6)])
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


def _small_models_and_test_set():
    cfg = RunConfig()
    cfg.data = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=2,
                              n_train=8, n_test=20, seed=5)
    cfg.head.num_parts = 2
    cfg.head.pool_len = 2
    cfg.head.hidden = 8
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
            outputs = [fwd.output.v_cls, fwd.output.v_reg] + (fwd.maps or [])
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
