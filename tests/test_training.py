"""Training loop mechanics and parameter-file round trips (fast configs)."""

import dataclasses
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kphead import tensor as T
from kphead import training
from kphead.dataset import ToyDatasetSpec, generate_dataset
from kphead.errors import ContractViolation, TrainingDivergence
from kphead.head import baseline_forward
from kphead.runconfig import RunConfig
from kphead.tensor import Tensor, backward
from kphead.training import (_STEP_BLOCK, LOG_HEADER, TrainConfig, _batch_loss,
                             _momentum_step, build_baseline, build_condensed, load_params,
                             manifest_path, restore_into, save_params, train, write_log)


def tiny_run_config(**train_kw):
    cfg = RunConfig()
    cfg.data = ToyDatasetSpec(channels=16, num_classes=2, parts_per_class=2,
                              n_train=24, n_test=12, seed=3)
    cfg.head.num_parts = 2
    cfg.head.pool_len = 2
    cfg.head.hidden = 16
    cfg.okpd.groups = 2
    train_kw.setdefault("epochs", 2)
    train_kw.setdefault("batch_size", 8)
    train_kw.setdefault("seed", 1)
    cfg.train = TrainConfig(**train_kw)
    return cfg


def tiny_models(cfg):
    condensed = build_condensed(cfg.discovery_config(), cfg.head_config(),
                                cfg.train.seed)
    baseline = build_baseline(cfg.head_config(), cfg.train.seed)
    return condensed, baseline


class TestTrainLoop:
    def test_zero_learning_rate_is_identity(self):
        cfg = tiny_run_config(learning_rate=1e-30)
        model, _ = tiny_models(cfg)
        before = {name: t.data.copy() for name, t in model.named_tensors()}
        data, _ = generate_dataset(cfg.data)
        train(model, data, cfg.train)
        for name, t in model.named_tensors():
            np.testing.assert_allclose(t.data, before[name], atol=1e-25)

    def test_log_rows_have_expected_schema(self):
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        logs = train(model, data, cfg.train)
        assert [row.epoch for row in logs] == [1, 2]
        assert all(np.isfinite([row.det_loss, row.l_d, row.l_u, row.acc]).all()
                   for row in logs)

    def test_loss_decreases_over_run(self):
        cfg = tiny_run_config(epochs=6, learning_rate=0.02)
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        logs = train(model, data, cfg.train)
        assert logs[-1].det_loss <= logs[0].det_loss

    def test_baseline_model_logs_zero_objective_columns(self):
        cfg = tiny_run_config()
        _, baseline = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        logs = train(baseline, data, cfg.train)
        assert all(row.l_d == 0.0 and row.l_u == 0.0 for row in logs)

    def test_training_is_deterministic(self):
        cfg = tiny_run_config(epochs=3)
        data, _ = generate_dataset(cfg.data)
        outs = []
        for _ in range(2):
            model, _ = tiny_models(cfg)
            train(model, data, cfg.train)
            outs.append(b"".join(t.data.tobytes() for _, t in model.named_tensors()))
        assert outs[0] == outs[1]

    def test_divergence_aborts_with_location(self):
        cfg = tiny_run_config(learning_rate=1e9, epochs=3)
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        with pytest.raises(TrainingDivergence) as err:
            train(model, data, cfg.train)
        assert str(err.value) == ("non-finite loss at epoch 2, batch 1: "
                                  "operation 'conv2d' produced non-finite values")

    def test_a_diverged_batch_runs_its_forward_pass_once(self, monkeypatch):
        """The op is named from the graph the batch's loss already recorded:
        no batch's loss is computed twice, and no ``NoGrad`` is left open."""
        cfg = tiny_run_config(learning_rate=1e9, epochs=3)
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        calls = []

        def batch_loss(*args):
            calls.append(args)
            return _batch_loss(*args)

        monkeypatch.setattr(training, "_batch_loss", batch_loss)
        with pytest.raises(TrainingDivergence, match="operation 'conv2d'") as err:
            train(model, data, cfg.train)
        batches = -(-len(data) // cfg.train.batch_size)
        assert len(calls) == (err.value.epoch - 1) * batches + err.value.batch + 1
        assert not T._no_grad

    def test_a_nan_that_relu_hides_still_stops_training(self):
        """relu maps a NaN conv output to 0, so the loss stays finite; the
        momentum step's check of the updated weights catches it."""
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        model.disc_params.blocks[0].reduce.weight.data[0, 0, 1, 1] = np.nan
        data, _ = generate_dataset(cfg.data)
        with pytest.raises(TrainingDivergence) as err:
            train(model, data, cfg.train)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert "parameter 'discovery.block0.reduce.weight'" in str(err.value)

    @pytest.mark.parametrize("y_hat, class_id", [(1, 0), (0, 2), (7, 1)])
    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_a_label_that_disagrees_with_the_class_is_refused(self, kind, y_hat, class_id):
        """As in ``evaluate``, a mismatch is refused by example before any
        step: no parameter moves."""
        cfg = tiny_run_config()
        condensed, baseline = tiny_models(cfg)
        model = condensed if kind == "condensed" else baseline
        data, _ = generate_dataset(cfg.data)
        data[5] = dataclasses.replace(data[5], y_hat=y_hat, class_id=class_id)
        before = [t.data.copy() for _, t in model.named_tensors()]
        with pytest.raises(ContractViolation,
                           match=rf"train: example 5: y_hat {y_hat} disagrees with "
                                 rf"class_id {class_id}"):
            train(model, data, cfg.train)
        for (name, t), want in zip(model.named_tensors(), before):
            assert np.array_equal(t.data, want), name

    @pytest.mark.parametrize("class_id, problem", [(3, r"outside \[0, 2\]"),
                                                   (1.5, "is not an integer")])
    def test_a_bad_class_is_refused(self, class_id, problem):
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        data[3] = dataclasses.replace(data[3], y_hat=1, class_id=class_id)
        with pytest.raises(ContractViolation,
                           match=rf"train: example 3: class_id {class_id} {problem}"):
            train(model, data, cfg.train)


class TestMomentumStep:
    """``train`` updates parameters in place, block by block, with the bytes of
    the textbook momentum loop, and lets go of every gradient it used."""

    @staticmethod
    def _config(**train_kw):
        cfg = tiny_run_config(**train_kw)
        cfg.head.hidden = 96  # baseline.fc1.weight then spans two blocks
        return cfg

    @staticmethod
    def _model(kind, cfg):
        condensed, baseline = tiny_models(cfg)
        return condensed if kind == "condensed" else baseline

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_train_matches_the_textbook_loop(self, kind):
        self._check_against_the_textbook_loop(kind)

    def _check_against_the_textbook_loop(self, kind):
        cfg = self._config(epochs=3, batch_size=8)
        data, _ = generate_dataset(cfg.data)
        model, ref = self._model(kind, cfg), self._model(kind, cfg)
        assert len(data) // cfg.train.batch_size >= 2
        assert kind == "condensed" or max(t.size for _, t in model.named_tensors()) > _STEP_BLOCK
        got = train(model, data, cfg.train) + train(model, data, cfg.train)
        want = (oracles.sgd_momentum_train(ref, data, cfg.train)
                + oracles.sgd_momentum_train(ref, data, cfg.train))
        assert [row.csv_row() for row in got] == [row.csv_row() for row in want]
        for (name, t), (_, t_ref) in zip(model.named_tensors(), ref.named_tensors()):
            assert t.data.tobytes() == t_ref.data.tobytes(), name

    def test_a_parameter_without_a_gradient_keeps_the_textbook_rule(self):
        """No velocity yet: untouched; a velocity: it decays and still moves w."""
        rng = np.random.default_rng(0)
        cfg = TrainConfig()
        sizes = (2 * _STEP_BLOCK + 5, 3)
        params = [Tensor(rng.standard_normal(n), requires_grad=True) for n in sizes]
        named = [(f"p{i}", t) for i, t in enumerate(params)]
        want = [t.data.copy() for t in params]
        want_v = [np.zeros(n) for n in sizes]
        velocity = {}
        scratch = np.empty((2, _STEP_BLOCK))
        for has_grad in ((True, False), (False, True), (False, False), (True, True)):
            for t, w, v, flag in zip(params, want, want_v, has_grad):
                g = rng.standard_normal(t.size) if flag else None
                t.grad = None if g is None else g.copy()
                v[...] = cfg.momentum * v + (g if g is not None else 0.0)
                w -= cfg.learning_rate * v
            _momentum_step(named, velocity, cfg, scratch, 1, 0)
            for t, w in zip(params, want):
                assert t.data.tobytes() == w.tobytes() and t.grad is None

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_a_step_allocates_less_than_the_largest_parameter(self, kind, monkeypatch):
        """A step runs from the end of ``backward`` to the next batch's loss or
        the end of ``train``; tracemalloc sees numpy's buffers."""
        cfg = self._config(epochs=2, batch_size=12)
        data, _ = generate_dataset(cfg.data)
        model = self._model(kind, cfg)
        largest = max(t.data.nbytes for _, t in model.named_tensors())
        peaks, since = [], []

        def step_peak():
            if since:
                peaks.append(tracemalloc.get_traced_memory()[1] - since.pop())

        def batch_loss(*args):
            step_peak()
            return _batch_loss(*args)

        def traced_backward(loss):
            backward(loss)
            tracemalloc.reset_peak()
            since.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(training, "_batch_loss", batch_loss)
        monkeypatch.setattr(training, "backward", traced_backward)
        tracemalloc.start()
        try:
            train(model, data, cfg.train)
            step_peak()
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks) < largest, (peaks, largest)
        assert all(t.grad is None for _, t in model.named_tensors())


@pytest.fixture
def split_step(monkeypatch, worker_tasks):
    """Make ``train`` split every step with the process's worker thread;
    returns the tasks handed to it (see ``worker_tasks``)."""
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    return worker_tasks


def worker_shares(tasks):
    """The worker's share of each split step among ``tasks``."""
    return [args[0] for fn, args in tasks if fn is training._step_blocks]


class TestSplitStep:
    """The step split between the calling thread and the worker thread."""

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_train_matches_the_textbook_loop(self, kind, split_step):
        TestMomentumStep()._check_against_the_textbook_loop(kind)
        # two calls of three epochs of three batches, each share non-empty
        shares = worker_shares(split_step)
        assert len(shares) == 2 * 3 * 3 and all(shares)

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_a_step_allocates_less_than_the_largest_parameter(self, kind, monkeypatch,
                                                              split_step):
        TestMomentumStep().test_a_step_allocates_less_than_the_largest_parameter(
            kind, monkeypatch)
        assert worker_shares(split_step)

    def test_one_usable_cpu_starts_no_thread(self, one_cpu, monkeypatch):
        monkeypatch.setattr(training, "_SPLIT_MIN", 0)
        monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 0)
        cfg = tiny_run_config(epochs=1)
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        train(model, data, cfg.train)
        assert T._pool is None

    @staticmethod
    def _train_with_nan_gradients(monkeypatch, picks):
        """Train the tiny condensed model with a NaN planted in the first
        gradient of the parameters at ``picks`` in ``named`` order; return
        the divergence message and the parameter names."""
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        named = model.named_tensors()

        def nan_backward(loss):
            backward(loss)
            for i in picks:
                named[i][1].grad.flat[0] = np.nan

        monkeypatch.setattr(training, "backward", nan_backward)
        data, _ = generate_dataset(cfg.data)
        with pytest.raises(TrainingDivergence) as err:
            train(model, data, cfg.train)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        return str(err.value), [name for name, _ in named]

    def test_a_nan_in_the_workers_share_is_named(self, monkeypatch, split_step):
        message, names = self._train_with_nan_gradients(monkeypatch, [-1])
        assert names[-1] in {item[0] for item in worker_shares(split_step)[0]}
        assert f"parameter {names[-1]!r}" in message

    def test_nans_in_both_shares_name_the_earlier_parameter(self, monkeypatch, split_step):
        message, names = self._train_with_nan_gradients(monkeypatch, [-1, 0])
        assert names[0] not in {item[0] for item in worker_shares(split_step)[0]}
        assert f"parameter {names[0]!r}" in message

    def test_each_share_stops_at_its_own_first_non_finite_block(self, split_step,
                                                                 monkeypatch):
        """Shares [p0 p0 p1 | p2 p2]: a NaN in p0's first block stops the
        calling thread there, and the worker still updates all of p2 before
        the step raises, even when it starts its share late."""
        submit = T._pool.submit

        def late(fn, *args):
            submit(time.sleep, 0.2)
            return submit(fn, *args)

        monkeypatch.setattr(T._pool, "submit", late)
        rng = np.random.default_rng(0)
        cfg = TrainConfig()
        params = [Tensor(rng.standard_normal(n), requires_grad=True)
                  for n in (2 * _STEP_BLOCK, 5, 2 * _STEP_BLOCK)]
        named = [(f"p{i}", t) for i, t in enumerate(params)]
        before = [t.data.copy() for t in params]
        for t in params:
            t.grad = rng.standard_normal(t.size)
        params[0].grad[0] = np.nan
        want = [w - cfg.learning_rate * t.grad for w, t in zip(before, params)]
        with pytest.raises(TrainingDivergence, match="'p0'"):
            _momentum_step(named, {}, cfg, np.empty((2, _STEP_BLOCK)), 1, 0)
        assert [item[0] for item in worker_shares(split_step)[0]] == ["p2", "p2"]
        p0, p1, p2 = (t.data for t in params)
        assert np.isnan(p0[0]) and p0[1:_STEP_BLOCK].tobytes() == want[0][1:_STEP_BLOCK].tobytes()
        assert p0[_STEP_BLOCK:].tobytes() == before[0][_STEP_BLOCK:].tobytes()
        assert p1.tobytes() == before[1].tobytes()
        assert p2.tobytes() == want[2].tobytes()
        assert all(t.grad is None for t in params)

    @pytest.mark.parametrize("lr", [0.02, 1e9])
    def test_train_leaves_no_thread_behind(self, lr, split_step):
        """It returns, or with a huge rate raises TrainingDivergence on a
        non-finite loss after the worker has taken a share; either way the
        worker is the only other thread, idle (see ``one_idle_worker``), and
        still the one the process started with."""
        worker = T._pool
        cfg = tiny_run_config(learning_rate=lr, epochs=3)
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        if lr > 1:
            with pytest.raises(TrainingDivergence):
                train(model, data, cfg.train)
        else:
            train(model, data, cfg.train)
        assert worker_shares(split_step) and T._pool is worker


class TestAblationSwitches:
    def test_switches_change_the_objective(self):
        cfg = tiny_run_config(epochs=2)
        data, _ = generate_dataset(cfg.data)
        model_full, _ = tiny_models(cfg)
        train(model_full, data, cfg.train)

        cfg_no_u = tiny_run_config(epochs=2, use_uniqueness=False)
        model_no_u, _ = tiny_models(cfg_no_u)
        logs = train(model_no_u, data, cfg_no_u.train)
        assert all(row.l_u == 0.0 for row in logs)
        full_bytes = b"".join(t.data.tobytes() for _, t in model_full.named_tensors())
        no_u_bytes = b"".join(t.data.tobytes() for _, t in model_no_u.named_tensors())
        assert full_bytes != no_u_bytes

    def test_no_discriminative_logs_zero_ld(self):
        cfg = tiny_run_config(epochs=1, use_discriminative=False)
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        logs = train(model, data, cfg.train)
        assert all(row.l_d == 0.0 for row in logs)


class TestSplitProducts:
    """On two CPUs ``train`` also hands half of each large ``linear`` product
    to the worker thread."""

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_training_matches_training_on_one_thread(self, kind, forced_split, monkeypatch):
        cfg = tiny_run_config()
        data, _ = generate_dataset(cfg.data)
        pick = {"condensed": 0, "baseline": 1}[kind]
        plain, split = tiny_models(cfg)[pick], tiny_models(cfg)[pick]
        with monkeypatch.context() as m:
            m.setattr(T, "_worker", lambda: None)
            plain_logs = train(plain, data, cfg.train)
        assert not forced_split

        split_logs = train(split, data, cfg.train)
        assert {np.matmul, training._step_blocks} == {fn for fn, _ in forced_split}
        for (name, a), (_, b) in zip(plain.named_tensors(), split.named_tensors()):
            assert np.max(np.abs(a.data - b.data)) <= 1e-12 * np.max(np.abs(a.data)), name
        for a, b in zip(plain_logs, split_logs):
            np.testing.assert_allclose(
                [b.det_loss, b.l_d, b.l_u, b.acc], [a.det_loss, a.l_d, a.l_u, a.acc],
                rtol=1e-12)


@st.composite
def payload_rows(draw):
    """A payload size in bytes and (byte offset, value count) manifest rows
    that each lie inside it: overlapping, apart, empty or none at all."""
    words = draw(st.integers(0, 40)) // 4
    size = 4 * words + draw(st.integers(0, 3))
    row = st.integers(0, words).flatmap(
        lambda lo: st.tuples(st.just(4 * lo), st.integers(0, words - lo)))
    return size, draw(st.lists(row, max_size=6))


class TestParameterFiles:
    def test_round_trip_at_f32_precision(self, tmp_path):
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        path = tmp_path / "params.bin"
        save_params(path, model, {"data.seed": "3"})
        kind, meta, tensors = load_params(path)
        assert kind == "condensed"
        assert meta["data.seed"] == "3"
        for name, t in model.named_tensors():
            np.testing.assert_allclose(tensors[name], t.data, atol=1e-6)

    def test_restore_into_fresh_model(self, tmp_path):
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        train(model, data, cfg.train)
        path = tmp_path / "params.bin"
        save_params(path, model, {})
        fresh, _ = tiny_models(cfg)
        _, _, tensors = load_params(path)
        restore_into(fresh, tensors)
        for (_, a), (_, b) in zip(model.named_tensors(), fresh.named_tensors()):
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_restore_into_writes_into_the_models_own_arrays(self, dtype):
        model, _ = tiny_models(tiny_run_config())
        arrays = [t.data for _, t in model.named_tensors()]
        rng = np.random.default_rng(5)
        tensors = {name: rng.standard_normal(t.shape).astype(dtype)
                   for name, t in model.named_tensors()}
        restore_into(model, tensors)
        for (name, t), arr in zip(model.named_tensors(), arrays):
            assert t.data is arr and t.data.dtype == np.float64
            assert t.data.tobytes() == tensors[name].astype(np.float64).tobytes()

    def test_editing_the_restored_dict_leaves_the_model_unchanged(self):
        model, _ = tiny_models(tiny_run_config())
        rng = np.random.default_rng(6)
        tensors = {name: rng.standard_normal(t.shape) for name, t in model.named_tensors()}
        restore_into(model, tensors)
        want = [t.data.tobytes() for _, t in model.named_tensors()]
        for name, arr in tensors.items():
            arr[...] = np.nan
            tensors[name] = np.zeros(1)
        assert [t.data.tobytes() for _, t in model.named_tensors()] == want

    def test_manifest_lists_offsets(self, tmp_path):
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        path = tmp_path / "params.bin"
        save_params(path, model, {})
        manifest = Path(manifest_path(path)).read_text().splitlines()
        assert manifest[0] == "kphead-params v1"
        tensor_rows = manifest[manifest.index("tensors:") + 1:]
        assert len(tensor_rows) == len(model.named_tensors())
        assert tensor_rows[0].split()[2] == "0"

    @pytest.mark.parametrize("pick", [0, 1], ids=["condensed", "baseline"])
    def test_payload_is_each_tensor_in_f32_across_small_blocks(self, tmp_path, monkeypatch,
                                                               pick):
        """With 7-value blocks, most tensors end inside a block; the payload,
        written over a longer earlier file, is still each tensor's f32 bytes
        in order, and the loaded arrays are f32 views that restore the
        f32-rounded parameters exactly."""
        monkeypatch.setattr(training, "_SAVE_BLOCK", 7)
        cfg = tiny_run_config()
        model = tiny_models(cfg)[pick]
        assert any(t.size % 7 for _, t in model.named_tensors())
        path = tmp_path / "params.bin"
        path.write_bytes(b"\xff" * (4 * model.scalar_count() + 5))
        save_params(path, model, {})
        assert path.read_bytes() == b"".join(t.data.astype("<f4").tobytes()
                                             for _, t in model.named_tensors())
        _, _, tensors = load_params(path)
        assert all(arr.dtype == np.dtype("<f4") for arr in tensors.values())
        fresh = tiny_models(cfg)[pick]
        restore_into(fresh, tensors)
        for (name, t), (_, got) in zip(model.named_tensors(), fresh.named_tensors()):
            assert got.data.tobytes() == t.data.astype("<f4").astype(np.float64).tobytes(), name

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_a_value_that_is_not_a_finite_f32_is_refused(self, tmp_path, monkeypatch, value):
        """The bad value sits in the third 7-value block of a tensor; nothing
        is left that ``load_params`` could read."""
        monkeypatch.setattr(training, "_SAVE_BLOCK", 7)
        model, _ = tiny_models(tiny_run_config())
        name, t = model.named_tensors()[0]
        assert name == "discovery.block0.reduce.weight" and t.size > 21
        t.data.reshape(-1)[17] = value
        path = tmp_path / "params.bin"
        path.write_bytes(b"an earlier payload")
        Path(manifest_path(path)).write_text("an earlier manifest\n")
        with pytest.raises(ContractViolation) as info:
            save_params(path, model, {})
        assert str(info.value) == (f"{path}: tensor 'discovery.block0.reduce.weight' holds "
                                   "a value that is not a finite f32 at index 17")
        assert not path.exists() and not Path(manifest_path(path)).exists()

    def test_a_value_that_rounds_to_the_largest_f32_is_saved(self, tmp_path):
        model, _ = tiny_models(tiny_run_config())
        big = float(np.finfo(np.float32).max) * (1 + 2.0 ** -26)
        model.named_tensors()[0][1].data.reshape(-1)[0] = big
        save_params(tmp_path / "params.bin", model, {})
        _, _, tensors = load_params(tmp_path / "params.bin")
        assert tensors["discovery.block0.reduce.weight"].reshape(-1)[0] == np.finfo(np.float32).max

    @settings(max_examples=300, deadline=None)
    @given(case=payload_rows())
    @example(case=(12, [])).via("no rows over a non-empty payload")
    @example(case=(10, [(0, 2)])).via("trailing bytes past the last value")
    @example(case=(16, [(0, 2), (4, 1), (8, 0), (12, 1)])).via("a gap and a zero-size row")
    @example(case=(16, [(4, 3), (0, 2), (4, 0), (8, 0)])).via("overlapping rows")
    def test_coverage_matches_the_boolean_mask(self, tmp_path_factory, case):
        """``load_params`` accepts a payload whose every byte lies in some
        tensor, and otherwise names the first byte that lies in none, as a
        boolean mask over the payload does."""
        size, rows = case
        path = tmp_path_factory.mktemp("cover") / "p.bin"
        path.write_bytes(bytes(size))
        lines = [f"t{i} {count} {offset}" for i, (offset, count) in enumerate(rows)]
        Path(manifest_path(path)).write_bytes(
            "\n".join(["kphead-params v1", "model = condensed", "tensors:", *lines, ""]).encode())
        byte = oracles.first_uncovered_byte(size, [(o, o + 4 * c) for o, c in rows])
        if byte is None:
            _, _, tensors = load_params(path)
            assert [arr.size for arr in tensors.values()] == [c for _, c in rows]
        else:
            with pytest.raises(ContractViolation) as info:
                load_params(path)
            assert str(info.value) == f"{path}: payload byte {byte} lies in no tensor of the manifest"

    @pytest.mark.parametrize("lines, values, want", [
        (["kphead-params v0", "tensors:", "a 1 0"], [1.0],
         "{m}: not a parameter manifest"),
        (["kphead-params v1", "tensors:", "a 1x 0"], [1.0],
         "{m}: manifest is cut short (no final newline)"),
        (["kphead-params v1", "tensors:", "a 1 0", "a 1 64", "b 1x 0", ""], [1.0],
         "{m}: malformed tensor row 'b 1x 0'"),
        (["kphead-params v1", "tensors:", "a 1 0", "a 1 64", "b 1 64", ""], [1.0],
         "{m}: tensor 'a' is listed twice"),
        (["kphead-params v1", "tensors:", "a 1 0", "b 1 4", "c 1 64", "d 1 8", ""],
         [1.0, 2.0, 3.0, np.nan],
         "{p}: tensor 'c' (1 values at byte 64) lies outside the 16-byte payload"),
        (["kphead-params v1", "tensors:", "a 1 2", ""], [1.0],
         "{p}: tensor 'a' (1 values at byte 2) lies outside the 4-byte payload"),
        (["kphead-params v1", "tensors:", "a -1 0", ""], [1.0],
         "{p}: tensor 'a' (-1 values at byte 0) lies outside the 4-byte payload"),
        (["kphead-params v1", "tensors:", "a 1 0", "b 2x1 4", ""], [1.0, 2.0, np.inf, 0.0],
         "{p}: tensor 'b' holds a non-finite value at index 1"),
    ], ids=["banner", "final-newline", "malformed-row", "listed-twice", "outside",
            "unaligned", "negative-shape", "non-finite"])
    def test_refusals_keep_their_messages_and_order(self, tmp_path, lines, values, want):
        """Each file also holds the faults checked after the one named."""
        path = tmp_path / "p.bin"
        path.write_bytes(np.array(values, dtype="<f4").tobytes())
        Path(manifest_path(path)).write_bytes("\n".join(lines).encode())
        with pytest.raises(ContractViolation) as info:
            load_params(path)
        assert str(info.value) == want.format(m=manifest_path(path), p=path)

    def test_write_log_schema(self, tmp_path):
        cfg = tiny_run_config()
        model, _ = tiny_models(cfg)
        data, _ = generate_dataset(cfg.data)
        logs = train(model, data, cfg.train)
        path = tmp_path / "log.csv"
        write_log(path, logs)
        lines = path.read_text().splitlines()
        assert lines[0] == LOG_HEADER == "epoch,det_loss,l_d,l_u,acc"
        assert len(lines) == 1 + len(logs)


LAYER_PARAMS = ("weight", "bias")


class TestModelInterface:
    def test_parameter_names_in_order(self):
        """The names key parameter files, so a rename breaks every saved file."""
        cfg = tiny_run_config()
        cfg.okpd.num_blocks = 3
        condensed, baseline = tiny_models(cfg)
        blocks = [f"discovery.block{i}.{layer}.{p}" for i in range(3)
                  for layer in ("reduce", "restore") for p in LAYER_PARAMS]
        assert [name for name, _ in condensed.named_tensors()] == blocks + [
            f"{layer}.{p}" for layer in ("discovery.predict", "head.global_conv", "head.fc",
                                         "head.cls", "head.reg") for p in LAYER_PARAMS]
        assert [name for name, _ in baseline.named_tensors()] == [
            f"baseline.{layer}.{p}" for layer in ("fc1", "fc2", "cls", "reg")
            for p in LAYER_PARAMS]
        assert condensed.scalar_count() == sum(t.size for _, t in condensed.named_tensors())

    def test_baseline_forward_record_holds_only_the_output(self):
        cfg = tiny_run_config()
        _, baseline = tiny_models(cfg)
        x = generate_dataset(cfg.data)[0][0].x
        fwd = baseline.forward(x)
        want = baseline_forward([x], baseline.params, baseline.head_cfg)
        np.testing.assert_array_equal(fwd.output.v_cls.data, want.v_cls.data)
        np.testing.assert_array_equal(fwd.output.v_reg.data, want.v_reg.data)
        assert fwd.maps is fwd.points is fwd.confidences is fwd.global_map is None

    def test_baseline_batch_loss_has_no_discovery_terms(self):
        cfg = tiny_run_config()
        condensed, baseline = tiny_models(cfg)
        batch = generate_dataset(cfg.data)[0][:8]
        _, det_v, ld_v, lu_v, _ = _batch_loss(baseline, batch, cfg.train)
        assert det_v > 0.0 and ld_v == 0.0 and lu_v == 0.0
        _, _, ld_v, lu_v, _ = _batch_loss(condensed, batch, cfg.train)
        assert ld_v > 0.0 and lu_v > 0.0


class TestBatchAxis:
    """A minibatch runs the head's FC layers and the detection loss once, with
    the results of its examples run one at a time, up to rounding."""

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_batch_matches_its_examples_one_at_a_time(self, kind):
        cfg = RunConfig()
        cfg.data = dataclasses.replace(cfg.data, n_train=cfg.train.batch_size, n_test=1)
        batch = generate_dataset(cfg.data)[0]

        def run(examples):
            condensed, baseline = tiny_models(cfg)
            model = condensed if kind == "condensed" else baseline
            total, *logged = _batch_loss(model, examples, cfg.train)
            backward(total)
            return np.array(logged), {name: np.zeros_like(t.data) if t.grad is None else t.grad
                                      for name, t in model.named_tensors()}

        logged, grads = run(batch)
        singles = [run([ex]) for ex in batch]
        want_logged = sum(s[0] for s in singles)  # det, l_d, l_u, hits
        np.testing.assert_allclose(logged, want_logged, rtol=1e-12, atol=0.0)
        assert logged[3] == want_logged[3] and (logged[1] > 0) == (kind == "condensed")
        for name, grad in grads.items():
            want = sum(s[1][name] for s in singles) / len(batch)  # batch_mean
            assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("kind", ["condensed", "baseline"])
    def test_batch_mean_off_moves_each_parameter_n_times_as_far(self, kind):
        """One step on one batch of N: with ``batch_mean`` off, each parameter
        moves N times as far as with it on, and the logged row is the same."""
        runs = {}
        for batch_mean in (True, False):
            cfg = tiny_run_config(epochs=1, batch_size=24, batch_mean=batch_mean)
            data, _ = generate_dataset(cfg.data)
            model = tiny_models(cfg)[kind == "baseline"]
            before = {name: t.data.copy() for name, t in model.named_tensors()}
            logs = train(model, data, cfg.train)
            runs[batch_mean] = logs, {name: t.data - before[name]
                                      for name, t in model.named_tensors()}
        assert len(data) == 24 and runs[False][0] == runs[True][0]
        for name, moved in runs[False][1].items():
            want = 24 * runs[True][1][name]
            # beyond rtol, each change keeps the rounding of its stored weights
            # (half an ulp of w, taken once and 24 times)
            slack = 1e-12 * np.abs(want) + 25 * np.finfo(float).eps * np.abs(before[name])
            assert np.all(np.abs(moved - want) <= slack), name

    def test_each_example_adds_only_discoverys_nodes(self):
        """At the RunConfig() defaults a condensed training batch records, per
        example, only the grouped 3x3 conv of each concentration block and the
        pick of its input from the batch (block 0 picks from the grids, which
        need no gradient, and records no pick).  Each block's stack, relu, 1x1
        conv and add, the predict conv, TMR, the head and the losses record a
        fixed count per batch (29 for a batch with a foreground and a
        background; the detection loss is one ``class_box_loss`` node)."""
        cfg = RunConfig()
        cfg.data = dataclasses.replace(cfg.data, n_train=32, n_test=1)
        examples = generate_dataset(cfg.data)[0]
        fg = [ex for ex in examples if ex.y_hat]
        bg = [ex for ex in examples if not ex.y_hat]
        ordered = [fg[0], bg[0]] + fg[1:] + bg[1:]
        model = build_condensed(cfg.discovery_config(), cfg.head_config(), cfg.train.seed)

        def recorded_nodes(batch):
            return len(oracles.recorded_nodes(_batch_loss(model, batch, cfg.train)[0]))

        per_example = 2 * cfg.discovery_config().num_blocks - 1
        assert per_example == 3
        for n in (2, 3, 8, 16):
            assert recorded_nodes(ordered[:n]) == per_example * n + 29, n

    def test_head_weights_enter_linear_once_per_batch(self, monkeypatch):
        cfg = tiny_run_config(epochs=1, batch_size=8)
        data, _ = generate_dataset(cfg.data)
        condensed, baseline = tiny_models(cfg)
        watched = {id(condensed.head_params.fc.weight): 0, id(baseline.params.fc1.weight): 0}
        linear = T.linear

        def counting_linear(x, weight, bias):
            if id(weight) in watched:
                watched[id(weight)] += 1
            return linear(x, weight, bias)

        monkeypatch.setattr(T, "linear", counting_linear)
        train(condensed, data, cfg.train)
        train(baseline, data, cfg.train)
        assert list(watched.values()) == [len(data) // 8] * 2


class TestObjectiveAblations:
    """Desk-scale ablation pair at a pinned seed: the uniqueness term spreads
    extracted parts apart; the discriminative term creates the foreground/
    background peak-confidence separation."""

    @staticmethod
    def _train_eval(use_uniqueness=True, use_discriminative=True):
        from kphead.evaluate import evaluate

        cfg = RunConfig()
        cfg.data = ToyDatasetSpec(channels=64, num_classes=4, parts_per_class=4,
                                  noise_sigma=0.5, background_fraction=0.5,
                                  n_train=192, n_test=96, seed=1)
        cfg.head.hidden = 64
        cfg.train = TrainConfig(epochs=6, learning_rate=0.02, okpd_loss_weight=2.0,
                                seed=0, use_uniqueness=use_uniqueness,
                                use_discriminative=use_discriminative)
        train_set, test_set = generate_dataset(cfg.data)
        model = build_condensed(cfg.discovery_config(), cfg.head_config(),
                                cfg.train.seed)
        train(model, train_set, cfg.train)
        return evaluate(model, test_set)

    def test_uniqueness_increases_distinct_parts(self):
        with_u = self._train_eval(use_uniqueness=True)
        without_u = self._train_eval(use_uniqueness=False)
        assert with_u.mean_distinct_parts >= without_u.mean_distinct_parts

    def test_discriminative_term_drives_separation(self):
        with_d = self._train_eval(use_discriminative=True)
        without_d = self._train_eval(use_discriminative=False)
        sep_with = with_d.fg_peak_mean - with_d.bg_peak_mean
        sep_without = without_d.fg_peak_mean - without_d.bg_peak_mean
        assert sep_with > 0.1
        assert sep_without < 0.05
        assert sep_with > sep_without
