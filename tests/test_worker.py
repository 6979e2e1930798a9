"""The process's one worker thread: made only for work large enough to
split, shared by every call, and made again in a forked child."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import kphead
import oracles
from kphead import tensor as T
from kphead import training
from kphead.dataset import generate_dataset
from kphead.errors import TrainingDivergence
from kphead.evaluate import evaluate
from kphead.tensor import Tensor, backward
from kphead.training import train
from test_training import tiny_models, tiny_run_config

SRC = str(Path(kphead.__file__).resolve().parent.parent)


def worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("kphead-worker")]


def test_small_models_never_load_the_executor():
    """A fresh interpreter that trains and evaluates the toy condensed head
    and runs the gradcheck suite makes no worker, and does not even import
    ``concurrent.futures``; evaluating the toy baseline, whose fc1 splits,
    then does, on more than one CPU."""
    script = textwrap.dedent("""
        import dataclasses, os, sys, threading
        from kphead import gradcheck
        from kphead.dataset import generate_dataset
        from kphead.evaluate import evaluate
        from kphead.runconfig import RunConfig
        from kphead.training import build_baseline, build_condensed, train

        cfg = RunConfig()
        cfg.data = dataclasses.replace(cfg.data, n_train=16, n_test=16)
        cfg.train = dataclasses.replace(cfg.train, epochs=1)
        train_set, test_set = generate_dataset(cfg.data)
        model = build_condensed(cfg.discovery_config(), cfg.head_config(), 0)
        train(model, train_set, cfg.train)
        evaluate(model, test_set)
        gradcheck.run_suite(1, 0)
        print("concurrent.futures" in sys.modules, threading.active_count())
        evaluate(build_baseline(cfg.head_config(), 0), test_set)
        print("concurrent.futures" in sys.modules, threading.active_count(),
              len(os.sched_getaffinity(0)) > 1)
    """)
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    small, baseline = done.stdout.splitlines()
    assert small == "False 1"
    two_cpus = baseline.endswith("True")
    assert baseline == ("True 2 True" if two_cpus else "False 1 False")


def test_train_and_evaluate_share_one_worker(forced_split):
    cfg = tiny_run_config(epochs=1)
    _, model = tiny_models(cfg)
    train_set, test_set = generate_dataset(cfg.data)
    train(model, train_set, cfg.train)
    after_train = len(forced_split)
    worker = T._pool.submit(threading.current_thread).result()
    evaluate(model, test_set)
    assert 0 < after_train < len(forced_split)
    assert T._pool.submit(threading.current_thread).result() is worker
    assert worker_threads() == [worker]


def test_training_after_a_divergence_in_the_workers_share_matches_the_oracle(
        forced_split, monkeypatch):
    cfg = tiny_run_config()
    data, _ = generate_dataset(cfg.data)
    diverging, _ = tiny_models(cfg)
    named = diverging.named_tensors()

    def nan_backward(loss):
        backward(loss)
        named[-1][1].grad.flat[0] = np.nan

    with monkeypatch.context() as m:
        m.setattr(training, "backward", nan_backward)
        with pytest.raises(TrainingDivergence, match=repr(named[-1][0])):
            train(diverging, data, cfg.train)
    shares = [args[0] for fn, args in forced_split if fn is training._step_blocks]
    assert named[-1][0] in {item[0] for item in shares[0]}

    (model, _), (ref, _) = tiny_models(cfg), tiny_models(cfg)
    got = train(model, data, cfg.train)
    want = oracles.sgd_momentum_train(ref, data, cfg.train)
    assert [row.csv_row() for row in got] == [row.csv_row() for row in want]
    for (name, t), (_, t_ref) in zip(model.named_tensors(), ref.named_tensors()):
        assert t.data.tobytes() == t_ref.data.tobytes(), name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_worker(forced_split, tmp_path):
    """The parent's worker thread does not exist in a child forked after it
    started; the child makes its own and splits a product right.  A child
    that hangs is killed, and the test fails."""
    rng = np.random.default_rng(3)
    x, w, b = rng.standard_normal((16, 40)), rng.standard_normal((24, 40)), np.zeros(24)
    want = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert forced_split
    parent_pool, out = T._pool, tmp_path / "child.npy"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        try:
            got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
            fresh = T._pool is not None and T._pool is not parent_pool
            if fresh and len(worker_threads()) == 1:
                np.save(out, got)
        finally:
            os._exit(0)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert np.load(out).tobytes() == want.tobytes()
