import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from kphead import tensor as T  # noqa: E402
from kphead import training  # noqa: E402


@pytest.fixture(autouse=True)
def one_idle_worker():
    """Fail a test that leaves a thread behind other than the process's one
    worker thread (``tensor._worker``), or leaves the worker with work
    pending.  The worker itself may outlive the test: it serves the whole
    process."""
    yield
    pool, worker = T._pool, None
    if pool is not None:
        assert pool._work_queue.empty(), "work left queued for the worker thread"
        worker = pool.submit(threading.current_thread).result(timeout=30)
    stray = [t.name for t in threading.enumerate()
             if t is not threading.main_thread() and t is not worker]
    assert not stray, f"threads left behind: {stray}"


@pytest.fixture
def worker_tasks(monkeypatch):
    """The process's worker thread, made as on two CPUs, with every task
    handed to it recorded; returns the list of (function, arguments) pairs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pool = T._worker()
    submit = pool.submit
    tasks = []

    def record(fn, *args):
        tasks.append((fn, args))
        return submit(fn, *args)

    monkeypatch.setattr(pool, "submit", record)
    return tasks


@pytest.fixture
def forced_split(monkeypatch, worker_tasks):
    """Split every momentum step and every batched ``linear`` product with
    the worker thread; returns the tasks handed to it (see ``worker_tasks``)."""
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 0)
    return worker_tasks


@pytest.fixture
def one_cpu(monkeypatch):
    """A process that may run on one CPU and has no worker thread yet; the
    test's own worker slot is put back afterwards."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(T, "_pool", None)
