import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from kphead import tensor as T  # noqa: E402
from kphead import training  # noqa: E402


@pytest.fixture
def forced_split(monkeypatch):
    """Make every model large and every batched ``linear`` product split, on
    two CPUs; returns the function of each task handed to a worker thread."""
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    monkeypatch.setattr(T, "_LINEAR_SPLIT_MIN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    handed = []
    step_pool = training._step_pool

    def counting_pool():
        pool = step_pool()
        submit = pool.submit

        def counted(fn, *args):
            handed.append(fn)
            return submit(fn, *args)

        pool.submit = counted
        return pool

    monkeypatch.setattr(training, "_step_pool", counting_pool)
    return handed
