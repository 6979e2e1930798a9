"""Tests of the benchmark itself: BENCHMARK.json against the metrics the code
emits, determinism of workload inputs, and tracing hygiene.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from kphead import accounting, dataset, training  # noqa: E402
from tracer import Tracer, layer_of_param, wrapped_names  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_its_grammar():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(W.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    seen = set(names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["name"] not in seen
        seen.add(m["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name):
    def grids(seed):
        spec, _, _ = W.WORKLOADS[name].configs(seed)
        spec = dataclasses.replace(spec, n_train=8, n_test=4)
        train_set, _ = dataset.generate_dataset(spec)
        return np.stack([ex.x.data for ex in train_set])

    assert np.array_equal(grids(3), grids(3))
    assert not np.array_equal(grids(3), grids(4))


def test_paper_workload_has_the_papers_condensed_parameter_count():
    _, disc, head = W.WORKLOADS["paper"].configs(0)
    total = accounting.count_params_condensed(head, disc).total_params
    assert total == W.WORKLOADS["paper"].params == 6_782_197


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert W.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert W.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11)
    assert W.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_every_weight_maps_to_an_accounting_layer():
    _, disc, head = W.WORKLOADS["toy"].configs(0)
    models = [training.build_condensed(disc, head, 0), training.build_baseline(head, 0)]
    layers = {layer_of_param(name) for m in models for name, _ in m.named_tensors()}
    layers.discard(None)
    assert layers == set(W.ACCOUNTING_LAYERS)


def _graph_nodes(*roots):
    """Recorded nodes with a backward closure reachable from ``roots``."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return [t for t in seen.values() if t._backward_fn is not None]


def test_tracing_changes_no_output_and_removes_every_wrapper():
    _, disc, head = W.WORKLOADS["toy"].configs(0)
    spec = dataclasses.replace(W.WORKLOADS["toy"].configs(0)[0], n_train=16, n_test=1)
    examples, _ = dataset.generate_dataset(spec)

    def train_once(tracer=None):
        model = training.build_condensed(disc, head, 0)
        if tracer is not None:
            tracer.register_model(model)
        logs = training.train(model, examples, training.TrainConfig(epochs=2))
        return [log.csv_row() for log in logs], model

    plain_logs, _ = train_once()
    tracer = Tracer()
    tracer.install()
    try:
        assert wrapped_names()
        tracer.phase = "train"
        traced_logs, model = train_once(tracer)
        tracer.phase = "forward"
        out = model.forward(examples[0].x).output
    finally:
        left = tracer.remove()
    assert left == [] and wrapped_names() == []
    assert traced_logs == plain_logs
    assert tracer.nodes[("forward", "tensor")] == len(_graph_nodes(out.v_cls, out.v_reg))
    assert tracer.calls[("train", "discovery.block0.reduce3x3")] == 2 * 16
    assert tracer.bwd[("train", "discovery.tmr")] > 0


def test_remove_reports_a_wrapper_left_installed():
    tracer = Tracer()
    tracer.install()
    module, attr, original = tracer._saved.pop()
    try:
        assert tracer.remove() == [f"{module.__name__}.{attr}"]
    finally:
        setattr(module, attr, original)
    assert wrapped_names() == []


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    w = W.WORKLOADS["toy"]
    workdir = str(tmp_path_factory.mktemp("work"))
    ledger = W.Ledger()
    untraced = W.run_pass(w, 5, 0.5, workdir, ledger)
    tracer = Tracer()
    tracer.install()
    try:
        traced = W.run_pass(w, 5, 0.0, workdir, ledger, tracer, sequence=untraced.sequence)
    finally:
        tracer.remove()
    return ledger, untraced, traced, tracer


def test_traced_pass_replays_the_untraced_outputs(traced_run):
    ledger, untraced, traced, _ = traced_run
    assert ledger.failures == []
    assert traced.sequence == untraced.sequence
    assert traced.digest == untraced.digest


def test_passes_emit_exactly_the_metrics_of_benchmark_json(traced_run):
    _, untraced, traced, tracer = traced_run
    layer, _ = W.per_layer_metrics(tracer, traced, untraced.wall_s, 0.0)
    e2e = W.end_to_end_metrics(W.WORKLOADS["toy"], untraced)
    for emitted, listed in ((e2e, SPEC["end_to_end"]), (layer, SPEC["per_layer"])):
        assert {k: u for k, (_, u) in emitted.items()} == {m["name"]: m["unit"]
                                                           for m in listed}
        assert all(np.isfinite(v) for v, _ in emitted.values())
    assert all(v > 0 for v, _ in e2e.values())


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "toy",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_metrics_outside_a_workloads_scaled_set_are_as_measured(traced_run):
    _, untraced, _, _ = traced_run
    raw = W.raw_end_to_end(untraced)
    slowdown = W.host_slowdown(untraced)
    for w in W.WORKLOADS.values():
        e2e = W.end_to_end_metrics(w, untraced)
        for name, (value, unit) in e2e.items():
            if name not in w.scaled:
                assert value == raw[name][0], (w.name, name)
            elif unit == "examples/s":
                assert value == raw[name][0] * slowdown
            else:
                assert value == raw[name][0] / slowdown
