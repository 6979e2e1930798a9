"""Workloads, timed phases and metrics of the kphead benchmark.

A run of one workload is one or two *passes*.  A pass sets up the inputs
(dataset generation, write and read, model build and warm-up), then
interleaves eight phases until its deadline: set-up again from scratch,
condensed and baseline training, condensed and baseline evaluation, params
export with heatmaps, the gradient-check suite, and a host probe that runs
no kphead code.  Interleaving lets every phase see the same mix of machine
states, so a slow spell on a shared host moves all metrics of a run together
instead of one phase's.  Each phase operation is timed on its own;
end-to-end metrics are medians over operations, those in the workload's
``scaled`` set normalised by the host probe's slowdown.

A traced run replays the untraced pass's exact operation sequence with the
tracer installed, so the two passes must produce bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kphead import accounting, dataset, gradcheck, heatmaps, training
from kphead.dataset import ToyDatasetSpec
from kphead.discovery import DiscoveryConfig
from kphead.head import HeadConfig
from kphead.runconfig import RunConfig

from tracer import Tracer, tensor_ops, wrapped_names

# ``kphead.evaluate`` is shadowed by the function the package re-exports
evaluate_mod = importlib.import_module("kphead.evaluate")

perf_counter = time.perf_counter

# The fewest set-ups a pass makes, the first included.
SETUP_REPS = 6
# Examples per timed train() call: one minibatch of TrainConfig's default size.
CHUNK = 16
# Test examples whose heatmaps each export operation writes.
HEATMAP_EXAMPLES = 2
# One trial per timed run_suite call (the CLI runs 3): at ~3.5 s a call, a
# run then holds several samples spread across its time.
GRADCHECK_TRIALS = 1

# Ops whose backward never runs in training: both read the data grid, which
# needs no gradient (the head gathers from the raw grid unless
# gather_from_refined is set), so their backward time would read 0.
NO_BACKWARD = ("gather_at", "adaptive_avg_pool")


# -- workloads ---------------------------------------------------------------

def _toy_configs(seed: int):
    cfg = RunConfig()
    cfg.data.seed = seed
    return cfg.data, cfg.discovery_config(), cfg.head_config()


def _paper_configs(seed: int):
    spec = ToyDatasetSpec(channels=256, num_classes=20, n_train=64, n_test=32, seed=seed)
    head = HeadConfig(256, 20, num_parts=16, pool_len=5)
    disc = DiscoveryConfig(256, 16)
    return spec, disc, head


def _tiny_configs(seed: int):
    disc, head = gradcheck.small_head_configs()
    spec = ToyDatasetSpec(channels=head.channels, num_classes=head.num_classes,
                          parts_per_class=2, height=head.height, width=head.width,
                          seed=seed)
    return spec, disc, head


# End-to-end metrics of phases that can be interpreter-bound: set-up is
# mostly dataset generation, and export at C <= 64 is mostly CPU time.  A
# workload scales those that are at its size by the host probe's slowdown,
# which made them repeat better across ten-seed batches (README.md).  The
# probe does not track BLAS- or memory-bound work, so that is not scaled.
CPU_BOUND = frozenset({"setup_s", "train_condensed_eps", "train_baseline_eps",
                       "eval_condensed_eps", "eval_baseline_eps", "export_s", "gradcheck_s"})


@dataclass(frozen=True)
class Workload:
    """What one workload runs; why each exists is in README.md."""

    name: str
    configs: Callable[[int], tuple[ToyDatasetSpec, DiscoveryConfig, HeadConfig]]
    pool: int              # training and evaluation cycle through this many examples
    eval_chunk: int        # examples per timed evaluate() call
    shares: dict[str, float]
    scaled: frozenset[str]  # end-to-end metrics reported scaled by the host probe
    params: int | None = None  # the condensed parameter count the configs must give


WORKLOADS = {
    w.name: w for w in (
        Workload(
            # the baseline is bound by its 3136x256 fc1 kernels here
            "toy", _toy_configs, pool=64, eval_chunk=16,
            scaled=CPU_BOUND - {"train_baseline_eps", "eval_baseline_eps"},
            shares={"setup": 0.04, "train_condensed": 0.20, "train_baseline": 0.12,
                    "eval_condensed": 0.08, "eval_baseline": 0.04, "export": 0.04,
                    "gradcheck": 0.45, "probe": 0.03}),
        Workload(
            # condensed eval runs 32 groups x 9 taps of small einsums per example;
            # training, baseline eval and export are bound by BLAS kernels and
            # memory traffic
            "paper", _paper_configs, pool=32, eval_chunk=4,
            scaled=frozenset({"setup_s", "eval_condensed_eps", "gradcheck_s"}),
            params=6_782_197,  # the paper's condensed head count at the FPN-VOC setting
            shares={"setup": 0.04, "train_condensed": 0.25, "train_baseline": 0.25,
                    "eval_condensed": 0.06, "eval_baseline": 0.04, "export": 0.07,
                    "gradcheck": 0.27, "probe": 0.03}),
        Workload(
            "gradcheck", _tiny_configs, pool=64, eval_chunk=16, scaled=CPU_BOUND,
            shares={"setup": 0.04, "train_condensed": 0.05, "train_baseline": 0.04,
                    "eval_condensed": 0.04, "eval_baseline": 0.03, "export": 0.10,
                    "gradcheck": 0.67, "probe": 0.03}),
    )
}

# Each phase must run often enough for its checks: a training phase revisits
# its first chunk once, so the loss on the same examples can be compared.
def min_counts(w: Workload) -> dict[str, int]:
    visits = w.pool // CHUNK + 1
    return {"setup": SETUP_REPS - 1, "train_condensed": visits, "train_baseline": visits,
            "eval_condensed": 1, "eval_baseline": 1, "export": 1, "gradcheck": 1, "probe": 1}


# -- bookkeeping ------------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed; a failed correctness check counts."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


class Digest:
    """Hash of every output of a pass, to compare traced and untraced runs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(repr(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class Inputs:
    disc: DiscoveryConfig
    head: HeadConfig
    train: list
    test: list
    condensed: training.CondensedModel
    baseline: training.BaselineModel
    dataset_bytes: int
    generated: tuple  # the (train, test) splits before the file round trip


def setup(w: Workload, seed: int, workdir: str) -> Inputs:
    """Generate, write and read the dataset, build both models, warm up."""
    spec, disc, head = w.configs(seed)
    train_set, test_set = dataset.generate_dataset(spec)
    train_path = os.path.join(workdir, "data.bin")
    test_path = os.path.join(workdir, "data.test.bin")
    dataset.write_dataset(train_path, spec, train_set)
    dataset.write_dataset(test_path, spec, test_set)
    _, train_read = dataset.read_dataset(train_path)
    _, test_read = dataset.read_dataset(test_path)
    condensed = training.build_condensed(disc, head, seed)
    baseline = training.build_baseline(head, seed)
    condensed.forward(test_read[0].x)
    baseline.forward(test_read[0].x)
    nbytes = os.path.getsize(train_path) + os.path.getsize(test_path)
    return Inputs(disc, head, train_read, test_read, condensed, baseline, nbytes,
                  (train_set, test_set))


def _same_examples(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.x.data, y.x.data) and x.class_id == y.class_id
        and x.y_hat == y.y_hat and np.array_equal(x.box_target, y.box_target)
        and x.planted_points == y.planted_points for x, y in zip(a, b))


# -- phases ----------------------------------------------------------------------

class Phase:
    """One kind of timed operation; ``durations`` holds one entry per run."""

    def __init__(self, name: str):
        self.name = name
        self.durations: list[float] = []
        self.rates: list[float] = []

    def estimate(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class SetupPhase(Phase):
    """The pass's set-up again, from scratch; its result is checked against
    the first set-up's and dropped.  Spreading set-ups over the pass, as the
    other phases are, keeps one slow spell from deciding their median."""

    def __init__(self, w: Workload, seed: int, workdir: str, first: Inputs, first_s: float):
        super().__init__("setup")
        self.w, self.seed, self.workdir, self.first = w, seed, workdir, first
        self.durations.append(first_s)

    def run(self, ledger: Ledger, digest: Digest) -> None:
        t0 = perf_counter()
        again = setup(self.w, self.seed, self.workdir)
        self.durations.append(perf_counter() - t0)
        digest.add("setup", again.dataset_bytes)
        ledger.check("setup: a second set-up gives the same dataset",
                     _same_examples(again.train, self.first.train)
                     and _same_examples(again.test, self.first.test))


class TrainPhase(Phase):
    def __init__(self, name, model, pool, seed):
        super().__init__(name)
        self.model, self.pool, self.chunk = model, pool, CHUNK
        self.cfg = training.TrainConfig(epochs=1, batch_size=CHUNK, seed=seed)
        self.losses: list[tuple[int, float]] = []  # (chunk start, loss)

    def run(self, ledger: Ledger, digest: Digest) -> None:
        start = (len(self.durations) * self.chunk) % len(self.pool)
        examples = self.pool[start:start + self.chunk]
        t0 = perf_counter()
        logs = training.train(self.model, examples, self.cfg)
        dt = perf_counter() - t0
        self.durations.append(dt)
        self.rates.append(len(examples) / dt)
        log = logs[-1]
        loss = log.det_loss + self.cfg.okpd_loss_weight * (log.l_d + log.l_u)
        self.losses.append((start, loss))
        digest.add(self.name, log.det_loss, log.l_d, log.l_u, log.acc)
        ledger.check(f"{self.name}: loss finite", math.isfinite(loss), repr(loss))

    def check_falls(self, ledger: Ledger) -> None:
        first = [loss for start, loss in self.losses if start == 0]
        ledger.check(f"{self.name}: loss falls on revisited examples",
                     len(first) >= 2 and first[-1] < first[0], f"losses {first}")


class EvalPhase(Phase):
    def __init__(self, name, model, pool, chunk):
        super().__init__(name)
        self.model, self.pool, self.chunk = model, pool, chunk

    def run(self, ledger: Ledger, digest: Digest) -> None:
        start = (len(self.durations) * self.chunk) % len(self.pool)
        examples = self.pool[start:start + self.chunk]
        t0 = perf_counter()
        metrics = evaluate_mod.evaluate(self.model, examples)
        dt = perf_counter() - t0
        self.durations.append(dt)
        self.rates.append(len(examples) / dt)
        digest.add(self.name, metrics.csv_row())
        ledger.check(f"{self.name}: metrics in range",
                     0.0 <= metrics.accuracy <= 1.0 and math.isfinite(metrics.box_mae),
                     metrics.csv_row())


def _logits(model, x):
    fwd = model.forward(x)
    out = fwd.output if hasattr(fwd, "output") else fwd
    return out.v_cls.data, out.v_reg.data


class ExportPhase(Phase):
    """Save and reload both models' params, export heatmaps from the
    reloaded condensed model; then check the round trip."""

    def __init__(self, inputs: Inputs, w: Workload, seed: int, workdir: str):
        super().__init__("export")
        self.inputs, self.w, self.seed, self.workdir = inputs, w, seed, workdir
        self.heatmap_bytes: list[int] = []

    def _rebuild(self, kind):
        i = self.inputs
        if kind == "condensed":
            return training.build_condensed(i.disc, i.head, self.seed)
        return training.build_baseline(i.head, self.seed)

    def run(self, ledger: Ledger, digest: Digest) -> None:
        i = self.inputs
        meta = {"workload": self.w.name, "seed": str(self.seed)}
        examples = i.test[:HEATMAP_EXAMPLES]
        models = {"condensed": i.condensed, "baseline": i.baseline}
        t0 = perf_counter()
        reloaded = {}
        for kind, model in models.items():
            path = os.path.join(self.workdir, f"{kind}.params")
            training.save_params(path, model, meta)
            loaded_kind, _, tensors = training.load_params(path)
            fresh = self._rebuild(loaded_kind)
            training.restore_into(fresh, tensors)
            reloaded[kind] = fresh
        written = [heatmaps.export_heatmaps(reloaded["condensed"], ex,
                                            os.path.join(self.workdir, f"maps{k}"))
                   for k, ex in enumerate(examples)]
        dt = perf_counter() - t0
        self.durations.append(dt)
        self.heatmap_bytes.append(sum(os.path.getsize(p) for paths in written for p in paths))

        x = i.test[0].x
        for kind, model in models.items():
            rounded = self._rebuild(kind)
            training.restore_into(rounded, {name: t.data.astype("<f4").astype(np.float64)
                                            for name, t in model.named_tensors()})
            want, got = _logits(rounded, x), _logits(reloaded[kind], x)
            digest.add(kind, *got)
            ledger.check(f"export: {kind} params reload to the same logits",
                         all(np.array_equal(a, b) for a, b in zip(want, got)))
        h, w, L = i.head.height, i.head.width, i.head.pool_len
        for paths in written:
            shapes = [heatmaps.read_pgm(p).shape for p in paths if p.endswith(".pgm")]
            want_shapes = [(h, w)] * i.head.num_parts + [(L, L)]
            ledger.check("export: heatmaps read back with the right shape",
                         shapes == want_shapes, f"{shapes}")


class GradcheckPhase(Phase):
    def __init__(self, seed: int):
        super().__init__("gradcheck")
        self.seed = seed
        self.max_err = 0.0

    def run(self, ledger: Ledger, digest: Digest) -> None:
        t0 = perf_counter()
        results = gradcheck.run_suite(GRADCHECK_TRIALS, self.seed)
        self.durations.append(perf_counter() - t0)
        worst = max(results.values())
        self.max_err = max(self.max_err, worst)
        digest.add(sorted(results.items()))
        bad = {k: v for k, v in results.items() if not v < gradcheck.GRAD_TOL}
        ledger.check("gradcheck: every op below GRAD_TOL", not bad, f"{bad}")


class ProbePhase(Phase):
    """A fixed workload that runs no kphead code, to time the host itself.

    It mimics the mix the substrate spends its time on: Python object
    bookkeeping and small numpy kernels, on arrays that stay in cache.  The
    work runs twice and only the second run is timed, so the probe does not
    pay for the cache and allocator state a large kphead operation left
    behind: without that, probes after `paper`'s 100 MB gradient steps read
    slow and the probe would follow kphead's memory use instead of the host.
    """

    def __init__(self):
        super().__init__("probe")
        self._small = np.full((16, 16), 1.0 / 16)
        self._grid = np.ones((16, 7, 7))

    def _work(self) -> None:
        nodes = [{"op": i, "parents": (i - 1, i - 2), "fn": len} for i in range(3000)]
        total = sum(n["fn"](n["parents"]) for n in nodes)
        a = self._grid
        for _ in range(150):
            a = np.einsum("oc,chw->ohw", self._small, a)
            a = np.where(a > 0, a, 0.0) + 1e-3
        if total != 6000 or not np.all(np.isfinite(a)):
            raise RuntimeError("host probe computed a wrong result")

    def run(self, ledger: Ledger, digest: Digest) -> None:
        self._work()
        t0 = perf_counter()
        self._work()
        self.durations.append(perf_counter() - t0)


# -- passes ----------------------------------------------------------------------

@dataclass
class PassResult:
    phases: dict[str, Phase]
    sequence: list[str]
    inputs: Inputs
    wall_s: float
    digest: str


def _pick(phases, used, shares, counts, mins, deadline):
    """Next phase: one still below its minimum count, else the one furthest
    behind its time share that fits before the deadline."""
    behind = [n for n in phases if counts[n] < mins[n]]
    if behind:
        return min(behind, key=lambda n: used[n] / shares[n])
    now = perf_counter()
    fits = [n for n in phases if now + phases[n].estimate() <= deadline]
    if not fits or now >= deadline:
        return None
    return min(fits, key=lambda n: used[n] / shares[n])


def run_pass(w: Workload, seed: int, seconds: float, workdir: str, ledger: Ledger,
             tracer: Tracer | None = None, sequence: list[str] | None = None) -> PassResult:
    """Set up, then run phases for ``seconds`` (or replay ``sequence``)."""
    if tracer is None and wrapped_names():
        raise RuntimeError("an untraced pass found tracing wrappers installed")
    pass_start = perf_counter()
    if tracer is not None:
        tracer.phase = "setup"
    inputs = setup(w, seed, workdir)
    setup_s = perf_counter() - pass_start
    ledger.check("setup: dataset reads back as generated",
                 _same_examples(inputs.train, inputs.generated[0])
                 and _same_examples(inputs.test, inputs.generated[1]))
    expected = accounting.count_params_condensed(inputs.head, inputs.disc).total_params
    ledger.check("setup: condensed scalar_count equals accounting",
                 inputs.condensed.scalar_count() == expected,
                 f"{inputs.condensed.scalar_count()} vs {expected}")
    if w.params is not None:
        ledger.check("setup: condensed parameter count is the workload's",
                     expected == w.params, f"{expected} vs {w.params}")
    if tracer is not None:
        tracer.register_model(inputs.condensed)
        tracer.register_model(inputs.baseline)
        tracer.register_examples("train", inputs.train)
        tracer.register_examples("test", inputs.test)

    train_pool = inputs.train[:w.pool]
    eval_pool = inputs.test[:w.pool]
    phases: dict[str, Phase] = {
        "setup": SetupPhase(w, seed, workdir, inputs, setup_s),
        "train_condensed": TrainPhase("train_condensed", inputs.condensed, train_pool, seed),
        "train_baseline": TrainPhase("train_baseline", inputs.baseline, train_pool, seed),
        "eval_condensed": EvalPhase("eval_condensed", inputs.condensed, eval_pool,
                                    w.eval_chunk),
        "eval_baseline": EvalPhase("eval_baseline", inputs.baseline, eval_pool, w.eval_chunk),
        "export": ExportPhase(inputs, w, seed, workdir),
        "gradcheck": GradcheckPhase(seed),
        "probe": ProbePhase(),
    }
    digest = Digest()
    mins = min_counts(w)
    used = {n: 0.0 for n in phases}
    counts = {n: 0 for n in phases}
    deadline = perf_counter() + seconds
    done: list[str] = []
    replay = iter(sequence) if sequence is not None else None
    while True:
        if replay is not None:
            name = next(replay, None)
        else:
            name = _pick(phases, used, w.shares, counts, mins, deadline)
        if name is None:
            break
        phase = phases[name]
        if tracer is not None:
            tracer.phase = name
        t0 = perf_counter()
        try:
            phase.run(ledger, digest)
        except Exception as exc:  # a failing operation is counted, the run goes on
            ledger.check(f"{name}: operation raised", False, repr(exc))
            digest.add(name, repr(exc))
        used[name] += perf_counter() - t0
        counts[name] += 1
        done.append(name)
    for name in ("train_condensed", "train_baseline"):
        phases[name].check_falls(ledger)
    return PassResult(phases=phases, sequence=done, inputs=inputs,
                      wall_s=perf_counter() - pass_start, digest=digest.hexdigest())


# -- metrics -----------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


# The host probe's median on the 2-CPU sizing host (Python 3.11.7, numpy
# 2.4.6, one OpenBLAS thread), rounded.  End-to-end times are reported as if
# the host ran the probe in exactly this time.
PROBE_REF_S = 0.005


def raw_end_to_end(result: PassResult) -> dict[str, tuple[float, str]]:
    """End-to-end metrics as measured on this host in this run."""
    p = result.phases
    return {
        "setup_s": (_median(p["setup"].durations), "s"),
        "train_condensed_eps": (_median(p["train_condensed"].rates), "examples/s"),
        "train_baseline_eps": (_median(p["train_baseline"].rates), "examples/s"),
        "eval_condensed_eps": (_median(p["eval_condensed"].rates), "examples/s"),
        "eval_baseline_eps": (_median(p["eval_baseline"].rates), "examples/s"),
        "export_s": (_median(p["export"].durations), "s"),
        "gradcheck_s": (_median(p["gradcheck"].durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def host_slowdown(result: PassResult) -> float:
    """The host probe's median over PROBE_REF_S: 1.2 means this run's host
    was 20% slower than the reference."""
    return _median(result.phases["probe"].durations) / PROBE_REF_S


def end_to_end_metrics(w: Workload, result: PassResult) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, those in ``w.scaled`` normalised to the reference
    host speed: a rate multiplied by the run's host slowdown, a time divided
    by it.  The others are as measured.

    A shared host's speed drifts by tens of percent between runs, and the
    interpreter-bound phases drift with the probe, so their scaled medians
    repeat better than the raw ones.
    """
    slowdown = host_slowdown(result)
    out = {}
    for name, (value, unit) in raw_end_to_end(result).items():
        if name in w.scaled:
            value = value * slowdown if unit == "examples/s" else value / slowdown
        out[name] = (value, unit)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it.  With ten samples or fewer no such percentile exists and the
    median is returned at percentile 50."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return _median(ordered), 50.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


ACCOUNTING_LAYERS = ("discovery.block0.reduce3x3", "discovery.block0.restore1x1",
                     "discovery.block1.reduce3x3", "discovery.block1.restore1x1",
                     "discovery.predict1x1", "head.global1x1", "head.fc", "head.cls",
                     "head.reg", "head.baseline.fc1", "head.baseline.fc2",
                     "head.baseline.cls", "head.baseline.reg")


def accounting_rows(inputs: Inputs) -> dict[str, dict[str, int]]:
    """Layer metric name -> params, MACs per proposal and computed weight bytes,
    from ``accounting`` for the workload's own configs."""
    h = inputs.head
    rows = {}
    for spec in accounting.condensed_head_layers(h, inputs.disc):
        prefix = "discovery." if spec.name.startswith(("block", "predict")) else "head."
        rows[prefix + spec.name] = spec
    for spec in accounting.baseline_head_layers(h.num_classes, h.channels, h.height,
                                                h.width, h.hidden):
        rows["head.baseline." + spec.name] = spec
    return {name: {"params": s.params(), "macs": s.macs(),
                   "weight_bytes_computed": 8 * s.params()}
            for name, s in rows.items() if s.kind in ("conv", "fc")}


def _step_stats(tracer: Tracer, phase: str) -> dict[str, list[float]]:
    """Per-step forward, backward, optimizer and total times of a training
    phase, from the spans under each ``training.train`` call."""
    kids = tracer.children()
    stats = {"step": [], "forward": [], "backward": [], "optimizer": []}
    for train_span in tracer.spans_named("training.train", phase):
        forwards = sorted((s for s in kids[train_span[0]] if s[2] == "training._batch_loss"),
                          key=lambda s: s[5])
        backwards = sorted((s for s in kids[train_span[0]] if s[2] == "tensor.backward"),
                           key=lambda s: s[5])
        ends = [s[5] for s in forwards[1:]] + [train_span[6]]
        for f, b, end in zip(forwards, backwards, ends):
            step = end - f[5]
            fwd, bwd = f[6] - f[5], b[6] - b[5]
            stats["step"].append(step)
            stats["forward"].append(fwd)
            stats["backward"].append(bwd)
            stats["optimizer"].append(step - fwd - bwd)
    return stats


def per_layer_metrics(tracer: Tracer, result: PassResult, untraced_wall: float,
                      max_rel_err: float) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics of a traced pass, plus the accounting table."""
    m: dict[str, tuple[float, str]] = {}
    p = result.phases
    trains = ("train_condensed", "train_baseline")
    n_c = len(p["train_condensed"].durations) * p["train_condensed"].chunk
    n_b = len(p["train_baseline"].durations) * p["train_baseline"].chunk
    per_model = {"train_condensed": n_c, "train_baseline": n_b}

    def fwd(key, phases=trains):
        return sum(tracer.fwd[(ph, key)] for ph in phases)

    def bwd(key, phases=trains):
        return sum(tracer.bwd[(ph, key)] for ph in phases)

    def ms_per(seconds, n):
        return (1000.0 * seconds / n, "ms")

    for kind in sorted(set(tensor_ops().values())):
        m[f"tensor.{kind}.fwd_ms"] = ms_per(fwd(f"tensor.{kind}"), n_c + n_b)
        if kind not in NO_BACKWARD:
            m[f"tensor.{kind}.bwd_ms"] = ms_per(bwd(f"tensor.{kind}"), n_c + n_b)
    m["tensor.backward.self_ms"] = ms_per(
        sum(tracer.backward_self_s[ph] for ph in trains), n_c + n_b)
    m["tensor.nodes_per_example"] = (
        sum(tracer.nodes[(ph, "tensor")] for ph in trains) / (n_c + n_b), "count")

    table = accounting_rows(result.inputs)
    for layer in ACCOUNTING_LAYERS:
        phase = "train_baseline" if layer.startswith("head.baseline.") else "train_condensed"
        n = per_model[phase]
        f, b = fwd(layer, (phase,)), bwd(layer, (phase,))
        calls = tracer.calls[(phase, layer)]
        m[f"{layer}.fwd_ms"] = ms_per(f, n)
        m[f"{layer}.bwd_ms"] = ms_per(b, n)
        macs = table[layer]["macs"]
        m[f"{layer}.ns_per_mac"] = (1e9 * f / (calls * macs) if calls else float("nan"),
                                    "ns/MAC")
        m[f"accounting.{layer}.macs"] = (float(macs), "count")
    for layer in ("head.gather_fibers", "head.global_pool", "head.descriptor_concat"):
        m[f"{layer}.fwd_ms"] = ms_per(fwd(layer, ("train_condensed",)), n_c)

    m["discovery.tmr.fwd_ms"] = ms_per(
        tracer.span_total("discovery.tmr_squash", "train_condensed"), n_c)
    m["discovery.tmr.bwd_ms"] = ms_per(bwd("discovery.tmr", ("train_condensed",)), n_c)
    m["discovery.tmr.nodes"] = (tracer.nodes[("train_condensed", "discovery.tmr")] / n_c,
                                "count")
    m["discovery.extract.fwd_ms"] = ms_per(
        tracer.span_total("discovery.extract_key_parts", "train_condensed"), n_c)

    for loss, phases in (("detection", trains), ("discriminative", ("train_condensed",)),
                         ("uniqueness", ("train_condensed",))):
        n = sum(per_model[ph] for ph in phases)
        m[f"losses.{loss}.fwd_ms"] = ms_per(
            sum(tracer.span_total(f"losses.{loss}_loss", ph) for ph in phases), n)
        m[f"losses.{loss}.bwd_ms"] = ms_per(bwd(f"losses.{loss}", phases), n)

    for phase, model in (("train_condensed", "condensed"), ("train_baseline", "baseline")):
        stats = _step_stats(tracer, phase)
        value, pct = tail(stats["step"])
        m[f"training.{model}.step_ms_p50"] = (1000.0 * _median(stats["step"]), "ms")
        m[f"training.{model}.step_ms_tail"] = (1000.0 * value, "ms")
        m[f"training.{model}.step_tail_pct"] = (pct, "%")
        m[f"training.{model}.steps"] = (float(len(stats["step"])), "count")
        for part in ("forward", "backward", "optimizer"):
            m[f"training.{model}.{part}_ms"] = (1000.0 * _median(stats[part]), "ms")
    exports = len(p["export"].durations)
    m["training.save_params_s"] = (tracer.span_total("training.save_params", "export")
                                   / exports, "s")
    m["training.load_params_s"] = (tracer.span_total("training.load_params", "export")
                                   / exports, "s")

    kids = tracer.children()
    eval_self = 0.0
    eval_n = 0
    for phase, model, fwd_name in (("eval_condensed", "condensed", "head.full_condensed_forward"),
                                   ("eval_baseline", "baseline", "head.baseline_forward")):
        forward_s = 0.0
        n = len(p[phase].durations) * p[phase].chunk
        for span in tracer.spans_named("evaluate.evaluate", phase):
            inner = sum(s[6] - s[5] for s in kids[span[0]] if s[2] == fwd_name)
            forward_s += inner
            eval_self += (span[6] - span[5]) - inner
        eval_n += n
        m[f"evaluate.{model}.forward_ms"] = ms_per(forward_s, n)
    m["evaluate.metrics_ms"] = ms_per(eval_self, eval_n)

    for name in ("generate", "write", "read"):
        per_rep = (tracer.span_total(f"dataset.{name}_dataset", "setup")
                   / len(p["setup"].durations))
        m[f"dataset.{name}_s"] = (per_rep, "s")
    m["dataset.bytes"] = (float(result.inputs.dataset_bytes), "B")

    heat_n = exports * len(result.inputs.test[:HEATMAP_EXAMPLES])
    m["heatmaps.export_ms"] = ms_per(tracer.span_total("heatmaps.export_heatmaps", "export"),
                                     heat_n)
    m["heatmaps.bytes"] = (_median(p["export"].heatmap_bytes) / (heat_n / exports), "B")

    suites = len(p["gradcheck"].durations)
    for name in gradcheck.CHECKS:
        m[f"gradcheck.{name}.s"] = (tracer.span_total(f"gradcheck.{name}", "gradcheck")
                                    / suites, "s")
    m["gradcheck.fd_evals"] = (float(tracer.fd_evals) / suites, "count")
    m["gradcheck.kink_accept_ratio"] = (
        tracer.kink_accepted / tracer.kink_draws if tracer.kink_draws else float("nan"),
        "ratio")
    m["gradcheck.max_rel_err"] = (max_rel_err, "ratio")
    m["trace.overhead_pct"] = (100.0 * (result.wall_s / untraced_wall - 1.0), "%")
    m["host.probe_ms"] = (1000.0 * _median(p["probe"].durations), "ms")
    return m, table
