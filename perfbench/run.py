"""Benchmark of kphead, end to end and layer by layer.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 30 --trace 0

Run from the root of a kphead checkout; the package is imported from the
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same work untraced and then traced, prints the
per-layer metrics and writes the spans to ``.perfbench_out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("toy", "paper", "gradcheck")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def set_blas_threads() -> None:
    """Run BLAS on one thread.  Must run before numpy is imported: BLAS reads
    these variables once, when it loads.  On a 2-CPU host a second BLAS
    thread, spinning between calls on the other CPU, widened the run-to-run
    spread of toy training throughput from ~2% to ~10% over five seeds."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    best = (0, None)
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if level >= best[0]:
            best = (level, value)
    return best[1]


def _blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if not OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": usable_cpus(),
        "llc_bytes": _llc_bytes(),
        "blas_threads": _blas_threads_in_use(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _import_kphead() -> bool:
    src = ROOT / "src"
    if not (src / "kphead" / "__init__.py").is_file():
        print(f"error: no kphead package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import kphead

    if Path(kphead.__file__).resolve().parent != (src / "kphead").resolve():
        print(f"error: kphead imported from {kphead.__file__}, not from {src}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    set_blas_threads()
    if not _import_kphead():
        return 2
    import workloads as W
    from tracer import Tracer

    w = W.WORKLOADS[args.workload]
    env = environment()
    workdir = OUT_DIR / f"work-{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ledger = W.Ledger()
    try:
        if args.trace:
            untraced = W.run_pass(w, args.seed, args.seconds / 2, str(workdir), ledger)
            tracer = Tracer()
            tracer.install()
            try:
                traced = W.run_pass(w, args.seed, 0.0, str(workdir), ledger, tracer,
                                    sequence=untraced.sequence)
            finally:
                left = tracer.remove()
            ledger.check("trace: every wrapper removed", not left, f"{left}")
            ledger.check("trace: traced outputs bit-identical to untraced",
                         traced.digest == untraced.digest,
                         f"{traced.digest} vs {untraced.digest}")
            metrics, table = W.per_layer_metrics(tracer, traced, untraced.wall_s,
                                                 traced.phases["gradcheck"].max_err)
            trace_path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json"
            with open(trace_path, "w") as fh:
                json.dump({"workload": w.name, "seed": args.seed, "env": env,
                           "sequence": traced.sequence, "accounting": table,
                           "metrics": {k: {"value": v, "unit": u}
                                       for k, (v, u) in metrics.items()},
                           "span_fields": ["id", "parent", "name", "phase", "example",
                                           "t0", "t1"],
                           "spans": tracer.spans}, fh)
        else:
            result = W.run_pass(w, args.seed, args.seconds, str(workdir), ledger)
            metrics = W.end_to_end_metrics(w, result)
            raw = W.raw_end_to_end(result)
            slowdown = W.host_slowdown(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = sorted(k for k, (v, _) in metrics.items() if not math.isfinite(v))
    ledger.check("metrics are finite", not bad, f"{bad}")

    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        print(f"host slowdown against the reference probe: {slowdown:.4f}; "
              f"metrics marked scaled are normalised by it (perfbench/README.md)")
    for name, (value, unit) in metrics.items():
        scaled = not args.trace and name in w.scaled
        as_measured = f"  (scaled; as measured {raw[name][0]:.6g})" if scaled else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{as_measured}")
    print(f"operations attempted={ledger.attempted} failed={ledger.failed}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
