"""Per-layer tracing of kphead from outside the package.

``Tracer.install`` replaces kphead's public functions with timing wrappers
in every kphead module that holds a reference to them, so names imported
directly (``from .tensor import backward``) are wrapped where they are looked
up, not only where they are defined.  ``Tracer.remove`` puts every original
back and returns any wrapper still found, for the caller to count as a
failure.

Two kinds of wrapper exist:

* layer spans, around the functions that form the boundaries between
  kphead's modules (dataset I/O, discovery, head, losses, training,
  evaluate, heatmaps, gradcheck, ``backward``).  Each span records its name,
  parent span, phase, example id and start/end time, in memory;
* op wrappers, around every public op of ``kphead.tensor``.  They add the
  op's forward time to per-op and per-layer totals, count the graph nodes it
  records, and wrap each node's backward closure so backward time is
  charged to the layer whose forward created the node.
"""

from __future__ import annotations

import inspect
import re
import sys
import time
from collections import defaultdict

from kphead import gradcheck
from kphead import tensor as T

perf_counter = time.perf_counter

HEAVY_OPS = ("conv2d", "linear", "adaptive_avg_pool", "gather_at")

# Layer-boundary functions, by defining module.
SPAN_FUNCTIONS = {
    "kphead.dataset": ("generate_dataset", "write_dataset", "read_dataset"),
    "kphead.discovery": ("concentration_forward", "predict_confidence", "tmr_squash",
                         "extract_key_parts"),
    "kphead.head": ("key_part_modeling", "global_activation", "head_forward",
                    "full_condensed_forward", "baseline_forward"),
    "kphead.losses": ("detection_loss", "discriminative_loss", "uniqueness_loss",
                      "discovery_objective"),
    "kphead.training": ("train", "_batch_loss", "save_params", "load_params",
                        "restore_into"),
    "kphead.evaluate": ("evaluate",),
    "kphead.heatmaps": ("export_heatmaps",),
    "kphead.gradcheck": ("run_suite", "_clear_of_kinks"),
    "kphead.tensor": ("backward", "finite_diff_grad"),
}

# Spans whose graph nodes are charged to a layer metric for backward time.
ATTRIBUTED_SPANS = {
    "discovery.tmr_squash": "discovery.tmr",
    "losses.detection_loss": "losses.detection",
    "losses.discriminative_loss": "losses.discriminative",
    "losses.uniqueness_loss": "losses.uniqueness",
}

# Parameter-free head layers, recognised by the op and the span calling it.
STRUCTURAL_LAYERS = {
    ("gather_at", "head.key_part_modeling"): "head.gather_fibers",
    ("adaptive_avg_pool", "head.global_activation"): "head.global_pool",
    ("concat", "head.head_forward"): "head.descriptor_concat",
}

# named_tensors() prefix -> layer metric name (accounting layer names).
_PARAM_LAYERS = (
    (re.compile(r"^discovery\.(block\d+)\.reduce$"), r"discovery.\1.reduce3x3"),
    (re.compile(r"^discovery\.(block\d+)\.restore$"), r"discovery.\1.restore1x1"),
    (re.compile(r"^discovery\.predict$"), "discovery.predict1x1"),
    (re.compile(r"^head\.global_conv$"), "head.global1x1"),
    (re.compile(r"^head\.(fc|cls|reg)$"), r"head.\1"),
    (re.compile(r"^baseline\.(fc1|fc2|cls|reg)$"), r"head.baseline.\1"),
)


def layer_of_param(tensor_name: str) -> str | None:
    """Layer metric name of a ``named_tensors()`` weight, e.g.
    ``discovery.block0.reduce.weight`` -> ``discovery.block0.reduce3x3``."""
    prefix, _, leaf = tensor_name.rpartition(".")
    if leaf != "weight":
        return None
    for pattern, repl in _PARAM_LAYERS:
        if pattern.match(prefix):
            return pattern.sub(repl, prefix)
    raise ValueError(f"no layer name for parameter {tensor_name!r}")


def tensor_ops() -> dict[str, str]:
    """Public op name -> metric kind (a heavy op's own name, else plumbing)."""
    ops = {}
    for name, fn in vars(T).items():
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != T.__name__ or name in SPAN_FUNCTIONS["kphead.tensor"]):
            continue
        ops[name] = name if name in HEAVY_OPS else "plumbing"
    return ops


def kphead_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kphead" or name.startswith("kphead."))]


def wrapped_names() -> list[str]:
    """Every kphead module attribute that is still a tracing wrapper."""
    found = [f"{m.__name__}.{attr}" for m in kphead_modules()
             for attr, value in vars(m).items() if hasattr(value, "_perfbench_original")]
    found += [f"kphead.gradcheck.CHECKS[{name!r}]" for name, fn in gradcheck.CHECKS.items()
              if hasattr(fn, "_perfbench_original")]
    return found


class _TimedBackward:
    """A node's backward closure, timed and charged to the node's layers."""

    __slots__ = ("fn", "keys", "tracer")

    def __init__(self, fn, keys, tracer):
        self.fn = fn
        self.keys = keys
        self.tracer = tracer

    def __call__(self, g):
        t0 = perf_counter()
        self.fn(g)
        dt = perf_counter() - t0
        tracer = self.tracer
        tracer.closure_s += dt
        for key in self.keys:
            tracer.bwd[key] += dt


class Tracer:
    """Spans and per-layer totals for one traced pass.

    Totals are keyed by ``(phase, metric key)``; the caller sets ``phase``
    before each operation it measures.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []  # [id, parent, name, phase, example, t0, t1]
        self.fwd: dict[tuple[str, str], float] = defaultdict(float)
        self.bwd: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.nodes: dict[tuple[str, str], int] = defaultdict(int)
        self.closure_s = 0.0
        self.backward_self_s: dict[str, float] = defaultdict(float)
        self.fd_evals = 0
        self.kink_draws = 0
        self.kink_accepted = 0
        self.example_ids: dict[int, str] = {}
        self.param_layers: dict[int, str] = {}
        self._stack: list[list] = []
        self._attr_key: list[str] = []
        self._op_depth = 0
        self._saved: list[tuple[object, str, object]] = []
        self._saved_checks: dict[str, object] = {}

    # -- registration ---------------------------------------------------

    def register_model(self, model) -> None:
        for name, t in model.named_tensors():
            layer = layer_of_param(name)
            if layer is not None:
                self.param_layers[id(t)] = layer

    def register_examples(self, label: str, examples) -> None:
        for i, ex in enumerate(examples):
            self.example_ids[id(ex.x)] = f"{label}:{i}"

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        if self._saved or wrapped_names():
            raise RuntimeError("tracing wrappers are already installed")
        replacements = {}
        for modname, names in SPAN_FUNCTIONS.items():
            module = sys.modules[modname]
            short = modname.rpartition(".")[2]
            for name in names:
                original = getattr(module, name)
                replacements[id(original)] = (original,
                                              self._span_wrapper(original, f"{short}.{name}"))
        for name, kind in tensor_ops().items():
            original = getattr(T, name)
            replacements[id(original)] = (original, self._op_wrapper(original, name, kind))
        kink_watch = gradcheck.KinkWatch
        replacements[id(kink_watch)] = (kink_watch, self._counting_kink_watch(kink_watch))
        for module in kphead_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for name, check in list(gradcheck.CHECKS.items()):
            self._saved_checks[name] = check
            gradcheck.CHECKS[name] = self._span_wrapper(check, f"gradcheck.{name}")

    def remove(self) -> list[str]:
        """Restore every original; return the wrappers still installed."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        gradcheck.CHECKS.update(self._saved_checks)
        self._saved.clear()
        self._saved_checks.clear()
        return wrapped_names()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        attributed = ATTRIBUTED_SPANS.get(name)
        forward_of_example = name in ("head.full_condensed_forward", "head.baseline_forward")
        is_backward = name == "tensor.backward"
        counts_fd = name == "tensor.finite_diff_grad"
        counts_kinks = name == "gradcheck._clear_of_kinks"

        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            example = parent[4] if parent is not None else None
            if forward_of_example:
                example = self.example_ids.get(id(args[0]), example)
            if counts_fd:
                f = args[0]

                def counted(x):
                    self.fd_evals += 1
                    return f(x)

                args = (counted,) + args[1:]
            span = [len(self.spans), parent[0] if parent is not None else None, name,
                    self.phase, example, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span)
            if attributed:
                self._attr_key.append(attributed)
            closure_before = self.closure_s
            span[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = t1 = perf_counter()
                self._stack.pop()
                if attributed:
                    self._attr_key.pop()
            if is_backward:
                self.backward_self_s[self.phase] += (t1 - span[5]) - (self.closure_s
                                                                       - closure_before)
            if counts_kinks:
                self.kink_accepted += 1
            return result

        wrapped._perfbench_original = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def _op_wrapper(self, fn, name, kind):
        op_key = f"tensor.{kind}"
        param_op = name in ("conv2d", "linear")

        def wrapped(*args, **kwargs):
            outer = self._op_depth == 0
            self._op_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._op_depth -= 1
            dt = perf_counter() - t0
            phase = self.phase
            layer = None
            if param_op:
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                layer = self.param_layers.get(id(weight))
            elif self._stack:
                layer = STRUCTURAL_LAYERS.get((name, self._stack[-1][2]))
            if outer:
                self.fwd[(phase, op_key)] += dt
            if layer is not None:
                self.fwd[(phase, layer)] += dt
                self.calls[(phase, layer)] += 1
            backward_fn = getattr(out, "_backward_fn", None)
            if backward_fn is not None and not isinstance(backward_fn, _TimedBackward):
                keys = [(phase, op_key)]
                self.nodes[(phase, "tensor")] += 1
                if layer is not None:
                    keys.append((phase, layer))
                if self._attr_key:
                    keys.append((phase, self._attr_key[-1]))
                    self.nodes[(phase, self._attr_key[-1])] += 1
                out._backward_fn = _TimedBackward(backward_fn, tuple(keys), self)
            return out

        wrapped._perfbench_original = fn
        wrapped.__name__ = name
        return wrapped

    def _counting_kink_watch(self, base):
        tracer = self

        class CountingKinkWatch(base):
            def __init__(self):
                super().__init__()
                tracer.kink_draws += 1

        CountingKinkWatch._perfbench_original = base
        return CountingKinkWatch

    # -- span queries ----------------------------------------------------------

    def spans_named(self, name: str, phase: str | None = None) -> list[list]:
        return [s for s in self.spans
                if s[2] == name and (phase is None or s[3] == phase)]

    def span_total(self, name: str, phase: str | None = None) -> float:
        return sum(s[6] - s[5] for s in self.spans_named(name, phase))

    def children(self) -> dict[int, list[list]]:
        kids: dict[int, list[list]] = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                kids[s[1]].append(s)
        return kids
