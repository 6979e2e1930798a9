"""Finite-difference verification of every differentiable operation and of
the end-to-end condensed-head loss.

Each single-op check (``_projected``) builds a scalar from the operation
under test via a fixed random projection, so every output element matters;
the loss checks are scalars already.  A check runs one backward pass and
compares against central finite differences.  Where the forward pass has
non-smooth loci (relu kinks, smooth-L1 transitions, argmax ties), which
finite differences cannot probe, inputs are re-sampled until it stays clear
of them.
"""

from __future__ import annotations

import numpy as np

from . import losses
from . import tensor as T
from .discovery import DiscoveryConfig, init_discovery_params, named_tensors, tmr_squash
from .errors import ConfigError
from .head import HeadConfig, HeadOutput, full_condensed_forward, init_head_params
from .tensor import KinkWatch, Tensor, backward, finite_diff_grad

GRAD_TOL = 1e-4
FD_STEP = 1e-5
KINK_MARGIN = 1e-3  # exclusion radius around kinks/ties, well above 2*FD_STEP


def max_relative_error(analytic: np.ndarray, estimate: np.ndarray) -> float:
    """max |a - e| / max(1, |a|, |e|), i.e. relative for O(1) gradients and
    absolute below that scale."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(estimate)))
    return float(np.max(np.abs(analytic - estimate) / denom))


def _compare(build, checked: list[Tensor]) -> float:
    """Backward once, then finite-difference each checked tensor."""
    loss = build()
    backward(loss)
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for t in checked]
    worst = 0.0
    for t, analytic in zip(checked, grads):
        fd = finite_diff_grad(lambda _: build(), t, FD_STEP)
        worst = max(worst, max_relative_error(analytic, fd))
    return worst


def _clear_of_kinks(make_case, rng):
    """Re-sample deterministically until the probe forward pass, which
    records no graph, keeps a margin around every kink/tie."""
    base = int(rng.integers(2 ** 31))
    for attempt in range(200):
        case_rng = np.random.default_rng([base, attempt])
        build, checked = make_case(case_rng)
        with KinkWatch() as watch, T.NoGrad():
            build()
        if watch.min_margin > KINK_MARGIN:
            return build, checked
    raise RuntimeError(f"no kink-free sample found from base seed {base}")


def _param(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _checked(make_case, kinks: bool = True):
    """A check that draws a case ``(build, checked)`` from its rng, clear of
    kinks if ``kinks`` is set, and compares the checked gradients."""

    def check(rng) -> float:
        return _compare(*(_clear_of_kinks(make_case, rng) if kinks else make_case(rng)))

    return check


def _projected(op, *shapes, kinks: bool = False):
    """A check of ``op`` on standard-normal inputs of ``shapes``, drawn in
    order: the scalar is ``sum(op(*inputs) * proj)``, with ``proj`` drawn
    next at the shape of the op's output, so that every output element
    matters.  Write ``op`` as a lambda that looks ``T.<op>`` up when it runs,
    so that a wrapper installed on the module later is the op checked."""

    def make_case(rng):
        inputs = [_param(rng, shape) for shape in shapes]
        with T.NoGrad():  # a probe for the output's shape
            proj = Tensor(rng.standard_normal(op(*inputs).shape))
        return (lambda: T.sum_all(T.mul(op(*inputs), proj))), inputs

    return _checked(make_case, kinks)


# -- checks with their own draws -------------------------------------------

def _discovery_objective_case(rng):
    raw = _param(rng, (3, 2, 4, 4))

    def build():
        return losses.discovery_objective(tmr_squash(raw, 0.5, 0.1), [1, 0, 1])

    return build, [raw]


_DETECTION_CFG = HeadConfig(channels=8, num_classes=3, num_parts=1, pool_len=1,
                            height=4, width=4, channel_keep=0.5, hidden=4)


def _detection_loss_case(rng):
    v_cls = _param(rng, (2, 4))
    v_reg = _param(rng, (2, 12))
    boxes = rng.standard_normal((2, 4))

    def build():  # one foreground row, one background row
        return losses.detection_loss(HeadOutput(v_cls, v_reg), [2, 0], boxes, _DETECTION_CFG)

    return build, [v_cls, v_reg]


def small_head_configs() -> tuple[DiscoveryConfig, HeadConfig]:
    """Desk-sized condensed head (2 x 7 x 7 input) for the end-to-end check."""
    disc = DiscoveryConfig(channels=2, num_parts=2, num_blocks=2, reduction=2,
                           groups=1, dilation=2)
    head = HeadConfig(channels=2, num_classes=2, num_parts=2, pool_len=3,
                      height=7, width=7, channel_keep=0.5, hidden=8)
    return disc, head


def _condensed_head_case(rng):
    disc_cfg, head_cfg = small_head_configs()
    disc_params = init_discovery_params(disc_cfg, rng)
    head_params = init_head_params(head_cfg, rng)
    x = Tensor(rng.standard_normal((2, 7, 7)), requires_grad=True)
    box = rng.standard_normal(4)

    def build():
        fwd = full_condensed_forward([x], disc_params, head_params, disc_cfg, head_cfg)
        det = losses.detection_loss(fwd.output, [1], [box], head_cfg)
        return T.add(det, losses.discovery_objective(fwd.maps, [1]))

    checked = [x] + [t for _, t in named_tensors("discovery", disc_params)
                                      + named_tensors("head", head_params)]
    return build, checked


# the repeated points check that gradients accumulate
_GATHER_POINTS = np.array([[(0, 0), (2, 2), (2, 2), (1, 1)],
                           [(3, 0), (1, 2), (3, 0), (0, 1)]])

CHECKS = {
    "conv2d": _projected(lambda x, w, b: T.conv2d(x, w, b, groups=2, dilation=2),
                         (2, 4, 4, 3), (4, 2, 3, 3), (4,)),
    "adaptive_avg_pool": _projected(lambda x: T.adaptive_avg_pool(x, 4), (2, 2, 7, 5)),
    "linear": _projected(lambda x, w, b: T.linear(x, w, b), (2, 8), (3, 8), (3,)),
    "relu": _projected(lambda x: T.relu(x), (24,), kinks=True),
    # perfbench reports gradcheck.add_mul_div.s
    "add_mul_div": _projected(lambda a, b: T.mul(T.add(a, b), T.sub(a, b)), (6,), (6,)),
    # the stacked pair joins examples of the third part row by row; picking
    # example 1 twice checks that picks accumulate
    "concat": _projected(lambda a, b, c: T.concat([T.stack([a, b]), T.pick(c, 1),
                                                   T.pick(c, 0), T.pick(c, 1)]),
                         (2, 3), (2, 3), (2, 2, 1)),
    "gather_at": _projected(lambda x: T.gather_at(x, _GATHER_POINTS), (2, 2, 4, 3)),
    "smooth_l1": _projected(lambda a, b: T.smooth_l1(a, b), (6,), (6,), kinks=True),
    "logsumexp": _projected(lambda x: T.logsumexp(x), (2, 7)),
    "tmr_squash": _projected(lambda raw: tmr_squash(raw, 0.5, 0.1), (2, 3, 4, 3), kinks=True),
    "discovery_objective": _checked(_discovery_objective_case),
    "detection_loss": _checked(_detection_loss_case),
    "condensed_head_loss": _checked(_condensed_head_case),
}


def run_suite(trials: int = 3, seed: int = 0) -> dict[str, float]:
    """Max relative error per operation over ``trials`` random instances."""
    if trials < 1:
        raise ConfigError(f"gradcheck needs at least one trial, got trials={trials}")
    if seed < 0:
        raise ConfigError(f"gradcheck needs a non-negative seed, got seed={seed}")
    results = {name: 0.0 for name in CHECKS}
    for trial in range(trials):
        for op_index, (name, check) in enumerate(CHECKS.items()):
            rng = np.random.default_rng([seed, trial, op_index])
            results[name] = max(results[name], check(rng))
    return results
