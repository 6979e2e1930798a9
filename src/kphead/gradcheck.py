"""Finite-difference verification of every differentiable operation and of
the end-to-end condensed-head loss.

Each check builds a scalar from the operation under test (via a fixed random
projection so every output element matters), runs one backward pass, and
compares against central finite differences.  Inputs are re-sampled until
the forward pass stays clear of non-smooth loci (relu kinks, smooth-L1
transitions, argmax ties), which finite differences cannot probe.
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
    """Re-sample deterministically until the probe forward pass keeps a
    margin around every kink/tie."""
    base = int(rng.integers(2 ** 31))
    for attempt in range(200):
        case_rng = np.random.default_rng([base, attempt])
        build, checked = make_case(case_rng)
        with KinkWatch() as watch:
            build()
        if watch.min_margin > KINK_MARGIN:
            return build, checked
    raise RuntimeError(f"no kink-free sample found from base seed {base}")


def _param(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# -- individual checks -----------------------------------------------------

def _check_conv2d(rng) -> float:
    x = _param(rng, (4, 5, 5))
    w = _param(rng, (4, 2, 3, 3))
    b = _param(rng, (4,))
    proj = Tensor(rng.standard_normal((4, 5, 5)))

    def build():
        return T.sum_all(T.mul(T.conv2d(x, w, b, groups=2, dilation=2), proj))

    return _compare(build, [x, w, b])


def _check_adaptive_avg_pool(rng) -> float:
    x = _param(rng, (3, 7, 7))
    proj = Tensor(rng.standard_normal((3, 5, 5)))

    def build():
        return T.sum_all(T.mul(T.adaptive_avg_pool(x, 5), proj))

    return _compare(build, [x])


def _check_linear(rng) -> float:
    x = _param(rng, (2, 8))
    w = _param(rng, (3, 8))
    b = _param(rng, (3,))
    proj = Tensor(rng.standard_normal((2, 3)))

    def build():
        return T.sum_all(T.mul(T.linear(x, w, b), proj))

    return _compare(build, [x, w, b])


def _check_relu(rng) -> float:
    def make_case(case_rng):
        x = _param(case_rng, (24,))
        proj = Tensor(case_rng.standard_normal((24,)))
        return (lambda: T.sum_all(T.mul(T.relu(x), proj))), [x]

    build, checked = _clear_of_kinks(make_case, rng)
    return _compare(build, checked)


def _check_arithmetic(rng) -> float:
    a = _param(rng, (6,))
    b = _param(rng, (6,))
    proj = Tensor(rng.standard_normal((6,)))

    def build():
        return T.sum_all(T.mul(T.mul(T.add(a, b), T.sub(a, b)), proj))

    return _compare(build, [a, b])


def _check_concat(rng) -> float:
    parts = [_param(rng, (2, 3)), _param(rng, (4,)), _param(rng, (2, 2))]
    proj = Tensor(rng.standard_normal((14,)))

    def build():
        return T.sum_all(T.mul(T.concat(parts), proj))

    return _compare(build, parts)


def _check_gather_at(rng) -> float:
    x = _param(rng, (3, 4, 4))
    points = [(0, 0), (2, 3), (2, 3), (1, 1)]  # duplicate accumulates
    proj = Tensor(rng.standard_normal((4, 3)))

    def build():
        return T.sum_all(T.mul(T.gather_at(x, points), proj))

    return _compare(build, [x])


def _check_smooth_l1(rng) -> float:
    def make_case(case_rng):
        a = _param(case_rng, (6,))
        b = _param(case_rng, (6,))
        proj = Tensor(case_rng.standard_normal((6,)))
        return (lambda: T.sum_all(T.mul(T.smooth_l1(a, b), proj))), [a, b]

    build, checked = _clear_of_kinks(make_case, rng)
    return _compare(build, checked)


def _check_logsumexp(rng) -> float:
    x = _param(rng, (2, 7))
    proj = Tensor(rng.standard_normal((2,)))

    def build():
        return T.sum_all(T.mul(T.logsumexp(x), proj))

    return _compare(build, [x])


def _check_tmr(rng) -> float:
    def make_case(case_rng):
        raw = _param(case_rng, (3, 5, 5))
        proj = Tensor(case_rng.standard_normal((3, 5, 5)))
        return (lambda: T.sum_all(T.mul(tmr_squash(raw, 0.5, 0.1), proj))), [raw]

    build, checked = _clear_of_kinks(make_case, rng)
    return _compare(build, checked)


def _check_discovery_objective(rng) -> float:
    def make_case(case_rng):
        raws = [_param(case_rng, (2, 4, 4)) for _ in range(3)]
        labels = [1, 0, 1]

        def build():
            maps_batch = [tmr_squash(raw, 0.5, 0.1) for raw in raws]
            return losses.discovery_objective(maps_batch, labels)

        return build, raws

    build, checked = _clear_of_kinks(make_case, rng)
    return _compare(build, checked)


def _check_detection_loss(rng) -> float:
    cfg = HeadConfig(channels=8, num_classes=3, num_parts=1, pool_len=1,
                     height=4, width=4, channel_keep=0.5, hidden=4)

    def make_case(case_rng):
        v_cls = _param(case_rng, (2, 4))
        v_reg = _param(case_rng, (2, 12))
        boxes = case_rng.standard_normal((2, 4))

        def build():  # one foreground row, one background row
            return losses.detection_loss(HeadOutput(v_cls, v_reg), [2, 0], boxes, cfg)

        return build, [v_cls, v_reg]

    build, checked = _clear_of_kinks(make_case, rng)
    return _compare(build, checked)


def small_head_configs() -> tuple[DiscoveryConfig, HeadConfig]:
    """Desk-sized condensed head (2 x 7 x 7 input) for the end-to-end check."""
    disc = DiscoveryConfig(channels=2, num_parts=2, num_blocks=2, reduction=2,
                           groups=1, dilation=2)
    head = HeadConfig(channels=2, num_classes=2, num_parts=2, pool_len=3,
                      height=7, width=7, channel_keep=0.5, hidden=8)
    return disc, head


def _check_condensed_head(rng) -> float:
    disc_cfg, head_cfg = small_head_configs()

    def make_case(case_rng):
        disc_params = init_discovery_params(disc_cfg, case_rng)
        head_params = init_head_params(head_cfg, case_rng)
        x = Tensor(case_rng.standard_normal((2, 7, 7)), requires_grad=True)
        box = case_rng.standard_normal(4)

        def build():
            fwd = full_condensed_forward([x], disc_params, head_params,
                                         disc_cfg, head_cfg)
            det = losses.detection_loss(fwd.output, [1], [box], head_cfg)
            obj = losses.discovery_objective(fwd.maps, [1])
            return T.add(det, obj)

        checked = [x] + [t for _, t in named_tensors("discovery", disc_params)
                                          + named_tensors("head", head_params)]
        return build, checked

    build, checked = _clear_of_kinks(make_case, rng)
    return _compare(build, checked)


CHECKS = {
    "conv2d": _check_conv2d,
    "adaptive_avg_pool": _check_adaptive_avg_pool,
    "linear": _check_linear,
    "relu": _check_relu,
    "add_mul_div": _check_arithmetic,  # perfbench reports gradcheck.add_mul_div.s
    "concat": _check_concat,
    "gather_at": _check_gather_at,
    "smooth_l1": _check_smooth_l1,
    "logsumexp": _check_logsumexp,
    "tmr_squash": _check_tmr,
    "discovery_objective": _check_discovery_objective,
    "detection_loss": _check_detection_loss,
    "condensed_head_loss": _check_condensed_head,
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
