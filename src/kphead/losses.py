"""Training objectives.

The discovery objective pushes each map's peak confidence toward the
example's foreground label (discriminative term) and the spatial peak of the
channel-summed maps toward 1 on foregrounds (uniqueness term).  The toy
detection loss is cross-entropy over class logits plus smooth L1 on the
target class's box offsets.
"""

from __future__ import annotations

from typing import Sequence

from . import tensor as T
from .errors import ContractViolation
from .head import HeadConfig, HeadOutput
from .tensor import Tensor

BACKGROUND = 0  # class index 0 is background; foregrounds are 1..num_classes


def smooth_l1(a, b):
    """Smooth L1 distance: 0.5 d^2 for |d| < 1, else |d| - 0.5.

    Accepts plain floats (returns a float) or tensors (returns a tensor with
    the gradient clamped to +/-1 in the linear regime).
    """
    if isinstance(a, Tensor) or isinstance(b, Tensor):
        a = a if isinstance(a, Tensor) else Tensor(a)
        b = b if isinstance(b, Tensor) else Tensor(b)
        return T.smooth_l1(a, b)
    d = a - b
    return 0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5


def _check_batch(maps_batch: Sequence[Tensor], labels: Sequence[int]) -> None:
    if len(maps_batch) != len(labels):
        raise ContractViolation(
            f"batch of {len(maps_batch)} confidence-map sets vs {len(labels)} labels")
    for y in labels:
        if y not in (0, 1):
            raise ContractViolation(f"labels must be 0 or 1, got {y!r}")


def discriminative_loss(maps_batch: Sequence[Tensor], labels: Sequence[int],
                        batch_mean: bool = False) -> Tensor:
    """Sum over examples and maps of smooth_l1(peak confidence, label).

    Drives every per-map peak toward 1 on foreground examples and 0 on
    background.  ``batch_mean`` divides by the batch size (the written form
    is a plain sum).
    """
    _check_batch(maps_batch, labels)
    terms = [T.sum_all(T.smooth_l1(T.map_peaks(maps), Tensor(float(y))))
             for maps, y in zip(maps_batch, labels)]
    total = T.add_n(terms)
    return total * (1.0 / len(maps_batch)) if batch_mean else total


def uniqueness_loss(maps_batch: Sequence[Tensor], labels: Sequence[int],
                    batch_mean: bool = False) -> Tensor:
    """Push the spatial peak of the channel-summed maps toward 1 on foregrounds.

    Co-located peaks push the summed map past 1 and get penalized; background
    examples contribute exactly zero.
    """
    _check_batch(maps_batch, labels)
    terms = []
    for maps, y in zip(maps_batch, labels):
        if y == 0:
            continue
        peak = T.map_peaks(T.channel_sum(maps))
        terms.append(T.sum_all(T.smooth_l1(peak, Tensor(1.0))))
    if not terms:
        return Tensor(0.0)
    total = T.add_n(terms)
    return total * (1.0 / len(maps_batch)) if batch_mean else total


def discovery_objective(maps_batch: Sequence[Tensor], labels: Sequence[int],
                        batch_mean: bool = False) -> Tensor:
    """Unweighted sum of the discriminative and uniqueness terms."""
    return T.add(discriminative_loss(maps_batch, labels, batch_mean),
                 uniqueness_loss(maps_batch, labels, batch_mean))


def detection_loss(out: HeadOutput, target_class: int, target_box: Sequence[float],
                   cfg: HeadConfig) -> Tensor:
    """Cross-entropy over class logits plus smooth L1 over the target class's
    4 box offsets; the regression term is skipped for background targets."""
    if not (0 <= target_class <= cfg.num_classes):
        raise ContractViolation(
            f"target_class={target_class} outside [0, {cfg.num_classes}]")
    ce = T.logsumexp(out.v_cls) - T.item_at(out.v_cls, target_class)
    if target_class == BACKGROUND:
        return ce
    start = cfg.reg_start(target_class)
    pred = T.slice1d(out.v_reg, start, start + 4)
    reg = T.sum_all(T.smooth_l1(pred, Tensor(list(target_box))))
    return T.add(ce, reg)
