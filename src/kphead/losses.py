"""Training objectives.

The discovery objective pushes each map's peak confidence toward the
example's foreground label (discriminative term) and the spatial peak of the
channel-summed maps toward 1 on foregrounds (uniqueness term).  Both take
the batch's N x K x H x W squashed maps, and each is one smooth L1 over the
peaks of the whole batch.  The toy
detection loss is cross-entropy over class logits plus smooth L1 on the
target class's box offsets, summed over a batch's output rows.  Every term
is a plain sum over the batch, the paper's written form; training divides
the weighted total by the batch size when ``TrainConfig.batch_mean`` is set.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .head import HeadConfig, HeadOutput
from .tensor import Tensor

BACKGROUND = 0  # class index 0 is background; foregrounds are 1..num_classes


def _check_batch(maps: Tensor, labels: Sequence[int]) -> None:
    if maps.data.ndim != 4 or maps.shape[0] != len(labels):
        raise ContractViolation(
            f"confidence maps of shape {maps.shape} vs {len(labels)} labels: "
            f"need N x K x H x W maps for N labels")
    for y in labels:
        if y not in (0, 1):
            raise ContractViolation(f"labels must be 0 or 1, got {y!r}")


def discriminative_loss(maps: Tensor, labels: Sequence[int]) -> Tensor:
    """Sum over examples and maps of smooth_l1(peak confidence, label), for
    N x K x H x W maps and N labels.

    Drives every per-map peak toward 1 on foreground examples and 0 on
    background.
    """
    _check_batch(maps, labels)
    targets = np.repeat(np.asarray(labels, dtype=np.float64), maps.shape[1])
    return T.sum_all(T.smooth_l1(T.map_peaks(maps), Tensor(targets.reshape(maps.shape[:2]))))


def uniqueness_loss(maps: Tensor, labels: Sequence[int]) -> Tensor:
    """Push the spatial peak of each example's channel-summed maps toward 1
    on foregrounds, for N x K x H x W maps and N labels.

    Co-located peaks push the summed map past 1 and get penalized; background
    examples are masked out and contribute exactly zero.
    """
    _check_batch(maps, labels)
    if not any(labels):
        return Tensor(0.0)
    peaks = T.map_peaks(T.channel_sum(maps))  # N x 1
    foreground = Tensor(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    return T.sum_all(T.mul(T.smooth_l1(peaks, Tensor(1.0)), foreground))


def discovery_objective(maps: Tensor, labels: Sequence[int]) -> Tensor:
    """Unweighted sum of the discriminative and uniqueness terms."""
    return T.add(discriminative_loss(maps, labels), uniqueness_loss(maps, labels))


def detection_loss(out: HeadOutput, classes: Sequence[int],
                   boxes: Sequence[Sequence[float]], cfg: HeadConfig) -> Tensor:
    """Sum over the N output rows of cross-entropy between row i's class
    logits and ``classes[i]``, plus smooth L1 between that class's 4 box
    offsets and ``boxes[i]``; background rows have no regression term."""
    n = len(classes)
    if out.v_cls.shape != (n, cfg.cls_len) or out.v_reg.shape != (n, cfg.reg_len):
        raise ContractViolation(
            f"detection_loss: outputs {out.v_cls.shape} and {out.v_reg.shape} "
            f"for {n} targets")
    for c in classes:
        if not (0 <= c <= cfg.num_classes):
            raise ContractViolation(f"target_class={c} outside [0, {cfg.num_classes}]")
    # the 1 x N x C views let gather_at pick one entry per (row, column) point
    picked = T.gather_at(T.reshape(out.v_cls, (1, n, cfg.cls_len)), list(enumerate(classes)))
    ce = T.sum_all(T.logsumexp(out.v_cls) - T.reshape(picked, (n,)))
    fg = [i for i, c in enumerate(classes) if c != BACKGROUND]
    if not fg:
        return ce
    points = [(i, cfg.reg_start(classes[i]) + j) for i in fg for j in range(4)]
    pred = T.gather_at(T.reshape(out.v_reg, (1, n, cfg.reg_len)), points)
    target = Tensor(np.concatenate([boxes[i] for i in fg]).reshape(-1, 1))
    reg = T.sum_all(T.smooth_l1(pred, target))
    return T.add(ce, reg)
