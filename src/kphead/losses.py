"""Training objectives.

The discovery objective pushes each map's peak confidence toward the
example's foreground label (discriminative term) and the spatial peak of the
channel-summed maps toward 1 on foregrounds (uniqueness term).  Both take
the batch's N x K x H x W squashed maps, and each is one smooth L1 over the
peaks of the whole batch.  The toy
detection loss is cross-entropy over class logits plus smooth L1 on the
target class's box offsets, summed over a batch's output rows, and records
one ``class_box_loss`` node: ``detection_loss`` checks the classes and boxes
and builds their index arrays.  Every term
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
    offsets and ``boxes[i]``; background rows have no regression term.  A
    class is an ``int`` or numpy integer; a float or bool is refused, not
    truncated to a class.  ``boxes`` holds one box per row, and each
    foreground row's box must have shape (4,).  The loss is one
    ``class_box_loss`` node."""
    n = len(classes)
    if out.v_cls.shape != (n, cfg.cls_len) or out.v_reg.shape != (n, cfg.reg_len):
        raise ContractViolation(
            f"detection_loss: outputs {out.v_cls.shape} and {out.v_reg.shape} "
            f"for {n} targets")
    if len(boxes) != n:
        raise ContractViolation(f"detection_loss: {len(boxes)} boxes for {n} classes")
    for c in classes:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise ContractViolation(f"target_class={c!r} is not an integer class id")
        if not (0 <= c <= cfg.num_classes):
            raise ContractViolation(f"target_class={c} outside [0, {cfg.num_classes}]")
    class_ids = np.array(classes, dtype=np.intp)  # reg_start's arithmetic would wrap a uint8
    fg = (class_ids != BACKGROUND).nonzero()[0]
    targets = [np.asarray(boxes[i], dtype=np.float64) for i in fg]
    for i, box in zip(fg, targets):
        if box.shape != (4,):
            raise ContractViolation(
                f"detection_loss: the box of foreground row {i} has shape {box.shape}, not (4,)")
    points = np.empty((fg.size, 4, 2), dtype=np.intp)  # (row, col) of each box offset
    points[..., 0] = fg[:, None]
    points[..., 1] = np.add.outer(cfg.reg_start(class_ids[fg]), np.arange(4))
    return T.class_box_loss(out.v_cls, out.v_reg, class_ids, points.reshape(-1, 2),
                            np.concatenate(targets) if targets else np.zeros(0))
