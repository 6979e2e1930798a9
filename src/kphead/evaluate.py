"""Test-set metrics for trained toy models.

Key-part recall counts a planted cell as recovered when some extracted
key-part point lies within Chebyshev distance 1 of it (convolutional
receptive fields blur exact peak locations by design).  The reported chance
level D*K/(H*W) is the expected number of exact planted-cell/key-point
coincidences per foreground example if the K points were placed uniformly
and independently.

Evaluation runs no graph and takes no thread of its own: a large ``linear``
product in a forward pass shares the process's worker thread
(``tensor._worker``), as it does in training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ToyExample, check_examples
from .losses import BACKGROUND
from .tensor import NoGrad

EVAL_CHUNK = 16  # examples per forward pass


@dataclass
class Metrics:
    accuracy: float
    box_mae: float
    part_recall: float | None
    chance_level: float | None
    fg_peak_mean: float | None
    bg_peak_mean: float | None
    mean_distinct_parts: float | None

    CSV_HEADER = ("accuracy,box_mae,part_recall,chance_level,fg_peak_mean,"
                  "bg_peak_mean,mean_distinct_parts")

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"
        return ",".join([f"{self.accuracy:.6f}", f"{self.box_mae:.6f}",
                         fmt(self.part_recall), fmt(self.chance_level),
                         fmt(self.fg_peak_mean), fmt(self.bg_peak_mean),
                         fmt(self.mean_distinct_parts)])


def chance_recall_estimate(parts_per_class: int, num_parts: int, height: int,
                           width: int) -> float:
    """Expected exact coincidences per foreground example under uniform
    independent key-part placement."""
    return parts_per_class * num_parts / (height * width)


def key_part_hits(points: np.ndarray, planted: np.ndarray) -> np.ndarray:
    """For M planted (row, col) cells (M x 2) and each cell's example's K
    key-part points (M x K x 2): M booleans, true where some point lies
    within Chebyshev distance 1 of the cell."""
    return (np.abs(points - planted[:, None, :]).max(axis=2) <= 1).any(axis=1)


def _mean_or_zero(values: np.ndarray) -> float:
    return float(np.mean(values)) if values.size else 0.0


def evaluate(model, examples: list[ToyExample]) -> Metrics:
    """Metrics of ``model`` over ``examples``, in forward passes of
    ``EVAL_CHUNK`` examples that record no graph; the metrics are then read
    off the passes' joined outputs and key parts.

    On a process that may run on more than one CPU, the worker thread
    (``tensor._worker``) computes half of each ``linear`` product whose
    weight has at least ``tensor._LINEAR_SPLIT_MIN`` values (at the toy
    setting, the baseline's fc1 alone).  At the FPN-VOC head shapes, and for
    the toy baseline's 16-example passes, the metrics are the same bytes
    either way (see ``tensor.linear``)."""
    cfg = model.head_cfg
    check_examples(examples, cfg.num_classes, "evaluate")
    class_ids = np.array([ex.class_id for ex in examples], dtype=np.intp)
    passes = []
    with NoGrad():
        for first in range(0, len(examples), EVAL_CHUNK):
            fwd = model.forward(*(ex.x for ex in examples[first:first + EVAL_CHUNK]))
            passes.append((fwd.output.v_cls.data, fwd.output.v_reg.data,
                           fwd.points, fwd.confidences))
    v_cls, v_reg, points, confidences = (
        None if arrays[0] is None else np.concatenate(arrays) for arrays in zip(*passes))

    accuracy = float(np.mean(np.argmax(v_cls, axis=1) == class_ids))
    boxed = np.flatnonzero(class_ids != BACKGROUND)
    cols = np.add.outer(cfg.reg_start(class_ids[boxed]), np.arange(4))
    targets = np.array([ex.box_target for ex in examples])[boxed]
    box_mae = _mean_or_zero(np.abs(v_reg[boxed[:, None], cols] - targets).mean(axis=1))
    if points is None:  # a head without key parts has no discovery metrics
        return Metrics(accuracy=accuracy, box_mae=box_mae, part_recall=None,
                       chance_level=None, fg_peak_mean=None, bg_peak_mean=None,
                       mean_distinct_parts=None)

    fg = class_ids != BACKGROUND  # where y_hat is 1, as checked above
    counts = np.array([len(ex.planted_points) for ex in examples])
    planted = np.array([cell for ex in examples for cell in ex.planted_points],
                       dtype=np.intp).reshape(-1, 2)
    owner = np.repeat(np.arange(len(examples)), counts)
    hits = key_part_hits(points[owner], planted)[fg[owner]]
    peak_means = confidences.mean(axis=1)
    cells = np.sort(points[..., 0] * cfg.width + points[..., 1], axis=1)
    distinct = 1 + np.count_nonzero(np.diff(cells, axis=1), axis=1)
    return Metrics(
        accuracy=accuracy,
        box_mae=box_mae,
        part_recall=_mean_or_zero(hits),
        chance_level=chance_recall_estimate(int(counts.max()), cfg.num_parts,
                                            cfg.height, cfg.width),
        fg_peak_mean=_mean_or_zero(peak_means[fg]),
        bg_peak_mean=_mean_or_zero(peak_means[~fg]),
        mean_distinct_parts=_mean_or_zero(distinct[fg]),
    )
