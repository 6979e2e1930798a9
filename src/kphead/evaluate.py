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

from .dataset import ToyExample
from .errors import ContractViolation
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


def key_part_recall(points: list[tuple[int, int]],
                    planted: list[tuple[int, int]]) -> tuple[int, int]:
    """(hits, total): planted cells matched by some point within Chebyshev 1."""
    hits = 0
    for pr, pc in planted:
        if any(max(abs(pr - r), abs(pc - c)) <= 1 for r, c in points):
            hits += 1
    return hits, len(planted)


def evaluate(model, examples: list[ToyExample]) -> Metrics:
    """Metrics of ``model`` over ``examples``, in forward passes of
    ``EVAL_CHUNK`` examples that record no graph.

    On a process that may run on more than one CPU, the worker thread
    (``tensor._worker``) computes half of each ``linear`` product whose
    weight has at least ``tensor._LINEAR_SPLIT_MIN`` values (at the toy
    setting, the baseline's fc1 alone).  At the FPN-VOC head shapes, and for
    the toy baseline's 16-example passes, the metrics are the same bytes
    either way (see ``tensor.linear``)."""
    if not examples:
        raise ContractViolation("evaluate: empty dataset")
    correct = 0
    box_err_sum = 0.0
    box_count = 0
    hit_sum = 0
    planted_sum = 0
    fg_peaks: list[float] = []
    bg_peaks: list[float] = []
    distinct: list[int] = []

    with NoGrad():
        for first in range(0, len(examples), EVAL_CHUNK):
            chunk = examples[first:first + EVAL_CHUNK]
            fwd = model.forward(*(ex.x for ex in chunk))
            preds = np.argmax(fwd.output.v_cls.data, axis=1)
            for i, ex in enumerate(chunk):
                if preds[i] == ex.class_id:
                    correct += 1
                if ex.class_id != BACKGROUND:
                    start = model.head_cfg.reg_start(ex.class_id)
                    pred_box = fwd.output.v_reg.data[i, start:start + 4]
                    box_err_sum += float(np.mean(np.abs(pred_box - ex.box_target)))
                    box_count += 1
                if fwd.parts is not None:
                    parts = fwd.parts[i]
                    peaks = parts.confidences
                    if ex.y_hat == 1:
                        fg_peaks.append(float(np.mean(peaks)))
                        hits, total = key_part_recall(parts.points, ex.planted_points)
                        hit_sum += hits
                        planted_sum += total
                        distinct.append(len(set(parts.points)))
                    else:
                        bg_peaks.append(float(np.mean(peaks)))

    cfg = model.head_cfg
    if fwd.parts is None:  # a head without key parts has no discovery metrics
        return Metrics(accuracy=correct / len(examples),
                       box_mae=box_err_sum / box_count if box_count else 0.0,
                       part_recall=None, chance_level=None, fg_peak_mean=None,
                       bg_peak_mean=None, mean_distinct_parts=None)
    parts_per_class = max((len(ex.planted_points) for ex in examples), default=0)
    return Metrics(
        accuracy=correct / len(examples),
        box_mae=box_err_sum / box_count if box_count else 0.0,
        part_recall=hit_sum / planted_sum if planted_sum else 0.0,
        chance_level=chance_recall_estimate(parts_per_class, cfg.num_parts,
                                            cfg.height, cfg.width),
        fg_peak_mean=float(np.mean(fg_peaks)) if fg_peaks else 0.0,
        bg_peak_mean=float(np.mean(bg_peaks)) if bg_peaks else 0.0,
        mean_distinct_parts=float(np.mean(distinct)) if distinct else 0.0,
    )
