"""Evaluation metrics: banded TPR, per-axis MAE, selection-completeness
guarantee, and one-sided t-tests.

Note on naming: wrong mappings are reported as "TN" to stay traceable
to the upstream reports even though they are false positives in the
standard confusion-matrix sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classes import CLASSES
from .errors import EmptyInput, LengthMismatch, TooFewSamples, check_number
from .stats import student_t_sf


@dataclass(frozen=True)
class ToleranceConfig:
    fraction: float = 0.15   # of the class's tolerance_length_m

    def __post_init__(self):
        check_number("fraction", self.fraction, above=0)


@dataclass(frozen=True)
class TprResult:
    tp: int
    tn: int

    @property
    def rate(self) -> float:
        return self.tp / (self.tp + self.tn)


@dataclass(frozen=True)
class GuaranteeConfig:
    t1: float = 1.0          # per-frame missed-point count threshold
    t2: float = 0.9          # required probability
    t1_fraction: Optional[float] = None  # if set, t1 = fraction of true count

    def __post_init__(self):
        check_number("t1", self.t1, at_least=0)
        check_number("t2", self.t2, above=0, at_most=1)
        if self.t1_fraction is not None:
            check_number("t1_fraction", self.t1_fraction, at_least=0)


def tolerance_band(gt_range: float, class_label: str,
                   cfg: ToleranceConfig) -> tuple[float, float]:
    """Valid range interval around ground truth: +-fraction * the
    class's tolerance length (classes.CLASSES)."""
    if gt_range <= 0:
        raise ValueError("ground-truth range must be positive")
    half = cfg.fraction * CLASSES[class_label].tolerance_length_m
    return gt_range - half, gt_range + half


def tpr(point_ranges: Sequence[float], gt_range: float, class_label: str,
        cfg: ToleranceConfig) -> TprResult:
    """Correct vs wrong mappings judged by the tolerance band (inclusive)."""
    ranges = np.asarray(list(point_ranges), dtype=float)
    if len(ranges) == 0:
        raise EmptyInput("no point ranges to evaluate")
    low, high = tolerance_band(gt_range, class_label, cfg)
    tp = int(((ranges >= low) & (ranges <= high)).sum())
    return TprResult(tp=tp, tn=len(ranges) - tp)


def mae_axis(estimates: Sequence[float],
             ground_truths: Sequence[float]) -> float:
    """Mean absolute error between aligned series."""
    est = np.asarray(list(estimates), dtype=float)
    gt = np.asarray(list(ground_truths), dtype=float)
    if len(est) != len(gt):
        raise LengthMismatch(f"{len(est)} estimates vs {len(gt)} ground truths")
    if len(est) == 0:
        raise EmptyInput("empty series")
    return float(np.mean(np.abs(est - gt)))


def align_to_ground_truth(samples, gt: dict, object_id: int,
                          frame_times: dict) -> tuple[list, list, list, list]:
    """Pair a track's samples with ground-truth poses by time.

    frame_times maps frame id -> timestamp, in the order the pairs are
    wanted; gt maps frame id -> {object id: pose}. A frame pairs when
    the ground truth has the object and the track has a sample at the
    frame's timestamp (to 1e-9 s). Returns (est_x, est_y, gt_x, gt_y).
    """
    by_t = {round(s.t, 9): s for s in samples}
    est_x, est_y, gt_x, gt_y = [], [], [], []
    for frame_id, t in frame_times.items():
        pose = gt.get(frame_id, {}).get(object_id)
        s = by_t.get(round(t, 9))
        if pose is None or s is None:
            continue
        est_x.append(s.x)
        est_y.append(s.y)
        gt_x.append(pose["x"])
        gt_y.append(pose["y"])
    return est_x, est_y, gt_x, gt_y


@dataclass(frozen=True)
class GuaranteeResult:
    empirical_probability: float
    passed: bool


def selection_completeness(per_frame: Sequence[tuple],
                           g: GuaranteeConfig) -> GuaranteeResult:
    """Check the missed-point guarantee over frames.

    per_frame holds (selected_indices, true_member_indices) pairs; a
    frame succeeds when |true| - |selected intersect true| < t1. Passes
    when the empirical success fraction reaches t2.
    """
    if not per_frame:
        raise EmptyInput("no frames to evaluate")
    ok = 0
    for selected, true_members in per_frame:
        true_set = set(int(i) for i in true_members)
        hit = len(true_set & set(int(i) for i in selected))
        m = len(true_set) - hit
        t1 = g.t1 if g.t1_fraction is None else g.t1_fraction * len(true_set)
        if m < t1:
            ok += 1
    prob = ok / len(per_frame)
    return GuaranteeResult(empirical_probability=prob, passed=prob >= g.t2)


def paired_t_test(before: Sequence[float],
                  after: Sequence[float]) -> tuple[float, float, int]:
    """Paired one-sided t-test of H1: mean(after - before) > 0.

    Returns (t, p_value, n): the one-sample test of the differences
    against 0.
    """
    b = np.asarray(list(before), dtype=float)
    a = np.asarray(list(after), dtype=float)
    if len(a) != len(b):
        raise LengthMismatch(f"{len(b)} before vs {len(a)} after")
    return one_sample_right_tail_t_test(a - b, 0.0)


def one_sample_right_tail_t_test(sample: Sequence[float],
                                 mu0: float = 0.5) -> tuple[float, float, int]:
    """One-sample right-tailed t-test of H1: mean > mu0.

    Returns (t, p_value, n). Zero-variance samples degenerate to
    t = +-inf (p 0 or 1) or t = 0 (p 0.5).
    """
    x = np.asarray(list(sample), dtype=float)
    n = len(x)
    if n < 2:
        raise TooFewSamples("one-sample t-test needs at least 2 values")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        if mean == mu0:
            return 0.0, 0.5, n
        t_stat = math.inf if mean > mu0 else -math.inf
        return t_stat, (0.0 if mean > mu0 else 1.0), n
    t_stat = (mean - mu0) / (sd / math.sqrt(n))
    return t_stat, student_t_sf(t_stat, n - 1), n
