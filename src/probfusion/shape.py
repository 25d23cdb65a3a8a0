"""Shape-similarity cluster selection.

A cluster's 2-D projection is summarized by a 3x3 occupancy grid over
its bounding rectangle; candidates are de-rotated with a constrained
PCA, compared to a per-class benchmark with KL divergence, and ranked
by a sigmoid similarity score.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cluster import CandidateCluster
from .errors import DegenerateCluster, EmptyInput, check_number, check_numbers
from .io import read_json_object

MAX_ROTATION_DEG = 40.0
# Fewer sample descriptors than this make a benchmark that benchmark-shapes
# warns about.
MIN_BENCHMARK_SAMPLES = 10


@dataclass(frozen=True)
class ShapeDescriptor:
    weights: np.ndarray  # 9 nonnegative reals, row-major 3x3, sum 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape != (9,):
            raise ValueError("descriptor needs exactly 9 weights")
        # NaN fails both tests, and an infinity one of them.
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be finite, nonnegative and sum "
                             "to 1")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class RotationEstimate:
    angle_deg: float
    rejected: bool = False


@dataclass(frozen=True)
class ShapeFilterConfig:
    sigmoid_gain: float = 1.0
    kl_smoothing: float = 1e-6

    def __post_init__(self):
        check_number("sigmoid_gain", self.sigmoid_gain, above=0)
        check_number("kl_smoothing", self.kl_smoothing, above=0)


@dataclass
class BenchmarkShapeRegistry:
    shapes: dict = field(default_factory=dict)        # class -> ShapeDescriptor
    sample_counts: dict = field(default_factory=dict)  # class -> int

    def get(self, class_label: str) -> Optional[ShapeDescriptor]:
        return self.shapes.get(class_label)

    def save(self, path) -> None:
        payload = {cls: [float(x) for x in d.weights]
                   for cls, d in self.shapes.items()}
        payload["_sample_counts"] = self.sample_counts
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "BenchmarkShapeRegistry":
        """Registry of a JSON file; an entry that is not 9 finite weights
        is a ValueError naming the file and the class."""
        raw = read_json_object(path)
        counts = raw.pop("_sample_counts", {})
        shapes = {}
        for name, w in raw.items():
            try:
                check_numbers("weights", w, "9 numbers", 9)
                shapes[name] = ShapeDescriptor(np.asarray(w))
            except ValueError as exc:
                raise ValueError(f"{path}: {name}: {exc}") from None
        return cls(shapes=shapes, sample_counts=counts)


def principal_axis_angle(points_2d: np.ndarray) -> RotationEstimate:
    """Signed angle between the first principal axis and the vertical.

    Mapped to (-90, 90]; estimates beyond +-40 degrees are marked
    rejected and no rotation is applied downstream.
    """
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if _distinct_bounds(pts) is None:
        raise DegenerateCluster("need at least 2 distinct points for PCA")
    return _axis_estimate(pts, pts.mean(axis=0))


def _distinct_bounds(pts: np.ndarray):
    """The column minima and maxima of the (n, 2) points, their bounding
    rectangle; None when the points hold fewer than 2 distinct rows.

    Those are the points whose minima equal their maxima in both
    columns. A NaN makes its column's bounds NaN, which are unequal, as
    a NaN row is distinct from every row.
    """
    if len(pts) == 0:
        return None
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return None if (lo == hi).all() else (lo, hi)


def _axis_estimate(pts: np.ndarray, centroid: np.ndarray) -> RotationEstimate:
    centered = pts - centroid
    cov = centered.T @ centered / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)
    major = eigvecs[:, np.argmax(eigvals)]  # (e_u, e_v)
    # Counter-clockwise rotation (in u-v) that tilted the axis off vertical;
    # the eigenvector's sign ambiguity cancels under the mod-180 mapping.
    angle = math.degrees(math.atan2(-major[0], major[1]))
    if angle <= -90.0:
        angle += 180.0
    elif angle > 90.0:
        angle -= 180.0
    # Tiny epsilon keeps an exactly-40-degree tilt on the accepted side
    # despite eigensolver rounding.
    return RotationEstimate(angle_deg=angle,
                            rejected=abs(angle) > MAX_ROTATION_DEG + 1e-9)


def derotate(points_2d: np.ndarray, est: RotationEstimate) -> np.ndarray:
    """Rotate by -angle about the centroid; identity for rejected estimates."""
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if est.rejected or est.angle_deg == 0.0:
        return pts.copy()
    return _rotate_about(pts, -est.angle_deg, pts.mean(axis=0))


def _rotate_about(pts: np.ndarray, angle_deg: float,
                  centroid: np.ndarray) -> np.ndarray:
    """pts rotated counter-clockwise by angle_deg about centroid."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return (pts - centroid) @ rot.T + centroid


def _cell_weights(pts: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """compute_descriptor's 9 weights of n >= 1 points with column
    minima lo and maxima hi, unvalidated. A column of span 0 has
    pts - lo == 0, which any divisor leaves in the first cell."""
    span = hi - lo
    scaled = 3 * (pts - lo) / np.where(span > 0, span, 1.0)
    idx = np.minimum(scaled.astype(int), 2)
    cells = idx[:, 1] * 3 + idx[:, 0]  # row from v, column from u
    return np.bincount(cells, minlength=9) / len(pts)


def compute_descriptor(points_2d: np.ndarray) -> ShapeDescriptor:
    """3x3 occupancy fractions over the points' bounding rectangle.

    Cells are half-open except the final row/column; rows follow the
    second coordinate, columns the first.
    """
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise DegenerateCluster("cannot describe an empty point set")
    return ShapeDescriptor(weights=_cell_weights(pts, pts.min(axis=0),
                                                 pts.max(axis=0)))


def _smoothed(weights: np.ndarray, smoothing: float) -> np.ndarray:
    w = weights + smoothing
    return w / w.sum()


def _kl(pw: np.ndarray, qw: np.ndarray) -> float:
    # The sum rounds to just below 0 when pw equals qw or nearly so;
    # KL is never negative.
    return max(float(np.sum(pw * np.log(pw / qw))), 0.0)


def kl_divergence(p: ShapeDescriptor, q: ShapeDescriptor,
                  smoothing: float = 1e-6) -> float:
    """KL(P || Q) in nats after additive smoothing of both distributions."""
    return _kl(_smoothed(p.weights, smoothing),
               _smoothed(q.weights, smoothing))


def similarity_score(d_kl: float, k: float = 1.0) -> float:
    """Map a KL distance onto [0, 1]: 2 / (1 + exp(k * d)), which is 0
    where exp(k * d) overflows a float."""
    if d_kl < 0:
        raise ValueError("KL divergence cannot be negative")
    try:
        return 2.0 / (1.0 + math.exp(k * d_kl))
    except OverflowError:
        return 0.0


def build_benchmark(descriptors: Sequence[ShapeDescriptor]) -> ShapeDescriptor:
    """Per-bin mean of sample descriptors, renormalized."""
    if not descriptors:
        raise EmptyInput("no descriptors to average")
    mean = np.mean([d.weights for d in descriptors], axis=0)
    return ShapeDescriptor(weights=mean / mean.sum())


@dataclass(frozen=True)
class CandidateScore:
    cluster: CandidateCluster
    pre_rotation_score: float
    post_rotation_score: float
    rotation_deg: float
    rotation_rejected: bool


def score_candidate(points_2d: np.ndarray, cluster: CandidateCluster,
                    benchmark: ShapeDescriptor,
                    cfg: ShapeFilterConfig) -> CandidateScore:
    """Similarity to the benchmark before and after de-rotation.

    A candidate without 2 distinct points is degenerate and scores 0.
    The bounding rectangle that tells it (_distinct_bounds) also gives
    the pre-rotation cells. One centroid serves the axis estimate and
    the de-rotation; when the rotation is skipped, the post-rotation
    score is the pre-rotation one.
    """
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    bounds = _distinct_bounds(pts)
    if bounds is None:
        return CandidateScore(cluster=cluster, pre_rotation_score=0.0,
                              post_rotation_score=0.0, rotation_deg=0.0,
                              rotation_rejected=False)
    qw = _smoothed(benchmark.weights, cfg.kl_smoothing)

    def score(weights):
        return similarity_score(_kl(_smoothed(weights, cfg.kl_smoothing),
                                    qw), cfg.sigmoid_gain)

    # The bits of pts.mean(axis=0), without np.mean's Python wrapper.
    centroid = pts.sum(axis=0) / len(pts)
    est = _axis_estimate(pts, centroid)
    pre_score = score(_cell_weights(pts, *bounds))
    if est.rejected or est.angle_deg == 0.0:
        post_score = pre_score  # derotate would return the points unchanged
    else:
        rotated = _rotate_about(pts, -est.angle_deg, centroid)
        post_score = score(_cell_weights(rotated, rotated.min(axis=0),
                                         rotated.max(axis=0)))
    return CandidateScore(
        cluster=cluster,
        pre_rotation_score=pre_score,
        post_rotation_score=post_score,
        rotation_deg=est.angle_deg,
        rotation_rejected=est.rejected,
    )


def select_cluster(candidates: Sequence[CandidateCluster],
                   points_2d_per_candidate: Sequence[np.ndarray],
                   benchmark: ShapeDescriptor,
                   cfg: ShapeFilterConfig) -> tuple[CandidateCluster, list[CandidateScore]]:
    """Pick the candidate most similar to the class benchmark.

    Ties (including degenerate candidates scoring 0) break toward smaller
    center range. Returns the winner plus all per-candidate scores for
    diagnostics.
    """
    if not candidates:
        raise EmptyInput("no candidate clusters")
    scores = [score_candidate(pts, cand, benchmark, cfg)
              for cand, pts in zip(candidates, points_2d_per_candidate)]
    best = min(range(len(scores)),
               key=lambda i: (-scores[i].post_rotation_score,
                              candidates[i].center_range))
    return candidates[best], scores
