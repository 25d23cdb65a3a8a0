"""Shape-similarity cluster selection.

A cluster's 2-D projection is summarized by a 3x3 occupancy grid over
its bounding rectangle; candidates are de-rotated with a constrained
PCA, compared to a per-class benchmark with KL divergence, and ranked
by a sigmoid similarity score.

Scoring takes one stack per frame: score_candidates scores every
candidate of a frame, of all its detections, in one call, with bounds,
cells, KL sums and eigendecompositions over the stacked rows; each
candidate keeps the bits that scoring it alone gives. select_cluster
picks among one detection's scores.
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
    counts = np.array([len(pts)])
    if len(pts) == 0 or not _distinct(*_bounds(pts, counts))[0]:
        raise DegenerateCluster("need at least 2 distinct points for PCA")
    return _principal_axes(pts, counts)[2][0]


# The helpers below take m segments of stacked (N, 2) rows: segment k
# is the next counts[k] >= 1 rows. Each gives the bits of its
# one-segment form on every segment.

def _bounds(stack: np.ndarray, counts: np.ndarray):
    """Each segment's column minima and maxima, its bounding rectangle:
    two (m, 2) arrays."""
    starts = np.cumsum(counts) - counts
    return (np.minimum.reduceat(stack, starts, axis=0),
            np.maximum.reduceat(stack, starts, axis=0))


def _distinct(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each segment with bounds lo and hi holds at least 2
    distinct rows: its minima differ from its maxima in some column. A
    NaN makes its column's bounds NaN, which are unequal, as a NaN row
    is distinct from every row."""
    return ~(lo == hi).all(axis=1)


def _segments(stack: np.ndarray, counts: np.ndarray) -> list:
    """The segments of the stacked rows, as views."""
    ends = np.cumsum(counts).tolist()
    return [stack[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _principal_axes(stack: np.ndarray, counts: np.ndarray):
    """Each segment's centroid (m, 2), its rows less its centroid (a
    list of views) and its RotationEstimate.

    A segment's centroid is its own sum over its count, and its
    covariance is its own product: np.add.reduceat and a stacked
    product add in other orders, which change bits. The (m, 2, 2)
    covariances take one eigh call, which equals per-matrix calls.
    """
    sums = [seg.sum(axis=0) for seg in _segments(stack, counts)]
    centroids = np.array(sums) / counts[:, None]
    centered = _segments(stack - np.repeat(centroids, counts, axis=0), counts)
    covs = np.array([c.T @ c for c in centered]) / counts[:, None, None]
    eigvals, eigvecs = np.linalg.eigh(covs)
    # Per segment the eigenvector (e_u, e_v) of the larger eigenvalue.
    majors = eigvecs[np.arange(len(counts)), :, np.argmax(eigvals, axis=1)]
    estimates = []
    for e_u, e_v in majors.tolist():
        # Counter-clockwise rotation (in u-v) that tilted the axis off
        # vertical; the eigenvector's sign ambiguity cancels under the
        # mod-180 mapping. Scalar math.atan2: numpy's arctan2 over the
        # stack differs from it in the last bit on some inputs.
        angle = math.degrees(math.atan2(-e_u, e_v))
        if angle <= -90.0:
            angle += 180.0
        elif angle > 90.0:
            angle -= 180.0
        # Tiny epsilon keeps an exactly-40-degree tilt on the accepted
        # side despite eigensolver rounding.
        estimates.append(RotationEstimate(
            angle_deg=angle, rejected=abs(angle) > MAX_ROTATION_DEG + 1e-9))
    return centroids, centered, estimates


def derotate(points_2d: np.ndarray, est: RotationEstimate) -> np.ndarray:
    """Rotate by -angle about the centroid; identity for rejected estimates."""
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if est.rejected or est.angle_deg == 0.0:
        return pts.copy()
    centroid = pts.mean(axis=0)
    return (pts - centroid) @ _rotation(-est.angle_deg).T + centroid


def _rotation(angle_deg: float) -> np.ndarray:
    """The 2x2 counter-clockwise rotation by angle_deg."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _cell_weights(stack: np.ndarray, counts: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """compute_descriptor's 9 weights of each segment with bounds lo and
    hi, unvalidated: (m, 9). A column of span 0 has rows - lo == 0,
    which any divisor leaves in the first cell."""
    span = hi - lo
    scaled = (3 * (stack - np.repeat(lo, counts, axis=0))
              / np.repeat(np.where(span > 0, span, 1.0), counts, axis=0))
    idx = np.minimum(scaled.astype(int), 2)
    cells = idx[:, 1] * 3 + idx[:, 0]  # row from v, column from u
    cells += 9 * np.repeat(np.arange(len(counts)), counts)
    return (np.bincount(cells, minlength=9 * len(counts)).reshape(-1, 9)
            / counts[:, None])


def compute_descriptor(points_2d: np.ndarray) -> ShapeDescriptor:
    """3x3 occupancy fractions over the points' bounding rectangle.

    Cells are half-open except the final row/column; rows follow the
    second coordinate, columns the first.
    """
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise DegenerateCluster("cannot describe an empty point set")
    counts = np.array([len(pts)])
    return ShapeDescriptor(
        weights=_cell_weights(pts, counts, *_bounds(pts, counts))[0])


def _smoothed(weights: np.ndarray, smoothing: float) -> np.ndarray:
    """Weights, or rows of weights, plus smoothing, renormalized."""
    w = weights + smoothing
    return w / w.sum(axis=-1, keepdims=True)


def _kl(pw: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """KL(P || Q) of smoothed weights, or of each row of them."""
    # The sum rounds to just below 0 when pw equals qw or nearly so;
    # KL is never negative.
    return np.maximum(np.sum(pw * np.log(pw / qw), axis=-1), 0.0)


def kl_divergence(p: ShapeDescriptor, q: ShapeDescriptor,
                  smoothing: float = 1e-6) -> float:
    """KL(P || Q) in nats after additive smoothing of both distributions."""
    return float(_kl(_smoothed(p.weights, smoothing),
                     _smoothed(q.weights, smoothing)))


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


def score_candidates(points_2d: np.ndarray, counts: Sequence[int],
                     clusters: Sequence[CandidateCluster],
                     benchmarks: Sequence[ShapeDescriptor],
                     cfg: ShapeFilterConfig) -> list[CandidateScore]:
    """Each candidate's similarity to its benchmark before and after
    de-rotation, in input order; the candidates are scored as one stack.
    points_2d stacks their points: candidate k has the next counts[k]
    rows.

    A candidate without 2 distinct points is degenerate and scores 0.
    The bounding rectangle that tells it also gives the pre-rotation
    cells.
    """
    stack = np.ascontiguousarray(points_2d, dtype=float).reshape(-1, 2)
    counts = np.asarray(counts, dtype=int)
    # Empty candidates hold no rows, so the stack is the others' rows.
    live = np.flatnonzero(counts)
    fields = {}
    if len(live):
        counts = counts[live]
        lo, hi = _bounds(stack, counts)
        distinct = _distinct(lo, hi)
        if not distinct.all():
            stack = stack[np.repeat(distinct, counts)]
            live, counts = live[distinct], counts[distinct]
            lo, hi = lo[distinct], hi[distinct]
        live = live.tolist()
        if live:
            fields = dict(zip(live, _stack_scores(
                stack, counts, lo, hi, [benchmarks[k] for k in live], cfg)))
    return [CandidateScore(cluster, *fields.get(k, (0.0, 0.0, 0.0, False)))
            for k, cluster in enumerate(clusters)]


def _stack_scores(stack: np.ndarray, counts: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, benchmarks: Sequence[ShapeDescriptor],
                  cfg: ShapeFilterConfig) -> list[tuple]:
    """(pre-rotation score, post-rotation score, rotation_deg,
    rotation_rejected) of each segment of at least 2 distinct rows, with
    bounds lo and hi, against its benchmark.

    One centroid serves the axis estimate and the de-rotation; when the
    rotation is skipped, the post-rotation score is the pre-rotation
    one. Smoothing works row by row, so each segment's benchmark row
    keeps the bits of smoothing it alone.
    """
    qw = _smoothed(np.array([b.weights for b in benchmarks]),
                   cfg.kl_smoothing)

    centroids, centered, estimates = _principal_axes(stack, counts)
    kl_pre = _kl(_smoothed(_cell_weights(stack, counts, lo, hi),
                           cfg.kl_smoothing), qw)
    # derotate would return the points of the others unchanged.
    turned = [i for i, est in enumerate(estimates)
              if not (est.rejected or est.angle_deg == 0.0)]
    kl_post = {}
    if turned:
        turned_counts = counts[turned]
        # Each rotation product on its own rows, like the covariance.
        rotated = (np.concatenate([
            centered[i] @ _rotation(-estimates[i].angle_deg).T
            for i in turned])
            + np.repeat(centroids[turned], turned_counts, axis=0))
        kl_post = dict(zip(turned, _kl(_smoothed(
            _cell_weights(rotated, turned_counts,
                          *_bounds(rotated, turned_counts)),
            cfg.kl_smoothing), qw[turned]).tolist()))

    # Scalar math.exp on Python floats: numpy's exp over the stack
    # differs in the last bit on some inputs, and a numpy float's
    # k * d warns where it overflows.
    out = []
    for i, (est, d_pre) in enumerate(zip(estimates, kl_pre.tolist())):
        pre = similarity_score(d_pre, cfg.sigmoid_gain)
        post = (similarity_score(kl_post[i], cfg.sigmoid_gain)
                if i in kl_post else pre)
        out.append((pre, post, est.angle_deg, est.rejected))
    return out


def select_cluster(scores: Sequence[CandidateScore]) -> CandidateCluster:
    """The candidate most similar to its class benchmark, of one
    detection's scores: the highest post-rotation score.

    Ties (including degenerate candidates scoring 0) break toward the
    smaller center range.
    """
    if not scores:
        raise EmptyInput("no candidate clusters")
    return min(scores, key=lambda s: (-s.post_rotation_score,
                                      s.cluster.center_range)).cluster
