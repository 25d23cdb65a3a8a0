"""Mode-based clustering of AOI points over a range histogram.

Ranges are planar XY distances. K-Means finds high-density distance
centers which anchor the histogram bins; remaining bins fill the span
sequentially at the class's granularity (classes.CLASSES).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NoQualifiedCluster, check_number


@dataclass(frozen=True)
class ClusteringConfig:
    kmeans_k: int = 3
    kmeans_max_iter: int = 50
    min_peak_count: int = 5
    peak_ratio: float = 0.3

    def __post_init__(self):
        check_number("kmeans_k", self.kmeans_k, integer=True, at_least=1)
        check_number("kmeans_max_iter", self.kmeans_max_iter, integer=True,
                     at_least=1)
        check_number("min_peak_count", self.min_peak_count, integer=True,
                     at_least=0)
        check_number("peak_ratio", self.peak_ratio, above=0, at_most=1)


@dataclass(frozen=True)
class RangeHistogram:
    bin_centers: np.ndarray  # ascending, meters
    counts: np.ndarray       # per bin
    assignments: np.ndarray  # point index -> bin index


@dataclass(frozen=True)
class CandidateCluster:
    member_indices: np.ndarray  # indices into the AOI point list
    center_range: float


def planar_ranges(xyz: np.ndarray) -> np.ndarray:
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    return np.hypot(xyz[:, 0], xyz[:, 1])


@functools.lru_cache(maxsize=32)
def _seeded_state(seed: int) -> dict:
    """The state np.random.default_rng(seed) starts in."""
    return np.random.default_rng(seed).bit_generator.state


_THREAD = threading.local()


def _seeded_generator(seed: int) -> np.random.Generator:
    """This thread's generator, set to the state np.random.default_rng(seed)
    starts in, which costs a sixth of seeding a new generator.

    The whole state is set, so what a caller draws does not depend on
    earlier calls. The generator is the caller's until the next call on
    the same thread.
    """
    generator = getattr(_THREAD, "generator", None)
    if generator is None:
        generator = _THREAD.generator = np.random.Generator(
            np.random.PCG64(0))
    generator.bit_generator.state = _seeded_state(seed)
    return generator


def seed_bin_centers(ranges: np.ndarray, cfg: ClusteringConfig,
                     seed: int = 0) -> np.ndarray:
    """1-D K-Means centers over the range values, sorted ascending; seed
    seeds the k-means++ initialization.

    k is kmeans_k capped by the number of distinct values. Each k-means++
    draw is Generator.choice(n, p=d2 / total)'s own: the cdf of p,
    normalized by its last entry, searched (side "right") for one
    Generator.random() value. Only choice's checks of p are left out,
    so the picks and the generator's state after them are choice's.
    Iteration stops when the labels repeat (the means would repeat too)
    or when every center moved by at most 1e-12 + 1e-5 * |old center|,
    the test of np.allclose(new, old, atol=1e-12).
    """
    values = np.asarray(ranges, dtype=float).ravel()
    n = len(values)
    if n == 0:
        raise EmptyInput("no ranges to cluster")
    ordered = np.sort(values)
    n_distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    k = min(cfg.kmeans_k, n_distinct)
    if k == 1:
        return np.array([values.mean()])
    rng = _seeded_generator(seed)
    picked = values[rng.integers(n)]
    centers = [float(picked)]
    d2 = (values - picked) ** 2  # squared distance to the nearest center
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            picked = values[rng.integers(n)]
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            picked = values[cdf.searchsorted(rng.random(), side="right")]
        centers.append(float(picked))
        if j < k - 1:  # the last center's distances are not needed
            np.minimum(d2, (values - picked) ** 2, out=d2)
    # Lloyd iterations on Python floats; a mean is members.sum() / count,
    # numpy's pairwise sum, as in ndarray.mean.
    column = values[:, None]
    labels = None
    for _ in range(cfg.kmeans_max_iter):
        new_labels = np.abs(column - centers).argmin(axis=1)
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        new_centers = centers.copy()
        for j in range(k):
            members = values[labels == j]
            if len(members):
                new_centers[j] = float(members.sum() / len(members))
        converged = all(abs(new - old) <= 1e-12 + 1e-5 * abs(old)
                        for new, old in zip(new_centers, centers))
        centers = new_centers
        if converged:
            break
    return np.sort(centers)


def merge_close_centers(centers: np.ndarray, granularity: float,
                        weights: np.ndarray) -> np.ndarray:
    """Collapse anchor centers closer than one bin width.

    Two anchors inside the same granularity window would split a single
    object's points across bins; they are replaced by their weighted
    mean. Scanning in ascending order, an anchor joins the
    current group when it lies less than one granularity above the
    group's mean.
    """
    centers = np.asarray(centers, dtype=float).ravel()
    order = np.argsort(centers)
    centers = centers[order]
    weights = np.asarray(weights, dtype=float).ravel()[order]
    cs, ws = centers.tolist(), weights.tolist()
    means: list[float] = []  # the last one is the open group's
    for i, (c, w) in enumerate(zip(cs, ws)):
        if means and c - means[-1] < granularity:
            means.pop()
        else:
            start, sum_cw, sum_w = i, 0.0, 0.0
        sum_cw += c * w
        sum_w += w
        # np.average adds fewer than 8 terms in order, as the running
        # sums do; from 8 terms on it sums pairwise.
        means.append(sum_cw / sum_w if i - start < 7 else
                     float(np.average(centers[start:i + 1],
                                      weights=weights[start:i + 1])))
    return np.array(means)


# Above this many values x centers, _nearest_center searches instead of
# building the whole distance table.
ARGMIN_TABLE_MAX = 4096


def _nearest_center(centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value's nearest center in ascending centers, ties to
    the lower index: the argmin of |values[:, None] - centers| along
    axis 1.

    Tables of at most ARGMIN_TABLE_MAX entries take that argmin itself.
    Larger ones search: only the centers on either side of a value can
    be nearest. Padded with -inf below and +inf above, they are
    ext[above - 1] < v <= ext[above], and their distances need no abs.
    Measured per call on a 2-vCPU x86 host (numpy 2.4), search against
    table: 23 vs 6 us at 21 x 20, 24 vs 16 us at 64 x 64, 30 vs 37 us at
    200 x 60, and 0.18 vs 2.5 ms at 2,000 x 115 (a pedestrian ~3 m
    away); the search grows with the values only.
    """
    if len(values) * len(centers) <= ARGMIN_TABLE_MAX:
        return np.abs(values[:, None] - centers).argmin(axis=1)
    ext = np.concatenate(([-np.inf, -np.inf], centers, [np.inf]))
    above = ext.searchsorted(values)
    d_lo = values - ext[above - 1]
    d_hi = ext[above] - values
    pick_hi = d_hi < d_lo
    nearest = np.where(pick_hi, above, above - 1)
    dist = np.where(pick_hi, d_hi, d_lo)
    # A center further down whose distance rounds to the same value
    # (or a repeated center) also ties, and the lower index wins.
    while True:
        tie = values - ext[nearest - 1] == dist
        if not tie.any():
            return nearest - 2
        nearest -= tie


def build_range_histogram(ranges: np.ndarray, centers: np.ndarray,
                          cfg: ClusteringConfig,
                          granularity: float) -> RangeHistogram:
    """Bins anchored at K-Means centers, filled outward at fixed width.

    Anchors closer than one granularity are merged first. Every point is
    assigned to exactly one bin: the nearest center, ties to the lower
    bin index.
    """
    values = np.asarray(ranges, dtype=float).ravel()
    if len(values) == 0:
        raise EmptyInput("no ranges to histogram")
    raw_anchors = np.sort(np.asarray(centers, dtype=float).ravel())
    anchor_weights = np.bincount(_nearest_center(raw_anchors, values),
                                 minlength=len(raw_anchors)) + 1.0
    anchors = merge_close_centers(raw_anchors, granularity,
                                  anchor_weights).tolist()
    g = float(granularity)
    lo, hi = float(values.min()), float(values.max())

    bin_centers: list[float] = []

    # Extend to the left of the first anchor.
    left = []
    c = anchors[0] - g
    while c + g / 2.0 > lo:
        left.append(c)
        c -= g
    bin_centers.extend(reversed(left))

    for j, a in enumerate(anchors):
        if j > 0:
            # Fill the gap after the previous anchor at fixed width,
            # stopping half a bin short of the next anchor so no filler
            # lands (nearly) on top of it.
            c = anchors[j - 1] + g
            while c < a - g / 2.0:
                bin_centers.append(c)
                c += g
        bin_centers.append(a)

    # Extend to the right of the last anchor.
    c = anchors[-1] + g
    while c - g / 2.0 < hi:
        bin_centers.append(c)
        c += g

    centers_arr = np.array(bin_centers)
    assignments = _nearest_center(centers_arr, values)
    counts = np.bincount(assignments, minlength=len(centers_arr))
    return RangeHistogram(bin_centers=centers_arr,
                          counts=counts,
                          assignments=assignments)


def select_candidate_clusters(hist: RangeHistogram,
                              cfg: ClusteringConfig) -> list[CandidateCluster]:
    """Qualified peaks of the histogram, ordered by descending count.

    Peaks are local maxima of the counts; they qualify when the count
    reaches min_peak_count and peak_ratio of the highest count. Ties in
    count are broken toward smaller range.
    """
    counts = hist.counts
    padded = np.concatenate(([0], counts, [0]))
    is_peak = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:]) \
        & (padded[1:-1] > 0)
    max_count = int(counts.max(initial=0))
    clusters = []
    for i in np.flatnonzero(is_peak).tolist():
        c = int(counts[i])
        if c < cfg.min_peak_count or c < cfg.peak_ratio * max_count:
            continue
        members = np.nonzero(hist.assignments == i)[0]
        clusters.append(CandidateCluster(member_indices=members,
                                         center_range=float(hist.bin_centers[i])))
    if not clusters:
        raise NoQualifiedCluster(
            f"no peak met count >= {cfg.min_peak_count} "
            f"and ratio >= {cfg.peak_ratio}")
    clusters.sort(key=lambda cl: (-len(cl.member_indices), cl.center_range))
    return clusters
