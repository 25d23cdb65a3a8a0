"""Mode-based clustering of AOI points over a range histogram.

Ranges are planar XY distances. K-Means finds high-density distance
centers which anchor the histogram bins; remaining bins fill the span
sequentially at the class's granularity (classes.CLASSES).

A frame clusters its detections in three steps: seed_bin_centers per
detection, then one build_range_histogram and one
select_candidate_clusters over the stack of all of them. A detection
keeps the bits that clustering it alone gives; a single detection is a
stack of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInput, check_number


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
    """The range histograms of a stack of detections, one after another:
    detection i has the next n_bins[i] entries of bin_centers and counts
    and the next n_values[i] entries of assignments."""
    bin_centers: np.ndarray  # meters, ascending within a detection
    counts: np.ndarray       # per bin
    assignments: np.ndarray  # value -> index of its bin in the stack
    n_bins: np.ndarray       # per detection
    n_values: np.ndarray     # per detection


@dataclass(frozen=True)
class CandidateCluster:
    member_indices: np.ndarray  # indices into the AOI point list
    center_range: float


def planar_ranges(xyz: np.ndarray) -> np.ndarray:
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    return np.hypot(xyz[:, 0], xyz[:, 1])


# One entry per detection size (and k), ~270 B each: the 120 frames of a
# crowd benchmark run take ~230.
@functools.lru_cache(maxsize=1024)
def _draws(seed: int, n: int, kinds: str) -> tuple:
    """The draws of a generator np.random.default_rng(seed), one per
    character of kinds: Generator.integers(n) for "i", Generator.random()
    for "r".

    seed_bin_centers draws from a generator in that state each call, so
    its draws depend only on the seed, the number of values and the
    kinds drawn; this table holds them. A miss seeds a generator of its
    own, so calls on several threads never share one.
    """
    rng = np.random.default_rng(seed)
    return tuple(int(rng.integers(n)) if kind == "i" else rng.random()
                 for kind in kinds)


def seed_bin_centers(ranges: np.ndarray, cfg: ClusteringConfig,
                     seed: int = 0) -> np.ndarray:
    """1-D K-Means centers over the range values, sorted ascending; seed
    seeds the k-means++ initialization.

    k is kmeans_k capped by the number of distinct values. Each k-means++
    draw is Generator.choice(n, p=d2 / total)'s own: the cdf of p,
    normalized by its last entry, searched (side "right") for one
    Generator.random() value. Only choice's checks of p are left out,
    so the picks are choice's. The draws come from the table _draws.
    Iteration stops when the labels repeat (the means would repeat too)
    or when every center moved by at most 1e-12 + 1e-5 * |old center|,
    the test of np.allclose(new, old, atol=1e-12).

    Sums and the label test call the ufunc reductions that ndarray.sum
    and ndarray.all call, without their Python wrappers.
    """
    values = np.asarray(ranges, dtype=float).ravel()
    n = len(values)
    if n == 0:
        raise EmptyInput("no ranges to cluster")
    ordered = np.sort(values)
    n_distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    k = min(cfg.kmeans_k, n_distinct)
    if k == 1:
        return np.array([np.add.reduce(values) / n])  # values.mean()
    # The draws where no total is 0. A draw depends only on its own
    # kind and those before it, so where a total is 0, the draws with an
    # "i" there agree with these before it.
    kinds = "i" + "r" * (k - 1)
    draws = _draws(seed, n, kinds)
    picked = values[draws[0]]
    centers = [float(picked)]
    d2 = (values - picked) ** 2  # squared distance to the nearest center
    for j in range(1, k):
        total = np.add.reduce(d2)
        if total <= 0:
            kinds = kinds[:j] + "i" + kinds[j + 1:]
            draws = _draws(seed, n, kinds)
            picked = values[draws[j]]
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            picked = values[cdf.searchsorted(draws[j], side="right")]
        centers.append(float(picked))
        if j < k - 1:  # the last center's distances are not needed
            np.minimum(d2, (values - picked) ** 2, out=d2)
    # Lloyd iterations on Python floats; a mean is members.sum() / count,
    # numpy's pairwise sum, as in ndarray.mean.
    column = values[:, None]
    labels = None
    for _ in range(cfg.kmeans_max_iter):
        new_labels = np.abs(column - centers).argmin(axis=1)
        if labels is not None and np.logical_and.reduce(new_labels == labels):
            break
        labels = new_labels
        new_centers = centers.copy()
        for j in range(k):
            members = values[labels == j]
            if len(members):
                new_centers[j] = float(np.add.reduce(members) / len(members))
        converged = all(abs(new - old) <= 1e-12 + 1e-5 * abs(old)
                        for new, old in zip(new_centers, centers))
        centers = new_centers
        if converged:
            break
    return np.sort(centers)


def merge_close_centers(centers: list, granularity: float,
                        weights: list) -> list:
    """Collapse anchor centers closer than one bin width: centers are
    ascending floats, weights theirs.

    Two anchors inside the same granularity window would split a single
    object's points across bins; they are replaced by their weighted
    mean. Scanning in ascending order, an anchor joins the
    current group when it lies less than one granularity above the
    group's mean.
    """
    means: list[float] = []  # the last one is the open group's
    for i, (c, w) in enumerate(zip(centers, weights)):
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
    return means


# Above this many values x centers (of the stack's widest detection),
# _nearest_center searches instead of building the whole distance table.
ARGMIN_TABLE_MAX = 4096


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each segment of the given sizes starts in their stack."""
    return np.cumsum(sizes) - sizes


def _nearest_center(centers: np.ndarray, n_centers: np.ndarray,
                    values: np.ndarray, n_values: np.ndarray) -> np.ndarray:
    """Each value's nearest center among its own detection's, ties to the
    lower index: for a stack of one, the argmin of
    |values[:, None] - centers| along axis 1. Detection i has the next
    n_centers[i] centers, ascending, and the next n_values[i] values;
    the result indexes the stack of centers.

    Stacks of at most ARGMIN_TABLE_MAX values x widest centers take
    that argmin over one table: a row per value, of its detection's
    centers padded to the widest with the last one, which loses every
    tie to itself. Larger ones search: only the centers on either side
    of a finite value can be nearest. Each detection's centers, padded
    with -inf twice below and +inf above, are ext[above - 1] < v <=
    ext[above], and their distances need no abs. Measured per call of
    one detection on a 2-vCPU x86 host (numpy 2.4), search against
    table: 23 vs 6 us at 21 x 20, 24 vs 16 us at 64 x 64, 30 vs 37 us
    at 200 x 60, and 0.18 vs 2.5 ms at 2,000 x 115 (a pedestrian ~3 m
    away); the search grows with the values only.
    """
    first = _starts(n_centers)
    width = int(n_centers.max(initial=1))
    if len(values) * width <= ARGMIN_TABLE_MAX:
        table = centers[first[:, None] + np.minimum(np.arange(width),
                                                    n_centers[:, None] - 1)]
        return (np.abs(values[:, None] - np.repeat(table, n_values, axis=0))
                .argmin(axis=1) + np.repeat(first, n_values))
    # Detection i's ext starts at ext_first[i]; its centers are shifted
    # there by 2 + 3 * i.
    ext_first = first + 3 * np.arange(len(n_centers))
    ext = np.full(len(centers) + 3 * len(n_centers), -np.inf)
    ext[np.arange(len(centers))
        + np.repeat(ext_first + 2 - first, n_centers)] = centers
    ext[ext_first + n_centers + 2] = np.inf
    above = np.repeat(ext_first, n_values)
    for e, n_c, v, n_v in zip(ext_first.tolist(), n_centers.tolist(),
                              _starts(n_values).tolist(), n_values.tolist()):
        above[v:v + n_v] += ext[e:e + n_c + 3].searchsorted(values[v:v + n_v])
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
            return nearest - np.repeat(ext_first + 2 - first, n_values)
        nearest -= tie


def build_range_histogram(ranges: Sequence[np.ndarray],
                          centers: Sequence[np.ndarray],
                          granularities: Sequence[float]) -> RangeHistogram:
    """The histograms of a stack of detections: each detection's range
    values, its K-Means centers and its granularity. Bins are anchored
    at the centers and filled outward at fixed width.

    A detection's anchors closer than one granularity are merged first.
    Every value is assigned to exactly one of its detection's bins: the
    nearest center, ties to the lower bin index. Only the merge (on
    slices of the stack's anchors and weights as lists) and the filler
    bins are taken per detection; the nearest centers, the value spans
    and the counts are taken once for the stack.
    """
    values = [np.asarray(r, dtype=float).ravel() for r in ranges]
    n_values = np.array([len(v) for v in values], dtype=int)
    if not n_values.all():
        raise EmptyInput("no ranges to histogram")
    stack = np.concatenate([np.empty(0), *values])
    raw_anchors = [np.sort(np.asarray(c, dtype=float).ravel())
                   for c in centers]
    n_anchors = np.array([len(a) for a in raw_anchors], dtype=int)
    anchor_stack = np.concatenate([np.empty(0), *raw_anchors])
    anchor_weights = np.bincount(
        _nearest_center(anchor_stack, n_anchors, stack, n_values),
        minlength=len(anchor_stack)) + 1.0
    value_first = _starts(n_values)
    spans = zip(np.minimum.reduceat(stack, value_first).tolist(),
                np.maximum.reduceat(stack, value_first).tolist())

    anchor_list, weight_list = anchor_stack.tolist(), anchor_weights.tolist()

    bin_centers: list[float] = []
    n_bins = []
    for at, n, g, (lo, hi) in zip(_starts(n_anchors).tolist(),
                                  n_anchors.tolist(), granularities, spans):
        anchors = merge_close_centers(anchor_list[at:at + n], g,
                                      weight_list[at:at + n])
        g = float(g)
        start = len(bin_centers)

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
                # stopping half a bin short of the next anchor so no
                # filler lands (nearly) on top of it.
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
        n_bins.append(len(bin_centers) - start)

    centers_arr = np.array(bin_centers)
    n_bins = np.array(n_bins, dtype=int)
    assignments = _nearest_center(centers_arr, n_bins, stack, n_values)
    return RangeHistogram(
        bin_centers=centers_arr,
        counts=np.bincount(assignments, minlength=len(centers_arr)),
        assignments=assignments, n_bins=n_bins, n_values=n_values)


def select_candidate_clusters(hist: RangeHistogram, cfg: ClusteringConfig
                              ) -> list[list[CandidateCluster]]:
    """Each detection's qualified peaks of its histogram, ordered by
    descending count; an empty list where none qualifies.

    Peaks are local maxima of a detection's counts, with a count of 0
    beyond its first and last bins; they qualify when the count reaches
    min_peak_count and peak_ratio of the detection's highest count.
    Ties in count are broken toward smaller range. A cluster's members
    are indices into its detection's values, ascending.
    """
    counts = hist.counts
    first = _starts(hist.n_bins)
    left = np.concatenate(([0], counts))[:-1]
    left[first] = 0
    right = np.concatenate((counts, [0]))[1:]
    right[first + hist.n_bins - 1] = 0
    qualified = ((counts >= left) & (counts >= right) & (counts > 0)
                 & (counts >= cfg.min_peak_count)
                 & (counts >= cfg.peak_ratio * np.repeat(
                     np.maximum.reduceat(counts, first), hist.n_bins)))
    peaks = np.flatnonzero(qualified)
    # One stable sort lists each bin's values together, ascending, and
    # each detection's values within its own span of the list.
    members = (np.argsort(hist.assignments, kind="stable")
               - np.repeat(_starts(hist.n_values), hist.n_values))
    member_first = _starts(counts)
    clusters: list[list[CandidateCluster]] = [[] for _ in hist.n_bins]
    for det, start, count, center in zip(
            (np.searchsorted(first, peaks, side="right") - 1).tolist(),
            member_first[peaks].tolist(), counts[peaks].tolist(),
            hist.bin_centers[peaks].tolist()):
        clusters[det].append(CandidateCluster(
            member_indices=members[start:start + count],
            center_range=center))
    for det_clusters in clusters:
        det_clusters.sort(key=lambda cl: (-len(cl.member_indices),
                                          cl.center_range))
    return clusters
