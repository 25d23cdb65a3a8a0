"""Range-histogram clustering of AOI points."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import oracles
from probfusion.classes import CLASSES
from probfusion.cluster import (ARGMIN_TABLE_MAX, ClusteringConfig,
                                RangeHistogram, _draws, _nearest_center,
                                build_range_histogram, merge_close_centers,
                                planar_ranges, seed_bin_centers,
                                select_candidate_clusters)
from probfusion.errors import EmptyInput, NoQualifiedCluster


def sizes(*arrays):
    """The sizes of a stack of the given arrays."""
    return np.array([len(a) for a in arrays], dtype=int)


def make_hist(counts, spacing=2.0, start=10.0):
    counts = np.asarray(counts, dtype=int)
    centers = start + spacing * np.arange(len(counts))
    assignments = np.repeat(np.arange(len(counts)), counts)
    return RangeHistogram(bin_centers=centers, counts=counts,
                          assignments=assignments)


class TestPlanarRanges:
    def test_ignores_height(self):
        xyz = np.array([[3.0, 4.0, 100.0], [3.0, 4.0, -7.0]])
        assert np.allclose(planar_ranges(xyz), [5.0, 5.0])


class TestSeedBinCenters:
    def test_degenerate_all_equal(self):
        centers = seed_bin_centers(np.full(20, 10.0), ClusteringConfig())
        assert np.allclose(centers, [10.0])

    def test_two_gaussian_blobs(self):
        rng = np.random.default_rng(7)
        ranges = np.concatenate([rng.normal(10.0, 0.1, 50),
                                 rng.normal(30.0, 0.1, 50)])
        cfg = ClusteringConfig(kmeans_k=2)
        centers = seed_bin_centers(ranges, cfg)
        assert len(centers) == 2
        assert abs(centers[0] - ranges[:50].mean()) < 0.2
        assert abs(centers[1] - ranges[50:].mean()) < 0.2

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            seed_bin_centers(np.array([]), ClusteringConfig())

    def test_sorted_and_deterministic(self):
        rng = np.random.default_rng(11)
        ranges = rng.uniform(5, 60, 200)
        cfg = ClusteringConfig(kmeans_k=3)
        c1 = seed_bin_centers(ranges, cfg, seed=9)
        c2 = seed_bin_centers(ranges, cfg, seed=9)
        assert np.array_equal(c1, c2)
        assert np.all(np.diff(c1) >= 0)

    def test_k_capped_by_distinct_values(self):
        ranges = np.array([5.0, 5.0, 9.0, 9.0])
        centers = seed_bin_centers(ranges, ClusteringConfig(kmeans_k=10))
        assert len(centers) <= 2


class TestDrawsTable:
    """seed_bin_centers takes its k-means++ draws from the table _draws,
    which holds what a fresh np.random.default_rng(seed) draws."""

    @pytest.mark.parametrize("kinds", ["i", "ir", "irr", "ii"])
    @pytest.mark.parametrize("seed, n", [(0, 2), (7, 29), (2 ** 32 - 1, 1000)])
    def test_equals_fresh_generator(self, kinds, seed, n):
        # "ii" is what a zero total draws (test_seed_bin_centers_zero_total).
        rng = np.random.default_rng(seed)
        expected = tuple(rng.integers(n) if kind == "i" else rng.random()
                         for kind in kinds)
        assert _draws(seed, n, kinds) == expected

    def test_cold_call_equals_warm(self):
        values = np.random.default_rng(12).uniform(8.0, 55.0, 31)
        cfg = ClusteringConfig()
        warm = seed_bin_centers(values, cfg, seed=5)
        assert same_array(seed_bin_centers(values, cfg, seed=5), warm)
        _draws.cache_clear()
        assert same_array(seed_bin_centers(values, cfg, seed=5), warm)
        assert _draws.cache_info().misses == 1

    def test_threads(self):
        # Four threads on two CPUs, each on values of its own sizes, so
        # that every call misses the cleared table while the others run;
        # k = 12 makes each miss 12 draws long. One generator shared by
        # the misses gave wrong centers in some of these calls.
        cfg = ClusteringConfig(kmeans_k=12)
        rng = np.random.default_rng(5)
        inputs = [[(rng.uniform(8.0, 55.0, n), n % 3)
                   for n in range(12 + t, 492, 4)] for t in range(4)]
        expected = [[oracles.seed_bin_centers(v, cfg, seed)
                     for v, seed in calls] for calls in inputs]
        got = [[] for _ in inputs]

        def run(t):
            for v, seed in inputs[t]:
                got[t].append(seed_bin_centers(v, cfg, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _draws.cache_clear()
            threads = [threading.Thread(target=run, args=(t,))
                       for t in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t, calls in enumerate(expected):
            assert len(got[t]) == len(calls)
            assert all(same_array(g, e) for g, e in zip(got[t], calls))


class TestMergeCloseCenters:
    def test_far_centers_untouched(self):
        out = merge_close_centers(np.array([10.0, 30.0]), 2.0,
                                  np.array([1.0, 1.0]))
        assert np.allclose(out, [10.0, 30.0])

    def test_close_pair_collapses_to_mean(self):
        out = merge_close_centers(np.array([10.0, 10.8]), 2.0,
                                  np.array([1.0, 1.0]))
        assert np.allclose(out, [10.4])

    def test_weighted_merge_follows_heavy_center(self):
        out = merge_close_centers(np.array([10.0, 11.0]), 2.0,
                                  weights=np.array([3.0, 1.0]))
        assert np.allclose(out, [10.25])


class TestBuildRangeHistogram:
    def test_single_bin_holds_all(self):
        cfg = ClusteringConfig()
        hist = build_range_histogram([np.array([10.0, 10.1, 9.9])],
                                     [np.array([10.0])], cfg, [0.5])
        assert len(hist.bin_centers) == 1
        assert hist.counts[0] == 3

    def test_nearest_anchor_assignment(self):
        cfg = ClusteringConfig()
        ranges = np.array([10.2, 30.0])
        hist = build_range_histogram([ranges], [np.array([10.0, 30.0])], cfg,
                                     [0.5])
        bin_of_point = hist.assignments[0]
        assert hist.bin_centers[bin_of_point] == pytest.approx(10.0)

    def test_counts_conserved(self):
        rng = np.random.default_rng(2)
        ranges = rng.uniform(5, 50, 300)
        cfg = ClusteringConfig()
        centers = seed_bin_centers(ranges, cfg)
        hist = build_range_histogram([ranges], [centers], cfg, [2.0])
        assert hist.counts.sum() == len(ranges)
        assert np.array_equal(
            hist.counts, np.bincount(hist.assignments,
                                     minlength=len(hist.bin_centers)))

    def test_spacing_regular_except_anchor_joints(self):
        rng = np.random.default_rng(4)
        ranges = np.concatenate([rng.normal(12, 0.3, 40),
                                 rng.normal(33, 0.3, 40)])
        cfg = ClusteringConfig(kmeans_k=2)
        centers = seed_bin_centers(ranges, cfg)
        g = 2.0
        hist = build_range_histogram([ranges], [centers], cfg, [g])
        diffs = np.diff(hist.bin_centers)
        assert np.all(diffs > g / 2.0 - 1e-9)
        # Away from the bins adjacent to anchors (the K-Means centers,
        # merged as build_range_histogram merges them) the spacing is
        # exact.
        weights = np.bincount(_nearest_center(centers, sizes(centers),
                                              ranges, sizes(ranges)),
                              minlength=len(centers)) + 1.0
        anchors = merge_close_centers(centers, g, weights)
        is_anchor = np.isin(hist.bin_centers, anchors)
        assert is_anchor.sum() == len(anchors)
        anchor_adjacent = is_anchor[:-1] | is_anchor[1:]
        assert np.allclose(diffs[~anchor_adjacent], g, atol=1e-9)

    def test_span_covers_all_points(self):
        rng = np.random.default_rng(6)
        ranges = rng.uniform(8, 55, 150)
        cfg = ClusteringConfig()
        centers = seed_bin_centers(ranges, cfg)
        hist = build_range_histogram([ranges], [centers], cfg, [2.0])
        # Assignment locality: every point within one bin width of its bin.
        assigned_centers = hist.bin_centers[hist.assignments]
        assert np.all(np.abs(ranges - assigned_centers) <= 2.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            build_range_histogram([np.array([])], [np.array([10.0])],
                                  ClusteringConfig(), [0.5])


class TestSelectCandidateClusters:
    def test_single_concentrated_bin(self):
        hist = make_hist([40])
        [clusters] = select_candidate_clusters(hist, ClusteringConfig())
        assert len(clusters) == 1
        assert len(clusters[0].member_indices) == 40
        assert np.array_equal(clusters[0].member_indices, np.arange(40))

    def test_ratio_threshold(self):
        # Local maxima 100, 80, 10; 10 < 0.3 * 100 so it is dropped.
        hist = make_hist([100, 5, 80, 5, 10])
        [clusters] = select_candidate_clusters(hist, ClusteringConfig())
        assert [len(c.member_indices) for c in clusters] == [100, 80]

    def test_min_count_threshold(self):
        hist = make_hist([2, 2, 2])
        assert select_candidate_clusters(hist, ClusteringConfig()) == [[]]

    def test_ordering_and_tie_break(self):
        hist = make_hist([50, 5, 50, 5, 70])
        [clusters] = select_candidate_clusters(hist, ClusteringConfig())
        assert [len(c.member_indices) for c in clusters] == [70, 50, 50]
        assert clusters[1].center_range < clusters[2].center_range

    def test_clusters_partition_points(self):
        hist = make_hist([30, 4, 25, 4, 20])
        [clusters] = select_candidate_clusters(hist, ClusteringConfig())
        all_members = np.concatenate([c.member_indices for c in clusters])
        assert len(all_members) == len(np.unique(all_members))
        for c in clusters:
            bins = hist.assignments[c.member_indices]
            assert np.all(bins == bins[0])
            assert len(bins) == hist.counts[bins[0]]

    @given(counts=st.lists(st.integers(0, 200), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_thresholds_hold_on_random_histograms(self, counts):
        hist = make_hist(counts)
        cfg = ClusteringConfig()
        [clusters] = select_candidate_clusters(hist, cfg)
        max_count = max(counts)
        seen = set()
        for c in clusters:
            assert len(c.member_indices) >= cfg.min_peak_count
            assert len(c.member_indices) >= cfg.peak_ratio * max_count
            idx = set(c.member_indices.tolist())
            assert not (idx & seen)
            seen |= idx
        sizes = [len(c.member_indices) for c in clusters]
        assert sizes == sorted(sizes, reverse=True)


class TestConfigValidation:
    def test_bad_granularity(self):
        # Granularity is per class and comes from the class table only.
        with pytest.raises(TypeError, match="granularity"):
            ClusteringConfig(granularity={"car": 2.0})

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ClusteringConfig(kmeans_k=0)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            ClusteringConfig(peak_ratio=0.0)

    def test_granularity_lookup(self):
        assert CLASSES["car"].granularity_m == 2.0
        assert CLASSES["pedestrian"].granularity_m == 0.5


def same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# Exact binary fractions: a value at base + k * g / 2 with a
# power-of-two g is exact, so anchors taken from the values put bin
# centers and midpoints exactly on values; k in {-1, 0, 1} is a span
# of one bin, and repeated k are duplicate values.
GRANULARITY = st.sampled_from([0.25, 0.5, 1.0, 2.0])


@st.composite
def half_bin_values(draw, max_size=60):
    g = draw(GRANULARITY)
    base = draw(st.integers(16, 480)) / 8.0
    ks = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=max_size))
    return g, np.array([base + k * g / 2.0 for k in ks])


@st.composite
def frame_detections(draw):
    """A detection of a frame to cluster: (values, K-Means centers,
    granularity). Most are half_bin_values() with centers on values or
    half a bin off them; some are constant (k = 1), and some span ~80
    bins with 161 or more values, past the nearest-center size rule."""
    kind = draw(st.sampled_from(["half_bin"] * 4 + ["constant", "wide"]))
    if kind == "constant":
        g = draw(GRANULARITY)
        values = np.full(draw(st.integers(1, 12)),
                         draw(st.integers(16, 480)) / 8.0)
        return values, values[:1], g
    if kind == "wide":
        g = draw(GRANULARITY)
        base = draw(st.integers(16, 480)) / 8.0
        values = np.tile(base + np.arange(-80, 81) * g / 2.0,
                         draw(st.integers(1, 2)))
    else:
        g, values = draw(half_bin_values())
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=1,
                          max_size=4))
    shift = draw(st.sampled_from([0.0, 0.5]))
    return values, values[picks] + shift * g, g


def peaks_between(*counts, g=1.0):
    """One detection per list of counts: counts[j] values at 10 * (i + 1)
    + j m, with a K-Means center on each."""
    detections = []
    for i, det_counts in enumerate(counts):
        centers = 10.0 * (i + 1) + np.arange(len(det_counts)) * g
        detections.append((np.repeat(centers, det_counts), centers, g))
    return detections


class TestMatchesOracle:
    """The stages equal, bit for bit, the reference versions in
    oracles.py on values at bin midpoints, duplicates, one-bin spans and
    few distinct values."""

    @settings(deadline=None, max_examples=200)
    @given(data=half_bin_values(), k=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(data=(0.5, np.array([20.0] * 7)), k=3, seed=0)
    @example(data=(0.5, np.array([20.0, 20.5, 20.0, 20.5])), k=3, seed=1)
    @example(data=(0.5, np.array([20.0, 21.5, 20.5, 30.0, 29.5])), k=2,
             seed=7)
    def test_seed_bin_centers(self, data, k, seed):
        _, values = data
        cfg = ClusteringConfig(kmeans_k=k)
        assert same_array(seed_bin_centers(values, cfg, seed),
                          oracles.seed_bin_centers(values, cfg, seed))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_seed_bin_centers_zero_total(self, k, seed):
        # Differences below 1e-162 square to 0, so after the first
        # center, whichever it is, every squared distance is 0 and each
        # further center is drawn by the total <= 0 branch.
        values = np.array([0.0, 1e-170, 2e-170, 3e-170, 2e-170])
        assert not ((values[:, None] - values) ** 2).any()
        cfg = ClusteringConfig(kmeans_k=k)
        assert same_array(seed_bin_centers(values, cfg, seed),
                          oracles.seed_bin_centers(values, cfg, seed))

    def test_seed_bin_centers_ignore_call_history(self):
        # Each call seeds its own draws: calls with other values, k and
        # seeds in between leave a call's centers as they were.
        rng = np.random.default_rng(3)
        values = rng.uniform(8.0, 55.0, 25)
        cfg = ClusteringConfig()
        first = seed_bin_centers(values, cfg, seed=1)
        for seed in (0, 1, 2, 2 ** 32 - 1):
            for k in (2, 3, 5):
                seed_bin_centers(rng.uniform(8.0, 55.0, 30),
                                 ClusteringConfig(kmeans_k=k), seed)
            assert same_array(seed_bin_centers(values, cfg, seed=1), first)
        assert same_array(first, oracles.seed_bin_centers(values, cfg, 1))

    @settings(deadline=None, max_examples=200)
    @given(base=st.floats(1.0, 60.0),
           offsets=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
           weights=st.lists(st.floats(1.0, 400.0), min_size=12, max_size=12),
           g=st.floats(0.1, 4.0))
    @example(base=-0.0, offsets=[-0.0, 2.0], weights=[1.0] * 12, g=1.0)
    def test_merge_close_centers(self, base, offsets, weights, g):
        # Offsets within 3 m and bins up to 4 m wide make groups of 8
        # and more anchors, whose means numpy sums pairwise.
        centers = np.array(offsets) + base
        weights = np.array(weights[:len(centers)])
        assert same_array(merge_close_centers(centers, g, weights),
                          oracles.merge_close_centers(centers, g, weights))

    def test_merge_group_of_ten(self):
        # A group of 10 anchors: its mean is np.average's pairwise sum,
        # which here differs from the sum taken in order.
        centers = np.array([10.1, 10.2, 10.3, 10.3, 10.4, 10.5, 10.5, 10.8,
                            11.0, 11.0])
        weights = np.array([1.0, 7.0, 3.0, 5.0, 9.0, 3.0, 7.0, 2.0, 3.0, 9.0])
        assert len(merge_close_centers(centers, 5.0, weights)) == 1
        assert same_array(merge_close_centers(centers, 5.0, weights),
                          oracles.merge_close_centers(centers, 5.0, weights))
        cw = w = 0.0
        for c, wi in zip(centers.tolist(), weights.tolist()):
            cw += c * wi
            w += wi
        assert cw / w != merge_close_centers(centers, 5.0, weights)[0]

    @settings(deadline=None, max_examples=300)
    @given(data=half_bin_values(),
           picks=st.lists(st.integers(0, 59), min_size=1, max_size=4),
           shift=st.sampled_from([0.0, 0.5]))
    @example(data=(0.5, np.array([20.0, 20.25, 19.75])), picks=[0],
             shift=0.0)
    def test_build_range_histogram(self, data, picks, shift):
        # Anchors on values (or half a bin off them) put values exactly
        # on bin centers and bin midpoints; repeated picks are equal
        # anchors.
        g, values = data
        centers = values[[i % len(values) for i in picks]] + shift * g
        cfg = ClusteringConfig()
        hist = build_range_histogram([values], [centers], cfg, [g])
        ref = oracles.build_range_histogram(values, centers, cfg, g)
        for name in ("bin_centers", "counts", "assignments"):
            assert same_array(getattr(hist, name), getattr(ref, name)), name

    @settings(deadline=None, max_examples=100)
    @given(values=st.lists(st.floats(0.5, 80.0), min_size=1, max_size=80),
           seed=st.integers(0, 2 ** 32 - 1),
           label=st.sampled_from(["car", "pedestrian", "other"]))
    def test_kmeans_then_histogram(self, values, seed, label):
        values = np.array(values)
        cfg = ClusteringConfig()
        g = CLASSES[label].granularity_m
        centers = oracles.seed_bin_centers(values, cfg, seed)
        assert same_array(seed_bin_centers(values, cfg, seed), centers)
        hist = build_range_histogram([values], [centers], cfg, [g])
        ref = oracles.build_range_histogram(values, centers, cfg, g)
        for name in ("bin_centers", "counts", "assignments"):
            assert same_array(getattr(hist, name), getattr(ref, name)), name

    @settings(deadline=None, max_examples=300)
    @given(detections=st.lists(frame_detections(), max_size=12),
           min_peak_count=st.integers(0, 7),
           peak_ratio=st.floats(0.01, 1.0))
    # A detection without a qualified peak between two whose peaks lie
    # on the bins next to it; a peak of 5 next to a bin of 9 of the next
    # detection, whose highest count would disqualify it at ratio 1.
    @example(detections=peaks_between([2, 5], [3, 1], [5, 2]),
             min_peak_count=5, peak_ratio=0.3)
    @example(detections=peaks_between([2, 5], [9, 2], [5, 9]),
             min_peak_count=5, peak_ratio=1.0)
    @example(detections=peaks_between([2, 5], [9, 2], [5, 9]),
             min_peak_count=0, peak_ratio=0.01)
    @example(detections=[], min_peak_count=5, peak_ratio=0.3)
    def test_frame_histogram_and_candidates(self, detections, min_peak_count,
                                            peak_ratio):
        # The frame's histogram and candidates are each detection's own,
        # in detection order, as the reference versions give them;
        # candidate members index the detection's own values.
        cfg = ClusteringConfig(min_peak_count=min_peak_count,
                               peak_ratio=peak_ratio)
        values = [v for v, _, _ in detections]
        centers = [c for _, c, _ in detections]
        granularities = [g for _, _, g in detections]
        hist = build_range_histogram(values, centers, cfg, granularities)
        refs = [oracles.build_range_histogram(v, c, cfg, g)
                for v, c, g in detections]
        got = conftest.split_histogram(hist)
        assert len(got) == len(refs)
        for one, ref in zip(got, refs):
            for name in ("bin_centers", "counts", "assignments"):
                assert same_array(getattr(one, name), getattr(ref, name)), \
                    name
        expected = []
        for ref in refs:
            try:
                expected.append(oracles.select_candidate_clusters(ref, cfg))
            except NoQualifiedCluster:
                expected.append([])
        assert repr(select_candidate_clusters(hist, cfg)) == repr(expected)

    @settings(deadline=None, max_examples=400)
    @given(detections=st.lists(st.tuples(
               st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
               st.integers(1, 3),
               st.lists(st.floats(-2e3, 2e3), min_size=1, max_size=40)),
               min_size=1, max_size=4),
           large=st.booleans())
    # Repeated centers and distances that round to the same value, on
    # both sides of the size rule.
    @example(detections=[([1.0, 1.0 + 2 ** -40], 2, [3e4, -3e4])],
             large=False)
    @example(detections=[([1.0, 1.0 + 2 ** -40], 2, [3e4, -3e4])],
             large=True)
    # Exactly ARGMIN_TABLE_MAX entries (32 centers x 128 values), one
    # more (17 x 241, center 0 listed twice) and one more row (32 x
    # 129), with every center repeated and values halfway between them;
    # then 128 values over two detections, the second of one center
    # and padded to the first's 32, and one more value.
    @example(detections=[([float(i) for i in range(16)], 2,
                          [i / 4 for i in range(-8, 88)])], large=False)
    @example(detections=[([0.0] + [float(i) for i in range(16)], 1,
                          [i / 4 for i in range(-16, 208)])], large=True)
    @example(detections=[([float(i) for i in range(16)], 2,
                          [i / 4 for i in range(-8, 89)])], large=True)
    @example(detections=[([float(i) for i in range(16)], 2,
                          [i / 4 for i in range(-8, 24)]),
                         ([5.0], 1, [i / 4 for i in range(-8, 55)])],
             large=False)
    @example(detections=[([float(i) for i in range(16)], 2,
                          [i / 4 for i in range(-8, 25)]),
                         ([5.0], 1, [i / 4 for i in range(-8, 55)])],
             large=True)
    def test_nearest_center(self, detections, large):
        # Repeated centers, and centers so close that distances to them
        # round to the same value, tie: the lowest index wins, as in
        # np.argmin. Each detection's values are its own and its
        # centers. Stacks of up to ARGMIN_TABLE_MAX values x widest
        # centers take that argmin; large ones, the first detection's
        # values cycled past that size, search.
        centers = [np.sort(np.repeat(c, copies)) for c, copies, _ in
                   detections]
        values = [np.array(v + c.tolist())
                  for c, (_, _, v) in zip(centers, detections)]
        width = max(map(len, centers))
        if large:
            others = sum(map(len, values[1:]))
            values[0] = np.resize(values[0], max(
                len(values[0]), ARGMIN_TABLE_MAX // width + 1 - others))
            assert sum(map(len, values)) * width > ARGMIN_TABLE_MAX
        first = np.cumsum(sizes(*centers)) - sizes(*centers)
        expected = np.concatenate([
            np.argmin(np.abs(v[:, None] - c), axis=1) + f
            for c, v, f in zip(centers, values, first)])
        assert same_array(
            _nearest_center(np.concatenate(centers), sizes(*centers),
                            np.concatenate(values), sizes(*values)),
            expected)
