"""Shape descriptors, constrained de-rotation, and cluster selection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from probfusion.cluster import CandidateCluster
from probfusion.errors import DegenerateCluster, EmptyInput
from probfusion.shape import (BenchmarkShapeRegistry, RotationEstimate,
                              ShapeDescriptor, ShapeFilterConfig,
                              build_benchmark, compute_descriptor, derotate,
                              kl_divergence, principal_axis_angle,
                              score_candidate, score_candidates,
                              select_cluster, similarity_score)


def one_hot(i):
    w = np.zeros(9)
    w[i] = 1.0
    return ShapeDescriptor(weights=w)


def rotate(points, deg):
    th = math.radians(deg)
    r = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]])
    c = points.mean(axis=0)
    return (points - c) @ r.T + c


def vertical_ellipse(n=400, seed=0, a=0.3, b=1.0):
    """Filled ellipse with major axis along the second coordinate."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 2 * math.pi, n)
    r = np.sqrt(rng.uniform(0, 1, n))
    return np.column_stack([a * r * np.cos(t), b * r * np.sin(t)])


def ellipse_grid(a=0.3, b=1.0, step=0.02):
    """Point-symmetric grid fill of an ellipse; its PCA axes are exact.

    Built by mirroring one quadrant so the set is exactly symmetric and
    the covariance is exactly diagonal.
    """
    us = step * np.arange(0, int(a / step) + 1)
    vs = step * np.arange(0, int(b / step) + 1)
    uu, vv = np.meshgrid(us, vs)
    keep = (uu / a) ** 2 + (vv / b) ** 2 <= 1.0
    q = np.column_stack([uu[keep], vv[keep]])
    pts = np.vstack([q * s for s in ([1, 1], [-1, 1], [1, -1], [-1, -1])])
    return np.unique(pts, axis=0)


def pedestrian_like(n=300, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.2, n)
    v = rng.uniform(0.0, 1.7, n)
    return np.column_stack([u, v])


def car_like(n=300, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-2.0, 2.0, n)
    v = np.abs(rng.normal(0.0, 0.5, n))  # mass hugging the bottom edge
    return np.column_stack([u, v])


class TestComputeDescriptor:
    def test_uniform_nine_points(self):
        centers = np.array([[u, v] for v in (0.5, 1.5, 2.5)
                            for u in (0.5, 1.5, 2.5)])
        d = compute_descriptor(centers)
        assert np.allclose(d.weights, 1.0 / 9.0)

    def test_two_per_cell(self):
        base = np.array([[u, v] for v in (0.5, 1.5, 2.5)
                         for u in (0.5, 1.5, 2.5)])
        pts = np.vstack([base, base + 0.01])
        d = compute_descriptor(pts)
        assert np.allclose(d.weights, 1.0 / 9.0)

    def test_coincident_points_one_hot(self):
        d = compute_descriptor(np.tile([[2.0, 3.0]], (5, 1)))
        assert d.weights.sum() == pytest.approx(1.0)
        assert np.sort(d.weights)[-1] == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(DegenerateCluster):
            compute_descriptor(np.zeros((0, 2)))

    def test_duplication_invariance(self):
        pts = vertical_ellipse(seed=3)
        d1 = compute_descriptor(pts)
        d2 = compute_descriptor(np.vstack([pts, pts]))
        assert np.allclose(d1.weights, d2.weights)

    @given(scale=st.floats(0.01, 100.0),
           tu=st.floats(-50, 50), tv=st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_scale_translation_invariance(self, scale, tu, tv):
        pts = vertical_ellipse(seed=5, n=100)
        d1 = compute_descriptor(pts)
        d2 = compute_descriptor(pts * scale + np.array([tu, tv]))
        assert np.allclose(d1.weights, d2.weights)

    def test_row_column_orientation(self):
        # All mass in the low-v row, spread across u: bottom row occupied.
        pts = np.column_stack([np.linspace(0, 3, 30), np.zeros(30)])
        pts = np.vstack([pts, [[1.5, 3.0]]])  # one point defines the top
        d = compute_descriptor(pts)
        assert d.weights[:3].sum() > 0.9  # row-major, first row = low v


class TestPrincipalAxisAngle:
    def test_vertical_axis_zero(self):
        est = principal_axis_angle(vertical_ellipse())
        assert abs(est.angle_deg) < 1.0
        assert not est.rejected

    @pytest.mark.parametrize("theta", [-40, -20, -5, 5, 20, 40])
    def test_known_rotation_recovered(self, theta):
        pts = rotate(vertical_ellipse(n=2000, seed=theta + 50), theta)
        est = principal_axis_angle(pts)
        assert est.angle_deg == pytest.approx(theta, abs=1.0)

    def test_beyond_limit_rejected(self):
        est = principal_axis_angle(rotate(vertical_ellipse(n=2000), 60))
        assert est.rejected
        assert abs(est.angle_deg) > 40.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateCluster):
            principal_axis_angle(np.tile([[1.0, 2.0]], (10, 1)))

    def test_angle_range(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pts = rng.normal(size=(50, 2)) * [3.0, 1.0]
            est = principal_axis_angle(pts)
            assert -90.0 < est.angle_deg <= 90.0


class TestDerotate:
    def test_zero_angle_identity(self):
        pts = vertical_ellipse(n=50)
        out = derotate(pts, RotationEstimate(angle_deg=0.0))
        assert np.allclose(out, pts)

    def test_rejected_identity(self):
        pts = rotate(vertical_ellipse(n=50), 60)
        out = derotate(pts, RotationEstimate(angle_deg=60.0, rejected=True))
        assert np.allclose(out, pts)

    def test_descriptor_recovered_after_derotation(self):
        base = ellipse_grid()
        ref = compute_descriptor(base)
        for theta in (-40, -20, 20, 40):
            tilted = rotate(base, theta)
            est = principal_axis_angle(tilted)
            assert not est.rejected
            d = compute_descriptor(derotate(tilted, est))
            assert np.abs(d.weights - ref.weights).sum() <= 0.05

    def test_inverts_rotation_exactly(self):
        pts = vertical_ellipse(n=80, seed=2)
        tilted = rotate(pts, 25.0)
        out = derotate(tilted, RotationEstimate(angle_deg=25.0))
        assert np.allclose(out, pts, atol=1e-9)


class TestKlDivergence:
    def test_identity_zero(self):
        d = compute_descriptor(vertical_ellipse())
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_two_bin_hand_value(self):
        p = ShapeDescriptor(np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0, 0.0]))
        q = ShapeDescriptor(np.array([0.25, 0.75, 0, 0, 0, 0, 0, 0, 0.0]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q, smoothing=1e-12) == \
            pytest.approx(expected, abs=1e-6)

    def test_zero_bin_finite(self):
        v = kl_divergence(one_hot(0), one_hot(8), smoothing=1e-6)
        assert math.isfinite(v)
        assert v > 5.0

    @given(st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9),
           st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, a, b):
        a = np.asarray(a) + 1e-3
        b = np.asarray(b) + 1e-3
        p = ShapeDescriptor(a / a.sum())
        q = ShapeDescriptor(b / b.sum())
        assert kl_divergence(p, q) >= -1e-12

    def test_own_benchmark_not_negative(self):
        # The benchmark of one descriptor is its weights renormalized,
        # which differ in the last bit; the KL sum then rounds to
        # -2.2e-16, and scoring the points against it used to raise.
        pts = np.array([[0, 3], [2, 2], [0, 3], [1, 3], [0, 0], [3, 2],
                        [1, 3]], dtype=float)
        d = compute_descriptor(pts)
        bench = build_benchmark([d])
        assert kl_divergence(d, bench) == 0.0
        cand = CandidateCluster(member_indices=np.arange(7),
                                center_range=10.0)
        score = score_candidate(pts, cand, bench, ShapeFilterConfig())
        assert score.pre_rotation_score == 1.0


class TestSimilarityScore:
    def test_zero_distance_full_score(self):
        assert similarity_score(0.0) == pytest.approx(1.0)

    def test_closed_form(self):
        assert similarity_score(math.log(3.0), k=1.0) == pytest.approx(0.5)

    def test_strictly_decreasing_toward_zero(self):
        ds = np.linspace(0, 30, 200)
        ss = [similarity_score(float(d), k=1.0) for d in ds]
        assert all(a > b for a, b in zip(ss, ss[1:]))
        assert ss[-1] < 1e-10

    def test_overflow_scores_zero(self):
        assert similarity_score(709.0) == 2.0 / (1.0 + math.exp(709.0))
        assert similarity_score(710.0) == 0.0
        assert similarity_score(1.0, k=1e300) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            similarity_score(-0.1)


class TestBuildBenchmark:
    def test_identical_inputs(self):
        d = compute_descriptor(pedestrian_like())
        out = build_benchmark([d] * 12)
        assert np.allclose(out.weights, d.weights)

    def test_mean_of_one_hots(self):
        out = build_benchmark([one_hot(0), one_hot(1)])
        expected = np.zeros(9)
        expected[:2] = 0.5
        assert np.allclose(out.weights, expected)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            build_benchmark([])


def stacked(sets):
    """Point sets as score_candidates takes them: one stack of all their
    rows, and each set's count."""
    pts = [np.asarray(p, dtype=float).reshape(-1, 2) for p in sets]
    return np.concatenate([np.empty((0, 2)), *pts]), [len(p) for p in pts]


def select(candidates, pts, bench, cfg):
    """One detection's choice among its candidates and their scores."""
    scores = score_candidates(*stacked(pts), candidates,
                              [bench] * len(candidates), cfg)
    return select_cluster(scores), scores


class TestSelectCluster:
    def _candidate(self, n, rng_range):
        return CandidateCluster(member_indices=np.arange(n),
                                center_range=rng_range)

    def _ped_benchmark(self):
        return build_benchmark([compute_descriptor(pedestrian_like(seed=s))
                                for s in range(12)])

    def test_single_candidate_wins(self):
        cfg = ShapeFilterConfig()
        cand = self._candidate(10, 15.0)
        chosen, scores = select([cand], [car_like()],
                                self._ped_benchmark(), cfg)
        assert chosen is cand
        assert len(scores) == 1

    def test_pedestrian_beats_cars(self):
        bench = self._ped_benchmark()
        cfg = ShapeFilterConfig()
        wins = 0
        trials = 25
        for s in range(trials):
            cands = [self._candidate(300, 10.0), self._candidate(300, 20.0),
                     self._candidate(300, 30.0)]
            pts = [car_like(seed=100 + s), pedestrian_like(seed=200 + s),
                   car_like(seed=300 + s)]
            chosen, _ = select(cands, pts, bench, cfg)
            wins += chosen is cands[1]
        assert wins == trials

    def test_tie_breaks_toward_smaller_range(self):
        bench = self._ped_benchmark()
        cfg = ShapeFilterConfig()
        pts = pedestrian_like(seed=1)
        near = self._candidate(300, 12.0)
        far = self._candidate(300, 24.0)
        chosen, _ = select([far, near], [pts, pts], bench, cfg)
        assert chosen is near

    def test_gain_invariance(self):
        bench = self._ped_benchmark()
        cands = [self._candidate(300, 10.0), self._candidate(300, 20.0)]
        pts = [car_like(seed=4), pedestrian_like(seed=4)]
        winners = set()
        for k in (0.5, 1.0, 2.0):
            chosen, _ = select(cands, pts, bench,
                               ShapeFilterConfig(sigmoid_gain=k))
            winners.add(id(chosen))
        assert len(winners) == 1

    def test_huge_gain_selects(self):
        # KL is 0.63 for the car and 0.02 for the pedestrian, so
        # exp(10^4 * KL) overflows for the car alone; its score is the
        # limit 0.
        bench = self._ped_benchmark()
        cands = [self._candidate(300, 10.0), self._candidate(300, 20.0)]
        pts = [car_like(seed=4), pedestrian_like(seed=4)]
        chosen, scores = select(
            cands, pts, bench, ShapeFilterConfig(sigmoid_gain=10_000))
        assert chosen is cands[1]
        assert scores[0].post_rotation_score == 0.0

    def test_degenerate_candidate_loses(self):
        bench = self._ped_benchmark()
        cfg = ShapeFilterConfig()
        good = self._candidate(300, 30.0)
        bad = self._candidate(5, 10.0)
        chosen, scores = select(
            [bad, good], [np.tile([[1.0, 1.0]], (5, 1)), pedestrian_like()],
            bench, cfg)
        assert chosen is good
        assert scores[0].pre_rotation_score == 0.0
        assert scores[0].post_rotation_score == 0.0

    def test_empty_candidates_raise(self):
        with pytest.raises(EmptyInput):
            select_cluster([])


class TestRegistry:
    def test_round_trip(self, tmp_path):
        reg = BenchmarkShapeRegistry(
            shapes={"pedestrian": one_hot(1), "car": one_hot(3)},
            sample_counts={"pedestrian": 12, "car": 20})
        path = tmp_path / "bench.json"
        reg.save(path)
        loaded = BenchmarkShapeRegistry.load(path)
        assert set(loaded.shapes) == {"pedestrian", "car"}
        assert np.allclose(loaded.shapes["car"].weights, one_hot(3).weights)
        assert loaded.sample_counts["pedestrian"] == 12

    def test_missing_class_is_none(self):
        assert BenchmarkShapeRegistry().get("car") is None


class TestDescriptorValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            ShapeDescriptor(np.ones(4) / 4)

    def test_negative_weight(self):
        w = np.full(9, 0.2)
        w[0] = -0.6
        with pytest.raises(ValueError):
            ShapeDescriptor(w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, bad):
        w = np.full(9, 1 / 9)
        w[3] = bad
        with pytest.raises(ValueError, match="finite"):
            ShapeDescriptor(w)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ShapeFilterConfig(sigmoid_gain=0.0)
        with pytest.raises(ValueError):
            ShapeFilterConfig(kl_smoothing=0.0)


def score_fields(score):
    return repr((score.pre_rotation_score, score.post_rotation_score,
                 score.rotation_deg, score.rotation_rejected))


@st.composite
def pixel_sets(draw):
    """All-identical sets, two-point sets, sets on a coarse grid (many
    duplicates, exactly symmetric shapes) and tilted ellipses (accepted
    rotations)."""
    kind = draw(st.sampled_from(["identical", "two", "grid", "ellipse"]))
    if kind == "identical":
        u, v = draw(st.floats(0, 640)), draw(st.floats(0, 480))
        return np.tile([[u, v]], (draw(st.integers(1, 6)), 1))
    if kind == "two":
        return np.array([[draw(st.floats(0, 640)), draw(st.floats(0, 480))]
                         for _ in range(2)])
    if kind == "grid":
        cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                              min_size=1, max_size=40))
        return 100.0 + 3.0 * np.array(cells, dtype=float)
    pts = vertical_ellipse(n=draw(st.integers(3, 120)),
                           seed=draw(st.integers(0, 1000)))
    return 300.0 + 20.0 * rotate(pts, draw(st.floats(-80.0, 80.0)))


# Point sets on the edges of the bounding-rectangle and degeneracy tests.
RECTANGLE_EDGES = {
    "empty": np.zeros((0, 2)),
    "one point": np.array([[3.0, 7.0]]),
    "coincident": np.array([[3.0, 7.0]] * 4),
    "constant u": np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0], [5.0, 2.5]]),
    "constant v": np.array([[1.0, 5.0], [2.0, 5.0], [4.0, 5.0], [2.5, 5.0]]),
}
AT_INFINITY = {
    "at +inf": np.array([[np.inf, 0.0]] * 3),
    "at -inf, +inf": np.array([[-np.inf, np.inf]] * 2),
}


def oracle_scores(sets, clusters, benchmarks, cfg):
    # The reference's own bounding rectangle of points at infinity
    # subtracts inf - inf, which warns; its score is still 0.
    with np.errstate(invalid="ignore"):
        return [oracles.score_candidate(pts, cluster, bench, cfg)
                for pts, cluster, bench in zip(sets, clusters, benchmarks)]


class TestScoreCandidatesMatchOracle:
    """score_candidates scores a stack of candidates as the reference
    version in oracles.py scores each one alone, float for float.

    Stacking keeps those bits only as follows (each rule was found by a
    stacked version that broke it):

    - a candidate's centroid is its own pts.sum(axis=0) / n: that sum
      adds the rows in order, and np.add.reduceat over the stack adds
      them in another order; over 1,000 random stacks of 1-24 segments
      of 2-299 rows, 11,312 of 12,145 segment sums differed;
    - c.T @ c / n runs per candidate on its contiguous slice of the
      stacked centered rows;
    - the angle is scalar math.atan2 and the sigmoid scalar math.exp:
      numpy's arctan2 and exp over the stack differ in the last bit on
      some crowd candidates (CHANGES.md);
    - the rotation product runs per candidate;
    - one np.linalg.eigh call on the (m, 2, 2) covariances equals one
      call per matrix.

    Bounds (minima and maxima), cells, smoothing and the KL terms and
    row sums are exact or elementwise, so they run over the stack.
    """

    @settings(deadline=None, max_examples=200)
    @given(sets=st.lists(
               pixel_sets() | st.sampled_from([*RECTANGLE_EDGES.values(),
                                               *AT_INFINITY.values()]),
               max_size=25),
           weights=st.lists(st.lists(st.floats(0.0, 1.0), min_size=9,
                                     max_size=9), min_size=2, max_size=2),
           second=st.lists(st.booleans(), min_size=25, max_size=25),
           gain=st.sampled_from([0.5, 1.0, 2.0]))
    @example(sets=[*RECTANGLE_EDGES.values(), *AT_INFINITY.values(),
                   100.0 + 3.0 * np.array([[0, 0], [1, 4], [2, 6]])],
             weights=[[1.0] * 9, [0.0] * 8 + [1.0]], second=[False, True] * 12
             + [False], gain=1.0)
    def test_matches_oracle(self, sets, weights, second, gain):
        benches = []
        for w in weights:
            w = np.array(w) + 1e-3
            benches.append(ShapeDescriptor(weights=w / w.sum()))
        per_candidate = [benches[b] for b in second[:len(sets)]]
        clusters = [CandidateCluster(member_indices=np.arange(len(pts)),
                                     center_range=10.0 + k)
                    for k, pts in enumerate(sets)]
        cfg = ShapeFilterConfig(sigmoid_gain=gain)
        got = score_candidates(*stacked(sets), clusters, per_candidate,
                               cfg)
        ref = oracle_scores(sets, clusters, per_candidate, cfg)
        assert [score_fields(s) for s in got] == \
            [score_fields(s) for s in ref]
        assert all(s.cluster is c for s, c in zip(got, clusters))
        assert len(got) == len(clusters)


class TestScoreCandidateMatchesOracle:
    """score_candidate equals the reference version in oracles.py, float
    for float, including degenerate and rejected candidates."""

    @settings(deadline=None, max_examples=300)
    @given(pts=pixel_sets(),
           weights=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
           gain=st.sampled_from([0.5, 1.0, 2.0]))
    @example(pts=np.array([[1.0, 1.0], [1.0, 1.0]]), weights=[1.0] * 9,
             gain=1.0)
    @example(pts=np.array([[1.0, 1.0], [1.0, 5.0]]), weights=[1.0] * 9,
             gain=1.0)
    def test_matches_oracle(self, pts, weights, gain):
        w = np.array(weights) + 1e-3
        bench = ShapeDescriptor(weights=w / w.sum())
        cfg = ShapeFilterConfig(sigmoid_gain=gain)
        cand = CandidateCluster(member_indices=np.arange(len(pts)),
                                center_range=12.5)
        got = score_candidate(pts, cand, bench, cfg)
        ref = oracles.score_candidate(pts, cand, bench, cfg)
        assert score_fields(got) == score_fields(ref)
        assert got.cluster is cand

    @pytest.mark.parametrize("pts", RECTANGLE_EDGES.values(),
                             ids=RECTANGLE_EDGES.keys())
    def test_bounding_rectangle_edges(self, pts):
        # The degenerate test and the pre-rotation cells both read the
        # points' bounding rectangle; a span of 0 in one or both columns
        # scores as the oracle does.
        bench = ShapeDescriptor(weights=np.full(9, 1 / 9))
        cand = CandidateCluster(member_indices=np.arange(len(pts)),
                                center_range=12.5)
        cfg = ShapeFilterConfig()
        got = score_candidate(pts, cand, bench, cfg)
        ref = oracles.score_candidate(pts, cand, bench, cfg)
        assert score_fields(got) == score_fields(ref)

    @pytest.mark.parametrize("pts", AT_INFINITY.values(),
                             ids=AT_INFINITY.keys())
    def test_coincident_at_infinity_is_degenerate(self, pts):
        # score_candidate and principal_axis_angle share one test for
        # fewer than 2 distinct rows; rows that coincide at infinity are
        # equal, though their span inf - inf is NaN.
        cand = CandidateCluster(member_indices=np.arange(len(pts)),
                                center_range=12.5)
        got = score_candidate(pts, cand,
                              ShapeDescriptor(weights=np.full(9, 1 / 9)),
                              ShapeFilterConfig())
        assert score_fields(got) == repr((0.0, 0.0, 0.0, False))
        with pytest.raises(DegenerateCluster):
            principal_axis_angle(pts)
