"""RANSAC ground-plane fitting and removal."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from probfusion import ground as ground_module
from probfusion.errors import InsufficientPoints, NoAcceptablePlane
from probfusion.ground import (RansacPlaneConfig, _fit_plane_lsq, crop_mask,
                               fit_ground_plane, ground_mask, min_inlier_count,
                               required_trials)


def make_plane_scene(n_ground=500, n_object=50, sigma=0.02, seed=0):
    """Ground near z=0 plus object points well above it, with labels."""
    rng = np.random.default_rng(seed)
    gxy = rng.uniform([1, -10], [60, 10], size=(n_ground, 2))
    gz = rng.normal(0.0, sigma, n_ground)
    ground = np.column_stack([gxy, gz])
    oxy = rng.uniform([5, -5], [40, 5], size=(n_object, 2))
    oz = rng.uniform(0.5, 2.0, n_object)
    objects = np.column_stack([oxy, oz])
    cloud = np.vstack([ground, objects])
    labels = np.concatenate([np.zeros(n_ground, dtype=int),
                             np.ones(n_object, dtype=int)])
    return cloud, labels


class TestRequiredTrials:
    def test_default_parameters(self):
        # ln(0.01) / ln(1 - 0.8^6) = 15.08..., ceil -> 16
        assert required_trials(0.99, 0.2, 6) == 16

    def test_no_outliers_needs_one_trial(self):
        assert required_trials(0.99, 0.0, 1) == 1

    def test_half_outliers(self):
        # ln(0.01) / ln(1 - 0.5^3) = 34.49..., ceil -> 35
        assert required_trials(0.99, 0.5, 3) == 35

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_probability(self, p):
        with pytest.raises(ValueError):
            required_trials(p, 0.2, 6)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            required_trials(0.99, 1.0, 6)


class TestMinInlierCount:
    def test_default_parameters(self):
        assert min_inlier_count(0.2, 1000) == 800

    def test_zero_eps_keeps_all(self):
        assert min_inlier_count(0.0, 137) == 137

    def test_empty_cloud(self):
        assert min_inlier_count(0.2, 0) == 0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            min_inlier_count(0.2, -1)


class TestCrop:
    def test_point_beyond_length_removed(self):
        cfg = RansacPlaneConfig()
        assert crop_mask(np.array([[100.0, 0.0, 0.0]]), cfg).tolist() == [False]

    def test_forward_point_kept(self):
        cfg = RansacPlaneConfig()
        assert crop_mask(np.array([[10.0, 0.0, 0.0]]), cfg).tolist() == [True]

    def test_mixed_cloud_order_preserved(self):
        cfg = RansacPlaneConfig()
        cloud = np.array([
            [10.0, 0.0, 0.0],
            [80.0, 0.0, 0.0],   # beyond forward bound
            [20.0, 5.0, 1.0],
            [30.0, 20.0, 0.0],  # beyond lateral bound
            [-1.0, 0.0, 0.0],   # behind the sensor
        ])
        assert crop_mask(cloud, cfg).tolist() == \
            [True, False, True, False, False]


def svd_plane(points):
    """Reference least-squares plane: the smallest right singular vector
    of the centered points, pointing up."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1] / np.linalg.norm(vt[-1])
    if normal[2] < 0:
        normal = -normal
    return normal, float(normal @ centroid)


class TestFitPlaneLsq:
    @pytest.mark.parametrize("n", [6, 120_000])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_svd_oracle(self, n, seed):
        # A tilted plane with noise near the inlier band's edge.
        rng = np.random.default_rng(seed)
        xy = rng.uniform([0, -15], [70, 15], size=(n, 2))
        z = 0.03 * xy[:, 0] - 0.02 * xy[:, 1] - 1.7 + rng.normal(0, 0.15, n)
        cloud = np.column_stack([xy, z])
        delta = RansacPlaneConfig().delta
        normal, offset = _fit_plane_lsq(cloud.copy())
        ref_normal, ref_offset = svd_plane(cloud)
        assert np.max(np.abs(normal - ref_normal)) <= 1e-12
        assert abs(offset - ref_offset) <= 1e-10
        count = np.count_nonzero(np.abs(cloud @ normal - offset) <= delta)
        ref_count = np.count_nonzero(
            np.abs(cloud @ ref_normal - ref_offset) <= delta)
        assert count == ref_count

    def test_identical_points_fail_cone(self):
        # No plane runs through one point; the normal it gets must not
        # pass for a ground normal, whether or not the mean of the
        # coordinates rounds.
        cone = math.cos(math.radians(RansacPlaneConfig().normal_cone_deg))
        points = np.random.default_rng(0).uniform([0, -15, -2], [70, 15, 1],
                                                  size=(300, 3))
        for point in [[12.0, -3.0, 0.5], *points]:
            normal, _ = _fit_plane_lsq(np.tile(point, (6, 1)))
            assert np.isfinite(normal).all()
            assert normal[2] < cone


def same_plane(normal, offset, ref_normal, ref_offset):
    """Whether two (normal, offset) planes are equal, bit for bit."""
    return (normal.shape == ref_normal.shape
            and normal.tobytes() == ref_normal.tobytes()
            and np.float64(offset).tobytes() ==
            np.float64(ref_offset).tobytes())


@st.composite
def trial_stacks(draw):
    """A (trials, n_sample, 3) stack of trial samples: scattered points,
    points near a tilted ground plane, samples of one repeated point and
    samples with repeated rows."""
    n_sample = draw(st.integers(3, 10))
    n_trials = draw(st.integers(1, 20))
    extent = draw(st.sampled_from([70.0, 1e3, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy = rng.uniform([0.0, -extent / 4], [extent, extent / 4],
                     size=(n_trials, n_sample, 2))
    z = (0.01 * xy[..., 0] - 0.02 * xy[..., 1] - 1.7
         + rng.normal(0.0, draw(st.sampled_from([0.0, 0.02, 2.0])),
                      (n_trials, n_sample)))
    stack = np.concatenate([xy, z[..., None]], axis=-1)
    kinds = draw(st.lists(st.sampled_from(["as drawn", "one point",
                                           "repeated rows"]),
                          min_size=n_trials, max_size=n_trials))
    for t, kind in enumerate(kinds):
        if kind == "one point":
            stack[t] = stack[t, 0]
        elif kind == "repeated rows":
            stack[t] = stack[t, rng.integers(0, 2, n_sample)]
    return stack


class TestFitPlaneStack:
    """Each plane of a stacked fit is the plane that oracles.py fits to
    its sample alone, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(trial_stacks())
    def test_trial_by_trial(self, stack):
        normals, offsets = _fit_plane_lsq(stack.copy())
        assert normals.shape == (len(stack), 3)
        assert offsets.shape == (len(stack),)
        for t, sample in enumerate(stack):
            ref_normal, ref_offset = oracles._fit_plane_lsq(sample)
            assert same_plane(normals[t], offsets[t], ref_normal,
                              ref_offset), t

    @pytest.mark.parametrize("seed", range(3))
    def test_refit_of_a_full_sweep(self, seed):
        # The refit is a stack of one set of about 120k points.
        cloud, _ = make_plane_scene(n_ground=120_000, n_object=300,
                                    seed=seed)
        normals, offsets = _fit_plane_lsq(cloud[None].copy())
        ref_normal, ref_offset = oracles._fit_plane_lsq(cloud)
        assert same_plane(normals[0], offsets[0], ref_normal, ref_offset)


class TestFitGroundPlane:
    def test_exact_plane(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform([0, -10], [50, 10], size=(100, 2))
        cloud = np.column_stack([xy, np.zeros(100)])
        model = fit_ground_plane(cloud, RansacPlaneConfig(), seed=0)
        assert abs(model.offset) < 1e-9
        assert np.allclose(model.normal, [0, 0, 1], atol=1e-9)
        assert np.count_nonzero(model.inliers) == 100

    def test_noisy_scene_recovers_plane(self):
        cloud, labels = make_plane_scene()
        model = fit_ground_plane(cloud, RansacPlaneConfig(), seed=0)
        angle = np.degrees(np.arccos(np.clip(model.normal[2], -1, 1)))
        assert angle < 1.0
        assert abs(model.offset) <= 0.05

    def test_removal_counts(self):
        cloud, labels = make_plane_scene()
        cfg = RansacPlaneConfig()
        model = fit_ground_plane(cloud, cfg, seed=0)
        removed = ground_mask(cloud, model, cfg.delta)
        ground_removed = removed[labels == 0].mean()
        object_kept = (~removed[labels == 1]).mean()
        assert ground_removed >= 0.95
        assert object_kept >= 0.99

    def test_too_few_points(self):
        cloud = np.zeros((5, 3))
        with pytest.raises(InsufficientPoints):
            fit_ground_plane(cloud, RansacPlaneConfig(n_sample=6))

    def test_no_dominant_plane(self):
        # Two equal planes: neither reaches the 80 % inlier floor.
        rng = np.random.default_rng(2)
        xy = rng.uniform([0, -10], [50, 10], size=(200, 2))
        cloud = np.column_stack([xy, np.repeat([0.0, 10.0], 100)])
        with pytest.raises(NoAcceptablePlane):
            fit_ground_plane(cloud, RansacPlaneConfig(), seed=0)

    def test_determinism(self):
        cloud, _ = make_plane_scene(seed=5)
        cfg = RansacPlaneConfig()
        m1 = fit_ground_plane(cloud, cfg, seed=42)
        m2 = fit_ground_plane(cloud, cfg, seed=42)
        assert np.array_equal(m1.normal, m2.normal)
        assert m1.offset == m2.offset
        assert np.count_nonzero(m1.inliers) == np.count_nonzero(m2.inliers)


class TestRemoveGround:
    def test_partition(self):
        cloud, _ = make_plane_scene(seed=3)
        cfg = RansacPlaneConfig()
        model = fit_ground_plane(cloud, cfg, seed=0)
        mask = ground_mask(cloud, model, cfg.delta)
        kept, removed = cloud[~mask], cloud[mask]
        assert len(kept) + len(removed) == len(cloud)
        assert 0 < len(removed) < len(cloud)

    def test_distance_predicate(self):
        cloud, _ = make_plane_scene(seed=4)
        cfg = RansacPlaneConfig()
        model = fit_ground_plane(cloud, cfg, seed=0)
        mask = ground_mask(cloud, model, cfg.delta)
        dist = np.abs(cloud @ model.normal - model.offset)
        assert np.array_equal(mask, dist <= cfg.delta)

    def test_fit_inliers_are_the_mask_of_the_fitted_cloud(self):
        cloud, _ = make_plane_scene(seed=4)
        cfg = RansacPlaneConfig()
        model = fit_ground_plane(cloud, cfg, seed=0)
        mask = ground_mask(cloud, model, cfg.delta)
        assert model.inliers.tobytes() == mask.tobytes()
        assert np.count_nonzero(model.inliers) == np.count_nonzero(mask)

    def test_near_plane_point_removed_far_point_kept(self):
        model = fit_ground_plane(
            np.column_stack([np.random.default_rng(0).uniform(0, 50, (50, 2)),
                             np.zeros(50)]),
            RansacPlaneConfig(), seed=0)
        cloud = np.array([[10.0, 0.0, 0.1], [10.0, 0.0, 1.0]])
        assert ground_mask(cloud, model, 0.2).tolist() == [True, False]


class TestConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            RansacPlaneConfig(delta=0.0)

    def test_bad_n_sample(self):
        with pytest.raises(ValueError):
            RansacPlaneConfig(n_sample=2)

    def test_fractional_n_sample(self):
        with pytest.raises(ValueError, match="n_sample"):
            RansacPlaneConfig(n_sample=4.5)

    @pytest.mark.parametrize("cone", [-30.0, 0.0, 90.5, float("nan")])
    def test_cone_outside_0_90(self, cone):
        with pytest.raises(ValueError, match="normal_cone_deg"):
            RansacPlaneConfig(normal_cone_deg=cone)

    def test_right_angle_cone_allowed(self):
        assert RansacPlaneConfig(normal_cone_deg=90).normal_cone_deg == 90


def fit_outcome(fit, cloud, cfg, seed):
    """(normal bytes, offset, inlier mask bytes) of a fit, or its
    exception type."""
    try:
        model = fit(cloud, cfg, seed)
    except (InsufficientPoints, NoAcceptablePlane) as exc:
        return type(exc)
    return model.normal.tobytes(), model.offset, model.inliers.tobytes()


def trial_planes(cloud, cfg, seed):
    """The (sample, normal, offset) of every trial of a fit of cloud, in
    draw order: the draws depend only on the cloud's size and the seed."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(required_trials(cfg.p, cfg.eps, cfg.n_sample)):
        sample = rng.choice(len(cloud), size=cfg.n_sample, replace=False)
        planes.append((sample, *oracles._fit_plane_lsq(cloud[sample])))
    return planes


def place_at_band_edge(cloud, row, normal, offset, delta, inside):
    """Move cloud[row] along z to the last computed distance <= delta
    (inside) or the first one > delta from the plane, within 16 ulps."""
    x, y = cloud[row, :2]
    for sign in (1.0, -1.0):
        z0 = ((offset + sign * delta - normal[0] * x - normal[1] * y)
              / normal[2])
        zs = z0 + np.arange(-16, 17) * np.spacing(z0)
        dist = np.abs(np.column_stack([np.full(33, x), np.full(33, y), zs])
                      @ normal - offset)
        pick = np.flatnonzero(dist <= delta if inside else dist > delta)
        if len(pick):
            # The candidate nearest delta on the wanted side.
            cloud[row, 2] = zs[pick[np.argmin(np.abs(dist[pick] - delta))]]
            return


@st.composite
def ground_clouds(draw):
    """A tilted ground plane with objects above it, and the seed to fit it."""
    n = draw(st.integers(6, 5_000))
    share = draw(st.floats(0.0, 0.6))
    placement = draw(st.sampled_from(["first", "last", "interleaved"]))
    extent = draw(st.sampled_from([70.0, 1e3, 1e4]))
    noise = draw(st.sampled_from([0.0, 0.02, 0.1]))
    repeats = draw(st.sampled_from([0.0, 0.3]))
    n_sample = draw(st.sampled_from([3, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = RansacPlaneConfig(n_sample=n_sample)
    n_out = min(round(share * n), n)
    xy = rng.uniform([0.0, -extent / 4], [extent, extent / 4], size=(n, 2))
    z = 0.01 * xy[:, 0] - 0.02 * xy[:, 1] - 1.7 + rng.normal(0, noise, n)
    cloud = np.column_stack([xy, z])
    objects = {"first": np.arange(n_out), "last": np.arange(n - n_out, n),
               "interleaved": np.linspace(0, n - 1, n_out).astype(int)}
    cloud[objects[placement], 2] += rng.uniform(0.5, 3.0, n_out)
    if repeats:
        copies = rng.choice(n, size=int(repeats * n), replace=True)
        cloud[copies] = cloud[rng.choice(n, size=len(copies))]
    seed = draw(st.integers(0, 1000))
    # Points at the band edge of a few trial planes, the oracle's winner
    # among them, off the trial samples so the planes stay as they are.
    planes = trial_planes(cloud, cfg, seed)
    drawn = np.concatenate([s for s, _, _ in planes])
    free = np.setdiff1d(np.arange(n), drawn)
    edge = rng.permutation(free)[:draw(st.integers(0, 24))]
    cone = math.cos(math.radians(cfg.normal_cone_deg))
    upright = [(nrm, off) for _, nrm, off in planes if nrm[2] >= cone]
    for i, row in enumerate(edge):
        if upright:
            nrm, off = upright[i % len(upright)]
            place_at_band_edge(cloud, row, nrm, off, cfg.delta,
                               inside=bool(rng.integers(2)))
    return cloud, cfg, seed


class TestFitMatchesOracle:
    """fit_ground_plane returns what the plain full-pass fit in oracles.py
    returns, bit for bit, or raises the same exception."""

    @settings(deadline=None, max_examples=150)
    @given(ground_clouds())
    def test_random_clouds(self, case):
        cloud, cfg, seed = case
        want = fit_outcome(oracles.fit_ground_plane, cloud, cfg, seed)
        assert fit_outcome(fit_ground_plane, cloud, cfg, seed) == want
        # The bail-out runs only on large clouds; run it on these too.
        with mock.patch.object(ground_module, "_worth_testing",
                               lambda n_points, n_suspects: True):
            assert fit_outcome(fit_ground_plane, cloud, cfg, seed) == want

    def test_full_sweep(self):
        cloud, _ = make_plane_scene(n_ground=120_000, n_object=300, seed=7)
        cfg = RansacPlaneConfig()
        for seed in (0, 1):
            assert fit_outcome(fit_ground_plane, cloud, cfg, seed) == \
                fit_outcome(oracles.fit_ground_plane, cloud, cfg, seed)

    def test_suspect_on_the_band_edge_of_a_later_trial(self):
        # Trial 0 fits z = 0 and trial 5 fits z = 0.125, exactly. Every
        # ground point lies in both bands; one more point lies 0.25 above
        # trial 5's plane, on its band edge, so trial 5 has one inlier
        # more and wins. A bail-out that took that point for certainly
        # out would keep trial 0's plane. One ulp higher, it is out.
        cfg = RansacPlaneConfig(delta=0.25)
        n, seed = 20_000, 0
        rng = np.random.default_rng(1)
        cloud = np.column_stack([rng.uniform(0, 60, n),
                                 rng.uniform(-10, 10, n),
                                 rng.uniform(-0.125, 0.25, n)])
        samples = [s for s, _, _ in trial_planes(cloud, cfg, seed)]
        drawn = np.concatenate(samples)
        others = np.concatenate(samples[:5] + samples[6:])
        assert len(np.intersect1d(samples[5], others)) == 0
        cloud[drawn, 2] = 0.0
        cloud[samples[5], 2] = 0.125
        free = np.setdiff1d(np.arange(n), drawn)
        cloud[free[:10], 2] += 2.0
        edge = free[10]
        planes = trial_planes(cloud, cfg, seed)
        for trial, offset in ((0, 0.0), (5, 0.125)):
            assert planes[trial][1].tolist() == [0.0, 0.0, 1.0]
            assert planes[trial][2] == offset
        outcomes = []
        for z in (0.375, np.nextafter(0.375, 1.0)):
            cloud[edge, 2] = z
            want = fit_outcome(oracles.fit_ground_plane, cloud, cfg, seed)
            assert fit_outcome(fit_ground_plane, cloud, cfg, seed) == want
            outcomes.append(want)
        # The edge point is refitted with trial 5's inliers, or not at all.
        assert outcomes[0][:2] != outcomes[1][:2]

    def test_full_sweep_trials_mostly_skip_their_pass(self, monkeypatch):
        # 16 trials, each a pass over the whole cloud without the
        # bail-out; counted up to the refit, the first fit of more points
        # than a trial sample.
        cloud, _ = make_plane_scene(n_ground=120_000, n_object=300, seed=7)
        cfg = RansacPlaneConfig()
        events = []
        distances, fit_lsq = (ground_module._plane_distances,
                              ground_module._fit_plane_lsq)

        def counting_distances(points, *args, **kwargs):
            if len(points) == len(cloud):
                events.append("pass")
            return distances(points, *args, **kwargs)

        def marking_fit(points, *args, **kwargs):
            if points.shape[-2] > cfg.n_sample:
                events.append("refit")
            return fit_lsq(points, *args, **kwargs)

        monkeypatch.setattr(ground_module, "_plane_distances",
                            counting_distances)
        monkeypatch.setattr(ground_module, "_fit_plane_lsq", marking_fit)
        fit_ground_plane(cloud, cfg, seed=0)
        assert required_trials(cfg.p, cfg.eps, cfg.n_sample) == 16
        assert "refit" in events
        assert events[:events.index("refit")].count("pass") <= 4
