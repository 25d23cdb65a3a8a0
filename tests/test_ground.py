"""RANSAC ground-plane fitting and removal."""

import math

import numpy as np
import pytest

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
        normal, offset = _fit_plane_lsq(cloud)
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


class TestFitGroundPlane:
    def test_exact_plane(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform([0, -10], [50, 10], size=(100, 2))
        cloud = np.column_stack([xy, np.zeros(100)])
        model = fit_ground_plane(cloud, RansacPlaneConfig(), seed=0)
        assert abs(model.offset) < 1e-9
        assert np.allclose(model.normal, [0, 0, 1], atol=1e-9)
        assert model.inlier_count == 100

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
        assert m1.inlier_count == m2.inlier_count


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
