"""Representative-point localization: position, range, median rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probfusion.cluster import planar_ranges
from probfusion.errors import EmptyCluster
from probfusion.localize import localize as localize_with_ranges
from probfusion.localize import representative_point


def localize(object_id, cluster_xyz):
    """localize with the cluster's planar ranges, as the pipeline passes
    them."""
    return localize_with_ranges(object_id, cluster_xyz,
                                planar_ranges(cluster_xyz))


class TestRepresentativePoint:
    def test_odd_median(self):
        assert representative_point([9.8, 10.0, 10.2]) == 1

    def test_majority_inliers_beat_stragglers(self):
        # 60 % of ranges near 10 m; median stays in the near group.
        idx = representative_point([9.8, 10.0, 10.2, 30.1, 30.2])
        assert idx == 2

    def test_even_lower_middle(self):
        assert representative_point([10.0, 12.0]) == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyCluster):
            representative_point([])

    def test_unsorted_input(self):
        assert representative_point([30.1, 10.0, 9.8, 30.2, 10.2]) == 4

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_median_membership(self, ranges):
        idx = representative_point(ranges)
        r = np.asarray(ranges)
        # At least half the values on each side of the representative.
        assert (r <= r[idx]).sum() >= (len(r) + 1) // 2
        assert (r >= r[idx]).sum() >= len(r) - (len(r) - 1) // 2

    def test_majority_band_guarantee(self):
        # If > 50 % of points lie within +-g of the true range, so does
        # the representative.
        rng = np.random.default_rng(0)
        for _ in range(50):
            true_r, g = 20.0, 0.5
            n_in = rng.integers(11, 20)
            n_out = rng.integers(0, n_in)  # strictly fewer contaminants
            inliers = rng.uniform(true_r - g, true_r + g, n_in)
            outliers = rng.uniform(1.0, 60.0, n_out)
            ranges = rng.permutation(np.concatenate([inliers, outliers]))
            rep = ranges[representative_point(ranges)]
            assert true_r - g <= rep <= true_r + g


class TestLocalize:
    def test_singleton(self):
        loc = localize(7, np.array([[3.0, 4.0, 1.0]]))
        assert loc.range_m == pytest.approx(5.0)
        assert (loc.x_m, loc.y_m) == (3.0, 4.0)
        assert loc.object_id == 7

    def test_identical_points(self):
        cluster = np.tile([[6.0, -8.0, 0.5]], (9, 1))
        loc = localize(1, cluster)
        assert loc.range_m == pytest.approx(10.0)
        assert loc.x_m == 6.0 and loc.y_m == -8.0

    def test_empty_raises(self):
        with pytest.raises(EmptyCluster):
            localize(1, np.zeros((0, 3)))

    def test_origin_cluster_localizes(self):
        # A driver's "no return" rows at (0, 0, 0) localize like any other
        # point; nothing about the planar origin is undefined.
        loc = localize(1, np.zeros((10, 3)))
        assert (loc.x_m, loc.y_m, loc.range_m) == (0.0, 0.0, 0.0)

    @given(x=st.floats(-100, 100), y=st.floats(0.001, 100))
    @settings(max_examples=50, deadline=None)
    def test_mirror_symmetry(self, x, y):
        # Mirroring the cluster across the x axis mirrors its location.
        cluster = np.array([[x, y, 0.0], [x + 1.0, y, 0.5], [x, y + 2.0, 1.0]])
        loc = localize(1, cluster)
        mirrored = localize(1, cluster * [1.0, -1.0, 1.0])
        assert (mirrored.x_m, mirrored.y_m, mirrored.range_m) == \
            (loc.x_m, -loc.y_m, loc.range_m)

    def test_internal_consistency(self):
        rng = np.random.default_rng(5)
        cluster = rng.uniform([5, -5, -1], [40, 5, 2], size=(31, 3))
        loc = localize(1, cluster)
        assert loc.range_m == pytest.approx(np.hypot(loc.x_m, loc.y_m),
                                            abs=1e-9)
        assert np.any(np.all(cluster[:, :2] == [loc.x_m, loc.y_m], axis=1))

    def test_given_ranges_pick_the_point(self):
        # The ranges the caller passes pick the representative and give
        # range_m; localize does not take them again from the points.
        cluster = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                            [3.0, 0.0, 0.0]])
        loc = localize_with_ranges(4, cluster, [30.0, 10.0, 20.0])
        assert (loc.x_m, loc.y_m, loc.range_m) == (3.0, 0.0, 20.0)

    @pytest.mark.parametrize("n_ranges", [0, 2, 4])
    def test_range_count_must_match(self, n_ranges):
        # One range per point, or the representative would index another
        # point than the one its range belongs to.
        cluster = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                            [3.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=f"{n_ranges} ranges for 3"):
            localize_with_ranges(4, cluster, np.arange(n_ranges, dtype=float))
