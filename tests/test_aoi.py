"""Bounding-box enlargement and AOI membership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probfusion.aoi import BoundingBox, EnlargeRatios, enlarge_aoi
from probfusion.pipeline import _box_members

from conftest import make_box


class TestEnlargeAoi:
    def test_full_left_right_enlargement(self, intr):
        box = make_box(100, 50, 200, 150)
        big = enlarge_aoi(box, EnlargeRatios(left=1.0, right=1.0,
                                             up=0.0, down=0.0), intr)
        assert (big.u_min, big.u_max) == (0.0, 300.0)
        assert (big.v_min, big.v_max) == (50.0, 150.0)

    def test_zero_ratios_identity(self, intr):
        box = make_box(100, 50, 200, 150)
        big = enlarge_aoi(box, EnlargeRatios(0, 0, 0, 0), intr)
        assert (big.u_min, big.v_min, big.u_max, big.v_max) == \
            (box.u_min, box.v_min, box.u_max, box.v_max)

    def test_clamped_to_image(self, intr):
        box = make_box(600, 0.0 + 1e-9, 640, 100)
        big = enlarge_aoi(box, EnlargeRatios(left=0.0, right=1.0,
                                             up=0.0, down=0.0), intr)
        assert big.u_max == 640.0

    @pytest.mark.parametrize("edges", [(700, 50, 750, 150),
                                       (-200, 50, -130, 150),
                                       (100, 500, 200, 560)])
    def test_no_area_inside_image_is_none(self, intr, edges):
        # Right of, left of and below the 640 x 480 image, by more than
        # the enlargement reaches.
        assert enlarge_aoi(make_box(*edges), EnlargeRatios(), intr) is None

    def test_metadata_preserved(self, intr):
        box = make_box(class_label="pedestrian", object_id=7)
        big = enlarge_aoi(box, EnlargeRatios(), intr)
        assert big.class_label == "pedestrian"
        assert big.object_id == 7

    @given(u0=st.floats(0, 500), du=st.floats(1, 139),
           v0=st.floats(0, 300), dv=st.floats(1, 179),
           r1=st.tuples(*[st.floats(0, 2)] * 4),
           extra=st.tuples(*[st.floats(0, 2)] * 4))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_and_clamping(self, u0, du, v0, dv, r1, extra):
        from probfusion.calib import CameraIntrinsics
        intr = CameraIntrinsics(fx=500.0, fy=500.0, ox=320.0, oy=240.0,
                                width=640, height=480)
        box = make_box(u0, v0, u0 + du, v0 + dv)
        small = enlarge_aoi(box, EnlargeRatios(*r1), intr)
        r2 = tuple(a + b for a, b in zip(r1, extra))
        big = enlarge_aoi(box, EnlargeRatios(*r2), intr)
        # A bigger enlargement never shrinks the region.
        assert big.u_min <= small.u_min and big.u_max >= small.u_max
        assert big.v_min <= small.v_min and big.v_max >= small.v_max
        for b in (small, big):
            assert 0.0 <= b.u_min < b.u_max <= 640.0
            assert 0.0 <= b.v_min < b.v_max <= 480.0


class TestContainment:
    def test_half_open_edges(self):
        box = make_box(100, 50, 200, 150)
        uv = np.array([[100.0, 50.0], [200.0, 100.0], [150.0, 150.0],
                       [199.999, 149.999]])
        assert box.mask(uv).tolist() == [True, False, False, True]

    def test_nan_rows_outside(self):
        box = make_box(100, 50, 200, 150)
        uv = np.array([[np.nan, np.nan], [150.0, np.nan], [np.nan, 100.0],
                       [150.0, 100.0]])
        assert box.mask(uv).tolist() == [False, False, False, True]

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            make_box(200, 50, 100, 150)
        with pytest.raises(ValueError):
            make_box(class_label="bicycle")


class TestCollectAoiPoints:
    """Membership through BoundingBox.mask on a 10 x 10 pixel grid."""

    def _grid(self):
        u, v = np.meshgrid(np.linspace(32, 608, 10), np.linspace(24, 456, 10),
                           indexing="ij")
        return np.column_stack([u.ravel(), v.ravel()])

    def test_empty_membership(self):
        uv = self._grid()
        assert not make_box(620, 470, 639, 479).mask(uv).any()

    def test_singleton_center(self):
        box = make_box(100, 50, 200, 150)
        mask = box.mask(np.array([[150.0, 100.0]]))
        assert mask.tolist() == [True]

    def test_quadrant_brute_force(self):
        uv = self._grid()
        box = make_box(0.0 + 1e-12, 0.0 + 1e-12, 320.0, 240.0)
        expected = [i for i, (u, v) in enumerate(uv)
                    if box.u_min <= u < box.u_max
                    and box.v_min <= v < box.v_max]
        assert np.nonzero(box.mask(uv))[0].tolist() == expected
        assert len(expected) > 0

    def test_monotone_under_enlargement(self, intr):
        uv = self._grid()
        box = make_box(100, 50, 300, 250)
        small = box.mask(uv)
        big = enlarge_aoi(box, EnlargeRatios(0.5, 0.5, 0.5, 0.5), intr).mask(uv)
        assert small.any()
        assert not (small & ~big).any()


class TestBoxMembers:
    """Box membership taken in one pass over the rows in the rectangle
    around the boxes equals the whole-frame membership, for boxes in and
    beyond a 640 x 480 image, None boxes and no rows at all."""

    @given(data=st.data(), n_boxes=st.integers(0, 4), n=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_members_equal_whole_frame_masks(self, data, n_boxes, n):
        boxes = []
        for _ in range(n_boxes):
            if data.draw(st.booleans()):
                boxes.append(None)
                continue
            u0 = data.draw(st.floats(-200, 700))
            v0 = data.draw(st.floats(-200, 540))
            du = data.draw(st.floats(0.5, 400))
            dv = data.draw(st.floats(0.5, 300))
            boxes.append(make_box(u0, v0, u0 + du, v0 + dv))
        real = [box for box in boxes if box is not None]
        coord = st.floats(-300, 800) | st.just(np.nan)
        uv = np.array(data.draw(st.lists(st.tuples(coord, coord),
                                         min_size=n, max_size=n)),
                      dtype=float).reshape(n, 2)
        # Every pairing of box edges, the floats just below them and
        # NaN tests the half-open bounds; NaN rows are never members.
        edges_u = [x for b in real for e in (b.u_min, b.u_max)
                   for x in (e, np.nextafter(e, -np.inf))] + [np.nan]
        edges_v = [x for b in real for e in (b.v_min, b.v_max)
                   for x in (e, np.nextafter(e, -np.inf))] + [np.nan]
        grid = np.array([(a, b) for a in edges_u for b in edges_v])
        uv = np.vstack([uv, grid])
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                            max_size=n)) + [True] * len(grid),
                         dtype=bool)
        if data.draw(st.booleans(), label="no rows"):
            valid[:] = False
        cloud = np.random.default_rng(n).uniform(-100, 100, (len(uv), 3))
        members = _box_members(cloud, uv, np.flatnonzero(valid), boxes)
        assert len(members) == len(boxes)
        for box, (idx, ranges) in zip(boxes, members):
            inside = (valid & box.mask(uv) if box is not None
                      else np.zeros(len(uv), dtype=bool))
            assert idx.dtype.kind == "i"
            assert np.array_equal(idx, np.flatnonzero(inside))
            assert ranges.tobytes() == np.hypot(cloud[inside, 0],
                                                cloud[inside, 1]).tobytes()
