"""Projection geometry and calibration file handling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probfusion.calib import (CameraIntrinsics, ExtrinsicTransform,
                              default_extrinsic, load_calibration,
                              project_xyz, save_calibration)
from probfusion.errors import CalibrationError


def project_one(intr, extr, point):
    """(u, v) of one point, or None when project_xyz marks it invalid."""
    uv, valid = project_xyz(intr, extr, np.array([point], dtype=float))
    return tuple(uv[0]) if valid[0] else None


def pinhole_oracle(intr, extr, point):
    """Scalar pinhole model written out by hand: (u, v) or None."""
    x, y, z = point
    r, t = extr.rotation, extr.translation
    xc = r[0][0] * x + r[0][1] * y + r[0][2] * z + t[0]
    yc = r[1][0] * x + r[1][1] * y + r[1][2] * z + t[1]
    zc = r[2][0] * x + r[2][1] * y + r[2][2] * z + t[2]
    if zc <= 1e-6:
        return None
    return intr.fx * xc / zc + intr.ox, intr.fy * yc / zc + intr.oy


class TestProjectPoint:
    def test_optical_axis_maps_to_principal_point(self, intr, identity_extr):
        assert project_one(intr, identity_extr, (0.0, 0.0, 5.0)) == \
            pytest.approx((320.0, 240.0))

    def test_off_axis_point(self, intr, identity_extr):
        # u = 320 + 500 * 1 / 5, v = 240 + 500 * 0.5 / 5
        assert project_one(intr, identity_extr, (1.0, 0.5, 5.0)) == \
            pytest.approx((420.0, 290.0))

    def test_behind_camera_is_absent(self, intr, identity_extr):
        assert project_one(intr, identity_extr, (0.0, 0.0, -1.0)) is None

    def test_zero_depth_is_absent(self, intr, identity_extr):
        assert project_one(intr, identity_extr, (1.0, 1.0, 0.0)) is None

    def test_out_of_image_points_still_returned(self, intr, identity_extr):
        u, _ = project_one(intr, identity_extr, (50.0, 0.0, 5.0))
        assert u > intr.width

    @given(st.floats(0.01, 1000.0),
           st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.1, 200.0))
    @settings(max_examples=50, deadline=None)
    def test_perspective_invariance(self, lam, x, y, z):
        intr = CameraIntrinsics(fx=500.0, fy=500.0, ox=320.0, oy=240.0,
                                width=640, height=480)
        extr = ExtrinsicTransform(rotation=np.eye(3), translation=np.zeros(3))
        a = project_one(intr, extr, (x, y, z))
        b = project_one(intr, extr, (lam * x, lam * y, lam * z))
        assert a is not None and b is not None
        assert abs(a[0] - b[0]) < 1e-9 * max(1.0, abs(a[0]))
        assert abs(a[1] - b[1]) < 1e-9 * max(1.0, abs(a[1]))


class TestForwardExtrinsic:
    def test_forward_point_hits_principal_point(self, intr, forward_extr):
        assert project_one(intr, forward_extr, (10.0, 0.0, 0.0)) == \
            pytest.approx((320.0, 240.0))

    def test_leftward_point_moves_left_in_image(self, intr, forward_extr):
        u, _ = project_one(intr, forward_extr, (10.0, 1.0, 0.0))
        assert u < intr.ox

    def test_upward_point_moves_up_in_image(self, intr, forward_extr):
        _, v = project_one(intr, forward_extr, (10.0, 0.0, 1.0))
        assert v < intr.oy


class TestProjectCloud:
    def test_empty_cloud(self, intr, identity_extr):
        uv, valid = project_xyz(intr, identity_extr, np.empty((0, 3)))
        assert uv.shape == (0, 2)
        assert valid.shape == (0,)

    def test_behind_camera_points_skipped(self, intr, identity_extr):
        cloud = np.array([[0, 0, 5], [0, 0, -5], [1, 0, 5]], dtype=float)
        uv, valid = project_xyz(intr, identity_extr, cloud)
        assert valid.tolist() == [True, False, True]
        assert np.all(np.isnan(uv[1]))

    def test_lateral_offsets_proportional_at_fixed_depth(self, intr, identity_extr):
        cloud = np.array([[x, 0.0, 5.0] for x in (0.0, 1.0, 2.0, 3.0)])
        uv, _ = project_xyz(intr, identity_extr, cloud)
        du = np.diff(uv[:, 0])
        assert np.allclose(du, du[0])

    def test_matches_per_point_projection(self, intr, forward_extr):
        # A point projects the same alone as inside a cloud.
        rng = np.random.default_rng(3)
        cloud = rng.uniform(-5, 40, size=(30, 3))
        uv, valid = project_xyz(intr, forward_extr, cloud)
        for i, point in enumerate(cloud):
            single = project_one(intr, forward_extr, point)
            assert (single is not None) == valid[i]
            if single is not None:
                assert single == pytest.approx(tuple(uv[i]))

    def test_vectorized_agrees_with_scalar(self, intr, forward_extr):
        rng = np.random.default_rng(4)
        xyz = rng.uniform(-5, 40, size=(40, 3))
        uv, valid = project_xyz(intr, forward_extr, xyz)
        expected = [pinhole_oracle(intr, forward_extr, p) for p in xyz]
        assert valid.tolist() == [e is not None for e in expected]
        assert 0 < valid.sum() < len(xyz)
        for i, e in enumerate(expected):
            if e is not None:
                assert tuple(uv[i]) == pytest.approx(e)
        assert np.all(np.isnan(uv[~valid]))


class TestValidation:
    def test_non_orthonormal_rotation_rejected(self):
        with pytest.raises(CalibrationError):
            ExtrinsicTransform(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_translation_rejected(self, bad):
        with pytest.raises(CalibrationError, match="translation"):
            ExtrinsicTransform(rotation=np.eye(3), translation=[0.0, bad, 0.0])

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(CalibrationError):
            ExtrinsicTransform(rotation=r, translation=np.zeros(3))

    def test_bad_focal_length(self):
        with pytest.raises(CalibrationError):
            CameraIntrinsics(fx=-1.0, fy=500.0, ox=320.0, oy=240.0,
                             width=640, height=480)

    def test_principal_point_outside_image(self):
        with pytest.raises(CalibrationError):
            CameraIntrinsics(fx=500.0, fy=500.0, ox=700.0, oy=240.0,
                             width=640, height=480)


class TestCalibrationFile:
    def test_round_trip(self, tmp_path, intr, forward_extr):
        from probfusion.calib import CalibrationPair
        path = tmp_path / "calib.json"
        save_calibration(path, CalibrationPair(intrinsics=intr,
                                               extrinsic=forward_extr))
        loaded = load_calibration(path)
        assert loaded.intrinsics == intr
        assert np.allclose(loaded.extrinsic.rotation, forward_extr.rotation)
        assert np.allclose(loaded.extrinsic.translation,
                           forward_extr.translation)

    def test_nonzero_distortion_rejected(self, tmp_path):
        payload = {
            "intrinsics": {"fx": 500.0, "fy": 500.0, "ox": 320.0, "oy": 240.0,
                           "width": 640, "height": 480},
            "extrinsic": {"rotation": list(np.eye(3).ravel()),
                          "translation": [0.0, 0.0, 0.0]},
            "distortion": [0.1, 0.0, 0.0, 0.0, 0.0],
        }
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError):
            load_calibration(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text('{"intrinsics": {"fx": 500.0}}')
        with pytest.raises(CalibrationError):
            load_calibration(path)
