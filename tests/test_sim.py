"""Synthetic-scene generator: determinism, labeling, and error injection."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracles
from probfusion.calib import (DEPTH_EPSILON, LIDAR_TO_CAMERA_AXES,
                              CalibrationPair, ExtrinsicTransform,
                              project_xyz)
from probfusion.errors import InvalidSpec
from probfusion.sim import (CLUTTER_LABEL, DEFAULT_ERROR_MODEL, GROUND_LABEL,
                            ErrorModel, ObjectSpec, SceneSpec, Trajectory,
                            default_calibration, generate_scene,
                            inject_mapping_errors, load_scene_spec,
                            overtaking_scene, render_frame, save_scene_spec,
                            simulate_sequence)


def single_car_spec(x=15.0, y=0.0, **kwargs):
    car = ObjectSpec(object_id=1, class_label="car",
                     trajectory=Trajectory(x_coeffs=(x,), y_coeffs=(y,)))
    return SceneSpec(duration=0.1, frame_rate=10.0, objects=(car,), **kwargs)


class TestGenerateScene:
    def test_frame_count(self):
        spec = SceneSpec(duration=5.2, frame_rate=10.0)
        assert len(generate_scene(spec)) == 52

    def test_static_object_constant_pose(self):
        spec = single_car_spec()
        spec = SceneSpec(duration=1.0, frame_rate=10.0, objects=spec.objects)
        skels = generate_scene(spec)
        poses = {tuple(s.poses[1]) for s in skels}
        assert poses == {(15.0, 0.0)}

    def test_linear_trajectory_spacing(self):
        car = ObjectSpec(object_id=1, class_label="car",
                         trajectory=Trajectory(x_coeffs=(5.0, 10.0),
                                               y_coeffs=(0.0,)))
        spec = SceneSpec(duration=1.0, frame_rate=10.0, objects=(car,))
        skels = generate_scene(spec)
        xs = [s.poses[1][0] for s in skels]
        assert np.allclose(np.diff(xs), 1.0)

    def test_waypoint_trajectory(self):
        traj = Trajectory(kind="waypoints", times=(0.0, 1.0),
                          points=((0.0, 0.0), (10.0, 2.0)))
        assert traj.position(0.5) == (5.0, 1.0)

    def test_invalid_spec(self):
        car = ObjectSpec(object_id=1, class_label="car",
                         trajectory=Trajectory())
        for build in (
                lambda: SceneSpec(duration=-1.0),
                lambda: SceneSpec(frame_rate=0.0),
                lambda: dataclasses.replace(car, height=-1.0),
                lambda: dataclasses.replace(car, width=0),
                lambda: SceneSpec(rng_seed=-1),
                lambda: SceneSpec(rng_seed=1.5),
                lambda: SceneSpec(rng_seed=True),
                lambda: SceneSpec(duration=0.04, frame_rate=10.0),
                lambda: Trajectory(kind="spline"),
                lambda: dataclasses.replace(car, class_label="truck"),
                lambda: dataclasses.replace(car, object_id="x"),
                lambda: dataclasses.replace(car, object_id=GROUND_LABEL),
                lambda: dataclasses.replace(car, object_id=CLUTTER_LABEL),
                lambda: dataclasses.replace(car, object_id=2 ** 63),
                lambda: SceneSpec(objects=(car, car)),
                lambda: SceneSpec(n_ground_points="5"),
                lambda: SceneSpec(n_ground_points=-1),
                lambda: SceneSpec(n_ground_points=3000.0),
                lambda: SceneSpec(background_clutter=True),
                lambda: SceneSpec(min_object_points=2.5),
                lambda: SceneSpec(sensor_height="1.8"),
                lambda: SceneSpec(sensor_height=-0.1),
                lambda: SceneSpec(ground_noise_sigma=float("nan")),
                lambda: SceneSpec(ground_noise_sigma=False),
                lambda: SceneSpec(point_density=0.0),
                lambda: SceneSpec(point_density=float("inf")),
                lambda: SceneSpec(point_density=None)):
            with pytest.raises(InvalidSpec):
                build()


class TestRenderFrame:
    def test_labels_partition_cloud(self):
        spec = single_car_spec()
        frame = render_frame(generate_scene(spec)[0], spec,
                             default_calibration())
        assert len(frame.labels) == len(frame.cloud)
        valid_labels = {GROUND_LABEL, CLUTTER_LABEL, 1}
        assert set(np.unique(frame.labels)) <= valid_labels

    def test_object_behind_camera_keeps_points_loses_box(self):
        spec = single_car_spec(x=-10.0)
        frame = render_frame(generate_scene(spec)[0], spec,
                             default_calibration())
        assert (frame.labels == 1).sum() > 0
        assert frame.gt_object_pixel_boxes[1] is None
        assert frame.detections == []

    def test_point_count_falls_off_with_range(self):
        near = single_car_spec(x=10.0)
        far = single_car_spec(x=20.0)
        calib = default_calibration()
        n_near = (render_frame(generate_scene(near)[0], near, calib)
                  .labels == 1).sum()
        n_far = (render_frame(generate_scene(far)[0], far, calib)
                 .labels == 1).sum()
        assert n_near >= 2 * n_far

    def test_gt_ranges_consistent_with_poses(self):
        spec = overtaking_scene()
        frame = render_frame(generate_scene(spec)[0], spec,
                             default_calibration())
        for pose in frame.gt_poses.values():
            assert pose["range"] == pytest.approx(
                math.hypot(pose["x"], pose["y"]))

    def test_determinism(self):
        spec = overtaking_scene(rng_seed=3)
        calib = default_calibration()
        skel = generate_scene(spec)[5]
        f1 = render_frame(skel, spec, calib)
        f2 = render_frame(skel, spec, calib)
        assert np.array_equal(f1.cloud, f2.cloud)
        assert np.array_equal(f1.labels, f2.labels)

    def test_detection_boxes_inside_image(self):
        spec = overtaking_scene()
        calib = default_calibration()
        for skel in generate_scene(spec)[::10]:
            frame = render_frame(skel, spec, calib)
            for det in frame.detections:
                assert 0.0 <= det.u_min < det.u_max <= calib.intrinsics.width
                assert 0.0 <= det.v_min < det.v_max <= calib.intrinsics.height


class TestInjectMappingErrors:
    def _frame(self):
        spec = single_car_spec()
        return render_frame(generate_scene(spec)[0], spec,
                            default_calibration())

    def test_zero_model_is_identity(self):
        frame = self._frame()
        out = inject_mapping_errors(frame, ErrorModel())
        assert np.array_equal(out.observed_uv[out.uv_valid],
                              frame.ideal_uv[frame.uv_valid])
        assert out.pixel_shift == (0.0, 0.0)
        assert len(out.detections) == len(frame.detections)

    def test_shift_recorded_per_point(self):
        frame = self._frame()
        out = inject_mapping_errors(
            frame, ErrorModel(pixel_shift_halfwidth=(40.0, 12.0)))
        # One synchronization-style shift per frame, shared by all points.
        du, dv = out.pixel_shift
        assert abs(du) <= 40.0 and abs(dv) <= 12.0
        assert np.allclose(out.observed_uv[out.uv_valid],
                           frame.ideal_uv[frame.uv_valid] + (du, dv))

    def test_ground_truth_untouched(self):
        frame = self._frame()
        out = inject_mapping_errors(
            frame, ErrorModel(pixel_shift_halfwidth=(40.0, 12.0),
                              detection_jitter_px=3.0))
        assert np.array_equal(out.cloud, frame.cloud)
        assert np.array_equal(out.labels, frame.labels)
        assert out.gt_poses == frame.gt_poses
        assert out.gt_object_pixel_boxes == frame.gt_object_pixel_boxes
        assert np.array_equal(out.ideal_uv, frame.ideal_uv)

    def test_full_dropout_removes_detections(self):
        frame = self._frame()
        out = inject_mapping_errors(frame, ErrorModel(dropout=1.0))
        assert out.detections == []

    def test_invalid_dropout(self):
        with pytest.raises(InvalidSpec):
            ErrorModel(dropout=1.5)

    @pytest.mark.parametrize("fields, message", [
        ({"pixel_shift_halfwidth": (math.nan, 0.0)},
         "pixel_shift_halfwidth[0] must be a finite number, got nan"),
        ({"pixel_shift_halfwidth": (-40.0, 12.0)},
         "pixel_shift_halfwidth[0] must be a finite number >= 0, got -40.0"),
        ({"pixel_shift_halfwidth": (40.0,)},
         "pixel_shift_halfwidth is (40.0,), not a (u, v) pair"),
        ({"detection_jitter_px": -2},
         "detection_jitter_px must be a finite number >= 0, got -2"),
        ({"dropout": math.inf},
         "dropout must be a finite number >= 0 and <= 1, got inf"),
    ], ids=["shift-nan", "shift-negative", "shift-one", "jitter-negative",
            "dropout-inf"])
    def test_invalid_field_names_it(self, fields, message):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            ErrorModel(**fields)


class TestSimulateSequence:
    def test_end_to_end_determinism(self):
        spec = overtaking_scene(rng_seed=7, duration=0.5)
        calib = default_calibration()
        err = ErrorModel(pixel_shift_halfwidth=(40.0, 12.0))
        s1 = simulate_sequence(spec, calib, err)
        s2 = simulate_sequence(spec, calib, err)
        assert len(s1) == len(s2) == 5
        for a, b in zip(s1, s2):
            assert np.array_equal(a.cloud, b.cloud)
            assert np.array_equal(a.observed_uv, b.observed_uv)

    def test_different_seeds_differ(self):
        calib = default_calibration()
        a = simulate_sequence(overtaking_scene(rng_seed=1, duration=0.2),
                              calib)[0]
        b = simulate_sequence(overtaking_scene(rng_seed=2, duration=0.2),
                              calib)[0]
        assert not np.array_equal(a.cloud, b.cloud)


class TestSceneSpecIo:
    def test_round_trip(self, tmp_path):
        spec = overtaking_scene(rng_seed=4)
        path = tmp_path / "scene.json"
        save_scene_spec(path, spec)
        loaded = load_scene_spec(path)
        assert loaded == spec


def frame_fields(frame) -> dict:
    """Every field of a simulated frame: arrays as dtype, shape and
    bytes, everything else as its repr."""
    return {name: ((value.dtype.str, value.shape, value.tobytes())
                   if isinstance(value, np.ndarray) else repr(value))
            for name, value in vars(frame).items()}


def rotated_calibration(translation) -> CalibrationPair:
    """The default camera turned 0.3 rad about its optical axis and moved
    by translation. The optical axis stays the LiDAR x axis, so a
    point's depth is its x plus translation[2], exactly."""
    c, s = math.cos(0.3), math.sin(0.3)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return CalibrationPair(
        intrinsics=default_calibration().intrinsics,
        extrinsic=ExtrinsicTransform(rotation=turn @ LIDAR_TO_CAMERA_AXES,
                                     translation=np.asarray(translation)))


class TestMatchesOracle:
    """simulate_sequence, render_frame, inject_mapping_errors and
    project_xyz give what their reference versions in oracles.py give,
    byte for byte."""

    @staticmethod
    def assert_same_frames(spec, calib, err):
        got = simulate_sequence(spec, calib, err)
        ref = oracles.simulate_sequence(spec, calib, err)
        assert len(got) == len(ref) == spec.n_frames
        for a, b in zip(got, ref):
            assert frame_fields(a) == frame_fields(b)
        return got

    @pytest.mark.parametrize("err", [ErrorModel(), DEFAULT_ERROR_MODEL],
                             ids=["ideal", "errors"])
    def test_default_scene(self, err):
        frames = self.assert_same_frames(overtaking_scene(),
                                         default_calibration(), err)
        assert all(fr.detections for fr in frames)

    def test_no_error_model_is_ideal(self):
        # The oracle keeps no error model as the frames render_frame
        # returns, untouched.
        spec = overtaking_scene(duration=1.0)
        got = simulate_sequence(spec, default_calibration())
        ref = oracles.simulate_sequence(spec, default_calibration(), None)
        assert [frame_fields(a) for a in got] == \
            [frame_fields(b) for b in ref]

    def test_full_sweep(self):
        spec = dataclasses.replace(overtaking_scene(rng_seed=1),
                                   n_ground_points=120_000, frame_rate=1.0,
                                   duration=2.0)
        frames = self.assert_same_frames(spec, default_calibration(),
                                         DEFAULT_ERROR_MODEL)
        assert all(len(fr.cloud) > 120_000 for fr in frames)

    def test_crowd(self):
        self.assert_same_frames(conftest.crowd_scene(duration=0.5),
                                default_calibration(), DEFAULT_ERROR_MODEL)

    def test_no_clutter(self):
        frames = self.assert_same_frames(
            overtaking_scene(duration=0.3, clutter=0), default_calibration(),
            DEFAULT_ERROR_MODEL)
        assert CLUTTER_LABEL not in frames[0].labels

    def test_object_closer_than_half_a_meter(self):
        spec = single_car_spec(x=0.3, y=0.2)
        frame, = self.assert_same_frames(spec, default_calibration(),
                                         DEFAULT_ERROR_MODEL)
        assert 1 not in frame.labels
        assert frame.gt_object_pixel_boxes[1] is None

    def test_object_outside_image(self):
        spec = single_car_spec(x=15.0, y=40.0)
        frame, = self.assert_same_frames(spec, default_calibration(),
                                         DEFAULT_ERROR_MODEL)
        assert frame.uv_valid[frame.labels == 1].all()
        assert frame.gt_object_pixel_boxes[1] is None
        assert frame.detections == []

    def test_rotated_translated_camera(self):
        # The camera sits 30 m ahead of the LiDAR, so the points nearer
        # than that, and the car straddling it, are behind it.
        calib = rotated_calibration((0.4, -0.25, -30.0))
        car = ObjectSpec(object_id=1, class_label="car",
                         trajectory=Trajectory(x_coeffs=(30.0,),
                                               y_coeffs=(0.0,)))
        spec = SceneSpec(duration=0.3, frame_rate=10.0, objects=(car,))
        frames = self.assert_same_frames(spec, calib, DEFAULT_ERROR_MODEL)
        assert not frames[0].uv_valid.all() and frames[0].uv_valid.any()

    def test_rows_at_the_depth_epsilon(self):
        calib = rotated_calibration((0.4, -0.25, 0.0))
        above = np.nextafter(DEPTH_EPSILON, 1.0)
        below = np.nextafter(DEPTH_EPSILON, 0.0)
        xyz = np.array([[DEPTH_EPSILON, 0.5, -1.0], [below, 0.5, -1.0],
                        [above, 0.5, -1.0], [0.0, 1.0, 1.0],
                        [-3.0, 1.0, 1.0], [12.0, -2.0, 0.5]])
        uv, valid = project_xyz(calib.intrinsics, calib.extrinsic, xyz)
        ref_uv, ref_valid = oracles.project_xyz(calib.intrinsics,
                                                calib.extrinsic, xyz)
        assert valid.tolist() == [False, False, True, False, False, True]
        assert uv.tobytes() == ref_uv.tobytes()
        assert valid.tobytes() == ref_valid.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
           translation=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
           values=st.lists(st.floats(-100.0, 100.0), min_size=0,
                           max_size=60))
    def test_projection_on_random_rigid_extrinsics(self, angles,
                                                   translation, values):
        rotation = np.eye(3)
        for axis, angle in enumerate(angles):
            c, s = math.cos(angle), math.sin(angle)
            i, j = [k for k in range(3) if k != axis]
            turn = np.eye(3)
            turn[i, i], turn[i, j], turn[j, i], turn[j, j] = c, -s, s, c
            rotation = turn @ rotation
        extr = ExtrinsicTransform(rotation=rotation,
                                  translation=np.asarray(translation))
        intr = default_calibration().intrinsics
        xyz = np.asarray(values[:len(values) // 3 * 3]).reshape(-1, 3)
        uv, valid = project_xyz(intr, extr, xyz)
        ref_uv, ref_valid = oracles.project_xyz(intr, extr, xyz)
        assert uv.tobytes() == ref_uv.tobytes()
        assert valid.tobytes() == ref_valid.tobytes()
