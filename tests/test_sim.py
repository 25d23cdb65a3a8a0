"""Synthetic-scene generator: determinism, labeling, and error injection."""

import dataclasses
import math

import numpy as np
import pytest

from probfusion.errors import InvalidSpec
from probfusion.sim import (CLUTTER_LABEL, GROUND_LABEL, ErrorModel,
                            ObjectSpec, SceneSpec, Trajectory,
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
        flat = dataclasses.replace(car, height=-1.0)
        for build in (
                lambda: SceneSpec(duration=-1.0),
                lambda: SceneSpec(frame_rate=0.0),
                lambda: SceneSpec(objects=(flat,)),
                lambda: SceneSpec(rng_seed=-1),
                lambda: SceneSpec(rng_seed=1.5),
                lambda: SceneSpec(rng_seed=True),
                lambda: SceneSpec(duration=0.04, frame_rate=10.0),
                lambda: Trajectory(kind="spline"),
                lambda: dataclasses.replace(car, class_label="truck"),
                lambda: dataclasses.replace(car, object_id="x"),
                lambda: SceneSpec(objects=(car, car))):
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
        assert not out.applied_shifts.any()
        assert len(out.detections) == len(frame.detections)

    def test_shift_recorded_per_point(self):
        frame = self._frame()
        out = inject_mapping_errors(
            frame, ErrorModel(pixel_shift_halfwidth=(40.0, 12.0)))
        shifts = out.applied_shifts[out.uv_valid]
        # One synchronization-style shift per frame, shared by all points.
        assert len(np.unique(shifts, axis=0)) == 1
        du, dv = shifts[0]
        assert abs(du) <= 40.0 and abs(dv) <= 12.0
        assert np.allclose(out.observed_uv[out.uv_valid],
                           frame.ideal_uv[frame.uv_valid] + shifts[0])

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
