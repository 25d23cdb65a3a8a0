"""Sequence IO, pipeline configuration, frame fusion, and the CLI."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from probfusion.aoi import BoundingBox
from probfusion.calib import CalibrationPair, save_calibration
from probfusion.cli import main as cli_main
from probfusion.config import (PipelineConfig, load_pipeline_config,
                               write_pipeline_config)
from probfusion.errors import ConfigError, EmptySequence
from probfusion.io import (FrameRecord, dump_simulated_sequence,
                           load_sequence, read_detections, read_frame_cloud,
                           read_ground_truth, read_trajectory_csv,
                           write_detections, write_frame_cloud,
                           write_ground_truth, write_report,
                           write_trajectory_csv)
from probfusion.pipeline import run_fusion_frame, run_sequence
from probfusion.shape import BenchmarkShapeRegistry
from probfusion.sim import (DEFAULT_ERROR_MODEL, ObjectSpec, SceneSpec,
                            Trajectory, default_calibration,
                            overtaking_scene, reference_benchmarks,
                            save_scene_spec, simulate_sequence)
from probfusion.smoother import TrackSample


def small_scene(seed=0, duration=1.2):
    return overtaking_scene(rng_seed=seed, duration=duration)


def write_sequence(tmp_path, spec, err=None, name="seq"):
    calib = default_calibration()
    frames = simulate_sequence(spec, calib, err)
    seq_dir = tmp_path / name
    dump_simulated_sequence(seq_dir, frames, calib, spec)
    registry = BenchmarkShapeRegistry(shapes=reference_benchmarks(),
                                      sample_counts={})
    registry.save(seq_dir / "benchmarks.json")
    write_pipeline_config(
        seq_dir / "config.json",
        calibration="calibration.json",
        benchmark_registry="benchmarks.json",
        enlarge_ratios={"default": {"left": 1.0, "right": 1.0,
                                    "up": 0.5, "down": 0.5}},
        guarantee={"t1": 1.0, "t2": 0.9, "t1_fraction": 0.2},
        target_object_ids=[1],
    )
    return seq_dir, frames, calib


class TestCloudCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = rng.uniform(-5, 40, size=(25, 3))
        uv = rng.uniform(0, 1000, size=(25, 2))
        valid = rng.uniform(size=25) > 0.3
        uv[~valid] = np.nan
        write_frame_cloud(tmp_path, 7, cloud, uv, valid)
        path = tmp_path / "clouds" / "frame_000007.csv"
        assert path.exists()
        c2, uv2, v2 = read_frame_cloud(path)
        assert np.array_equal(c2, cloud)
        assert np.array_equal(v2, valid)
        assert np.array_equal(uv2[valid], uv[valid])
        assert np.all(np.isnan(uv2[~valid]))


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        samples = [TrackSample(t=0.1, x=30.25, y=-3.0),
                   TrackSample(t=0.2, x=1.0 / 3.0, y=2.5, outlier=True),
                   TrackSample(t=0.3, x=29.0, y=3.125, interpolated=True)]
        path = tmp_path / "object_1.csv"
        write_trajectory_csv(path, samples)
        assert path.read_text().splitlines()[0] == \
            "t,x,y,outlier,interpolated"
        assert read_trajectory_csv(path) == samples


class TestDetectionsJsonl:
    def test_round_trip(self, tmp_path):
        det = BoundingBox(frame_id=2, object_id=5, class_label="car",
                          u_min=10.0, v_min=20.0, u_max=110.0, v_max=90.0)
        write_detections(tmp_path, {2: [det]})
        loaded = read_detections(tmp_path / "detections.jsonl")
        assert loaded == {2: [det]}


class TestGroundTruthJsonl:
    def test_round_trip(self, tmp_path):
        rec = {"frame": 0, "objects": [
            {"object_id": 1, "class": "car", "x": 30.0, "y": 3.0,
             "range": 30.15, "members": [4, 5, 6], "pixel_box": None}]}
        write_ground_truth(tmp_path, [rec])
        gt = read_ground_truth(tmp_path / "ground_truth.jsonl")
        assert gt[0][1]["members"] == [4, 5, 6]


class TestLoadSequence:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(EmptySequence):
            load_sequence(tmp_path / "nothing")

    def test_frames_sorted_with_timestamps(self, tmp_path):
        seq_dir, frames, _ = write_sequence(tmp_path, small_scene())
        loaded, gt = load_sequence(seq_dir)
        assert [f.frame_id for f in loaded] == list(range(len(frames)))
        assert loaded[3].t == pytest.approx(0.3)
        assert gt is not None
        assert set(gt[0]) == {1, 2, 3, 4, 5}


class TestPipelineConfig:
    def test_defaults_round_trip(self, tmp_path):
        calib = default_calibration()
        save_calibration(tmp_path / "calibration.json", calib)
        write_pipeline_config(tmp_path / "config.json")
        cfg = load_pipeline_config(tmp_path / "config.json")
        assert cfg.calibration_path == tmp_path / "calibration.json"
        assert cfg.clustering.kmeans_k == 3
        assert cfg.ratios_for("car").left == 1.0
        assert cfg.ratios_for("car").up == 0.0

    def test_missing_calibration_entry(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_nonexistent_calibration_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"calibration": "missing.json"}')
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_invalid_nested_value(self, tmp_path):
        calib = default_calibration()
        save_calibration(tmp_path / "calibration.json", calib)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"calibration": "calibration.json",
                                    "clustering": {"kmeans_k": 0}}))
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_with_seed_propagates(self, tmp_path):
        calib = default_calibration()
        save_calibration(tmp_path / "calibration.json", calib)
        write_pipeline_config(tmp_path / "config.json")
        cfg = load_pipeline_config(tmp_path / "config.json").with_seed(42)
        assert cfg.rng_seed == 42
        assert cfg.clustering.rng_seed == 42
        assert cfg.smoother.rng_seed == 42
        assert cfg.ransac_ground.rng_seed == 42


class TestRunFusionFrame:
    def _setup(self, tmp_path, err=None):
        seq_dir, frames, calib = write_sequence(tmp_path, small_scene(),
                                                err=err)
        loaded, gt = load_sequence(seq_dir)
        cfg = load_pipeline_config(seq_dir / "config.json")
        benchmarks = BenchmarkShapeRegistry.load(seq_dir / "benchmarks.json")
        return loaded, gt, cfg, calib, benchmarks

    def test_ideal_frame_localizes_all_objects(self, tmp_path):
        loaded, gt, cfg, calib, benchmarks = self._setup(tmp_path)
        locs, diag = run_fusion_frame(loaded[0], calib, cfg, benchmarks)
        by_id = {loc.object_id: loc for loc in locs}
        for obj_id, pose in gt[0].items():
            assert obj_id in by_id
            granularity = cfg.clustering.granularity_for(pose["class"])
            assert abs(by_id[obj_id].range_m - pose["range"]) <= granularity

    def test_errors_still_recover_target(self, tmp_path):
        loaded, gt, cfg, calib, benchmarks = self._setup(
            tmp_path, err=DEFAULT_ERROR_MODEL)
        hits = 0
        for frame in loaded:
            locs, _ = run_fusion_frame(frame, calib, cfg, benchmarks)
            by_id = {loc.object_id: loc for loc in locs}
            if 1 in by_id and abs(by_id[1].range_m
                                  - gt[frame.frame_id][1]["range"]) <= 2.0:
                hits += 1
        assert hits >= 0.9 * len(loaded)

    def test_empty_aoi_is_soft_failure(self, tmp_path):
        loaded, gt, cfg, calib, benchmarks = self._setup(tmp_path)
        frame = loaded[0]
        ghost = BoundingBox(frame_id=frame.frame_id, object_id=99,
                            class_label="pedestrian",
                            u_min=0.0, v_min=0.0, u_max=4.0, v_max=4.0)
        frame = FrameRecord(frame_id=frame.frame_id, t=frame.t,
                            cloud=frame.cloud, observed_uv=frame.observed_uv,
                            uv_valid=frame.uv_valid,
                            detections=list(frame.detections) + [ghost])
        locs, diag = run_fusion_frame(frame, calib, cfg, benchmarks)
        assert diag.objects[99].status == "NoQualifiedCluster"
        # Other objects are unaffected by the soft failure.
        assert any(loc.object_id == 1 for loc in locs)

    def test_diagnostics_counts(self, tmp_path):
        loaded, gt, cfg, calib, benchmarks = self._setup(tmp_path)
        _, diag = run_fusion_frame(loaded[0], calib, cfg, benchmarks)
        assert diag.cropped_count > 0
        assert diag.ground_removed_count > 0
        assert diag.projected_count > 0
        for odiag in diag.objects.values():
            if odiag.status == "ok":
                assert odiag.aoi_point_count >= len(odiag.selected_indices) > 0


class TestRunSequence:
    def test_report_and_trajectories(self, tmp_path):
        seq_dir, frames, _ = write_sequence(tmp_path, small_scene(),
                                            err=DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "trajectories" / "object_1.csv").exists()
        agg = report["evaluation"]["aggregate"]
        assert agg["fusion_tpr_mean"] > agg["baseline_tpr_mean"]
        assert report["n_frames"] == len(frames)

    def test_baseline_only_skips_trajectories(self, tmp_path):
        seq_dir, _, _ = write_sequence(tmp_path, small_scene())
        cfg = load_pipeline_config(seq_dir / "config.json")
        report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "out",
                              baseline_only=True)
        assert not (tmp_path / "out" / "trajectories").exists()
        assert report["baseline_only"] is True

    def test_byte_identical_reports(self, tmp_path):
        seq_dir, _, _ = write_sequence(tmp_path, small_scene(seed=5),
                                       err=DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "a")
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_empty_sequence_raises(self, tmp_path):
        seq_dir, _, _ = write_sequence(tmp_path, small_scene())
        cfg = load_pipeline_config(seq_dir / "config.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(EmptySequence):
            run_sequence(empty, cfg, out_dir=tmp_path / "out")


class TestCli:
    def test_simulate_then_fuse(self, tmp_path):
        runner = CliRunner()
        seq = tmp_path / "seq"
        res = runner.invoke(cli_main, ["simulate", "--out", str(seq),
                                       "--seed", "3", "--ideal"])
        assert res.exit_code == 0, res.output
        assert (seq / "calibration.json").exists()
        assert (seq / "config.json").exists()
        res = runner.invoke(cli_main, [
            "fuse", str(seq), "--config", str(seq / "config.json"),
            "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["evaluation"]["aggregate"]["mae_x"] <= 0.5
        assert report["evaluation"]["aggregate"]["mae_y"] <= 0.5

    def test_fuse_bad_config_exits_2(self, tmp_path):
        runner = CliRunner()
        seq = tmp_path / "seq"
        seq.mkdir()
        (seq / "clouds").mkdir()
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        res = runner.invoke(cli_main, ["fuse", str(seq),
                                       "--config", str(bad)])
        assert res.exit_code == 2

    def test_fuse_empty_sequence_exits_1(self, tmp_path):
        runner = CliRunner()
        calib = default_calibration()
        save_calibration(tmp_path / "calibration.json", calib)
        write_pipeline_config(tmp_path / "config.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        res = runner.invoke(cli_main, [
            "fuse", str(empty), "--config", str(tmp_path / "config.json")])
        assert res.exit_code == 1

    def test_benchmark_shapes_roundtrip(self, tmp_path):
        runner = CliRunner()
        rng = np.random.default_rng(0)
        files = []
        for i in range(12):
            pts = np.column_stack([rng.normal(0, 0.2, 200),
                                   rng.uniform(0, 1.7, 200)])
            path = tmp_path / f"cluster_{i}.json"
            path.write_text(json.dumps({"class": "pedestrian",
                                        "points": pts.tolist()}))
            files.append(str(path))
        out = tmp_path / "bench.json"
        res = runner.invoke(cli_main, ["benchmark-shapes", *files,
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        reg = BenchmarkShapeRegistry.load(out)
        assert "pedestrian" in reg.shapes
        assert reg.sample_counts["pedestrian"] == 12

    def test_benchmark_shapes_no_input_exits_1(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["benchmark-shapes",
                                       "--out", str(tmp_path / "b.json")])
        assert res.exit_code == 1

    def test_evaluate_command(self, tmp_path):
        runner = CliRunner()
        seq = tmp_path / "seq"
        res = runner.invoke(cli_main, ["simulate", "--out", str(seq),
                                       "--ideal"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, [
            "fuse", str(seq), "--config", str(seq / "config.json"),
            "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        traj = tmp_path / "out" / "trajectories" / "object_1.csv"
        out = tmp_path / "eval.json"
        res = runner.invoke(cli_main, [
            "evaluate", str(traj),
            "--ground-truth", str(seq / "ground_truth.jsonl"),
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(out.read_text())
        assert report["1"]["mae_x"] <= 0.5

    def test_simulate_seed_zero_overrides_scene_seed(self, tmp_path):
        scene = tmp_path / "scene.json"
        save_scene_spec(scene, small_scene(seed=5, duration=0.2))
        seq = tmp_path / "seq"
        res = CliRunner().invoke(cli_main, ["simulate", "--scene", str(scene),
                                            "--seed", "0", "--out", str(seq)])
        assert res.exit_code == 0, res.output
        assert json.loads((seq / "scene.json").read_text())["rng_seed"] == 0
        assert json.loads((seq / "config.json").read_text())["rng_seed"] == 0

    def test_evaluate_reads_frame_rate_from_scene(self, tmp_path):
        # At 5 Hz, pairing by a fixed 10 Hz would match the wrong frames.
        runner = CliRunner()
        scene = tmp_path / "scene.json"
        save_scene_spec(scene, dataclasses.replace(small_scene(duration=2.0),
                                                   frame_rate=5.0))
        seq = tmp_path / "seq"
        res = runner.invoke(cli_main, ["simulate", "--scene", str(scene),
                                       "--out", str(seq)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, [
            "fuse", str(seq), "--config", str(seq / "config.json"),
            "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        out = tmp_path / "eval.json"
        res = runner.invoke(cli_main, [
            "evaluate", str(tmp_path / "out" / "trajectories" / "object_1.csv"),
            "--ground-truth", str(seq / "ground_truth.jsonl"),
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        evaluation = json.loads(out.read_text())["1"]
        fused = json.loads((tmp_path / "out" / "report.json").read_text())
        fused = fused["evaluation"]["objects"]["1"]
        assert evaluation["n"] == 10
        assert evaluation["mae_x"] == fused["mae_x"]
        assert evaluation["mae_y"] == fused["mae_y"]

    def test_evaluate_unnamed_trajectory_exits_1(self, tmp_path):
        traj = tmp_path / "track.csv"
        write_trajectory_csv(traj, [TrackSample(t=0.0, x=30.0, y=3.0)])
        gt = tmp_path / "ground_truth.jsonl"
        write_ground_truth(tmp_path, [{"frame": 0, "objects": []}])
        res = CliRunner().invoke(cli_main, [
            "evaluate", str(traj), "--ground-truth", str(gt),
            "--out", str(tmp_path / "eval.json")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "object_<id>.csv" in res.output
        assert len(res.output.strip().splitlines()) == 1
