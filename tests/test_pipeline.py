"""Sequence IO, pipeline configuration, frame fusion, and the CLI."""

import csv
import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from probfusion.aoi import BoundingBox
from probfusion.calib import CalibrationPair, save_calibration
from probfusion.cli import main as cli_main
from probfusion.config import load_pipeline_config, write_pipeline_config
from probfusion.errors import ConfigError, EmptySequence
from probfusion.io import (WRITE_BLOCK_ROWS, load_sequence,
                           read_detections, read_frame_cloud,
                           read_ground_truth, read_trajectory_csv,
                           write_detections, write_frame_cloud,
                           write_ground_truth, write_report,
                           write_trajectory_csv)
import conftest
import oracles
from probfusion import ground as ground_module
from probfusion import pipeline as pipeline_module
from probfusion import shape as shape_module
from probfusion import smoother as smoother_module
from probfusion.pipeline import run_fusion_frame, run_sequence
from probfusion.shape import BenchmarkShapeRegistry
from probfusion.sim import (DEFAULT_ERROR_MODEL, SIMULATED_GUARANTEE,
                            SIMULATED_RATIOS, ObjectSpec, SceneSpec,
                            Trajectory, default_calibration,
                            overtaking_scene, reference_benchmarks,
                            save_scene_spec, scene_spec_to_json,
                            simulate_sequence, write_sequence_dir)
from probfusion.smoother import TrackSample, detect_outliers


def small_scene(seed=0, duration=1.2):
    return overtaking_scene(rng_seed=seed, duration=duration)


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

    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_exact(self, data):
        n = data.draw(st.integers(0, 6), label="rows")
        values = data.draw(st.lists(EDGE_FLOATS, min_size=5 * n,
                                    max_size=5 * n), label="values")
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                            max_size=n), label="valid"),
                         dtype=bool)
        table = np.array(values, dtype=float).reshape(n, 5)
        cloud, uv = table[:, :3], table[:, 3:]
        with tempfile.TemporaryDirectory() as tmp:
            write_frame_cloud(tmp, 0, cloud, uv, valid)
            c2, uv2, v2 = read_frame_cloud(Path(tmp) / "clouds" /
                                           "frame_000000.csv")
        assert (c2.shape, uv2.shape, v2.shape) == ((n, 3), (n, 2), (n,))
        assert c2.tobytes() == cloud.tobytes()
        assert v2.dtype == bool and np.array_equal(v2, valid)
        assert uv2[valid].tobytes() == uv[valid].tobytes()
        assert np.isnan(uv2[~valid]).all()

    @pytest.mark.parametrize("n", [9, 2 * WRITE_BLOCK_ROWS + 3])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        table = rng.uniform(-60, 60, size=(n, 5))
        table[:9] = [[0.0, -0.0, 5e-324, 1e308, -1e308],
                     [1 / 3, 1e16, 1e-5, 2.5e-310, 3.0],
                     [123456789.123, -1e-300, 0.1, 7.0, 1e22]] * 3
        valid = rng.uniform(size=n) > 0.3
        valid[:3] = [True, False, True]
        cloud, uv = table[:, :3], table[:, 3:]
        write_frame_cloud(tmp_path, 3, cloud, uv, valid)
        csv_writer_oracle(tmp_path / "oracle.csv", cloud, uv, valid)
        assert (tmp_path / "clouds" / "frame_000003.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e308, -1e308, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False))


def csv_writer_oracle(path, cloud, uv, valid):
    """The cloud CSV as a row-by-row csv.writer writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "z", "u", "v"])
        for i, (p, q, ok) in enumerate(zip(cloud, uv, valid)):
            u = repr(float(q[0])) if ok else ""
            v = repr(float(q[1])) if ok else ""
            writer.writerow([i, repr(float(p[0])), repr(float(p[1])),
                             repr(float(p[2])), u, v])


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
        spec = small_scene(seed=4)
        frames = write_sequence_dir(tmp_path, spec, DEFAULT_ERROR_MODEL)
        loaded, gt = load_sequence(tmp_path)
        assert [f.frame_id for f in loaded] == list(range(len(frames)))
        assert loaded[3].t == pytest.approx(0.3)
        assert gt is not None
        assert set(gt[0]) == {1, 2, 3, 4, 5}
        # The frames the writer returns are the frames fuse reads back.
        for got, wrote in zip(loaded, frames, strict=True):
            for name in ("cloud", "observed_uv", "uv_valid"):
                a, b = getattr(got, name), getattr(wrote, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            assert got.detections == wrote.detections
        # config.json fuses with the simulated settings and the scene seed.
        cfg = load_pipeline_config(tmp_path / "config.json")
        assert cfg.enlarge_ratios == {"default": SIMULATED_RATIOS}
        assert cfg.guarantee == SIMULATED_GUARANTEE
        assert cfg.target_object_ids == [spec.objects[0].object_id]
        assert cfg.rng_seed == spec.rng_seed == 4


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

    @pytest.mark.parametrize("stage",
                             ["ransac_ground", "clustering", "smoother"])
    def test_stage_seed_rejected(self, tmp_path, stage):
        # The one seed is the top-level rng_seed.
        save_calibration(tmp_path / "calibration.json",
                         default_calibration())
        write_pipeline_config(tmp_path / "config.json",
                              **{stage: {"rng_seed": 7}})
        with pytest.raises(ConfigError, match="rng_seed"):
            load_pipeline_config(tmp_path / "config.json")


class TestRunFusionFrame:
    def _setup(self, tmp_path, err=None):
        write_sequence_dir(tmp_path, small_scene(), err)
        loaded, gt = load_sequence(tmp_path)
        cfg = load_pipeline_config(tmp_path / "config.json")
        benchmarks = BenchmarkShapeRegistry.load(tmp_path / "benchmarks.json")
        return loaded, gt, cfg, default_calibration(), benchmarks

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
        frame = dataclasses.replace(frame,
                                    detections=[*frame.detections, ghost])
        locs, diag = run_fusion_frame(frame, calib, cfg, benchmarks)
        assert diag.objects[99].status == "NoQualifiedCluster"
        # Other objects are unaffected by the soft failure.
        assert any(loc.object_id == 1 for loc in locs)

    def test_frame_without_detections(self, tmp_path):
        loaded, gt, cfg, calib, benchmarks = self._setup(tmp_path)
        frame = dataclasses.replace(loaded[0], detections=[])
        locs, diag = run_fusion_frame(frame, calib, cfg, benchmarks)
        _, full = run_fusion_frame(loaded[0], calib, cfg, benchmarks)
        assert locs == [] and diag.objects == {}
        assert (diag.cropped_count, diag.ground_removed_count,
                diag.projected_count) == (full.cropped_count,
                                          full.ground_removed_count,
                                          full.projected_count)

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
        seq_dir = tmp_path / "seq"
        frames = write_sequence_dir(seq_dir, small_scene(),
                                    DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "trajectories" / "object_1.csv").exists()
        agg = report["evaluation"]["aggregate"]
        assert agg["fusion_tpr_mean"] > agg["baseline_tpr_mean"]
        assert report["n_frames"] == len(frames)

    def test_baseline_only_skips_trajectories(self, tmp_path):
        seq_dir = tmp_path / "seq"
        write_sequence_dir(seq_dir, small_scene(), None)
        cfg = load_pipeline_config(seq_dir / "config.json")
        report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "out",
                              baseline_only=True)
        assert not (tmp_path / "out" / "trajectories").exists()
        assert report["baseline_only"] is True

    def test_byte_identical_reports(self, tmp_path):
        seq_dir = tmp_path / "seq"
        write_sequence_dir(seq_dir, small_scene(seed=5), DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "a")
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_trajectories_mark_outliers(self, tmp_path):
        # Smoothed samples at the times detect_outliers flags in the raw
        # track are outliers, and interpolated: no inlier is there.
        seq_dir = tmp_path / "seq"
        write_sequence_dir(seq_dir, small_scene(duration=2.0),
                           DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "raw", no_smoother=True)
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "smooth")
        n_flagged = 0
        for raw_path in sorted((tmp_path / "raw" / "trajectories").iterdir()):
            raw = read_trajectory_csv(raw_path)
            smooth = read_trajectory_csv(
                tmp_path / "smooth" / "trajectories" / raw_path.name)
            flagged = set()
            if len(raw) >= cfg.smoother.min_samples:
                flags = detect_outliers(raw, cfg.smoother, cfg.rng_seed)
                flagged = {s.t for s, f in zip(raw, flags) if f}
            assert {s.t for s in smooth if s.outlier} == flagged
            assert all(s.interpolated for s in smooth if s.outlier)
            n_flagged += len(flagged)
        assert n_flagged > 0

    def test_too_few_inliers_keeps_raw_track(self, tmp_path, monkeypatch):
        # With all but 4 samples flagged, no order-3 fit is possible:
        # each smoothed track is written raw, as under no_smoother, and
        # the report lists every track as raw; the no_smoother and
        # baseline_only reports list none.
        seq_dir = tmp_path / "seq"
        write_sequence_dir(seq_dir, small_scene(), DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        raw_report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "raw",
                                  no_smoother=True)
        baseline_report = run_sequence(seq_dir, cfg,
                                       out_dir=tmp_path / "baseline",
                                       baseline_only=True)
        monkeypatch.setattr(pipeline_module, "detect_outliers",
                            lambda track, cfg, seed=0:
                            np.arange(len(track)) >= 4)
        report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "out")
        raw_paths = sorted((tmp_path / "raw" / "trajectories").iterdir())
        assert any(len(read_trajectory_csv(path)) >= cfg.smoother.min_samples
                   for path in raw_paths)
        for raw_path in raw_paths:
            assert (tmp_path / "out" / "trajectories" / raw_path.name
                    ).read_bytes() == raw_path.read_bytes()
        track_ids = sorted(int(path.stem.split("_")[1]) for path in raw_paths)
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["raw_track_ids"] == written["raw_track_ids"] == track_ids
        assert raw_report["raw_track_ids"] == []
        assert baseline_report["raw_track_ids"] == []

    def test_empty_sequence_raises(self, tmp_path):
        seq_dir = tmp_path / "seq"
        write_sequence_dir(seq_dir, small_scene(), None)
        cfg = load_pipeline_config(seq_dir / "config.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(EmptySequence):
            run_sequence(empty, cfg, out_dir=tmp_path / "out")


def crowd_scene(seed=3, n_objects=15, duration=2.0):
    """Mostly pedestrians, some cars, 8-50 m out (uniform over the ground
    area) and slow enough to stay in the camera's field of view: many
    small AOIs with several range peaks, so that K-Means, the histogram
    and shape scoring all run."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n_objects):
        x0 = float(np.sqrt(rng.uniform(8.0 ** 2, 50.0 ** 2)))
        y_lim = min(12.0, 0.6 * x0)
        car = i % 5 == 0
        vx, vy = ((float(rng.uniform(-3.0, 3.0)), 0.0) if car else
                  tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2)))
        objects.append(ObjectSpec(
            object_id=i + 1, class_label="car" if car else "pedestrian",
            trajectory=Trajectory(x_coeffs=(x0, vx),
                                  y_coeffs=(float(rng.uniform(-y_lim, y_lim)),
                                            vy))))
    return SceneSpec(duration=duration, frame_rate=10.0,
                     objects=tuple(objects), rng_seed=seed)


class TestStageOracles:
    """Fusing with the library's stages gives what fusing with the
    reference versions in oracles.py gives: the same localizations and
    diagnostics, float for float, and the same sequence outputs."""

    @staticmethod
    def use_oracles(monkeypatch):
        monkeypatch.setattr(ground_module, "fit_ground_plane",
                            oracles.fit_ground_plane)
        monkeypatch.setattr(pipeline_module, "seed_bin_centers",
                            oracles.seed_bin_centers)
        monkeypatch.setattr(pipeline_module, "build_range_histogram",
                            oracles.build_range_histogram)
        monkeypatch.setattr(shape_module, "score_candidate",
                            oracles.score_candidate)
        monkeypatch.setattr(smoother_module, "_ransac_best_fit",
                            oracles._ransac_best_fit)

    def fuse_both_ways(self, spec, monkeypatch):
        """Every frame of spec fused with the library, then with the
        oracles: two lists of (localizations, diagnostics)."""
        calib = default_calibration()
        frames = simulate_sequence(spec, calib, DEFAULT_ERROR_MODEL)
        registry = BenchmarkShapeRegistry(shapes=reference_benchmarks(),
                                          sample_counts={})
        cfg = conftest.in_memory_config()
        got = [run_fusion_frame(fr, calib, cfg, registry) for fr in frames]
        self.use_oracles(monkeypatch)
        ref = [run_fusion_frame(fr, calib, cfg, registry) for fr in frames]
        for (locs, diag), (ref_locs, ref_diag) in zip(got, ref):
            assert repr(locs) == repr(ref_locs)
            assert repr(diag) == repr(ref_diag)
        return got, ref

    def test_crowd_frames(self, monkeypatch):
        got, _ = self.fuse_both_ways(crowd_scene(), monkeypatch)
        assert len(got) == 20
        assert sum(len(o.candidate_scores) for _, diag in got
                   for o in diag.objects.values()) > 100

    def test_dense_frames(self, monkeypatch):
        # Full 120k-point sweeps, where the ground fit skips the passes of
        # trials that cannot win and refits in its own buffer.
        spec = dataclasses.replace(overtaking_scene(rng_seed=3),
                                   n_ground_points=120_000, frame_rate=1.0,
                                   duration=3.0)
        got, _ = self.fuse_both_ways(spec, monkeypatch)
        assert len(got) == 3
        assert all(diag.ground_removed_count > 100_000 for _, diag in got)

    def test_sequence(self, tmp_path, monkeypatch):
        seq_dir = tmp_path / "seq"
        frames = write_sequence_dir(seq_dir, small_scene(seed=2, duration=1.0),
                                    DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        report = run_sequence(seq_dir, cfg, out_dir=tmp_path / "got")
        self.use_oracles(monkeypatch)
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "ref")
        assert len(frames) == 10
        smoothed = set(report["evaluation"]["objects"]) - {
            str(i) for i in report["raw_track_ids"]}
        assert smoothed
        got = {p.relative_to(tmp_path / "got"): p.read_bytes()
               for p in (tmp_path / "got").rglob("*") if p.is_file()}
        ref = {p.relative_to(tmp_path / "ref"): p.read_bytes()
               for p in (tmp_path / "ref").rglob("*") if p.is_file()}
        assert got == ref


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

    def test_fuse_seed_matches_config_seed(self, tmp_path):
        # A seed-7 sequence's config says rng_seed 7, so --seed 7 must
        # change nothing: the config seed reaches every stage.
        runner = CliRunner()
        seq = tmp_path / "seq"
        res = runner.invoke(cli_main, ["simulate", "--seed", "7",
                                       "--out", str(seq)])
        assert res.exit_code == 0, res.output
        for name, seed_args in (("plain", []), ("seeded", ["--seed", "7"])):
            res = runner.invoke(cli_main, [
                "fuse", str(seq), "--config", str(seq / "config.json"),
                "--out", str(tmp_path / name), *seed_args])
            assert res.exit_code == 0, res.output
        assert (tmp_path / "plain" / "report.json").read_bytes() == \
            (tmp_path / "seeded" / "report.json").read_bytes()

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


def replace_line(path, line_no, text):
    lines = path.read_text().splitlines()
    lines[line_no] = text
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())


def cloud_line(line_no, text):
    """Edit that replaces one line of the second frame's cloud CSV."""
    return lambda seq: replace_line(seq / "clouds" / "frame_000001.csv",
                                    line_no, text)


def append_line(path, text):
    with open(path, "a") as fh:
        fh.write(text + "\n")


def first_json_line(name, edit):
    """Edit that rewrites the first record of a JSON-lines file."""
    def apply(seq):
        path = seq / name
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        edit(rec)
        lines[0] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
    return apply


def scene_json(text):
    """Edit that replaces the sequence's scene.json."""
    return lambda seq: (seq / "scene.json").write_text(text)


def scene_frame_rate(rate):
    """Edit that sets frame_rate in the sequence's scene.json."""
    def apply(seq):
        meta = json.loads((seq / "scene.json").read_text())
        meta["frame_rate"] = rate
        (seq / "scene.json").write_text(json.dumps(meta))
    return apply


# (case, edit of a two-frame sequence directory, expected message part)
BAD_INPUTS = [
    ("header", cloud_line(0, "index,x,y,z,v,u"),
     "frame_000001.csv: header is 'index,x,y,z,v,u'"),
    ("truncated row", cloud_line(6, "5,1.0,2.0"),
     "frame_000001.csv, row 5: 3 columns, expected 6"),
    ("extra column", cloud_line(6, "5,1.0,2.0,3.0,4.0,5.0,6.0"),
     "frame_000001.csv, row 5: 7 columns, expected 6"),
    ("non-numeric x", cloud_line(6, "5,abc,2.0,3.0,4.0,5.0"),
     "frame_000001.csv, row 5: x is 'abc', not a number"),
    ("nan x", cloud_line(6, "5,nan,2.0,3.0,4.0,5.0"),
     "frame_000001.csv, row 5: x, y or z is not finite"),
    ("index", cloud_line(6, "7,1.0,2.0,3.0,4.0,5.0"),
     "frame_000001.csv, row 5: index is not the row number"),
    ("one of u, v blank", cloud_line(6, "5,1.0,2.0,3.0,4.0,"),
     "frame_000001.csv, row 5: only one of u, v is blank"),
    ("inf u", cloud_line(6, "5,1.0,2.0,3.0,inf,5.0"),
     "frame_000001.csv, row 5: u or v is not finite"),
    ("nan u and v", cloud_line(6, "5,1.0,2.0,3.0,nan,nan"),
     "frame_000001.csv, row 5: u and v are not finite"),
    ("detections without cloud", lambda seq: append_line(
        seq / "detections.jsonl", json.dumps(
            {"box": [0, 0, 10, 10], "class": "car", "frame": 9,
             "object_id": 1})),
     "detections.jsonl: frame 9 has no cloud file"),
    ("ground truth without cloud", lambda seq: append_line(
        seq / "ground_truth.jsonl", json.dumps({"frame": 9, "objects": []})),
     "ground_truth.jsonl: frame 9 has no cloud file"),
    ("detection without box",
     first_json_line("detections.jsonl", lambda rec: rec.pop("box")),
     "detections.jsonl, line 1: no key 'box'"),
    ("three-number box",
     first_json_line("detections.jsonl",
                     lambda rec: rec.update(box=[0, 0, 10])),
     "detections.jsonl, line 1: box is [0, 0, 10], not [u_min, v_min, "
     "u_max, v_max]"),
    ("ground truth without range",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].pop("range")),
     "ground_truth.jsonl, line 1: no key 'range'"),
    ("non-numeric ground truth x",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(x="abc")),
     "ground_truth.jsonl, line 1: object 1: x, y or range is not a number"),
    ("ground truth members not a list",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(members=5)),
     "ground_truth.jsonl, line 1: object 1: members is not a list"),
    ("stray cloud file", lambda seq: shutil.copy(
        seq / "clouds" / "frame_000000.csv", seq / "clouds" / "frame_abc.csv"),
     "frame_abc.csv: not a frame_<number>.csv name"),
    ("two clouds of one frame", lambda seq: shutil.copy(
        seq / "clouds" / "frame_000001.csv", seq / "clouds" / "frame_1.csv"),
     "frame 1 is also"),
    ("scene not JSON", scene_json("{bad"), "scene.json: not a JSON object"),
    ("scene not an object", scene_json("[10]"),
     "scene.json: not a JSON object"),
    ("zero frame rate", scene_frame_rate(0),
     "scene.json: frame_rate is 0, not a finite positive number"),
    ("negative frame rate", scene_frame_rate(-5),
     "scene.json: frame_rate is -5, not a finite positive number"),
    ("text frame rate", scene_frame_rate("10"),
     "scene.json: frame_rate is '10', not a finite positive number"),
]


@pytest.fixture(scope="module")
def two_frame_sequence(tmp_path_factory):
    seq_dir = tmp_path_factory.mktemp("clean")
    write_sequence_dir(seq_dir, small_scene(duration=0.2), None)
    return seq_dir


@pytest.mark.parametrize("edit, message", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_fuse_bad_input_exits_1_with_one_line(tmp_path, two_frame_sequence,
                                              edit, message):
    seq = tmp_path / "seq"
    shutil.copytree(two_frame_sequence, seq)
    edit(seq)
    res = CliRunner().invoke(cli_main, [
        "fuse", str(seq), "--config", str(seq / "config.json"),
        "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert message in res.output


# (test id, config entries to overwrite, what the one-line message names)
BAD_CONFIG_KEYS = [
    ("ransac-iterations-zero", {"smoother": {"ransac_iterations": 0}},
     "smoother: ransac_iterations"),
    ("ransac-iterations-negative", {"smoother": {"ransac_iterations": -2}},
     "smoother: ransac_iterations"),
    ("n-sample-fraction", {"ransac_ground": {"n_sample": 4.5}},
     "ransac_ground: n_sample"),
    ("cone-negative", {"ransac_ground": {"normal_cone_deg": -30}},
     "ransac_ground: normal_cone_deg"),
    ("cone-zero", {"ransac_ground": {"normal_cone_deg": 0}},
     "ransac_ground: normal_cone_deg"),
    ("cone-above-90", {"ransac_ground": {"normal_cone_deg": 91}},
     "ransac_ground: normal_cone_deg"),
    ("seed-negative", {"rng_seed": -1}, "rng_seed"),
    ("seed-fraction", {"rng_seed": 1.5}, "rng_seed"),
]


@pytest.mark.parametrize("entries, key",
                         [case[1:] for case in BAD_CONFIG_KEYS],
                         ids=[case[0] for case in BAD_CONFIG_KEYS])
def test_fuse_bad_config_key_exits_2_with_one_line(
        tmp_path, two_frame_sequence, entries, key):
    seq = tmp_path / "seq"
    shutil.copytree(two_frame_sequence, seq)
    config = json.loads((seq / "config.json").read_text())
    for name, value in entries.items():
        config[name] = ({**config[name], **value} if isinstance(value, dict)
                        else value)
    (seq / "config.json").write_text(json.dumps(config))
    res = CliRunner().invoke(cli_main, [
        "fuse", str(seq), "--config", str(seq / "config.json"),
        "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert key in res.output


def test_fuse_negative_seed_exits_2_with_one_line(tmp_path,
                                                  two_frame_sequence):
    res = CliRunner().invoke(cli_main, [
        "fuse", str(two_frame_sequence),
        "--config", str(two_frame_sequence / "config.json"),
        "--seed", "-1", "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert "--seed" in res.output


def test_simulate_negative_seed_exits_1_with_one_line(tmp_path):
    res = CliRunner().invoke(cli_main, ["simulate", "--seed", "-1",
                                        "--out", str(tmp_path / "seq")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert "rng_seed" in res.output


def first_object(**entries):
    """Edit of a scene's JSON that updates its first object."""
    return lambda scene: scene["objects"][0].update(entries)


# (test id, edit of a scene's JSON, what the one-line message names)
BAD_SCENES = [
    ("seed-negative", lambda scene: scene.update(rng_seed=-1), "rng_seed"),
    ("seed-fraction", lambda scene: scene.update(rng_seed=1.5), "rng_seed"),
    ("seed-bool", lambda scene: scene.update(rng_seed=True), "rng_seed"),
    ("no-frame", lambda scene: scene.update(duration=0.04),
     "less than one frame"),
    ("kind-spline", lambda scene: scene["objects"][0]["trajectory"].update(
        kind="spline"), "'spline'"),
    ("class-truck", first_object(class_label="truck"), "'truck'"),
    ("id-text", first_object(object_id="x"), "object_id is 'x'"),
    ("id-repeated", first_object(object_id=2), "not distinct"),
]


@pytest.mark.parametrize("edit, message", [case[1:] for case in BAD_SCENES],
                         ids=[case[0] for case in BAD_SCENES])
def test_simulate_bad_scene_exits_1_with_one_line(tmp_path, edit, message):
    scene = scene_spec_to_json(small_scene(duration=0.2))
    edit(scene)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    res = CliRunner().invoke(cli_main, ["simulate", "--scene", str(path),
                                        "--out", str(tmp_path / "seq")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert message in res.output


@pytest.mark.parametrize("text, message", [
    ("t,x,y\r\n0.0,30.0,3.0\r\n0.1,abc,3.0\r\n",
     "object_1.csv, row 1: t, x or y is missing or not a number"),
    ("t,x,y\r\n0.0,30.0\r\n", "object_1.csv, row 0: t, x or y is missing"),
    ("t,x\r\n0.0,30.0\r\n", "object_1.csv: no column y"),
], ids=["non-numeric", "short row", "missing column"])
def test_evaluate_bad_trajectory_exits_1(tmp_path, text, message):
    traj = tmp_path / "object_1.csv"
    traj.write_text(text)
    write_ground_truth(tmp_path, [{"frame": 0, "objects": []}])
    res = CliRunner().invoke(cli_main, [
        "evaluate", str(traj),
        "--ground-truth", str(tmp_path / "ground_truth.jsonl"),
        "--out", str(tmp_path / "eval.json")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert message in res.output


def test_evaluate_bad_scene_exits_1(tmp_path):
    traj = tmp_path / "object_1.csv"
    write_trajectory_csv(traj, [TrackSample(t=0.0, x=30.0, y=3.0)])
    write_ground_truth(tmp_path, [{"frame": 0, "objects": []}])
    (tmp_path / "scene.json").write_text('{"frame_rate": 0}')
    res = CliRunner().invoke(cli_main, [
        "evaluate", str(traj),
        "--ground-truth", str(tmp_path / "ground_truth.jsonl"),
        "--out", str(tmp_path / "eval.json")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert "scene.json: frame_rate is 0, not a finite positive number" \
        in res.output


def test_evaluate_bad_ground_truth_exits_1(tmp_path):
    traj = tmp_path / "object_1.csv"
    write_trajectory_csv(traj, [TrackSample(t=0.0, x=30.0, y=3.0)])
    write_ground_truth(tmp_path, [{"frame": 0, "objects": [{"object_id": 1}]}])
    res = CliRunner().invoke(cli_main, [
        "evaluate", str(traj),
        "--ground-truth", str(tmp_path / "ground_truth.jsonl"),
        "--out", str(tmp_path / "eval.json")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert "ground_truth.jsonl, line 1: no key 'x'" in res.output
