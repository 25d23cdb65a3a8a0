"""Sequence IO, pipeline configuration, frame fusion, and the CLI."""

import csv
import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from probfusion.aoi import BoundingBox, EnlargeRatios
from probfusion.calib import CalibrationPair, save_calibration
from probfusion.classes import CLASSES
from probfusion.cli import main as cli_main
from probfusion.config import (PipelineConfig, load_pipeline_config,
                               write_pipeline_config)
from probfusion.errors import ConfigError, EmptySequence, FusionError
from probfusion.io import (WRITE_BLOCK_ROWS, _map_frames, cloud_csv_path,
                           load_sequence,
                           read_detections, read_frame_cloud,
                           read_ground_truth, read_trajectory_csv,
                           write_detections, write_frame_cloud,
                           write_ground_truth, write_report,
                           write_trajectory_csv)
import conftest
import oracles
from probfusion import ground as ground_module
from probfusion import io as io_module
from probfusion import pipeline as pipeline_module
from probfusion import shape as shape_module
from probfusion import smoother as smoother_module
from probfusion.pipeline import run_fusion_frame, run_sequence
from probfusion.shape import BenchmarkShapeRegistry
from probfusion.sim import (DEFAULT_ERROR_MODEL, SIMULATED_GUARANTEE,
                            SIMULATED_RATIOS, default_calibration,
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


def use_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def within_30_s():
    """Fail the test, instead of hanging the suite, after 30 s."""
    def expire(signum, frame):
        raise TimeoutError("still waiting after 30 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("within_30_s")
class TestMapFrames:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_calls", range(1, 8))
    def test_results_in_call_order(self, monkeypatch, cpus, n_calls):
        use_cpus(monkeypatch, cpus)
        got = _map_frames(lambda i, j: (i + j, os.getpid()),
                          [(i, 10 * i) for i in range(n_calls)])
        assert [value for value, _ in got] == [11 * i for i in range(n_calls)]
        # One process per CPU, at most two.
        pids = {pid for _, pid in got}
        assert len(pids) <= min(cpus, 2, n_calls)
        if cpus == 1:
            assert pids == {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_every_call_claimed_once_by_more_processes_than_cpus(
            self, monkeypatch):
        # Six processes race for 20000 instant calls on the shared
        # counter: a claim lost or made twice would drop or repeat one.
        use_cpus(monkeypatch, 6)
        monkeypatch.setattr(io_module, "FRAME_PROCESSES", 6)
        got = _map_frames(lambda i: (i, os.getpid()),
                          [(i,) for i in range(20000)])
        assert [i for i, _ in got] == list(range(20000))
        assert len({pid for _, pid in got}) <= 6
        assert multiprocessing.active_children() == []

    def test_busy_process_claims_fewer_calls(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def fn(i):
            if os.getpid() == caller:
                time.sleep(0.3)
            return os.getpid()
        pids = _map_frames(fn, [(i,) for i in range(8)])
        assert len(pids) == 8
        assert pids.count(caller) <= 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_calls", range(1, 8))
    def test_earliest_failure_raised(self, monkeypatch, cpus, n_calls):
        use_cpus(monkeypatch, cpus)
        for first_bad in range(n_calls):
            def fn(i):
                if i >= first_bad:  # later calls fail with the other type
                    raise (OSError if i % 2 else ValueError)(f"call {i}")
                return i
            error = OSError if first_bad % 2 else ValueError
            with pytest.raises(error) as raised:
                _map_frames(fn, [(i,) for i in range(n_calls)])
            assert type(raised.value) is error
            assert str(raised.value) == f"call {first_bad}"
            assert multiprocessing.active_children() == []

    def test_child_exit_without_sending(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def fn(i):
            if os.getpid() != caller:
                os._exit(7)
            time.sleep(0.3)  # so that the child claims a call
            return i
        with pytest.raises(FusionError, match="exited with code 7 "):
            _map_frames(fn, [(i,) for i in range(4)])
        assert multiprocessing.active_children() == []

    def test_failing_write_leaves_whole_files(self, monkeypatch, tmp_path):
        # Frame 3 fails half written. Every frame before it was written,
        # and every other frame file there is whole: the child is not
        # ended in the middle of a file.
        spec = small_scene(seed=2)
        use_cpus(monkeypatch, 1)
        write_sequence_dir(tmp_path / "whole", spec, DEFAULT_ERROR_MODEL)
        whole = {path.name: path.read_bytes()
                 for path in (tmp_path / "whole" / "clouds").iterdir()}

        def write_slowly(seq_dir, frame_id, *arrays):
            path = cloud_csv_path(seq_dir, frame_id)
            path.parent.mkdir(exist_ok=True)
            data = whole[path.name]
            with open(path, "wb") as fh:
                fh.write(data[:len(data) // 2])
                fh.flush()
                if frame_id == 3:
                    raise OSError("disk full")
                time.sleep(0.02)
                fh.write(data[len(data) // 2:])
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(io_module, "write_frame_cloud", write_slowly)
        with pytest.raises(OSError, match="^disk full$"):
            write_sequence_dir(tmp_path / "failed", spec, DEFAULT_ERROR_MODEL)
        assert multiprocessing.active_children() == []
        written = {path.name: path.read_bytes()
                   for path in (tmp_path / "failed" / "clouds").iterdir()}
        failed = "frame_000003.csv"
        assert written.pop(failed) == whole[failed][:len(whole[failed]) // 2]
        assert {f"frame_{i:06d}.csv" for i in range(3)} <= written.keys()
        for name, data in written.items():
            assert data == whole[name], name

    def test_daemonic_process_runs_every_call(self, monkeypatch):
        # A daemonic process, such as a Pool worker, may not start
        # children, so it runs every call itself.
        use_cpus(monkeypatch, 2)
        receiver, sender = multiprocessing.Pipe(duplex=False)

        def run():
            try:
                sender.send(_map_frames(lambda i: (i, os.getpid()),
                                        [(i,) for i in range(4)]))
            except Exception as exc:
                sender.send(repr(exc))
        worker = multiprocessing.get_context("fork").Process(target=run,
                                                             daemon=True)
        worker.start()
        got = receiver.recv()
        worker.join()
        assert got == [(i, worker.pid) for i in range(4)]

    def test_one_cpu_and_two_write_and_read_the_same(self, monkeypatch,
                                                     tmp_path):
        spec = small_scene(seed=2)
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            write_sequence_dir(tmp_path / str(cpus), spec, DEFAULT_ERROR_MODEL)
        files = sorted(path.relative_to(tmp_path / "1")
                       for path in (tmp_path / "1").rglob("*"))
        assert files == sorted(path.relative_to(tmp_path / "2")
                               for path in (tmp_path / "2").rglob("*"))
        assert Path("clouds/frame_000011.csv") in files
        for name in files:
            if (tmp_path / "1" / name).is_file():
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / "2" / name).read_bytes(), name
        loaded = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            loaded.append(load_sequence(tmp_path / "1"))
        (one, gt_one), (two, gt_two) = loaded
        assert gt_one == gt_two
        assert len(one) == len(two) == 12
        for a, b in zip(one, two):
            assert (a.frame_id, a.t, a.detections) == \
                (b.frame_id, b.t, b.detections)
            for name in ("cloud", "observed_uv", "uv_valid"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.shape, x.flags["C_CONTIGUOUS"]) == \
                    (y.dtype, y.shape, y.flags["C_CONTIGUOUS"]), name
                assert x.tobytes() == y.tobytes(), name


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

    def test_ratios_for_builds_no_ratios(self, monkeypatch):
        # Looked up once per detection: the lookup of a class's own
        # ratios, of "default" and of the library default builds none.
        car, default = EnlargeRatios(left=2.0), EnlargeRatios(left=3.0)
        configs = [PipelineConfig(Path("calibration.json"),
                                  enlarge_ratios=ratios)
                   for ratios in ({"car": car, "default": default},
                                  {"car": car}, {})]
        built = []
        post_init = EnlargeRatios.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(EnlargeRatios, "__post_init__",
                            counting_post_init)
        assert configs[0].ratios_for("car") is car
        assert configs[0].ratios_for("pedestrian") is default
        assert configs[1].ratios_for("pedestrian") == EnlargeRatios()
        built.clear()
        for cfg in configs:
            for label in CLASSES:
                cfg.ratios_for(label)
        assert built == []

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
            granularity = CLASSES[pose["class"]].granularity_m
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

    def test_smoothed_track_ends_at_last_localization(self, tmp_path):
        # The car is localized up to t = 7.2 s of the 12 s scene; its
        # smoothed track is not extended past that, and MAE counts no
        # frame after it.
        seq_dir = tmp_path / "seq"
        write_sequence_dir(seq_dir, overtaking_scene(0, duration=12.0),
                           DEFAULT_ERROR_MODEL)
        cfg = load_pipeline_config(seq_dir / "config.json")
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "raw", no_smoother=True)
        run_sequence(seq_dir, cfg, out_dir=tmp_path / "smooth")
        raw, smooth = (read_trajectory_csv(tmp_path / out / "trajectories"
                                           / "object_1.csv")
                       for out in ("raw", "smooth"))
        assert raw[-1].t <= 7.2
        assert (smooth[0].t, smooth[-1].t) == (raw[0].t, raw[-1].t)

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
        got, _ = self.fuse_both_ways(conftest.crowd_scene(), monkeypatch)
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

    @pytest.mark.parametrize("text, message", [
        ("[1]", "cluster.json: not a JSON object"),
        ('{"class": "car"}', "cluster.json: 'points'"),
        ('{"class": 5, "points": [[0, 0], [0, 1], [1, 0]]}',
         "cluster.json: class is 5, not a string"),
        ('{"class": "car", "points": [[0, 0], [NaN, 1], [1, 0]]}',
         "cluster.json: points[1][0] must be a finite number, got nan"),
        ('{"class": "car", "points": [[0, 0], [0, "1"], [1, 0]]}',
         "cluster.json: points[1][1] must be a finite number, got '1'"),
        ('{"class": "car", "points": [[true, 0], [0, 1], [1, 0]]}',
         "cluster.json: points[0][0] must be a finite number, got True"),
        ('{"class": "car", "points": [[0, 0, 1], [0, 1, 1]]}',
         "cluster.json: points[0] is [0, 0, 1], not a [u, v] pair"),
    ], ids=["list", "no-points", "class-number", "point-nan", "point-text",
            "point-bool", "point-triple"])
    def test_benchmark_shapes_bad_file_exits_1(self, tmp_path, text, message):
        path = tmp_path / "cluster.json"
        path.write_text(text)
        res = CliRunner().invoke(cli_main, ["benchmark-shapes", str(path),
                                            "--out", str(tmp_path / "b.json")])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.strip().splitlines()) == 1
        assert message in res.output

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


def duplicate_first_detection(seq):
    """Edit that repeats the first detection as the second line."""
    path = seq / "detections.jsonl"
    lines = path.read_text().splitlines()
    lines.insert(1, lines[0])
    path.write_text("\n".join(lines) + "\n")


def bad_byte(name, line_no):
    """Edit that starts one line of a file with a byte UTF-8 never has."""
    def apply(seq):
        lines = (seq / name).read_bytes().splitlines(keepends=True)
        lines[line_no] = b"\xff" + lines[line_no]
        (seq / name).write_bytes(b"".join(lines))
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


def json_file(name, edit):
    """Edit that rewrites a JSON file of the sequence."""
    def apply(seq):
        raw = json.loads((seq / name).read_text())
        edit(raw)
        (seq / name).write_text(json.dumps(raw))
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
    ("undecodable cloud row", bad_byte("clouds/frame_000001.csv", 6),
     "frame_000001.csv, line 7: not UTF-8 text"),
    ("undecodable cloud header", bad_byte("clouds/frame_000000.csv", 0),
     "frame_000000.csv, line 1: not UTF-8 text"),
    ("undecodable detections", bad_byte("detections.jsonl", 1),
     "detections.jsonl, line 2: not UTF-8 text"),
    ("undecodable ground truth", bad_byte("ground_truth.jsonl", 0),
     "ground_truth.jsonl, line 1: not UTF-8 text"),
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
    ("detection repeated", duplicate_first_detection,
     "detections.jsonl, line 2: frame 0 object 1 is also on line 1"),
    ("fractional frame",
     first_json_line("detections.jsonl", lambda rec: rec.update(frame=0.7)),
     "detections.jsonl, line 1: frame must be an integer, got 0.7"),
    ("bool frame",
     first_json_line("detections.jsonl", lambda rec: rec.update(frame=True)),
     "detections.jsonl, line 1: frame must be an integer, got True"),
    ("fractional object id",
     first_json_line("detections.jsonl",
                     lambda rec: rec.update(object_id=1.5)),
     "detections.jsonl, line 1: object_id must be an integer, got 1.5"),
    ("text in box",
     first_json_line("detections.jsonl",
                     lambda rec: rec["box"].__setitem__(0, "100")),
     "detections.jsonl, line 1: box[0] must be a finite number, got '100'"),
    ("infinite box",
     first_json_line("detections.jsonl",
                     lambda rec: rec["box"].__setitem__(2, float("inf"))),
     "detections.jsonl, line 1: box[2] must be a finite number, got inf"),
    ("ground truth without range",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].pop("range")),
     "ground_truth.jsonl, line 1: no key 'range'"),
    ("non-numeric ground truth x",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(x="abc")),
     "ground_truth.jsonl, line 1: object 1: x must be a finite number, "
     "got 'abc'"),
    ("nan ground truth x",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(x=float("nan"))),
     "ground_truth.jsonl, line 1: object 1: x must be a finite number, "
     "got nan"),
    ("infinite ground truth range",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(range=float("inf"))),
     "ground_truth.jsonl, line 1: object 1: range must be a finite number "
     "> 0, got inf"),
    ("fractional ground truth frame",
     first_json_line("ground_truth.jsonl", lambda rec: rec.update(frame=0.5)),
     "ground_truth.jsonl, line 1: frame must be an integer, got 0.5"),
    ("bool ground truth y",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(y=True)),
     "ground_truth.jsonl, line 1: object 1: y must be a finite number, "
     "got True"),
    ("ground truth members not a list",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(members=5)),
     "ground_truth.jsonl, line 1: object 1: members is not a list"),
    ("ground truth member text",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0]["members"].append("a")),
     "ground_truth.jsonl, line 1: object 1: members is not a list of "
     "integers"),
    ("ground truth member bool",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0]["members"].append(True)),
     "ground_truth.jsonl, line 1: object 1: members is not a list of "
     "integers"),
    ("ground truth member fraction",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0]["members"].append(0.5)),
     "ground_truth.jsonl, line 1: object 1: members is not a list of "
     "integers"),
    ("zero ground truth range",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(range=0)),
     "ground_truth.jsonl, line 1: object 1: range must be a finite number "
     "> 0, got 0"),
    ("negative ground truth range",
     first_json_line("ground_truth.jsonl",
                     lambda rec: rec["objects"][0].update(range=-1)),
     "ground_truth.jsonl, line 1: object 1: range must be a finite number "
     "> 0, got -1"),
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
     "scene.json: frame_rate must be a finite number > 0, got 0"),
    ("negative frame rate", scene_frame_rate(-5),
     "scene.json: frame_rate must be a finite number > 0, got -5"),
    ("text frame rate", scene_frame_rate("10"),
     "scene.json: frame_rate must be a finite number > 0, got '10'"),
    ("calibration distortion", json_file(
        "calibration.json",
        lambda raw: raw.update(distortion=[0.1, 0, 0, 0, 0])),
     "calibration.json: nonzero distortion coefficients are not supported"),
    ("calibration without intrinsics", json_file(
        "calibration.json", lambda raw: raw.pop("intrinsics")),
     "calibration.json: 'intrinsics'"),
    ("calibration not JSON",
     lambda seq: (seq / "calibration.json").write_text("{bad"),
     "calibration.json: Expecting property name"),
    ("benchmarks not an object",
     lambda seq: (seq / "benchmarks.json").write_text("[1, 2]"),
     "benchmarks.json: not a JSON object"),
    ("benchmark text", json_file("benchmarks.json",
                                 lambda raw: raw.update(car="abc")),
     "benchmarks.json: car: weights is 'abc', not 9 numbers"),
    ("benchmark of 3 weights", json_file("benchmarks.json",
                                         lambda raw: raw.update(car=[1, 2, 3])),
     "benchmarks.json: car: weights is [1, 2, 3], not 9 numbers"),
    ("benchmark nan", json_file(
        "benchmarks.json", lambda raw: raw.update(car=[float("nan")] * 9)),
     "benchmarks.json: car: weights[0] must be a finite number, got nan"),
    ("benchmark text weight", json_file(
        "benchmarks.json",
        lambda raw: raw["car"].__setitem__(4, repr(raw["car"][4]))),
     "benchmarks.json: car: weights[4] must be a finite number, got '0."),
    ("calibration nan translation", json_file(
        "calibration.json",
        lambda raw: raw["extrinsic"]["translation"].__setitem__(
            0, float("nan"))),
     "calibration.json: extrinsic.translation[0] must be a finite number, "
     "got nan"),
    ("calibration text rotation", json_file(
        "calibration.json",
        lambda raw: raw["extrinsic"]["rotation"].__setitem__(0, "0")),
     "calibration.json: extrinsic.rotation[0] must be a finite number, "
     "got '0'"),
    ("calibration text distortion", json_file(
        "calibration.json", lambda raw: raw.update(distortion=["0"] * 5)),
     "calibration.json: distortion[0] must be a finite number, got '0'"),
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
    ("targets-text", {"target_object_ids": "1"}, "target_object_ids"),
    ("targets-fraction", {"target_object_ids": [1.5]}, "target_object_ids"),
    ("output-dir-number", {"output_dir": 5}, "output_dir"),
    ("kmeans-k-fraction", {"clustering": {"kmeans_k": 2.5}},
     "clustering: kmeans_k"),
    ("kmeans-max-iter-fraction", {"clustering": {"kmeans_max_iter": 2.5}},
     "clustering: kmeans_max_iter"),
    ("ransac-subset-fraction", {"smoother": {"ransac_subset": 4.5}},
     "smoother: ransac_subset"),
    ("t1-fraction-text", {"guarantee": {"t1_fraction": "0.2"}},
     "guarantee: t1_fraction"),
    ("delta-nan", {"ransac_ground": {"delta": float("nan")}},
     "ransac_ground: delta"),
    ("granularity-removed", {"clustering": {"granularity": {"car": 2.0}}},
     "clustering: ClusteringConfig.__init__() got an unexpected keyword "
     "argument 'granularity'"),
    ("object-length-removed",
     {"tolerance": {"object_length_m": {"car": 4.5}}},
     "tolerance: ToleranceConfig.__init__() got an unexpected keyword "
     "argument 'object_length_m'"),
    ("misspelled-key", {"target_object_id": [1]},
     "unknown key 'target_object_id'"),
    ("ratios-misspelled-class",
     {"enlarge_ratios": {"pedestrain": {"left": 3.0}}},
     "unknown key 'enlarge_ratios.pedestrain'"),
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


def test_fuse_cluster_at_planar_origin_exits_0(tmp_path, two_frame_sequence):
    # Frame 0 becomes ten "no return" rows at (0, 0, z) inside the first
    # detection's box; the object localizes at the origin and the
    # sequence goes on.
    seq = tmp_path / "seq"
    shutil.copytree(two_frame_sequence, seq)
    det = read_detections(seq / "detections.jsonl")[0][0]
    uv = np.tile([(det.u_min + det.u_max) / 2, (det.v_min + det.v_max) / 2],
                 (10, 1))
    cloud = np.column_stack([np.zeros((10, 2)), np.linspace(-1.0, 1.0, 10)])
    write_frame_cloud(seq, 0, cloud, uv, np.ones(10, dtype=bool))
    res = CliRunner().invoke(cli_main, [
        "fuse", str(seq), "--config", str(seq / "config.json"),
        "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    rows = read_trajectory_csv(tmp_path / "out" / "trajectories"
                               / f"object_{det.object_id}.csv")
    assert len(rows) == 2


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


def waypoints(times, points):
    """Edit of a scene's JSON that gives its first object waypoints."""
    return first_object(trajectory={"kind": "waypoints", "times": times,
                                    "points": points})


# (test id, edit of a scene's JSON, what the one-line message names)
BAD_SCENES = [
    ("seed-negative", lambda scene: scene.update(rng_seed=-1), "rng_seed"),
    ("seed-fraction", lambda scene: scene.update(rng_seed=1.5), "rng_seed"),
    ("seed-bool", lambda scene: scene.update(rng_seed=True), "rng_seed"),
    ("no-frame", lambda scene: scene.update(duration=0.04),
     "less than one frame"),
    ("duration-infinite", lambda scene: scene.update(duration=float("inf")),
     "scene.json: duration must be a finite number > 0, got inf"),
    ("kind-spline", lambda scene: scene["objects"][0]["trajectory"].update(
        kind="spline"), "'spline'"),
    ("class-truck", first_object(class_label="truck"), "'truck'"),
    ("id-text", first_object(object_id="x"),
     "object_id must be an integer, got 'x'"),
    ("id-repeated", first_object(object_id=2), "not distinct"),
    ("trajectory-number", first_object(trajectory=5),
     "object 1: trajectory is 5, not a JSON object"),
    ("object-key-unknown", lambda scene: scene["objects"][1].update(
        colour="red"), "object 2: unknown key 'colour'"),
    ("waypoints-mismatched", waypoints([0.0, 1.0], [[30.0, 3.0]]),
     "not 2 (x, y) pairs"),
    ("waypoints-empty", waypoints([], []), "waypoint times are ()"),
    ("waypoints-repeated-time", waypoints([0.0, 0.0], [[30.0, 3.0]] * 2),
     "not strictly increasing"),
    ("coeffs-text", lambda scene: scene["objects"][0]["trajectory"].update(
        x_coeffs="abc"), "x_coeffs is 'abc'"),
    ("ground-points-text", lambda scene: scene.update(n_ground_points="5"),
     "scene.json: n_ground_points must be an integer >= 0, got '5'"),
    ("ground-points-fraction",
     lambda scene: scene.update(n_ground_points=30.5),
     "scene.json: n_ground_points must be an integer >= 0, got 30.5"),
    ("clutter-negative", lambda scene: scene.update(background_clutter=-3),
     "scene.json: background_clutter must be an integer >= 0, got -3"),
    ("min-points-bool", lambda scene: scene.update(min_object_points=True),
     "scene.json: min_object_points must be an integer >= 0, got True"),
    ("sensor-height-text", lambda scene: scene.update(sensor_height="1.8"),
     "scene.json: sensor_height must be a finite number >= 0, got '1.8'"),
    ("noise-negative", lambda scene: scene.update(ground_noise_sigma=-0.1),
     "scene.json: ground_noise_sigma must be a finite number >= 0, got -0.1"),
    ("density-zero", lambda scene: scene.update(point_density=0),
     "scene.json: point_density must be a finite number > 0, got 0"),
    ("density-text", lambda scene: scene.update(point_density="dense"),
     "scene.json: point_density must be a finite number > 0, got 'dense'"),
    ("id-ground-label", first_object(object_id=-1),
     "object_id -1 cannot label points"),
    ("id-beyond-64-bits", first_object(object_id=2 ** 70),
     f"object_id {2 ** 70} cannot label points"),
    ("width-misspelled", first_object(widht=1.0),
     "object 1: unknown key 'widht'"),
    ("length-removed", first_object(length=10.0),
     "object 1: unknown key 'length'"),
    ("width-zero", first_object(width=0),
     "object 1: width must be a finite number > 0, got 0"),
    ("at-lidar-origin", first_object(trajectory={"x_coeffs": [0.0]}),
     "object 1 is at the LiDAR origin at t = 0.0 s"),
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


@pytest.mark.parametrize("data, message", [
    (b"t,x,y\r\n0.0,30.0,3.0\r\n0.1,abc,3.0\r\n",
     "object_1.csv, row 1: t, x or y is missing or not a number"),
    (b"t,x,y\r\n0.0,30.0\r\n", "object_1.csv, row 0: t, x or y is missing"),
    (b"t,x\r\n0.0,30.0\r\n", "object_1.csv: no column y"),
    (b"t,x,y\r\n0.0,30.0,3.0\r\n0.1,nan,3.0\r\n",
     "object_1.csv, row 1: x must be a finite number, got nan"),
    (b"t,x,y\r\ninf,30.0,3.0\r\n",
     "object_1.csv, row 0: t must be a finite number, got inf"),
    (b"t,x,y\r\n0.0,30.0,3.0\r\n0.1,\xff,3.0\r\n",
     "object_1.csv, line 3: not UTF-8 text"),
], ids=["non-numeric", "short row", "missing column", "nan", "infinite",
        "undecodable"])
def test_evaluate_bad_trajectory_exits_1(tmp_path, data, message):
    traj = tmp_path / "object_1.csv"
    traj.write_bytes(data)
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
    assert "scene.json: frame_rate must be a finite number > 0, got 0" \
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
