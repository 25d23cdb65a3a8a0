"""Inputs, operations and output checks of the benchmark workloads.

Every input is made from the workload seed, and the program under test
sees only the generated scenes, frames and sequence directories. Each
workload is a closed loop with one client: the next operation starts
when the previous one has returned.

The operations call the same public functions as the ``simulate`` and
``fuse`` commands and the in-memory harness of the acceptance tests.
They reach them through module attributes (``pipeline.run_sequence``,
``simulate_sequence`` in this module, ...) so that the traced run can
rebind those names; see ``spans.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np

from probfusion import pipeline, sim
from probfusion.aoi import EnlargeRatios
from probfusion.config import (PipelineConfig, load_pipeline_config,
                               write_pipeline_config)
from probfusion.io import FrameRecord, dump_simulated_sequence, load_sequence
from probfusion.metrics import ToleranceConfig, tpr
from probfusion.shape import BenchmarkShapeRegistry
from probfusion.sim import (ObjectSpec, SceneSpec, Trajectory,
                            simulate_sequence)

# Unbound method, so that the traced run can rebind it like a function.
save_registry = BenchmarkShapeRegistry.save

# Statuses run_fusion_frame may give a detection.
STATUSES = frozenset({"ok", "NoQualifiedCluster", "EmptyInput",
                      "EmptyCluster"})

# Seed reserved for confirming a claimed gain; do not tune against it.
HELD_OUT_SEED = 7919


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of the index-th input of a workload run, derived from its seed."""
    tag = sum(workload.encode())
    return int(np.random.SeedSequence([tag, seed, index]).generate_state(1)[0])


def reference_registry() -> BenchmarkShapeRegistry:
    return BenchmarkShapeRegistry(shapes=sim.reference_benchmarks(),
                                  sample_counts={})


def in_memory_config() -> PipelineConfig:
    """The configuration of the in-memory harness of the acceptance tests."""
    return PipelineConfig(
        calibration_path=Path("unused"),
        enlarge_ratios={"default": EnlargeRatios(left=1.0, right=1.0,
                                                 up=0.5, down=0.5)})


def frame_record(fr) -> FrameRecord:
    return FrameRecord(frame_id=fr.frame_id, t=fr.t, cloud=fr.cloud,
                       observed_uv=fr.observed_uv, uv_valid=fr.uv_valid,
                       detections=fr.detections)


# ------------------------------------------------------------ overtaking

def simulate_to_dir(seq_dir: Path, seed: int, registry, calib,
                    duration: float = 5.2) -> int:
    """What ``probfusion simulate --seed <seed> --out <dir>`` does.

    Returns the number of frames written.
    """
    spec = sim.overtaking_scene(rng_seed=seed, duration=duration)
    frames = simulate_sequence(spec, calib, sim.DEFAULT_ERROR_MODEL)
    dump_simulated_sequence(seq_dir, frames, calib, spec)
    save_registry(registry, seq_dir / "benchmarks.json")
    write_pipeline_config(
        seq_dir / "config.json",
        calibration="calibration.json",
        benchmark_registry="benchmarks.json",
        rng_seed=seed,
        enlarge_ratios={"default": {"left": 1.0, "right": 1.0,
                                    "up": 0.5, "down": 0.5}},
        guarantee={"t1": 1.0, "t2": 0.9, "t1_fraction": 0.2},
        target_object_ids=[obj.object_id for obj in spec.objects[:1]],
    )
    return len(frames)


def fuse_dir(seq_dir: Path, out_dir: Path) -> dict:
    """What ``probfusion fuse <dir> --config <dir>/config.json`` does."""
    cfg = load_pipeline_config(seq_dir / "config.json")
    return pipeline.run_sequence(seq_dir, cfg, out_dir=out_dir)


def count_detections(seq_dir: Path) -> int:
    with open(seq_dir / "detections.jsonl") as fh:
        return sum(1 for line in fh if line.strip())


def bytes_written(seq_dir: Path) -> int:
    return sum(p.stat().st_size for p in seq_dir.rglob("*") if p.is_file())


def check_report(report_path: Path, n_frames: int, n_detections: int) -> list:
    """Problems with one fused sequence's report.json; empty when correct.

    Every detection of the sequence must have exactly one diagnostics
    entry, which is what the per-object frame counts of the report add
    up (all simulated objects have ground truth).
    """
    problems = []
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    if report.get("n_frames") != n_frames:
        problems.append(f"n_frames {report.get('n_frames')} != {n_frames}")
    evaluation = report.get("evaluation", {})
    agg = evaluation.get("aggregate", {})
    for key in ("fusion_tpr_mean", "mae_x", "mae_y"):
        value = agg.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"aggregate {key} is {value!r}")
    statuses = sum(obj.get("frames", 0)
                   for obj in evaluation.get("objects", {}).values())
    if statuses != n_detections:
        problems.append(f"{statuses} detection statuses for "
                        f"{n_detections} detections")
    soft = report.get("soft_failures")
    if not isinstance(soft, int) or not 0 <= soft <= n_detections:
        problems.append(f"soft_failures {soft!r} out of range")
    return problems


def check_statuses(frames, diags) -> list:
    """Each detection of each frame has one diagnostics entry and status."""
    problems = []
    for frame, diag in zip(frames, diags):
        ids = [det.object_id for det in frame.detections]
        if sorted(ids) != sorted(diag.objects):
            problems.append(f"frame {frame.frame_id}: detections {ids} vs "
                            f"diagnostics {sorted(diag.objects)}")
        for odiag in diag.objects.values():
            if odiag.status not in STATUSES:
                problems.append(f"frame {frame.frame_id} object "
                                f"{odiag.object_id}: status {odiag.status!r}")
    if len(diags) != len(frames):
        problems.append(f"{len(diags)} diagnostics for {len(frames)} frames")
    return problems


def check_determinism(seq_dir: Path, work: Path) -> list:
    """Fuse one directory twice; reports must match byte for byte.

    The first fusion also captures every frame's diagnostics to check
    that each detection got exactly one status.
    """
    captured = []
    real = pipeline.run_fusion_frame

    def capture(frame, *args, **kwargs):
        locs, diag = real(frame, *args, **kwargs)
        captured.append(diag)
        return locs, diag

    pipeline.run_fusion_frame = capture
    try:
        fuse_dir(seq_dir, work / "det_a")
    finally:
        pipeline.run_fusion_frame = real
    fuse_dir(seq_dir, work / "det_b")
    a = (work / "det_a" / "report.json").read_bytes()
    b = (work / "det_b" / "report.json").read_bytes()
    problems = [] if a == b else ["report.json differs between two fusions"]
    frames, _ = load_sequence(seq_dir)
    problems += check_statuses(frames, captured)
    shutil.rmtree(work / "det_a", ignore_errors=True)
    shutil.rmtree(work / "det_b", ignore_errors=True)
    return problems


# ------------------------------------------------------- dense and crowd

@dataclasses.dataclass
class FrameInput:
    record: FrameRecord
    gt_poses: dict   # object_id -> {"x", "y", "range", "class"}


def dense_spec(seed: int, n_points: int) -> SceneSpec:
    """The default fixture with a full LiDAR sweep of ground points,
    sampled at 1 Hz so that the frames of one scene span the overtaking."""
    return dataclasses.replace(sim.overtaking_scene(rng_seed=seed),
                               n_ground_points=n_points, frame_rate=1.0)


def crowd_spec(seed: int, n_objects: int, duration: float,
               near_car: bool) -> SceneSpec:
    """A street crossing: mostly pedestrians plus a few cars, 8-55 m out.

    Distances are stratified over the ground area (one object per equal
    area band, so more of them far away): every scene then has about
    the same number of near objects, and frame cost varies less from
    scene to scene. Cars stay out of the nearest band, except that with
    near_car one car stands 8-9 m out; its points push the non-ground
    share of the cloud past the RANSAC inlier floor, so that frame skips
    ground removal. Objects start inside the camera's horizontal field
    of view (about +-42 degrees) and move slowly enough to stay there.
    """
    rng = np.random.default_rng(seed)
    bands = (np.arange(n_objects) + rng.uniform(size=n_objects)) / n_objects
    distances = np.sqrt(8.0 ** 2 + bands * (55.0 ** 2 - 8.0 ** 2))
    n_cars = (n_objects + 4) // 5
    cars = set((1 + rng.choice(n_objects - 1, size=n_cars - near_car,
                               replace=False)).tolist())
    if near_car:
        cars.add(0)
        distances[0] = rng.uniform(8.0, 9.0)
    objects = []
    for i, x0 in enumerate(distances.tolist()):
        y_lim = min(12.0, 0.6 * x0)
        y0 = float(rng.uniform(-y_lim, y_lim))
        if i in cars:
            vx, vy = float(rng.uniform(-4.0, 4.0)), 0.0
        else:
            vx, vy = (float(v) for v in rng.uniform(-1.2, 1.2, size=2))
        objects.append(ObjectSpec(
            object_id=i + 1, class_label="car" if i in cars else "pedestrian",
            trajectory=Trajectory(x_coeffs=(x0, vx), y_coeffs=(y0, vy))))
    return SceneSpec(duration=duration, frame_rate=10.0,
                     objects=tuple(objects), rng_seed=seed)


def simulate_frames(specs, calib) -> list:
    inputs = []
    for spec in specs:
        for fr in simulate_sequence(spec, calib, sim.DEFAULT_ERROR_MODEL):
            inputs.append(FrameInput(record=frame_record(fr),
                                     gt_poses=fr.gt_poses))
    return inputs


def fuse_frame(inp: FrameInput, calib, cfg, registry):
    return pipeline.run_fusion_frame(inp.record, calib, cfg, registry)


def check_frame(inp: FrameInput, locs, diag) -> list:
    """Every detection has diagnostics; every ok one a finite location."""
    problems = check_statuses([inp.record], [diag])
    ok = {oid for oid, o in diag.objects.items() if o.status == "ok"}
    if {loc.object_id for loc in locs} != ok or len(locs) != len(ok):
        problems.append(f"frame {inp.record.frame_id}: localizations do not "
                        "match the ok detections")
    for loc in locs:
        if not (math.isfinite(loc.x_m) and math.isfinite(loc.y_m)):
            problems.append(f"object {loc.object_id}: non-finite location")
    for oid in ok:
        if not diag.objects[oid].selected_indices:
            problems.append(f"object {oid}: ok without selected points")
    return problems


def frame_quality(inp: FrameInput, locs, diag, tol: ToleranceConfig) -> dict:
    """Detections, soft failures, per-detection TPRs and location errors."""
    tprs = []
    for oid, odiag in diag.objects.items():
        gt = inp.gt_poses.get(oid)
        if gt is not None and odiag.selected_ranges:
            tprs.append(tpr(odiag.selected_ranges, gt["range"],
                            odiag.class_label, tol).rate)
    err_x = [abs(loc.x_m - inp.gt_poses[loc.object_id]["x"]) for loc in locs]
    err_y = [abs(loc.y_m - inp.gt_poses[loc.object_id]["y"]) for loc in locs]
    return {"detections": len(diag.objects),
            "soft_failures": sum(1 for o in diag.objects.values()
                                 if o.status != "ok"),
            "tpr": tprs, "err_x": err_x, "err_y": err_y}
