"""Deterministic synthetic-scene oracle.

Generates a ground plane, class-typical objects on scripted
trajectories, LiDAR returns with per-point ground-truth labels, ideal
pixel mappings, detection boxes, and injects configurable mapping
errors (correlated pixel shifts, box jitter, detection dropout) while
leaving the ground truth untouched.

Frame-local RNG streams are derived from (scene seed, frame id) so
frames can be rendered in any order or in parallel.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .aoi import BoundingBox, EnlargeRatios
from .calib import CalibrationPair, CameraIntrinsics, default_extrinsic, project_xyz
from .classes import CLASSES, class_params
from .config import write_pipeline_config
from .errors import InvalidSpec
from .io import FrameRecord, dump_simulated_sequence
from .metrics import GuaranteeConfig
from .shape import BenchmarkShapeRegistry, build_benchmark, compute_descriptor

GROUND_LABEL = -1
CLUTTER_LABEL = -2

# What the config.json of a simulated sequence fuses with: AOIs enlarged
# by a box width left and right and half a box height up and down, and
# the completeness guarantee of hypothesis 2.
SIMULATED_RATIOS = EnlargeRatios(left=1.0, right=1.0, up=0.5, down=0.5)
SIMULATED_GUARANTEE = GuaranteeConfig(t1=1.0, t2=0.9, t1_fraction=0.2)

TRAJECTORY_KINDS = ("polynomial", "waypoints")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Trajectory:
    """Planar path; either per-axis polynomial in t or linear waypoints."""
    kind: str = "polynomial"          # one of TRAJECTORY_KINDS
    x_coeffs: tuple = (10.0,)         # ascending powers of t
    y_coeffs: tuple = (0.0,)
    times: tuple = ()
    points: tuple = ()                # ((x, y), ...) matched to times

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise InvalidSpec(f"trajectory kind is {self.kind!r}, not one "
                              f"of {', '.join(TRAJECTORY_KINDS)}")

    def position(self, t: float) -> tuple[float, float]:
        if self.kind == "polynomial":
            x = sum(c * t ** i for i, c in enumerate(self.x_coeffs))
            y = sum(c * t ** i for i, c in enumerate(self.y_coeffs))
            return float(x), float(y)
        ts = np.asarray(self.times, dtype=float)
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        x = np.interp(t, ts, pts[:, 0])
        y = np.interp(t, ts, pts[:, 1])
        return float(x), float(y)


@dataclass(frozen=True)
class ObjectSpec:
    object_id: int
    class_label: str
    trajectory: Trajectory
    length: Optional[float] = None
    width: Optional[float] = None
    height: Optional[float] = None

    def __post_init__(self):
        if not _is_integer(self.object_id):
            raise InvalidSpec(f"object_id is {self.object_id!r}, not an "
                              "integer")
        if self.class_label not in CLASSES:
            raise InvalidSpec(f"object {self.object_id}: class_label is "
                              f"{self.class_label!r}, not one of "
                              f"{', '.join(CLASSES)}")

    def size(self) -> tuple[float, float, float]:
        default = class_params(self.class_label).size_m
        return (self.length or default[0],
                self.width or default[1],
                self.height or default[2])


@dataclass(frozen=True)
class SceneSpec:
    duration: float = 5.2
    frame_rate: float = 10.0
    objects: tuple = ()
    ground_noise_sigma: float = 0.02
    background_clutter: int = 30     # spurious points per frame
    n_ground_points: int = 3000
    sensor_height: float = 1.8       # LiDAR above ground, meters
    point_density: float = 15000.0   # points per m^2 at 1 m range
    min_object_points: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.rng_seed) or self.rng_seed < 0:
            raise InvalidSpec("rng_seed must be a non-negative integer, "
                              f"got {self.rng_seed!r}")
        if self.frame_rate <= 0:
            raise InvalidSpec("frame_rate must be positive")
        if self.duration <= 0:
            raise InvalidSpec("duration must be positive")
        if self.n_frames < 1:
            raise InvalidSpec(f"duration {self.duration!r} s at "
                              f"{self.frame_rate!r} Hz is less than one frame")
        ids = [obj.object_id for obj in self.objects]
        if len(set(ids)) != len(ids):
            raise InvalidSpec(f"object ids {ids} are not distinct")
        for obj in self.objects:
            if min(obj.size()) <= 0:
                raise InvalidSpec(f"object {obj.object_id} has nonpositive size")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.frame_rate))


@dataclass(frozen=True)
class ErrorModel:
    pixel_shift_halfwidth: tuple = (0.0, 0.0)  # (u, v) pixels, uniform
    detection_jitter_px: float = 0.0           # box offset noise, per axis
    dropout: float = 0.0                       # probability a detection is lost

    def __post_init__(self):
        if not 0.0 <= self.dropout <= 1.0:
            raise InvalidSpec("dropout must lie in [0, 1]")


DEFAULT_ERROR_MODEL = ErrorModel(pixel_shift_halfwidth=(40.0, 12.0),
                                 detection_jitter_px=2.0, dropout=0.0)


@dataclass(frozen=True)
class FrameSkeleton:
    frame_id: int
    t: float
    poses: dict  # object_id -> (x, y)


@dataclass
class SimulatedFrame(FrameRecord):
    """A frame as the pipeline reads it (observed_uv after error
    injection), plus the simulator's ground truth."""
    labels: np.ndarray       # (N,) GROUND_LABEL / CLUTTER_LABEL / object_id
    ideal_uv: np.ndarray     # (N, 2) ideal pixel mapping, NaN when invalid
    gt_object_pixel_boxes: dict   # object_id -> (u0, v0, u1, v1) or None
    gt_poses: dict           # object_id -> {"x","y","range","class"}
    applied_shifts: np.ndarray    # (N, 2) pixel shift applied per point


def default_calibration() -> CalibrationPair:
    intr = CameraIntrinsics(fx=700.0, fy=700.0, ox=640.0, oy=360.0,
                            width=1280, height=720)
    return CalibrationPair(intrinsics=intr, extrinsic=default_extrinsic())


def generate_scene(spec: SceneSpec) -> list[FrameSkeleton]:
    """Frame skeletons with object poses sampled from the trajectories."""
    skeletons = []
    for i in range(spec.n_frames):
        t = i / spec.frame_rate
        poses = {obj.object_id: obj.trajectory.position(t)
                 for obj in spec.objects}
        skeletons.append(FrameSkeleton(frame_id=i, t=t, poses=poses))
    return skeletons


def _sample_silhouette(class_label: str, width: float, height: float,
                       n: int, rng: np.random.Generator) -> np.ndarray:
    """(a, b) offsets in the billboard plane: a lateral, b above the base.

    Patterns are deliberately distinct per class so the 3x3 descriptors
    separate: cars are bottom-heavy (body band plus a narrower cabin),
    riders and pedestrians concentrate mass in a head/torso/legs column.
    """
    if class_label == "car":
        n_body = int(round(0.85 * n))
        n_cabin = n - n_body
        body = np.column_stack([
            rng.uniform(-width / 2.0, width / 2.0, size=n_body),
            rng.uniform(0.0, 0.5 * height, size=n_body)])
        cabin = np.column_stack([
            rng.uniform(-0.175 * width, 0.175 * width, size=n_cabin),
            rng.uniform(0.5 * height, height, size=n_cabin)])
        return np.vstack([body, cabin])
    # Person-like: torso ellipse, head blob, two leg strips.
    n_torso = int(round(0.7 * n))
    n_head = int(round(0.15 * n))
    n_legs = n - n_torso - n_head
    parts = []
    if n_torso:
        r = np.sqrt(rng.uniform(0, 1, n_torso))
        theta = rng.uniform(0, 2 * math.pi, n_torso)
        parts.append(np.column_stack([
            0.30 * width * r * np.cos(theta),
            0.45 * height + 0.32 * height * r * np.sin(theta)]))
    if n_head:
        r = np.sqrt(rng.uniform(0, 1, n_head))
        theta = rng.uniform(0, 2 * math.pi, n_head)
        rad = min(0.12 * height, 0.45 * width)
        parts.append(np.column_stack([
            rad * r * np.cos(theta),
            0.88 * height + rad * r * np.sin(theta)]))
    if n_legs:
        side = rng.choice([-1.0, 1.0], size=n_legs)
        parts.append(np.column_stack([
            side * rng.uniform(0.08 * width, 0.22 * width, n_legs),
            rng.uniform(0.0, 0.30 * height, n_legs)]))
    return np.vstack(parts)


def _object_points(obj: ObjectSpec, pose: tuple[float, float],
                   spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """LiDAR returns for one object as a range-facing billboard."""
    x, y = pose
    r = math.hypot(x, y)
    if r < 0.5:
        return np.empty((0, 3))
    _, width, height = obj.size()
    # Rear/front aspect: the billboard spans the object's width, which for
    # a car seen along its travel direction is much narrower than its length.
    sil_w = width
    sil_h = height
    n = max(spec.min_object_points,
            int(round(spec.point_density * sil_w * sil_h / (r * r))))
    ab = _sample_silhouette(obj.class_label, sil_w, sil_h, n, rng)
    los = np.array([x / r, y / r, 0.0])
    lateral = np.array([-los[1], los[0], 0.0])
    up = np.array([0.0, 0.0, 1.0])
    base_z = (-spec.sensor_height
              + class_params(obj.class_label).ground_clearance_m)
    center = np.array([x, y, base_z])
    depth = rng.uniform(-0.15, 0.15, size=len(ab))
    pts = (center[None, :]
           + ab[:, 0:1] * lateral[None, :]
           + ab[:, 1:2] * up[None, :]
           + depth[:, None] * los[None, :])
    return pts


def render_frame(skeleton: FrameSkeleton, spec: SceneSpec,
                 calib: CalibrationPair) -> SimulatedFrame:
    """Sample the cloud, label every point, and record ideal mappings."""
    rng = np.random.default_rng([spec.rng_seed, skeleton.frame_id])
    clouds = []
    labels = []

    ground_xy = rng.uniform([1.0, -15.0], [70.0, 15.0],
                            size=(spec.n_ground_points, 2))
    ground_z = (-spec.sensor_height
                + rng.normal(0.0, spec.ground_noise_sigma,
                             spec.n_ground_points))
    clouds.append(np.column_stack([ground_xy, ground_z]))
    labels.append(np.full(spec.n_ground_points, GROUND_LABEL))

    if spec.background_clutter:
        # Right-shoulder band (negative y): curbs and vegetation off the
        # travel corridor.
        cl_xy = rng.uniform([2.0, -15.0], [70.0, -3.0],
                            size=(spec.background_clutter, 2))
        # Curb/vegetation height band: tall enough to survive ground
        # removal, low enough not to dominate object silhouettes.
        cl_z = rng.uniform(-spec.sensor_height + 0.3,
                           -spec.sensor_height + 0.9,
                           spec.background_clutter)
        clouds.append(np.column_stack([cl_xy, cl_z]))
        labels.append(np.full(spec.background_clutter, CLUTTER_LABEL))

    for obj in spec.objects:
        pts = _object_points(obj, skeleton.poses[obj.object_id], spec, rng)
        if len(pts):
            clouds.append(pts)
            labels.append(np.full(len(pts), obj.object_id))

    cloud = np.vstack(clouds)
    label_arr = np.concatenate(labels)
    uv, valid = project_xyz(calib.intrinsics, calib.extrinsic, cloud)

    intr = calib.intrinsics
    detections = []
    gt_boxes = {}
    gt_poses = {}
    for obj in spec.objects:
        x, y = skeleton.poses[obj.object_id]
        gt_poses[obj.object_id] = {"x": float(x), "y": float(y),
                                   "range": float(math.hypot(x, y)),
                                   "class": obj.class_label}
        mask = (label_arr == obj.object_id) & valid
        if not mask.any():
            gt_boxes[obj.object_id] = None
            continue
        u0, v0 = uv[mask].min(axis=0)
        u1, v1 = uv[mask].max(axis=0)
        u0c, v0c = max(0.0, u0), max(0.0, v0)
        u1c, v1c = min(float(intr.width), u1), min(float(intr.height), v1)
        if u1c - u0c < 2.0 or v1c - v0c < 2.0:
            gt_boxes[obj.object_id] = None
            continue
        gt_boxes[obj.object_id] = (float(u0c), float(v0c),
                                   float(u1c), float(v1c))
        detections.append(BoundingBox(
            frame_id=skeleton.frame_id, object_id=obj.object_id,
            class_label=obj.class_label,
            u_min=float(u0c), v_min=float(v0c),
            u_max=float(u1c), v_max=float(v1c)))

    return SimulatedFrame(
        frame_id=skeleton.frame_id, t=skeleton.t,
        cloud=cloud, labels=label_arr,
        ideal_uv=uv, observed_uv=uv.copy(), uv_valid=valid,
        detections=detections,
        gt_object_pixel_boxes=gt_boxes, gt_poses=gt_poses,
        applied_shifts=np.zeros((len(cloud), 2)),
    )


def inject_mapping_errors(frame: SimulatedFrame, err: ErrorModel,
                          rng_seed: int = 0) -> SimulatedFrame:
    """Displace pixel mappings and jitter/drop detections.

    The pixel shift is drawn once per frame (synchronization-style
    error) and applied to every valid point; ground truth is untouched.
    """
    rng = np.random.default_rng([rng_seed, frame.frame_id, 1])
    hu, hv = err.pixel_shift_halfwidth
    shift = np.array([rng.uniform(-hu, hu) if hu else 0.0,
                      rng.uniform(-hv, hv) if hv else 0.0])
    observed = frame.ideal_uv.copy()
    observed[frame.uv_valid] += shift
    shifts = np.zeros((len(frame.cloud), 2))
    shifts[frame.uv_valid] = shift

    detections = []
    for det in frame.detections:
        if err.dropout and rng.uniform() < err.dropout:
            continue
        if err.detection_jitter_px:
            du = rng.normal(0.0, err.detection_jitter_px)
            dv = rng.normal(0.0, err.detection_jitter_px)
            det = BoundingBox(frame_id=det.frame_id, object_id=det.object_id,
                              class_label=det.class_label,
                              u_min=det.u_min + du, v_min=det.v_min + dv,
                              u_max=det.u_max + du, v_max=det.v_max + dv)
        detections.append(det)

    return SimulatedFrame(
        frame_id=frame.frame_id, t=frame.t,
        cloud=frame.cloud, labels=frame.labels,
        ideal_uv=frame.ideal_uv, observed_uv=observed,
        uv_valid=frame.uv_valid,
        detections=detections,
        gt_object_pixel_boxes=frame.gt_object_pixel_boxes,
        gt_poses=frame.gt_poses,
        applied_shifts=shifts,
    )


def simulate_sequence(spec: SceneSpec, calib: CalibrationPair,
                      err: Optional[ErrorModel] = None) -> list[SimulatedFrame]:
    """generate -> render -> inject for every frame."""
    frames = []
    for skel in generate_scene(spec):
        frame = render_frame(skel, spec, calib)
        if err is not None:
            frame = inject_mapping_errors(frame, err, rng_seed=spec.rng_seed)
        frames.append(frame)
    return frames


def write_sequence_dir(out, spec: SceneSpec,
                       error_model: Optional[ErrorModel]) -> list[SimulatedFrame]:
    """Simulate spec and write it as a sequence directory that fuse reads.

    Besides the frames (io.dump_simulated_sequence) the directory holds
    the reference shape benchmarks as benchmarks.json and a config.json
    with SIMULATED_RATIOS, SIMULATED_GUARANTEE, the scene's rng_seed and
    its first object as target. error_model None keeps the ideal pixel
    mappings. Returns the simulated frames.
    """
    out = Path(out)
    calib = default_calibration()
    frames = simulate_sequence(spec, calib, error_model)
    dump_simulated_sequence(out, frames, calib, spec)
    BenchmarkShapeRegistry(shapes=reference_benchmarks(),
                           sample_counts={}).save(out / "benchmarks.json")
    write_pipeline_config(
        out / "config.json",
        calibration="calibration.json",
        benchmark_registry="benchmarks.json",
        rng_seed=spec.rng_seed,
        enlarge_ratios={"default": asdict(SIMULATED_RATIOS)},
        guarantee=asdict(SIMULATED_GUARANTEE),
        target_object_ids=[obj.object_id for obj in spec.objects[:1]],
    )
    return frames


def overtaking_scene(rng_seed: int = 0, duration: float = 5.2,
                     clutter: int = 60) -> SceneSpec:
    """Default fixture: a car overtaken in a parallel path ~3 m to the
    left, with pedestrians and a parked car in the background."""
    target = ObjectSpec(
        object_id=1, class_label="car",
        trajectory=Trajectory(kind="polynomial",
                              x_coeffs=(30.0, -4.2, 0.05),
                              y_coeffs=(3.0, 0.02)))
    bg = [
        ObjectSpec(object_id=2, class_label="pedestrian",
                   trajectory=Trajectory(x_coeffs=(26.0,), y_coeffs=(4.2,))),
        ObjectSpec(object_id=3, class_label="pedestrian",
                   trajectory=Trajectory(x_coeffs=(27.5,), y_coeffs=(5.4,))),
        ObjectSpec(object_id=4, class_label="pedestrian",
                   trajectory=Trajectory(x_coeffs=(25.0,), y_coeffs=(3.4,))),
        ObjectSpec(object_id=5, class_label="car",
                   trajectory=Trajectory(x_coeffs=(36.0,), y_coeffs=(-1.5,))),
    ]
    return SceneSpec(duration=duration, frame_rate=10.0,
                     objects=(target, *bg),
                     background_clutter=clutter,
                     rng_seed=rng_seed)


def reference_benchmarks(rng_seed: int = 12345,
                         samples_per_class: int = 40) -> dict:
    """Per-class benchmark descriptors from the class samplers.

    Stands in for the paper-style manual labeling step: descriptors of
    freshly sampled silhouettes at varied ranges are averaged per class.
    """
    rng = np.random.default_rng(rng_seed)
    benchmarks = {}
    for cls in ("car", "pedestrian", "escooter_rider"):
        length, width, height = CLASSES[cls].size_m
        descs = []
        for _ in range(samples_per_class):
            r = rng.uniform(8.0, 40.0)
            n = max(30, int(round(15000.0 * width * height / (r * r))))
            ab = _sample_silhouette(cls, width, height, n, rng)
            # Image v grows downward; flip b so "up" matches image rows.
            pts = np.column_stack([ab[:, 0], -ab[:, 1]])
            descs.append(compute_descriptor(pts))
        benchmarks[cls] = build_benchmark(descs, min_samples=10)
    return benchmarks


def scene_spec_to_json(spec: SceneSpec) -> dict:
    payload = asdict(spec)
    payload["objects"] = [asdict(o) for o in spec.objects]
    return payload


def scene_spec_from_json(raw: dict) -> SceneSpec:
    objects = []
    for o in raw.get("objects", []):
        traj = Trajectory(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in o["trajectory"].items()})
        objects.append(ObjectSpec(object_id=o["object_id"],
                                  class_label=o["class_label"],
                                  trajectory=traj,
                                  length=o.get("length"),
                                  width=o.get("width"),
                                  height=o.get("height")))
    kwargs = {k: v for k, v in raw.items() if k != "objects"}
    return SceneSpec(objects=tuple(objects), **kwargs)


def load_scene_spec(path) -> SceneSpec:
    with open(path) as fh:
        return scene_spec_from_json(json.load(fh))


def save_scene_spec(path, spec: SceneSpec) -> None:
    with open(path, "w") as fh:
        json.dump(scene_spec_to_json(spec), fh, indent=2, sort_keys=True)
