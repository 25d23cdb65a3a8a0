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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .aoi import BoundingBox, EnlargeRatios
from .calib import CalibrationPair, CameraIntrinsics, default_extrinsic, project_xyz
from .classes import CLASSES
from .config import write_pipeline_config
from .errors import InvalidSpec, check_number, check_numbers
from .io import FrameRecord, dump_simulated_sequence, read_json_object
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

POINT_DENSITY = 15000.0  # LiDAR returns per m^2 at 1 m range
# reference_benchmarks' generator seed and silhouettes per class.
REFERENCE_SEED = 12345
REFERENCE_SAMPLES = 40


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
        if self.kind == "polynomial":
            for name in ("x_coeffs", "y_coeffs"):
                check_numbers(f"trajectory {name}", getattr(self, name),
                              error=InvalidSpec)
            return
        check_numbers("trajectory times", self.times, error=InvalidSpec)
        if not self.times:
            raise InvalidSpec(f"waypoint times are {self.times!r}, not a "
                              "non-empty list of numbers")
        if not (isinstance(self.points, (list, tuple))
                and len(self.points) == len(self.times)):
            raise InvalidSpec(f"waypoint points are {self.points!r}, not "
                              f"{len(self.times)} (x, y) pairs, one per time")
        for i, point in enumerate(self.points):
            check_numbers(f"trajectory points[{i}]", point, "an (x, y) pair",
                          2, error=InvalidSpec)
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise InvalidSpec(f"waypoint times {self.times!r} are not "
                              "strictly increasing")

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
    width: Optional[float] = None
    height: Optional[float] = None

    def __post_init__(self):
        check_number("object_id", self.object_id, integer=True,
                     error=InvalidSpec)
        if (self.object_id in (GROUND_LABEL, CLUTTER_LABEL)
                or not -2 ** 63 <= self.object_id < 2 ** 63):
            raise InvalidSpec(f"object_id {self.object_id} cannot label "
                              "points: labels are 64-bit integers, and "
                              f"{GROUND_LABEL} and {CLUTTER_LABEL} label "
                              "ground and clutter points")
        if self.class_label not in CLASSES:
            raise InvalidSpec(f"object {self.object_id}: class_label is "
                              f"{self.class_label!r}, not one of "
                              f"{', '.join(CLASSES)}")
        for name in ("width", "height"):
            if getattr(self, name) is not None:
                check_number(f"object {self.object_id}: {name}",
                             getattr(self, name), above=0, error=InvalidSpec)

    def size(self) -> tuple[float, float]:
        """(width, height): the set ones, else the class's."""
        default = CLASSES[self.class_label].size_m
        return (default[0] if self.width is None else self.width,
                default[1] if self.height is None else self.height)


@dataclass(frozen=True)
class SceneSpec:
    duration: float = 5.2
    frame_rate: float = 10.0
    objects: tuple = ()
    ground_noise_sigma: float = 0.02
    background_clutter: int = 30     # spurious points per frame
    n_ground_points: int = 3000
    sensor_height: float = 1.8       # LiDAR above ground, meters
    point_density: float = POINT_DENSITY
    min_object_points: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("rng_seed", "n_ground_points", "background_clutter",
                     "min_object_points"):
            check_number(name, getattr(self, name), integer=True, at_least=0,
                         error=InvalidSpec)
        for name in ("sensor_height", "ground_noise_sigma"):
            check_number(name, getattr(self, name), at_least=0,
                         error=InvalidSpec)
        for name in ("point_density", "frame_rate", "duration"):
            check_number(name, getattr(self, name), above=0,
                         error=InvalidSpec)
        if self.n_frames < 1:
            raise InvalidSpec(f"duration {self.duration!r} s at "
                              f"{self.frame_rate!r} Hz is less than one frame")
        ids = [obj.object_id for obj in self.objects]
        if len(set(ids)) != len(ids):
            raise InvalidSpec(f"object ids {ids} are not distinct")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.frame_rate))


@dataclass(frozen=True)
class ErrorModel:
    pixel_shift_halfwidth: tuple = (0.0, 0.0)  # (u, v) pixels, uniform
    detection_jitter_px: float = 0.0           # box offset noise, per axis
    dropout: float = 0.0                       # probability a detection is lost

    def __post_init__(self):
        check_numbers("pixel_shift_halfwidth", self.pixel_shift_halfwidth,
                      "a (u, v) pair of half-widths", 2, error=InvalidSpec)
        for i, halfwidth in enumerate(self.pixel_shift_halfwidth):
            check_number(f"pixel_shift_halfwidth[{i}]", halfwidth,
                         at_least=0, error=InvalidSpec)
        check_number("detection_jitter_px", self.detection_jitter_px,
                     at_least=0, error=InvalidSpec)
        check_number("dropout", self.dropout, at_least=0, at_most=1,
                     error=InvalidSpec)


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
    pixel_shift: tuple       # (du, dv) added to every valid row's pixel


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
        # The ground truth needs a range > 0 (io._ground_truth_frame).
        at_origin = [oid for oid, pose in poses.items()
                     if pose == (0.0, 0.0)]
        if at_origin:
            raise InvalidSpec(f"object {at_origin[0]} is at the LiDAR "
                              f"origin at t = {t} s, where it has no range")
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
    # Rear/front aspect: the billboard spans the object's width and height.
    width, height = obj.size()
    n = max(spec.min_object_points,
            int(round(spec.point_density * width * height / (r * r))))
    ab = _sample_silhouette(obj.class_label, width, height, n, rng)
    los = np.array([x / r, y / r, 0.0])
    lateral = np.array([-los[1], los[0], 0.0])
    up = np.array([0.0, 0.0, 1.0])
    base_z = (-spec.sensor_height
              + CLASSES[obj.class_label].ground_clearance_m)
    center = np.array([x, y, base_z])
    depth = rng.uniform(-0.15, 0.15, size=len(ab))
    pts = (center[None, :]
           + ab[:, 0:1] * lateral[None, :]
           + ab[:, 1:2] * up[None, :]
           + depth[:, None] * los[None, :])
    return pts


def render_frame(skeleton: FrameSkeleton, spec: SceneSpec,
                 calib: CalibrationPair) -> SimulatedFrame:
    """Sample the cloud, label every point, and record ideal mappings.

    Rows of the cloud: the ground points, then the clutter points, then
    each object's points in one contiguous block, in spec.objects order
    (an object without points has an empty block). labels, ideal_uv and
    the other per-point arrays follow the same layout.
    """
    rng = np.random.default_rng([spec.rng_seed, skeleton.frame_id])
    n_ground = spec.n_ground_points
    ground_xy = rng.uniform([1.0, -15.0], [70.0, 15.0], size=(n_ground, 2))
    ground_noise = rng.normal(0.0, spec.ground_noise_sigma, n_ground)

    parts = []   # (label, points) after the ground block
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
        parts.append((CLUTTER_LABEL, np.column_stack([cl_xy, cl_z])))
    for obj in spec.objects:
        parts.append((obj.object_id, _object_points(
            obj, skeleton.poses[obj.object_id], spec, rng)))

    # Each part is written once, straight into its block; the ground
    # block column by column, which is twice as fast as numpy's
    # broadcast loop over rows of 2.
    n_points = n_ground + sum(len(pts) for _, pts in parts)
    cloud = np.empty((n_points, 3))
    label_arr = np.empty(n_points, dtype=int)
    for j in range(2):
        cloud[:n_ground, j] = ground_xy[:, j]
    np.add(-spec.sensor_height, ground_noise, out=cloud[:n_ground, 2])
    label_arr[:n_ground] = GROUND_LABEL
    blocks = {}   # label (clutter or object_id) -> its slice of rows
    start = n_ground
    for label, pts in parts:
        block = slice(start, start + len(pts))
        cloud[block] = pts
        label_arr[block] = label
        blocks[label] = block
        start = block.stop
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
        block = blocks[obj.object_id]
        pixels = uv[block][valid[block]]
        if not len(pixels):
            gt_boxes[obj.object_id] = None
            continue
        u0, v0 = pixels.min(axis=0)
        u1, v1 = pixels.max(axis=0)
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
        ideal_uv=uv, observed_uv=uv, uv_valid=valid,
        detections=detections,
        gt_object_pixel_boxes=gt_boxes, gt_poses=gt_poses,
        pixel_shift=(0.0, 0.0),
    )


def inject_mapping_errors(frame: SimulatedFrame, err: ErrorModel,
                          rng_seed: int = 0) -> SimulatedFrame:
    """Displace pixel mappings and jitter/drop detections.

    The pixel shift is drawn once per frame (synchronization-style
    error) and applied to every valid point; ground truth is untouched.
    The shift is added to every row of ideal_uv: the rows that are not
    valid are NaN (as render_frame leaves them) and stay NaN.
    """
    rng = np.random.default_rng([rng_seed, frame.frame_id, 1])
    hu, hv = err.pixel_shift_halfwidth
    shift = np.array([rng.uniform(-hu, hu) if hu else 0.0,
                      rng.uniform(-hv, hv) if hv else 0.0])
    # Column by column: numpy's broadcast loops over rows of 2 are
    # several times slower.
    observed = np.empty((len(frame.cloud), 2))
    for j in range(2):
        np.add(frame.ideal_uv[:, j], shift[j], out=observed[:, j])

    detections = []
    for det in frame.detections:
        if err.dropout and rng.uniform() < err.dropout:
            continue
        if err.detection_jitter_px:
            du = rng.normal(0.0, err.detection_jitter_px)
            dv = rng.normal(0.0, err.detection_jitter_px)
            det = replace(det, u_min=det.u_min + du, v_min=det.v_min + dv,
                          u_max=det.u_max + du, v_max=det.v_max + dv)
        detections.append(det)

    return replace(frame, observed_uv=observed, detections=detections,
                   pixel_shift=tuple(shift.tolist()))


def simulate_sequence(spec: SceneSpec, calib: CalibrationPair,
                      err: ErrorModel = ErrorModel()) -> list[SimulatedFrame]:
    """generate -> render -> inject err for every frame; the default
    ErrorModel() is all zeros, which keeps the ideal mappings and boxes."""
    return [inject_mapping_errors(render_frame(skel, spec, calib), err,
                                  rng_seed=spec.rng_seed)
            for skel in generate_scene(spec)]


def write_sequence_dir(out, spec: SceneSpec,
                       error_model: ErrorModel) -> list[SimulatedFrame]:
    """Simulate spec with error_model and write it as a sequence
    directory that fuse reads; ErrorModel() writes an ideal sequence.

    Besides the frames (io.dump_simulated_sequence) the directory holds
    the reference shape benchmarks as benchmarks.json and a config.json
    with SIMULATED_RATIOS, SIMULATED_GUARANTEE, the scene's rng_seed and
    its first object as target. Returns the simulated frames.
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


def reference_benchmarks() -> dict:
    """Per-class benchmark descriptors from the class samplers.

    Stands in for the paper-style manual labeling step: descriptors of
    REFERENCE_SAMPLES freshly sampled silhouettes at varied ranges are
    averaged per class.
    """
    rng = np.random.default_rng(REFERENCE_SEED)
    benchmarks = {}
    for cls in ("car", "pedestrian", "escooter_rider"):
        width, height = CLASSES[cls].size_m
        descs = []
        for _ in range(REFERENCE_SAMPLES):
            r = rng.uniform(8.0, 40.0)
            n = max(30, int(round(POINT_DENSITY * width * height / (r * r))))
            ab = _sample_silhouette(cls, width, height, n, rng)
            # Image v grows downward; flip b so "up" matches image rows.
            pts = np.column_stack([ab[:, 0], -ab[:, 1]])
            descs.append(compute_descriptor(pts))
        benchmarks[cls] = build_benchmark(descs)
    return benchmarks


def scene_spec_to_json(spec: SceneSpec) -> dict:
    return asdict(spec)


# The keys of an object in scene.json.
OBJECT_KEYS = frozenset(f.name for f in fields(ObjectSpec))


def scene_spec_from_json(raw: dict) -> SceneSpec:
    objects = []
    for o in raw.get("objects", []):
        if not isinstance(o["trajectory"], dict):
            raise InvalidSpec(f"object {o.get('object_id')}: trajectory is "
                              f"{o['trajectory']!r}, not a JSON object")
        traj = Trajectory(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in o["trajectory"].items()})
        unknown = sorted(o.keys() - OBJECT_KEYS)
        if unknown:
            raise InvalidSpec(f"object {o.get('object_id')}: unknown key "
                              f"{unknown[0]!r}")
        objects.append(ObjectSpec(**{**o, "trajectory": traj}))
    kwargs = {k: v for k, v in raw.items() if k != "objects"}
    return SceneSpec(objects=tuple(objects), **kwargs)


def load_scene_spec(path) -> SceneSpec:
    """Scene spec of a JSON file; a bad one is InvalidSpec naming it."""
    raw = read_json_object(path)
    try:
        return scene_spec_from_json(raw)
    except KeyError as exc:
        raise InvalidSpec(f"{path}: no key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"{path}: {exc}") from None


def save_scene_spec(path, spec: SceneSpec) -> None:
    with open(path, "w") as fh:
        json.dump(scene_spec_to_json(spec), fh, indent=2, sort_keys=True)
