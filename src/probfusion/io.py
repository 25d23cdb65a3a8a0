"""Sequence-directory file formats.

Layout written by the simulator and consumed by the fusion pipeline:

    sequence_dir/
      calibration.json         (see calib.load_calibration)
      clouds/frame_000000.csv  index,x,y,z,u,v  (u,v blank when invalid)
      detections.jsonl         {"frame","object_id","class","box":[...]}
      ground_truth.jsonl       per-frame object poses and point labels
      scene.json               scene spec echo (simulator provenance)

A cloud CSV is strict: the header is exactly ``index,x,y,z,u,v``, the
columns come in that order, and lines end in CRLF (LF also reads). Row
i (counted from 0 after the header) has ``index`` i and finite x, y, z.
u and v are both finite, or both blank when the point has no valid
pixel. Floats are written as their shortest round-trip ``repr``. The
reader raises ``ValueError`` naming the file and the row for a wrong
header, a wrong column count, a non-numeric or non-finite value, an
index that is not the row number, or only one of u, v blank.
``load_sequence`` also rejects, naming the file (and the line, counted
from 1), a cloud file not named ``frame_<number>.csv``, two cloud files
of one frame, a JSON line that is not JSON or lacks a key, a detection
``box`` that is not four numbers, a ground-truth x, y or range that is
not a number or members that is not a list, detections or ground
truth naming a frame without a cloud file, and a scene.json that is not
a JSON object or whose frame_rate is not a finite positive number.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .aoi import BoundingBox
from .errors import EmptySequence
from .smoother import TrackSample


@dataclass
class FrameRecord:
    frame_id: int
    t: float
    cloud: np.ndarray        # (N, 3)
    observed_uv: np.ndarray  # (N, 2), NaN rows when invalid
    uv_valid: np.ndarray     # (N,) bool
    detections: list         # of BoundingBox


CLOUD_COLUMNS = ("index", "x", "y", "z", "u", "v")
CLOUD_HEADER = ",".join(CLOUD_COLUMNS)
# Rows formatted per write. Formatting a whole 3.3k-point frame at once
# is no faster and raises the writer's heap peak from 0.24 to 2.0 MB.
WRITE_BLOCK_ROWS = 256


def cloud_csv_path(seq_dir, frame_id: int) -> Path:
    return Path(seq_dir) / "clouds" / f"frame_{frame_id:06d}.csv"


def write_frame_cloud(seq_dir, frame_id: int, cloud: np.ndarray,
                      observed_uv: np.ndarray, uv_valid: np.ndarray) -> None:
    """Write one frame's cloud CSV (format in the module docstring)."""
    path = cloud_csv_path(seq_dir, frame_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    cloud = np.asarray(cloud, dtype=float)
    uv = np.asarray(observed_uv, dtype=float)
    invalid = ~np.asarray(uv_valid, dtype=bool)
    with open(path, "w", newline="") as fh:
        fh.write(CLOUD_HEADER + "\r\n")
        for start in range(0, len(cloud), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            x, y, z, u, v = [list(map(float.__repr__, col))
                             for col in np.column_stack(
                                 [cloud[block], uv[block]]).T.tolist()]
            for i in np.flatnonzero(invalid[block]).tolist():
                u[i] = v[i] = ""
            index = map(str, range(start, start + len(x)))
            fh.write("\r\n".join(map(",".join, zip(index, x, y, z, u, v)))
                     + "\r\n")


def read_frame_cloud(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame's cloud CSV -> (xyz (N, 3), uv (N, 2), uv_valid (N,)).

    uv rows are NaN where u and v are blank. Raises ValueError naming the
    file and the row when the file breaks the format in the module
    docstring.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        text = fh.read()
    if header != CLOUD_HEADER:
        raise ValueError(f"{path}: header is {header!r}, "
                         f"expected {CLOUD_HEADER!r}")
    if not text.strip("\n"):
        return np.empty((0, 3)), np.empty((0, 2)), np.empty(0, dtype=bool)
    if not text.endswith("\n"):
        text += "\n"
    n_blank = text.count(",,\n")
    rows = text.replace(",,\n", ",nan,nan\n").splitlines()
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
        if data.shape[1] != len(CLOUD_COLUMNS):
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:
        raise ValueError(_malformed_row(path, rows, exc)) from None

    index, xyz, uv = data[:, 0], data[:, 1:4], data[:, 4:]
    blank = np.isnan(uv).all(axis=1)
    for bad, what in (
            (index != np.arange(len(data)), "index is not the row number"),
            (~np.isfinite(xyz).all(axis=1), "x, y or z is not finite"),
            (~np.isfinite(uv).all(axis=1) & ~blank, "u or v is not finite")):
        if bad.any():
            raise ValueError(f"{path}, row {np.flatnonzero(bad)[0]}: {what}")
    if np.count_nonzero(blank) != n_blank:
        # A literal "nan,nan" parses like a blank pair.
        lines = [line for line in text.splitlines() if line]
        row = next(i for i in np.flatnonzero(blank).tolist()
                   if not lines[i].endswith(",,"))
        raise ValueError(f"{path}, row {row}: u and v are not finite")
    # Contiguous copies: the arrays keep the layout the pipeline was
    # written and checked against.
    return (np.ascontiguousarray(xyz), np.ascontiguousarray(uv), ~blank)


def _malformed_row(path, rows, exc: ValueError) -> str:
    """Message naming the first row of a cloud CSV np.loadtxt rejected."""
    data_rows = (row for row in rows if row)  # np.loadtxt skips empty lines
    for i, row in enumerate(data_rows):
        fields = row.split(",")
        if len(fields) != len(CLOUD_COLUMNS):
            return (f"{path}, row {i}: {len(fields)} columns, "
                    f"expected {len(CLOUD_COLUMNS)}")
        if (fields[4] == "") != (fields[5] == ""):
            return f"{path}, row {i}: only one of u, v is blank"
        for name, field in zip(CLOUD_COLUMNS, fields):
            try:
                float(field)
            except ValueError:
                return f"{path}, row {i}: {name} is {field!r}, not a number"
    return f"{path}: {exc}"


def write_detections(seq_dir, detections_by_frame: dict) -> None:
    path = Path(seq_dir) / "detections.jsonl"
    with open(path, "w") as fh:
        for frame_id in sorted(detections_by_frame):
            for det in detections_by_frame[frame_id]:
                fh.write(json.dumps({
                    "frame": frame_id,
                    "object_id": det.object_id,
                    "class": det.class_label,
                    "box": [det.u_min, det.v_min, det.u_max, det.v_max],
                }, sort_keys=True) + "\n")


def _read_jsonl(path, parse) -> list:
    """parse(record) of each non-blank line of a JSON-lines file.

    Raises ValueError naming the file and the line (counted from 1) when
    a line is not JSON, lacks a key, or has a value parse rejects.
    """
    parsed = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                parsed.append(parse(json.loads(line)))
            except KeyError as exc:
                raise ValueError(
                    f"{path}, line {line_no}: no key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {line_no}: {exc}") from None
    return parsed


def _detection(rec: dict) -> BoundingBox:
    box = rec["box"]
    if not (isinstance(box, list) and len(box) == 4):
        raise ValueError(f"box is {box!r}, not [u_min, v_min, u_max, v_max]")
    return BoundingBox(frame_id=int(rec["frame"]),
                       object_id=int(rec["object_id"]),
                       class_label=rec["class"],
                       u_min=float(box[0]), v_min=float(box[1]),
                       u_max=float(box[2]), v_max=float(box[3]))


def read_detections(path) -> dict:
    """detections.jsonl -> {frame_id: [BoundingBox, ...]}"""
    by_frame: dict = {}
    for det in _read_jsonl(path, _detection):
        by_frame.setdefault(det.frame_id, []).append(det)
    return by_frame


def write_ground_truth(seq_dir, gt_by_frame: list) -> None:
    path = Path(seq_dir) / "ground_truth.jsonl"
    with open(path, "w") as fh:
        for rec in gt_by_frame:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# Keys of a ground-truth object that fuse and evaluate read.
GROUND_TRUTH_KEYS = ("object_id", "x", "y", "range", "members")


def _ground_truth_frame(rec: dict) -> tuple[int, dict]:
    poses = {}
    for obj in rec["objects"]:
        missing = [key for key in GROUND_TRUTH_KEYS if key not in obj]
        if missing:
            raise KeyError(missing[0])
        if not all(isinstance(obj[key], (int, float))
                   for key in ("x", "y", "range")):
            raise ValueError(f"object {obj['object_id']}: x, y or range "
                             "is not a number")
        if not isinstance(obj["members"], list):
            raise ValueError(f"object {obj['object_id']}: members is not "
                             "a list")
        poses[int(obj["object_id"])] = obj
    return int(rec["frame"]), poses


def read_ground_truth(path) -> dict:
    """ground_truth.jsonl -> {frame_id: {object_id: {...}}}"""
    return dict(_read_jsonl(path, _ground_truth_frame))


def read_frame_rate(seq_dir) -> float:
    """Frame rate from the sequence's scene.json; 10 Hz when the file or
    its frame_rate is absent.

    Raises ValueError naming the file when it is not a JSON object or
    frame_rate is not a finite positive number.
    """
    meta_path = Path(seq_dir) / "scene.json"
    if not meta_path.exists():
        return 10.0
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{meta_path}: not a JSON object ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: not a JSON object")
    rate = meta.get("frame_rate", 10.0)
    if type(rate) not in (int, float) or not 0 < rate <= sys.float_info.max:
        raise ValueError(f"{meta_path}: frame_rate is {rate!r}, not a finite "
                         "positive number")
    return float(rate)


def load_sequence(seq_dir) -> tuple[list, Optional[dict]]:
    """All frames of a sequence, sorted by frame id, plus optional GT."""
    seq_dir = Path(seq_dir)
    cloud_files = sorted((seq_dir / "clouds").glob("frame_*.csv")) \
        if (seq_dir / "clouds").is_dir() else []
    if not cloud_files:
        raise EmptySequence(f"no frames found under {seq_dir}")
    det_path = seq_dir / "detections.jsonl"
    detections = read_detections(det_path) if det_path.exists() else {}
    frame_rate = read_frame_rate(seq_dir)
    paths: dict = {}
    for path in cloud_files:
        name = re.fullmatch(r"frame_([0-9]+)", path.stem)
        if name is None:
            raise ValueError(f"{path}: not a frame_<number>.csv name")
        frame_id = int(name[1])
        if frame_id in paths:
            raise ValueError(f"{path}: frame {frame_id} is also "
                             f"{paths[frame_id]}")
        paths[frame_id] = path
    frames = []
    for frame_id, path in sorted(paths.items()):
        cloud, uv, valid = read_frame_cloud(path)
        frames.append(FrameRecord(frame_id=frame_id,
                                  t=frame_id / frame_rate,
                                  cloud=cloud, observed_uv=uv, uv_valid=valid,
                                  detections=detections.get(frame_id, [])))
    gt_path = seq_dir / "ground_truth.jsonl"
    gt = read_ground_truth(gt_path) if gt_path.exists() else None
    for path, by_frame in ((det_path, detections), (gt_path, gt or {})):
        orphans = sorted(by_frame.keys() - paths.keys())
        if orphans:
            raise ValueError(
                f"{path}: frame {orphans[0]} has no cloud file "
                f"{cloud_csv_path(seq_dir, orphans[0])}")
    return frames, gt


def write_trajectory_csv(path, samples) -> None:
    """Trajectory CSV: t,x,y,outlier,interpolated."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "outlier", "interpolated"])
        for s in samples:
            writer.writerow([repr(s.t), repr(s.x), repr(s.y),
                             int(s.outlier), int(s.interpolated)])


def read_trajectory_csv(path) -> list:
    """Trajectory CSV (see write_trajectory_csv) -> [TrackSample, ...].

    Only t, x and y are required; absent flag columns read as 0. Raises
    ValueError naming the file, and the row (counted from 0 after the
    header) for a cell that is missing or not a number.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("t", "x", "y")
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)}")
        samples = []
        for i, row in enumerate(reader):
            try:
                t, x, y = float(row["t"]), float(row["x"]), float(row["y"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}, row {i}: t, x or y is missing "
                                 "or not a number") from None
            samples.append(TrackSample(
                t=t, x=x, y=y, outlier=row.get("outlier") == "1",
                interpolated=row.get("interpolated") == "1"))
    return samples


def write_report(path, report: dict) -> None:
    """Canonical JSON: sorted keys, fixed indentation, trailing newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_simulated_sequence(seq_dir, frames, calib, spec) -> None:
    """Write a simulated sequence in the on-disk layout above."""
    from .calib import save_calibration
    from .sim import save_scene_spec

    seq_dir = Path(seq_dir)
    seq_dir.mkdir(parents=True, exist_ok=True)
    save_calibration(seq_dir / "calibration.json", calib)
    save_scene_spec(seq_dir / "scene.json", spec)
    detections_by_frame = {}
    gt_records = []
    for frame in frames:
        write_frame_cloud(seq_dir, frame.frame_id, frame.cloud,
                          frame.observed_uv, frame.uv_valid)
        detections_by_frame[frame.frame_id] = frame.detections
        objects = []
        for obj_id, pose in sorted(frame.gt_poses.items()):
            members = np.nonzero(frame.labels == obj_id)[0]
            box = frame.gt_object_pixel_boxes.get(obj_id)
            objects.append({
                "object_id": obj_id,
                "class": pose["class"],
                "x": pose["x"], "y": pose["y"], "range": pose["range"],
                "members": [int(i) for i in members],
                "pixel_box": list(box) if box is not None else None,
            })
        gt_records.append({"frame": frame.frame_id, "objects": objects})
    write_detections(seq_dir, detections_by_frame)
    write_ground_truth(seq_dir, gt_records)
