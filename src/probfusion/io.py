"""Sequence-directory file formats.

Layout written by the simulator and consumed by the fusion pipeline:

    sequence_dir/
      calibration.json         (see calib.load_calibration)
      clouds/frame_000000.csv  index,x,y,z,u,v  (u,v blank when invalid)
      detections.jsonl         {"frame","object_id","class","box":[...]}
      ground_truth.jsonl       per-frame object poses and point labels
      scene.json               scene spec echo (simulator provenance)
"""

from __future__ import annotations

import csv
import json
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


def cloud_csv_path(seq_dir, frame_id: int) -> Path:
    return Path(seq_dir) / "clouds" / f"frame_{frame_id:06d}.csv"


def write_frame_cloud(seq_dir, frame_id: int, cloud: np.ndarray,
                      observed_uv: np.ndarray, uv_valid: np.ndarray) -> None:
    path = cloud_csv_path(seq_dir, frame_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "z", "u", "v"])
        for i, (p, uv, ok) in enumerate(zip(cloud, observed_uv, uv_valid)):
            u = repr(float(uv[0])) if ok else ""
            v = repr(float(uv[1])) if ok else ""
            writer.writerow([i, repr(float(p[0])), repr(float(p[1])),
                             repr(float(p[2])), u, v])


def read_frame_cloud(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xyz, uv, valid = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            xyz.append([float(row["x"]), float(row["y"]), float(row["z"])])
            ok = row["u"] != "" and row["v"] != ""
            valid.append(ok)
            uv.append([float(row["u"]), float(row["v"])] if ok
                      else [np.nan, np.nan])
    return (np.asarray(xyz, dtype=float).reshape(-1, 3),
            np.asarray(uv, dtype=float).reshape(-1, 2),
            np.asarray(valid, dtype=bool))


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


def read_detections(path) -> dict:
    """detections.jsonl -> {frame_id: [BoundingBox, ...]}"""
    by_frame: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            box = rec["box"]
            det = BoundingBox(frame_id=int(rec["frame"]),
                              object_id=int(rec["object_id"]),
                              class_label=rec["class"],
                              u_min=float(box[0]), v_min=float(box[1]),
                              u_max=float(box[2]), v_max=float(box[3]))
            by_frame.setdefault(det.frame_id, []).append(det)
    return by_frame


def write_ground_truth(seq_dir, gt_by_frame: list) -> None:
    path = Path(seq_dir) / "ground_truth.jsonl"
    with open(path, "w") as fh:
        for rec in gt_by_frame:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_ground_truth(path) -> dict:
    """ground_truth.jsonl -> {frame_id: {object_id: {...}}}"""
    by_frame: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            frame = int(rec["frame"])
            by_frame[frame] = {int(o["object_id"]): o
                               for o in rec["objects"]}
    return by_frame


def read_frame_rate(seq_dir) -> float:
    """Frame rate from the sequence's scene.json; 10 Hz when it is absent."""
    meta_path = Path(seq_dir) / "scene.json"
    if not meta_path.exists():
        return 10.0
    with open(meta_path) as fh:
        return float(json.load(fh).get("frame_rate", 10.0))


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
    frames = []
    for path in cloud_files:
        frame_id = int(path.stem.split("_")[1])
        cloud, uv, valid = read_frame_cloud(path)
        frames.append(FrameRecord(frame_id=frame_id,
                                  t=frame_id / frame_rate,
                                  cloud=cloud, observed_uv=uv, uv_valid=valid,
                                  detections=detections.get(frame_id, [])))
    gt_path = seq_dir / "ground_truth.jsonl"
    gt = read_ground_truth(gt_path) if gt_path.exists() else None
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

    Only t, x and y are required; absent flag columns read as 0.
    """
    with open(path, newline="") as fh:
        return [TrackSample(t=float(row["t"]), x=float(row["x"]),
                            y=float(row["y"]),
                            outlier=row.get("outlier") == "1",
                            interpolated=row.get("interpolated") == "1")
                for row in csv.DictReader(fh)]


def write_report(path, report: dict) -> None:
    """Canonical JSON: sorted keys, fixed indentation, trailing newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_simulated_sequence(seq_dir, frames, calib, spec) -> None:
    """Write a simulated sequence in the on-disk layout above."""
    from .calib import save_calibration
    from .sim import scene_spec_to_json

    seq_dir = Path(seq_dir)
    seq_dir.mkdir(parents=True, exist_ok=True)
    save_calibration(seq_dir / "calibration.json", calib)
    with open(seq_dir / "scene.json", "w") as fh:
        json.dump(scene_spec_to_json(spec), fh, indent=2, sort_keys=True)
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
