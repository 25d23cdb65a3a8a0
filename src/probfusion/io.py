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
whose ``box`` is not four finite numbers or whose ``frame`` or
``object_id`` is not an integer, two detections of one object in one
frame, a ground-truth frame or object_id that is not an integer, x or
y that is not a finite number, a range that is not a finite number
> 0, members that is not a list of integers, detections or ground
truth naming a frame without a cloud file, and a scene.json that is
not a JSON object or whose frame_rate is not a finite positive number.
A byte that is not UTF-8 is named by its file and line too.

Frame files are independent of each other, so ``dump_simulated_sequence``
and ``load_sequence`` share them between the calling process and one
forked child when the process may run on two or more CPUs: each claims
the next frame until none is left. The bytes written, the arrays read
and the message of the first failing frame are those of a single
process. After a failing frame, frames the other process had already
claimed are still written or read whole, where one process would have
stopped at the failing frame. On one CPU, in a daemonic process (a
``multiprocessing.Pool`` worker), or where ``fork`` is unavailable, the
calling process does every frame.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .aoi import BoundingBox
from .errors import EmptySequence, FusionError, check_number, check_numbers
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
    header, _, text = _read_text(path).partition("\n")
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


def _read_text(path) -> str:
    """A file's text with the newlines a text-mode open() gives. A byte
    that is not UTF-8 is a ValueError naming the file and the line,
    counted from 1."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    """(line number, parse(record)) of each non-blank line of a JSON-lines
    file, lines counted from 1.

    Raises ValueError naming the file and the line (counted from 1) when
    a line is not UTF-8, not JSON, lacks a key, or has a value parse
    rejects.
    """
    parsed = []
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            parsed.append((line_no, parse(json.loads(line))))
        except KeyError as exc:
            raise ValueError(f"{path}, line {line_no}: no key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from None
    return parsed


def _detection(rec: dict) -> BoundingBox:
    box = rec["box"]
    check_numbers("box", box, "[u_min, v_min, u_max, v_max]", 4)
    for key in ("frame", "object_id"):
        check_number(key, rec[key], integer=True)
    return BoundingBox(frame_id=int(rec["frame"]),
                       object_id=int(rec["object_id"]),
                       class_label=rec["class"],
                       u_min=float(box[0]), v_min=float(box[1]),
                       u_max=float(box[2]), v_max=float(box[3]))


def read_detections(path) -> dict:
    """detections.jsonl -> {frame_id: [BoundingBox, ...]}

    A second detection of one object in one frame is a ValueError naming
    the file and both lines.
    """
    by_frame: dict = {}
    line_of: dict = {}   # (frame_id, object_id) -> line number
    for line_no, det in _read_jsonl(path, _detection):
        key = (det.frame_id, det.object_id)
        if key in line_of:
            raise ValueError(f"{path}, line {line_no}: frame {key[0]} "
                             f"object {key[1]} is also on line "
                             f"{line_of[key]}")
        line_of[key] = line_no
        by_frame.setdefault(det.frame_id, []).append(det)
    return by_frame


def write_ground_truth(seq_dir, gt_by_frame: list) -> None:
    path = Path(seq_dir) / "ground_truth.jsonl"
    with open(path, "w") as fh:
        for rec in gt_by_frame:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# Keys of a ground-truth object that fuse and evaluate read.
GROUND_TRUTH_KEYS = ("object_id", "x", "y", "range", "members")


def _is_integer_list(values) -> bool:
    """Whether values is a list of integers (an empty one passes), by one
    numpy conversion rather than a check per entry. A bool is not an
    integer here, though numpy converts [1, True] to integers."""
    if not isinstance(values, list):
        return False
    try:
        array = np.asarray(values)
    except ValueError:  # nested lists of differing lengths
        return False
    return not values or (array.ndim == 1 and array.dtype.kind in "iu"
                          and bool not in map(type, values))


def _ground_truth_frame(rec: dict) -> tuple[int, dict]:
    check_number("frame", rec["frame"], integer=True)
    poses = {}
    for obj in rec["objects"]:
        missing = [key for key in GROUND_TRUTH_KEYS if key not in obj]
        if missing:
            raise KeyError(missing[0])
        check_number("object_id", obj["object_id"], integer=True)
        name = f"object {obj['object_id']}"
        for key in ("x", "y"):
            check_number(f"{name}: {key}", obj[key])
        check_number(f"{name}: range", obj["range"], above=0)
        if not _is_integer_list(obj["members"]):
            raise ValueError(f"{name}: members is not a list of integers")
        poses[int(obj["object_id"])] = obj
    return int(rec["frame"]), poses


def read_ground_truth(path) -> dict:
    """ground_truth.jsonl -> {frame_id: {object_id: {...}}}"""
    return dict(frame for _, frame in _read_jsonl(path, _ground_truth_frame))


def read_json_object(path) -> dict:
    """The JSON object in a file; anything else is a ValueError naming
    the file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON object ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: not a JSON object")
    return raw


def read_frame_rate(seq_dir) -> float:
    """Frame rate from the sequence's scene.json; 10 Hz when the file or
    its frame_rate is absent.

    Raises ValueError naming the file when it is not a JSON object or
    frame_rate is not a finite positive number.
    """
    meta_path = Path(seq_dir) / "scene.json"
    if not meta_path.exists():
        return 10.0
    rate = read_json_object(meta_path).get("frame_rate", 10.0)
    try:
        check_number("frame_rate", rate, above=0)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
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
    frame_ids = sorted(paths)
    clouds = _map_frames(read_frame_cloud,
                         [(paths[frame_id],) for frame_id in frame_ids])
    frames = [FrameRecord(frame_id=frame_id, t=frame_id / frame_rate,
                          cloud=cloud, observed_uv=uv, uv_valid=valid,
                          detections=detections.get(frame_id, []))
              for frame_id, (cloud, uv, valid) in zip(frame_ids, clouds)]
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
    header) for a cell that is missing or not a finite number.
    """
    reader = csv.DictReader(_read_text(path).split("\n"))
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
        for name, value in (("t", t), ("x", x), ("y", y)):
            check_number(f"{path}, row {i}: {name}", value)
        samples.append(TrackSample(
            t=t, x=x, y=y, outlier=row.get("outlier") == "1",
            interpolated=row.get("interpolated") == "1"))
    return samples


def write_report(path, report: dict) -> None:
    """Canonical JSON: sorted keys, fixed indentation, trailing newline.
    A NaN or an infinity raises ValueError before the file is opened,
    instead of being written as a token that is not JSON."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def dump_simulated_sequence(seq_dir, frames, calib, spec) -> None:
    """Write a simulated sequence in the on-disk layout above."""
    from .calib import save_calibration
    from .sim import save_scene_spec

    seq_dir = Path(seq_dir)
    seq_dir.mkdir(parents=True, exist_ok=True)
    save_calibration(seq_dir / "calibration.json", calib)
    save_scene_spec(seq_dir / "scene.json", spec)
    _map_frames(write_frame_cloud,
                [(seq_dir, frame.frame_id, frame.cloud, frame.observed_uv,
                  frame.uv_valid) for frame in frames])
    detections_by_frame = {}
    gt_records = []
    for frame in frames:
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


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_frames(fn, calls: list) -> list:
    """[fn(*args) for args in calls], in call order. Where this process
    may run on two or more CPUs and fork a child, and there are two or
    more calls, the calling process and one forked child share them.

    Each process claims the next call from a shared counter until none
    is left, so a process on a busy CPU claims fewer calls, and each
    call's files are written or read by exactly one process. A failing
    call stops all further claims; the calls already claimed finish, and
    the exception of the earliest failing call is raised, as one process
    would raise it. A child that ends without sending its results raises
    FusionError naming its exit code. The child has ended before this
    returns or raises.
    """
    # Imported on first use: it adds ~10 ms, about 6%, to importing the
    # CLI.
    import multiprocessing

    if (usable_cpus() < 2 or len(calls) < 2
            or "fork" not in multiprocessing.get_all_start_methods()
            # A daemonic process may not start children.
            or multiprocessing.current_process().daemon):
        return [fn(*args) for args in calls]
    next_call = multiprocessing.Value("q", 0)
    receiver, sender = multiprocessing.Pipe(duplex=False)
    # fork, not a Pool: a Pool unpickles results on a thread of its own,
    # in a second malloc arena that raises the peak memory, and fork
    # hands fn and the calls to the child without pickling them. The
    # child only formats or parses text and writes or reads its own
    # files, so it takes no lock that a thread of the parent may hold.
    child = multiprocessing.get_context("fork").Process(
        target=_send_claimed, args=(sender, fn, calls, next_call))
    try:
        child.start()
        # Only the child may hold the sending end, or a child that dies
        # would leave the receiver waiting instead of at EOF.
        sender.close()
        outcomes = _run_claimed(fn, calls, next_call)
        try:
            outcomes += iter(receiver.recv, None)
        except EOFError:
            child.join()
            raise FusionError(
                f"a frame file worker exited with code {child.exitcode} "
                f"before sending its results") from None
        results = []
        for _, ok, value in sorted(outcomes, key=lambda outcome: outcome[0]):
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # The child is still running only when this process was
        # interrupted or the child died.
        receiver.close()
        if child.pid is not None:
            child.terminate()
            child.join()


def _run_claimed(fn, calls, next_call) -> list:
    """(i, True, fn(*calls[i])) for each call i this process claims, in
    claim order, until no call is left. A call that raises gives
    (i, False, exception), ends the list and stops the other process
    from claiming more."""
    outcomes = []
    while True:
        with next_call.get_lock():
            i = next_call.value
            next_call.value = i + 1
        if i >= len(calls):
            return outcomes
        try:
            outcomes.append((i, True, fn(*calls[i])))
        except Exception as exc:
            with next_call.get_lock():
                next_call.value = len(calls)
            outcomes.append((i, False, exc))
            return outcomes


def _send_claimed(sender, fn, calls, next_call) -> None:
    """A child's body: run the calls it claims, then send one message per
    outcome and None after the last. Sending only when the claims are
    done keeps the child from blocking on a full pipe while the parent runs
    calls of its own. Ctrl-C interrupts the parent alone, which then ends
    the child."""
    import signal  # multiprocessing has imported it already

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for outcome in _run_claimed(fn, calls, next_call):
        sender.send(outcome)
    sender.send(None)
    sender.close()

