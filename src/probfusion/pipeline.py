"""Frame- and sequence-level orchestration of the fusion pipeline.

A frame is fused in two stages. The cloud stage, run_fusion_frame:
projection -> crop -> RANSAC ground fit of the cropped rows, whose
inliers are removed (skipped gracefully when no acceptable plane
exists) -> the kept rows, those with a valid pixel.
The detection stage, _fuse_detections, reads only the detections, the
cloud, its pixels and the kept rows, so it can run again on other
pixels: enlarge AOI -> box members of the kept rows, then three
passes over the detections:

1. mode clustering into candidate clusters, in three steps:
   a. per detection, its members and their K-Means centers;
   b. one range histogram of every detection that reached K-Means,
      as one stack;
   c. one selection of each of those detections' candidate clusters;
2. one shape scoring of every candidate of every detection that has
   more than one candidate and a class benchmark, all of the frame's
   candidates as one stack;
3. per detection, in detection order, shape selection (the first
   candidate where pass 2 scored none) and localization.

A detection without a qualified cluster is a soft failure: it is
recorded in the diagnostics and becomes a trajectory gap. A detection
with fewer member points than min_peak_count (or none) is that soft
failure before K-Means, since no histogram bin can hold more points
than the box.

The baseline that the evaluation compares the fusion with (the raw
mapping in the original boxes, baseline_ranges) is not part of the
fusion: run_sequence takes it per frame only for a sequence with
ground truth. Both take box members in one pass, _box_members: the
fusion of the kept rows in the enlarged boxes, the baseline of the
valid rows in the original ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import ground
from .aoi import BoundingBox, enlarge_aoi, rect_mask
from .calib import CalibrationPair, load_calibration, project_xyz
from .classes import CLASSES
from .cluster import (build_range_histogram, planar_ranges,
                      seed_bin_centers, select_candidate_clusters)
from .config import PipelineConfig
from .errors import (InsufficientPoints, NoAcceptablePlane,
                     NoQualifiedCluster, TooFewInliers, TooFewSamples)
from .io import (FrameRecord, load_sequence, write_report,
                 write_trajectory_csv)
from .localize import ObjectLocalization, localize
from .metrics import (align_to_ground_truth, mae_axis,
                      one_sample_right_tail_t_test, paired_t_test,
                      selection_completeness, tpr)
from .shape import (BenchmarkShapeRegistry, score_candidates,
                    select_cluster)
from .smoother import TrackSample, smooth_and_interpolate, detect_outliers

log = logging.getLogger(__name__)


@dataclass
class ObjectDiagnostics:
    object_id: int
    class_label: str
    status: str = "ok"                  # or a soft-failure name
    aoi_point_count: int = 0
    candidate_count: int = 0
    selected_indices: list = field(default_factory=list)  # cloud indices
    selected_ranges: list = field(default_factory=list)
    candidate_scores: list = field(default_factory=list)  # Fig-8 style rows


@dataclass
class FrameDiagnostics:
    frame_id: int
    cropped_count: int = 0
    ground_removed_count: int = 0
    ground_skipped: bool = False
    projected_count: int = 0
    objects: dict = field(default_factory=dict)  # object_id -> ObjectDiagnostics


def _pixels(frame, calib: CalibrationPair):
    """The frame's cloud and its pixel mapping: the observed one, which
    carries any upstream mapping error, or, where the sequence provides
    none, the one recomputed from geometry."""
    cloud = np.ascontiguousarray(frame.cloud, dtype=float).reshape(-1, 3)
    if frame.observed_uv is not None:
        uv = np.asarray(frame.observed_uv, dtype=float).reshape(-1, 2)
        uv_valid = np.asarray(frame.uv_valid, dtype=bool)
    else:
        uv, uv_valid = project_xyz(calib.intrinsics, calib.extrinsic, cloud)
    return cloud, uv, uv_valid


def _box_members(cloud, uv, rows,
                 boxes: list[Optional[BoundingBox]]) -> list[tuple]:
    """Per box, the cloud indices and planar ranges of the given rows
    that lie in it, in cloud order. rows are ascending cloud indices; a
    None box (an enlarged AOI with no area inside the image) holds no
    point.

    Only the rows inside the rectangle around the boxes are gathered:
    boxes are half-open, so no box holds a row outside it.
    """
    real = [box for box in boxes if box is not None]
    if real:
        rows = rows[rect_mask(uv[rows],
                              min(b.u_min for b in real),
                              min(b.v_min for b in real),
                              max(b.u_max for b in real),
                              max(b.v_max for b in real))]
    else:
        rows = rows[:0]
    # np.take gathers rows about twice as fast as uv[rows]. Column-major,
    # so that a box mask reads u and v contiguously.
    rows_uv = np.asfortranarray(np.take(uv, rows, axis=0))
    ranges = planar_ranges(np.take(cloud, rows, axis=0))
    members = []
    for box in boxes:
        inside = (box.mask(rows_uv) if box is not None
                  else np.zeros(len(rows), dtype=bool))
        members.append((rows[inside], ranges[inside]))
    return members


def baseline_ranges(frame, calib: CalibrationPair) -> dict:
    """The baseline the evaluation compares the fusion with, by object
    id: the planar ranges of the valid points in the detection's
    original box, in cloud order, with the raw mapping and no
    preprocessing."""
    cloud, uv, uv_valid = _pixels(frame, calib)
    members = _box_members(cloud, uv, np.flatnonzero(uv_valid),
                           frame.detections)
    return {det.object_id: ranges.tolist()
            for det, (_, ranges) in zip(frame.detections, members)}


def run_fusion_frame(frame: FrameRecord, calib: CalibrationPair,
                     cfg: PipelineConfig,
                     benchmarks: Optional[BenchmarkShapeRegistry] = None,
                     ) -> tuple[list[ObjectLocalization], FrameDiagnostics]:
    """Fuse one frame; returns localizations plus stage diagnostics."""
    diag = FrameDiagnostics(frame_id=frame.frame_id)
    cloud, uv, uv_valid = _pixels(frame, calib)

    crop = ground.crop_mask(cloud, cfg.ransac_ground)
    diag.cropped_count = int(np.count_nonzero(crop))
    # The fit reads the cloud itself where the crop keeps every row.
    cropped = (cloud if diag.cropped_count == len(cloud)
               else np.compress(crop, cloud, axis=0))
    keep = crop
    try:
        model = ground.fit_ground_plane(cropped, cfg.ransac_ground,
                                        cfg.rng_seed)
        diag.ground_removed_count = int(np.count_nonzero(model.inliers))
        # The rows the fit marked as ground are removed; where the crop
        # dropped any row, they are the crop's rows at the fit's inliers.
        # (An index scatter costs the same in any row order; a boolean
        # one, keep[crop] = ..., is ~10x slower on a shuffled cloud.)
        if cropped is cloud:
            keep = ~model.inliers
        else:
            keep = crop.copy()
            keep[np.flatnonzero(crop)[model.inliers]] = False
    except (InsufficientPoints, NoAcceptablePlane) as exc:
        diag.ground_skipped = True
        log.info("frame %d: ground removal skipped (%s)",
                 frame.frame_id, exc)
    kept = np.flatnonzero(keep & uv_valid)
    diag.projected_count = len(kept)
    return _fuse_detections(frame.detections, cloud, uv, kept, calib, cfg,
                            benchmarks, diag), diag


def _fuse_detections(detections, cloud, uv, kept, calib: CalibrationPair,
                     cfg: PipelineConfig,
                     benchmarks: Optional[BenchmarkShapeRegistry],
                     diag: FrameDiagnostics) -> list[ObjectLocalization]:
    """The detection stage: the localizations of the detections from the
    kept rows of the cloud and their pixels uv, in detection order.
    It sets one diag.objects entry per detection, in place of any entry
    of an earlier call, and no other field of diag."""
    bigs = [enlarge_aoi(det, cfg.ratios_for(det.class_label),
                        calib.intrinsics) for det in detections]
    # Pass 1a: per detection, its members, or its soft failure; the
    # K-Means centers of the others are taken in detection order below.
    # (its diagnostics, member rows, their ranges)
    no_cluster = NoQualifiedCluster.__name__
    to_cluster = []
    for det, (rows, ranges) in zip(detections,
                                   _box_members(cloud, uv, kept, bigs)):
        odiag = ObjectDiagnostics(object_id=det.object_id,
                                  class_label=det.class_label,
                                  aoi_point_count=len(rows))
        diag.objects[det.object_id] = odiag
        # No histogram bin can hold more points than the box does.
        if len(rows) < max(1, cfg.clustering.min_peak_count):
            odiag.status = no_cluster
        else:
            to_cluster.append((odiag, rows, ranges))
    # Pass 1b and 1c: one histogram of them all, then each one's
    # candidates; none is the soft failure. (its diagnostics, member
    # rows, their ranges, candidates, the benchmark to score them
    # against or None)
    hist = build_range_histogram(
        [ranges for _, _, ranges in to_cluster],
        [seed_bin_centers(ranges, cfg.clustering, cfg.rng_seed)
         for _, _, ranges in to_cluster],
        [CLASSES[odiag.class_label].granularity_m
         for odiag, _, _ in to_cluster])
    clustered = []
    for (odiag, rows, ranges), candidates in zip(
            to_cluster, select_candidate_clusters(hist, cfg.clustering)):
        if not candidates:
            odiag.status = no_cluster
            continue
        odiag.candidate_count = len(candidates)
        # A single candidate is chosen unscored.
        benchmark = (benchmarks.get(odiag.class_label)
                     if benchmarks and len(candidates) > 1 else None)
        clustered.append((odiag, rows, ranges, candidates, benchmark))

    # Pass 2: every candidate of every detection with a benchmark, scored
    # as one stack, its pixels taken by one gather.
    to_score = [(rows[c.member_indices], c, benchmark)
                for _, rows, _, candidates, benchmark in clustered
                if benchmark is not None for c in candidates]
    scores = []
    if to_score:
        member_rows, clusters, to_score_benchmarks = zip(*to_score)
        scores = score_candidates(
            np.take(uv, np.concatenate(member_rows), axis=0),
            [len(r) for r in member_rows], clusters, to_score_benchmarks,
            cfg.shape_filter)

    # Pass 3: per detection, in detection order, the choice and its
    # localization; a scored detection takes the next of the scores.
    localizations = []
    for odiag, rows, ranges, candidates, benchmark in clustered:
        if benchmark is not None:
            det_scores = scores[:len(candidates)]
            scores = scores[len(candidates):]
            chosen = select_cluster(det_scores)
            odiag.candidate_scores = [
                {"pre_rotation_score": s.pre_rotation_score,
                 "distance_m": s.cluster.center_range,
                 "post_rotation_score": s.post_rotation_score,
                 "rotation_deg": s.rotation_deg,
                 "rotation_rejected": s.rotation_rejected,
                 "count": len(s.cluster.member_indices)}
                for s in det_scores]
        else:
            chosen = candidates[0]
        chosen_rows = rows[chosen.member_indices]
        chosen_ranges = ranges[chosen.member_indices]
        odiag.selected_indices = chosen_rows.tolist()
        odiag.selected_ranges = chosen_ranges.tolist()
        localizations.append(localize(odiag.object_id, cloud[chosen_rows],
                                      chosen_ranges))
    return localizations


def _t_block(t_stat, p_val, n) -> dict:
    """A t-test in the report. A zero-variance sample gives t = +-inf,
    which JSON cannot hold; t is then null (unknown), and p and n are
    kept."""
    return {"t": t_stat if np.isfinite(t_stat) else None, "p_value": p_val,
            "n": n}


def _metrics_block(pairs, guarantee_frames, mae_rows, cfg) -> dict:
    """TPR means and paired t-test of (baseline, fusion) TPR pairs, the
    guarantee over (selected, true members) frames, and MAE per axis of
    (est_x, est_y, gt_x, gt_y) rows, where defined."""
    block: dict = {}
    if pairs:
        baseline, fusion = zip(*pairs)
        block["baseline_tpr_mean"] = float(np.mean(baseline))
        block["fusion_tpr_mean"] = float(np.mean(fusion))
        if len(pairs) >= 2:
            block["paired_t"] = _t_block(*paired_t_test(baseline, fusion))
    if guarantee_frames:
        guard = selection_completeness(guarantee_frames, cfg.guarantee)
        block["guarantee"] = {"probability": guard.empirical_probability,
                              "passed": guard.passed}
    est_x, est_y, gt_x, gt_y = mae_rows
    for axis, est, truth in (("x", est_x, gt_x), ("y", est_y, gt_y)):
        if est:
            block[f"mae_{axis}"] = mae_axis(est, truth)
    return block


def _evaluate(frames, gt, cfg, frame_diags, frame_baselines,
              trajectories) -> dict:
    """Per-object and aggregate metrics against simulator ground truth.

    frame_baselines holds baseline_ranges of each frame. A frame counts
    for an object when the ground truth has the object; it gives a TPR
    pair when both the baseline and the selected point sets are
    non-empty. The aggregate takes the target objects (all by
    default) in id order: TPR and guarantee from those with pairs, MAE
    from every one.
    """
    per_object: dict = {}
    for frame, diag, frame_baseline in zip(frames, frame_diags,
                                           frame_baselines):
        gt_frame = gt.get(frame.frame_id, {})
        for obj_id, odiag in diag.objects.items():
            gt_obj = gt_frame.get(obj_id)
            if gt_obj is None:
                continue
            entry = per_object.setdefault(obj_id, {
                "class": odiag.class_label, "frames": 0, "pairs": [],
                "guarantee_frames": []})
            entry["frames"] += 1
            entry["guarantee_frames"].append(
                (odiag.selected_indices, gt_obj["members"]))
            if frame_baseline[obj_id] and odiag.selected_ranges:
                entry["pairs"].append(tuple(
                    tpr(ranges, gt_obj["range"], odiag.class_label,
                        cfg.tolerance).rate
                    for ranges in (frame_baseline[obj_id],
                                   odiag.selected_ranges)))

    frame_times = {frame.frame_id: frame.t for frame in frames}
    targets = cfg.target_object_ids or sorted(per_object)
    report_objects = {}
    target_pairs, target_guarantee_frames = [], []
    target_mae_rows = ([], [], [], [])  # est_x, est_y, gt_x, gt_y
    for obj_id, entry in sorted(per_object.items()):
        mae_rows = align_to_ground_truth(trajectories.get(obj_id, ()), gt,
                                         obj_id, frame_times)
        report_objects[str(obj_id)] = {
            "class": entry["class"], "frames": entry["frames"],
            **_metrics_block(entry["pairs"], entry["guarantee_frames"],
                             mae_rows, cfg)}
        if obj_id in targets:
            for rows, obj_rows in zip(target_mae_rows, mae_rows):
                rows.extend(obj_rows)
            if entry["pairs"]:
                target_pairs.extend(entry["pairs"])
                target_guarantee_frames.extend(entry["guarantee_frames"])

    aggregate = {"target_object_ids": list(targets),
                 **_metrics_block(target_pairs, target_guarantee_frames,
                                  target_mae_rows, cfg)}
    if len(target_pairs) >= 2:
        aggregate["one_sample_t_vs_0.5"] = _t_block(
            *one_sample_right_tail_t_test(
                [fusion for _, fusion in target_pairs], 0.5))
    return {"objects": report_objects, "aggregate": aggregate}


def run_sequence(seq_dir, cfg: PipelineConfig,
                 out_dir=None,
                 no_smoother: bool = False) -> dict:
    """Fuse a whole sequence directory; writes trajectories and a report
    to out_dir, by default <seq_dir>/output.

    Returns the report dict (also written to <out>/report.json).
    """
    seq_dir = Path(seq_dir)
    out = Path(out_dir) if out_dir is not None else seq_dir / "output"
    out.mkdir(parents=True, exist_ok=True)

    frames, gt = load_sequence(seq_dir)  # raises EmptySequence
    calib = load_calibration(cfg.calibration_path)
    benchmarks = None
    if cfg.benchmark_registry_path is not None:
        benchmarks = BenchmarkShapeRegistry.load(cfg.benchmark_registry_path)

    frame_diags, frame_baselines = [], []
    tracks: dict = {}
    for frame in frames:
        locs, diag = run_fusion_frame(frame, calib, cfg, benchmarks)
        frame_diags.append(diag)
        if gt is not None:
            frame_baselines.append(baseline_ranges(frame, calib))
        for loc in locs:
            tracks.setdefault(loc.object_id, []).append(
                TrackSample(t=frame.t, x=loc.x_m, y=loc.y_m))

    # Smoothed tracks are evaluated at every frame time from the track's
    # first localization to its last; a track too short to smooth, one
    # left with too few inliers to fit, or any track under no_smoother,
    # is kept raw. raw_track_ids lists the tracks kept raw although the
    # smoother is on.
    frame_times = [frame.t for frame in frames]
    trajectories: dict = {}
    raw_track_ids = []
    for obj_id, samples in sorted(tracks.items()):
        if not no_smoother:
            try:
                flags = detect_outliers(samples, cfg.smoother, cfg.rng_seed)
                samples = smooth_and_interpolate(samples, flags, grid=[
                    t for t in frame_times
                    if samples[0].t <= t <= samples[-1].t]).samples
            except (TooFewSamples, TooFewInliers) as exc:
                log.info("object %d: raw track kept (%s)", obj_id, exc)
                raw_track_ids.append(obj_id)
        trajectories[obj_id] = samples
        write_trajectory_csv(out / "trajectories" / f"object_{obj_id}.csv",
                             samples)

    report: dict = {
        "sequence": seq_dir.name,
        "n_frames": len(frames),
        "rng_seed": cfg.rng_seed,
        "smoother": not no_smoother,
        "raw_track_ids": raw_track_ids,
        "soft_failures": sum(
            1 for d in frame_diags for o in d.objects.values()
            if o.status != "ok"),
        "ground_skipped_frames": sum(
            1 for d in frame_diags if d.ground_skipped),
    }
    if gt is not None:
        report["evaluation"] = _evaluate(frames, gt, cfg, frame_diags,
                                         frame_baselines, trajectories)
    write_report(out / "report.json", report)
    return report

