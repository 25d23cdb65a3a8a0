"""Reference versions of the per-detection stages, the smoother's
RANSAC, the ground-plane fit, the projection and the simulator's
frame rendering and error injection, for equivalence tests.

These are the straightforward implementations the library replaced
with cheaper ones (np.unique, np.allclose, np.average, an (n, bins)
argmin, a Polynomial.fit per RANSAC trial, a full pass over the cloud
for every ground trial, boolean gathers and scatters of the valid
rows, a full-cloud label mask per object). The library must return
exactly what they return: the same floats, bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.polynomial import Polynomial

from probfusion.aoi import BoundingBox
from probfusion.calib import (DEPTH_EPSILON, CalibrationPair,
                              CameraIntrinsics, ExtrinsicTransform)
from probfusion.cluster import (CandidateCluster, ClusteringConfig,
                                RangeHistogram)
from probfusion.errors import (DegenerateCluster, EmptyInput,
                               InsufficientPoints, NoAcceptablePlane,
                               NoQualifiedCluster, TooFewSamples)
from probfusion.ground import (GroundPlaneModel, RansacPlaneConfig,
                               min_inlier_count, required_trials)
from probfusion.sim import (CLUTTER_LABEL, GROUND_LABEL, ErrorModel,
                            FrameSkeleton, SceneSpec, SimulatedFrame,
                            _object_points, generate_scene)
from probfusion.shape import (MAX_ROTATION_DEG, CandidateScore,
                              RotationEstimate, ShapeDescriptor,
                              ShapeFilterConfig, derotate, similarity_score)
from probfusion.smoother import DETECT_ORDER, SmootherConfig


def _kmeans_pp_init(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [values[rng.integers(len(values))]]
    for _ in range(1, k):
        d2 = np.min((values[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(values[rng.integers(len(values))])
            continue
        centers.append(values[rng.choice(len(values), p=d2 / total)])
    return np.asarray(centers, dtype=float)


def seed_bin_centers(ranges: np.ndarray, cfg: ClusteringConfig,
                     seed: int = 0) -> np.ndarray:
    """1-D K-Means centers over the range values, sorted ascending; seed
    seeds the k-means++ initialization."""
    values = np.asarray(ranges, dtype=float).ravel()
    if len(values) == 0:
        raise EmptyInput("no ranges to cluster")
    distinct = np.unique(values)
    k = min(cfg.kmeans_k, len(distinct))
    if k == 1:
        return np.array([values.mean()])
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(values, k, rng)
    for _ in range(cfg.kmeans_max_iter):
        labels = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = values[labels == j]
            if len(members):
                new_centers[j] = members.mean()
        if np.allclose(new_centers, centers, atol=1e-12):
            centers = new_centers
            break
        centers = new_centers
    return np.sort(centers)


def merge_close_centers(centers: np.ndarray, granularity: float,
                        weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Collapse anchor centers closer than one bin width.

    Two anchors inside the same granularity window would split a single
    object's points across bins; they are replaced by their (optionally
    weighted) mean.
    """
    centers = np.asarray(centers, dtype=float).ravel()
    order = np.argsort(centers)
    centers = centers[order]
    if weights is None:
        weights = np.ones_like(centers)
    else:
        weights = np.asarray(weights, dtype=float).ravel()[order]
    groups: list[list[int]] = [[0]]
    for i in range(1, len(centers)):
        g = groups[-1]
        mean = np.average(centers[g], weights=weights[g])
        if centers[i] - mean < granularity:
            g.append(i)
        else:
            groups.append([i])
    return np.array([np.average(centers[g], weights=weights[g])
                     for g in groups])


def build_range_histogram(ranges: np.ndarray, centers: np.ndarray,
                          cfg: ClusteringConfig,
                          granularity: float) -> RangeHistogram:
    """Bins anchored at K-Means centers, filled outward at fixed width.

    Anchors closer than one granularity are merged first. Every point is
    assigned to exactly one bin: the nearest center, ties to the lower
    bin index.
    """
    values = np.asarray(ranges, dtype=float).ravel()
    if len(values) == 0:
        raise EmptyInput("no ranges to histogram")
    raw_anchors = np.sort(np.asarray(centers, dtype=float).ravel())
    nearest = np.argmin(np.abs(values[:, None] - raw_anchors[None, :]), axis=1)
    anchor_weights = np.bincount(nearest, minlength=len(raw_anchors)) + 1.0
    anchors = merge_close_centers(raw_anchors, granularity, anchor_weights)
    g = float(granularity)

    bin_centers: list[float] = []
    lo, hi = values.min(), values.max()

    # Extend to the left of the first anchor.
    left = []
    c = anchors[0] - g
    while c + g / 2.0 > lo:
        left.append(c)
        c -= g
    bin_centers.extend(reversed(left))

    for j, a in enumerate(anchors):
        if j > 0:
            # Fill the gap after the previous anchor at fixed width,
            # stopping half a bin short of the next anchor so no filler
            # lands (nearly) on top of it.
            c = anchors[j - 1] + g
            while c < a - g / 2.0:
                bin_centers.append(c)
                c += g
        bin_centers.append(float(a))

    # Extend to the right of the last anchor.
    c = anchors[-1] + g
    while c - g / 2.0 < hi:
        bin_centers.append(c)
        c += g

    centers_arr = np.asarray(bin_centers)
    dist = np.abs(values[:, None] - centers_arr[None, :])
    assignments = np.argmin(dist, axis=1)  # argmin takes the lower index on ties
    counts = np.bincount(assignments, minlength=len(centers_arr))
    return RangeHistogram(bin_centers=centers_arr,
                          counts=counts,
                          assignments=assignments)


def select_candidate_clusters(hist: RangeHistogram,
                              cfg: ClusteringConfig) -> list[CandidateCluster]:
    """Qualified peaks of the histogram, ordered by descending count.

    Peaks are local maxima of the counts; they qualify when the count
    reaches min_peak_count and peak_ratio of the highest count. Ties in
    count are broken toward smaller range.
    """
    counts = hist.counts
    padded = np.concatenate(([0], counts, [0]))
    is_peak = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:]) \
        & (padded[1:-1] > 0)
    max_count = int(counts.max(initial=0))
    clusters = []
    for i in np.flatnonzero(is_peak).tolist():
        c = int(counts[i])
        if c < cfg.min_peak_count or c < cfg.peak_ratio * max_count:
            continue
        members = np.nonzero(hist.assignments == i)[0]
        clusters.append(CandidateCluster(member_indices=members,
                                         center_range=float(hist.bin_centers[i])))
    if not clusters:
        raise NoQualifiedCluster(
            f"no peak met count >= {cfg.min_peak_count} "
            f"and ratio >= {cfg.peak_ratio}")
    clusters.sort(key=lambda cl: (-len(cl.member_indices), cl.center_range))
    return clusters



def principal_axis_angle(points_2d: np.ndarray) -> RotationEstimate:
    """Signed angle between the first principal axis and the vertical.

    Mapped to (-90, 90]; estimates beyond +-40 degrees are marked
    rejected and no rotation is applied downstream.
    """
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if len(np.unique(pts, axis=0)) < 2:
        raise DegenerateCluster("need at least 2 distinct points for PCA")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)
    major = eigvecs[:, np.argmax(eigvals)]  # (e_u, e_v)
    # Counter-clockwise rotation (in u-v) that tilted the axis off vertical;
    # the eigenvector's sign ambiguity cancels under the mod-180 mapping.
    angle = math.degrees(math.atan2(-major[0], major[1]))
    if angle <= -90.0:
        angle += 180.0
    elif angle > 90.0:
        angle -= 180.0
    # Tiny epsilon keeps an exactly-40-degree tilt on the accepted side
    # despite eigensolver rounding.
    return RotationEstimate(angle_deg=angle,
                            rejected=abs(angle) > MAX_ROTATION_DEG + 1e-9)



def compute_descriptor(points_2d: np.ndarray) -> ShapeDescriptor:
    """3x3 occupancy fractions over the points' bounding rectangle.

    Cells are half-open except the final row/column; rows follow the
    second coordinate, columns the first.
    """
    pts = np.asarray(points_2d, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise DegenerateCluster("cannot describe an empty point set")
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    idx = np.zeros_like(pts, dtype=int)
    for d in range(2):
        if span[d] > 0:
            idx[:, d] = np.minimum((3 * (pts[:, d] - lo[d]) / span[d]).astype(int), 2)
    cells = idx[:, 1] * 3 + idx[:, 0]  # row from v, column from u
    weights = np.bincount(cells, minlength=9).astype(float) / len(pts)
    return ShapeDescriptor(weights=weights)


def kl_divergence(p: ShapeDescriptor, q: ShapeDescriptor,
                  smoothing: float = 1e-6) -> float:
    """KL(P || Q) in nats after additive smoothing of both distributions."""
    pw = p.weights + smoothing
    qw = q.weights + smoothing
    pw = pw / pw.sum()
    qw = qw / qw.sum()
    return float(np.sum(pw * np.log(pw / qw)))



def score_candidate(points_2d: np.ndarray, cluster,
                    benchmark: ShapeDescriptor,
                    cfg: ShapeFilterConfig) -> CandidateScore:
    try:
        pre = compute_descriptor(points_2d)
        est = principal_axis_angle(points_2d)
        post = compute_descriptor(derotate(points_2d, est))
    except DegenerateCluster:
        return CandidateScore(cluster=cluster, pre_rotation_score=0.0,
                              post_rotation_score=0.0, rotation_deg=0.0,
                              rotation_rejected=False)
    k = cfg.sigmoid_gain
    return CandidateScore(
        cluster=cluster,
        pre_rotation_score=similarity_score(
            kl_divergence(pre, benchmark, cfg.kl_smoothing), k),
        post_rotation_score=similarity_score(
            kl_divergence(post, benchmark, cfg.kl_smoothing), k),
        rotation_deg=est.angle_deg,
        rotation_rejected=est.rejected,
    )



def _ransac_best_fit(t: np.ndarray, values: np.ndarray,
                     cfg: SmootherConfig,
                     rng: np.random.Generator) -> Polynomial:
    """Best order-2 model over RANSAC trials.

    Trials are ranked by the median of squared residuals (least-median-
    of-squares), which needs no noise-scale estimate and tolerates up to
    half the samples being contaminated; ties break by lower RMS.
    """
    n = len(t)
    best_key = None
    best_model = None
    for _ in range(cfg.ransac_iterations):
        subset = rng.choice(n, size=min(cfg.ransac_subset, n), replace=False)
        try:
            model = Polynomial.fit(t[subset], values[subset], DETECT_ORDER)
        except np.linalg.LinAlgError:
            continue
        resid = np.abs(values - model(t))
        key = (float(np.median(resid ** 2)),
               float(np.sqrt(np.mean(resid ** 2))))
        if best_key is None or key < best_key:
            best_key = key
            best_model = model
    if best_model is None:
        raise TooFewSamples("no valid RANSAC trial")
    return best_model


def _fit_plane_lsq(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through points; returns (unit normal, offset).

    The normal is the eigenvector of the smallest eigenvalue of the 3x3
    scatter matrix of the centered points, built as ``R.T @ R - n m m^T``
    from the points R relative to the first one and their mean m: two
    BLAS products, no centered copy. Identical points give an exactly
    zero scatter, whose first eigenvector (1, 0, 0) lies outside any
    cone around the vertical.
    """
    n = len(points)
    rel = points - points[0]
    mean = np.ones(n) @ rel / n
    scatter = rel.T @ rel - n * np.outer(mean, mean)
    _, vecs = np.linalg.eigh(scatter)  # ascending eigenvalues
    normal = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    if normal[2] < 0:
        normal = -normal
    return normal, float(normal @ (points[0] + mean))


def _plane_distances(cloud: np.ndarray, normal: np.ndarray, offset: float,
                     out: np.ndarray) -> None:
    """|cloud . normal - offset| written into out."""
    np.matmul(cloud, normal, out=out)
    out -= offset
    np.abs(out, out=out)


def fit_ground_plane(cloud: np.ndarray, cfg: RansacPlaneConfig,
                     seed: int = 0) -> GroundPlaneModel:
    """RANSAC plane fit constrained to near-vertical normals; seed seeds
    the trial draws.

    Raises InsufficientPoints if the cloud is smaller than n_sample and
    NoAcceptablePlane when no trial meets the inlier floor.
    """
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    n_points = len(cloud)
    if n_points < cfg.n_sample:
        raise InsufficientPoints(
            f"need at least {cfg.n_sample} points, got {n_points}")

    rng = np.random.default_rng(seed)
    n_trials = required_trials(cfg.p, cfg.eps, cfg.n_sample)
    floor = min_inlier_count(cfg.eps, n_points)
    cos_cone = math.cos(math.radians(cfg.normal_cone_deg))

    # Each trial's distances go to dist; the winner's are kept in
    # best_dist by swapping the two buffers, so no trial allocates.
    dist, best_dist = np.empty(n_points), np.empty(n_points)
    best_count = -1
    for _ in range(n_trials):
        sample = rng.choice(n_points, size=cfg.n_sample, replace=False)
        normal, offset = _fit_plane_lsq(cloud[sample])
        if normal[2] < cos_cone:
            continue
        _plane_distances(cloud, normal, offset, out=dist)
        count = int(np.count_nonzero(dist <= cfg.delta))
        if count > best_count:
            best_count = count
            dist, best_dist = best_dist, dist

    if best_count < max(floor, 3):
        raise NoAcceptablePlane(
            f"best inlier count {max(best_count, 0)} below floor {floor}")

    # Refit on the winning inlier set; keep the cone constraint.
    normal, offset = _fit_plane_lsq(
        np.compress(best_dist <= cfg.delta, cloud, axis=0))
    if normal[2] < cos_cone:
        raise NoAcceptablePlane("refit normal left the allowed cone")
    _plane_distances(cloud, normal, offset, out=dist)
    final_count = int(np.count_nonzero(dist <= cfg.delta))
    if final_count < floor:
        raise NoAcceptablePlane(
            f"refit inlier count {final_count} below floor {floor}")
    return GroundPlaneModel(normal=normal, offset=offset, inlier_count=final_count)


def project_xyz(intr: CameraIntrinsics, extr: ExtrinsicTransform,
                xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of an (N, 3) LiDAR array.

    Returns (uv, valid): uv is (N, 2) with NaN rows where invalid, valid is
    a boolean mask of points in front of the camera. Points that project
    outside the image rectangle stay valid; callers clip as needed.
    """
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    pc = xyz @ extr.rotation.T + extr.translation
    valid = pc[:, 2] > DEPTH_EPSILON
    uv = np.full((len(xyz), 2), np.nan)
    uv[valid, 0] = intr.fx * pc[valid, 0] / pc[valid, 2] + intr.ox
    uv[valid, 1] = intr.fy * pc[valid, 1] / pc[valid, 2] + intr.oy
    return uv, valid


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
        pixel_shift=(0.0, 0.0),
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
        pixel_shift=tuple(shift.tolist()),
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
