"""Ground-plane removal with bounded RANSAC plane fitting.

Clouds are (N, 3) float arrays in the LiDAR frame (x forward, y left,
z up). Cropping keeps a forward sector anchored at the sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, NoAcceptablePlane


@dataclass(frozen=True)
class RansacPlaneConfig:
    p: float = 0.99
    eps: float = 0.2
    n_sample: int = 6
    delta: float = 0.2          # max point-to-plane distance, meters
    boundary_length: float = 70.0
    boundary_width: float = 30.0
    normal_cone_deg: float = 30.0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        if self.n_sample < 3:
            raise ValueError("n_sample must be at least 3")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.boundary_length <= 0 or self.boundary_width <= 0:
            raise ValueError("boundary extents must be positive")


@dataclass(frozen=True)
class GroundPlaneModel:
    normal: np.ndarray   # unit 3-vector
    offset: float        # plane is normal . x = offset
    inlier_count: int


def crop_mask(cloud: np.ndarray, cfg: RansacPlaneConfig) -> np.ndarray:
    """Mask of points in the forward sector x in [0, length], |y| <= width/2."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    half_w = cfg.boundary_width / 2.0
    return ((cloud[:, 0] >= 0.0) & (cloud[:, 0] <= cfg.boundary_length)
            & (np.abs(cloud[:, 1]) <= half_w))


def required_trials(p: float, eps: float, n: int) -> int:
    """Trial count so that with probability p one trial is outlier-free."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if eps == 0.0:
        return 1
    good = (1.0 - eps) ** n
    if good >= 1.0:
        raise ValueError("degenerate inlier probability")
    return math.ceil(math.log(1.0 - p) / math.log(1.0 - good))


def min_inlier_count(eps: float, total: int) -> int:
    """Inlier floor for an acceptable plane: floor((1 - eps) * total)."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    return math.floor((1.0 - eps) * total)


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


def ground_mask(cloud: np.ndarray, model: GroundPlaneModel,
                delta: float) -> np.ndarray:
    """Boolean mask of points within delta of the plane (the removed set)."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    dist = np.empty(len(cloud))
    _plane_distances(cloud, model.normal, model.offset, out=dist)
    return dist <= delta
