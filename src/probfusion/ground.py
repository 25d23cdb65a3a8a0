"""Ground-plane removal with bounded RANSAC plane fitting.

Clouds are (N, 3) float arrays in the LiDAR frame (x forward, y left,
z up). Cropping keeps a forward sector anchored at the sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientPoints, NoAcceptablePlane, check_number


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
        check_number("p", self.p, above=0, below=1)
        check_number("eps", self.eps, at_least=0, below=1)
        check_number("n_sample", self.n_sample, integer=True, at_least=3)
        check_number("delta", self.delta, above=0)
        check_number("boundary_length", self.boundary_length, above=0)
        check_number("boundary_width", self.boundary_width, above=0)
        check_number("normal_cone_deg", self.normal_cone_deg, above=0,
                     at_most=90)


@dataclass(frozen=True)
class GroundPlaneModel:
    normal: np.ndarray   # unit 3-vector
    offset: float        # plane is normal . x = offset
    inlier_count: int
    # Mask over the fitted cloud of the points within delta of the plane,
    # which is what ground_mask returns for that cloud; None when unknown.
    inliers: Optional[np.ndarray] = field(default=None, repr=False,
                                          compare=False)


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


def _fit_plane_lsq(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares planes through a stack of point sets: points is
    (..., n, 3), and the result is the unit normals (..., 3) and offsets
    (...) of one plane per set of n points.

    The normal is the eigenvector of the smallest eigenvalue of the 3x3
    scatter matrix of the centered points, built as ``R.T @ R - n m m^T``
    from the points R relative to the first one and their mean m: two
    BLAS products, no centered copy. Identical points give an exactly
    zero scatter, whose first eigenvector (1, 0, 0) lies outside any
    cone around the vertical.

    numpy's matmul and eigh loop over the stack, calling per set the
    BLAS or LAPACK routine that a single (n, 3) set gets, and the norm
    and offset are per-set dot products as well; so each plane of a
    stack equals, bit for bit, the fit of its set alone.

    R overwrites points, so callers pass an array they own.
    """
    n = points.shape[-2]
    # Column by column: numpy's broadcast loop over rows of 3 is twice as
    # slow, and the differences are the same.
    p0 = points[..., 0, :].copy()
    for j in range(3):
        points[..., j] -= p0[..., j, None]
    mean = np.ones(n) @ points / n
    scatter = (np.matmul(np.swapaxes(points, -1, -2), points)
               - n * (mean[..., :, None] * mean[..., None, :]))
    _, vecs = np.linalg.eigh(scatter)  # ascending eigenvalues
    first = np.ascontiguousarray(vecs[..., :, 0])
    # np.linalg.norm of a vector: the square root of its dot with itself.
    normals = first / np.sqrt(_dot(first, first))[..., None]
    np.negative(normals, out=normals, where=normals[..., 2:] < 0)
    return normals, _dot(normals, p0 + mean)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, one BLAS dot per pair of vectors."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _plane_distances(cloud: np.ndarray, normal: np.ndarray, offset: float,
                     out: np.ndarray) -> None:
    """|cloud . normal - offset| written into out."""
    np.matmul(cloud, normal, out=out)
    out -= offset
    np.abs(out, out=out)


# Machine epsilon, for the rounding bound of the trial bail-out.
_EPS = float(np.finfo(float).eps)


def _worth_testing(n_points: int, n_suspects: int) -> bool:
    """Whether a bail-out test costs at most a quarter of a full trial
    pass: its numpy calls cost about a pass over 4096 points, and each
    suspect about 4 points of a pass."""
    return 4 * (4096 + 4 * n_suspects) <= n_points


def _cannot_win(suspects: np.ndarray, reach: float, normal: np.ndarray,
                offset: float, delta: float, out: np.ndarray) -> bool:
    """True when every suspect is certainly outside the trial's band.

    suspects are the best plane's outliers, and reach bounds |p|_1 over
    them. The distance of a point p computed here can differ from the
    full pass's, because the two gemvs may order or fuse the three
    products differently: by less than 4 eps (S + |offset|), where
    S = sum_j |p_j n_j| <= |p|_1 for a unit normal n. A suspect counts
    as certainly out only when its distance exceeds delta by
    16 eps (reach + |offset| + delta), which also covers the rounding
    of that sum, so a point the full pass counts in is never counted
    out here.
    """
    if len(suspects) == 0:
        return True
    _plane_distances(suspects, normal, offset, out=out)
    slack = 16.0 * _EPS * (reach + abs(offset) + delta)
    return float(out.min()) > delta + slack


def fit_ground_plane(cloud: np.ndarray, cfg: RansacPlaneConfig,
                     seed: int = 0) -> GroundPlaneModel:
    """RANSAC plane fit constrained to near-vertical normals; seed seeds
    the trial draws.

    A trial wins when it has strictly more inliers than the best trial
    so far. Before its pass over the whole cloud, a trial is scored on
    the best plane's outliers (the suspects): when all of them are
    certainly outside the trial's band, the trial has at most the best
    count of inliers and cannot win, so its full pass is skipped. What
    "certainly" means is given by the rounding bound in _cannot_win, so
    a skip never drops a trial that would have won; the winner and the
    returned model are those of trying every trial in full. The test
    runs only where it is cheap next to a full pass (_worth_testing):
    on large clouds with few outliers.

    All trial samples are drawn first, in the order the trials take
    them, and their planes are solved as one (trials, n_sample, 3)
    stack (_fit_plane_lsq), each the plane its sample alone would give.
    The refit is a stack of one: it gathers the winner's inliers into
    the buffer the trials' distances used and centers them there, so no
    N x 3 array is allocated.

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

    # The trials' distances use the first n_points floats of work; the
    # refit gathers the winner's inliers (3 floats each) into it.
    work = np.empty(3 * n_points)
    dist = work[:n_points]
    best_count, best_inside = -1, None
    suspects = None   # the best plane's outliers, gathered when tested
    samples = [rng.choice(n_points, size=cfg.n_sample, replace=False)
               for _ in range(n_trials)]
    # A gather copy, which _fit_plane_lsq may overwrite.
    normals, offsets = _fit_plane_lsq(cloud[np.array(samples)])
    for normal, offset in zip(normals, offsets.tolist()):
        if normal[2] < cos_cone:
            continue
        if best_count >= 0 and _worth_testing(n_points,
                                              n_points - best_count):
            if suspects is None:
                suspects = np.compress(~best_inside, cloud, axis=0)
                reach = (float(np.abs(suspects).sum(axis=1).max())
                         if len(suspects) else 0.0)
                suspect_dist = np.empty(len(suspects))
            if _cannot_win(suspects, reach, normal, offset, cfg.delta,
                           out=suspect_dist):
                continue
        _plane_distances(cloud, normal, offset, out=dist)
        inside = dist <= cfg.delta
        count = int(np.count_nonzero(inside))
        if count > best_count:
            best_count, best_inside = count, inside
            suspects = None

    if best_count < max(floor, 3):
        raise NoAcceptablePlane(
            f"best inlier count {max(best_count, 0)} below floor {floor}")

    # Refit on the winning inlier set, gathered into work and centered
    # there; keep the cone constraint. (take with mode "clip" writes
    # straight into out; the default mode would gather into a copy.)
    points = work[:3 * best_count].reshape(best_count, 3)
    np.take(cloud, np.flatnonzero(best_inside), axis=0, out=points,
            mode="clip")
    normals, offsets = _fit_plane_lsq(points[None])
    normal, offset = normals[0], float(offsets[0])
    if normal[2] < cos_cone:
        raise NoAcceptablePlane("refit normal left the allowed cone")
    _plane_distances(cloud, normal, offset, out=dist)
    inliers = dist <= cfg.delta
    final_count = int(np.count_nonzero(inliers))
    if final_count < floor:
        raise NoAcceptablePlane(
            f"refit inlier count {final_count} below floor {floor}")
    return GroundPlaneModel(normal=normal, offset=offset,
                            inlier_count=final_count, inliers=inliers)


def ground_mask(cloud: np.ndarray, model: GroundPlaneModel,
                delta: float) -> np.ndarray:
    """Boolean mask of points within delta of the plane (the removed set)."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    dist = np.empty(len(cloud))
    _plane_distances(cloud, model.normal, model.offset, out=dist)
    return dist <= delta
