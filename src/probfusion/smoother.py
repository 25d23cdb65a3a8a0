"""Trajectory outlier detection and smoothing.

Detection fits order-2 polynomials per dimension with RANSAC and flags
samples beyond twice the residual deviation in any dimension; smoothing
fits order-3 polynomials on the inliers and interpolates gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import TooFewInliers, TooFewSamples, check_number

DETECT_ORDER = 2
SMOOTH_ORDER = 3


@dataclass(frozen=True)
class SmootherConfig:
    threshold_sigma: float = 2.0
    ransac_iterations: int = 100
    ransac_subset: int = DETECT_ORDER + 2
    min_samples: int = 8
    sigma_floor: float = 0.05  # meters

    def __post_init__(self):
        check_number("threshold_sigma", self.threshold_sigma, above=0)
        check_number("ransac_iterations", self.ransac_iterations,
                     integer=True, at_least=1)
        check_number("ransac_subset", self.ransac_subset, integer=True,
                     at_least=DETECT_ORDER + 1)
        check_number("min_samples", self.min_samples, integer=True,
                     above=SMOOTH_ORDER + 1)
        check_number("sigma_floor", self.sigma_floor, at_least=0)


@dataclass(frozen=True)
class TrackSample:
    t: float
    x: float
    y: float
    outlier: bool = False
    interpolated: bool = False


@dataclass(frozen=True)
class SmoothedTrajectory:
    samples: list  # of TrackSample


def _as_arrays(track: Sequence[TrackSample]) -> tuple[np.ndarray, np.ndarray]:
    t = np.array([s.t for s in track], dtype=float)
    xy = np.array([[s.x, s.y] for s in track], dtype=float)
    if np.any(np.diff(t) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    return t, xy


def _ransac_best_fit(t: np.ndarray, values: np.ndarray,
                     cfg: SmootherConfig,
                     rng: np.random.Generator) -> Polynomial:
    """Best order-2 model over RANSAC trials.

    Trials are ranked by the median of squared residuals (least-median-
    of-squares), which needs no noise-scale estimate and tolerates up to
    half the samples being contaminated; ties break by lower RMS, then
    by the earlier trial.

    Each trial is the fit Polynomial.fit(t[subset], values[subset], 2)
    makes, step by step: its subset's times are mapped from their
    [min, max] domain onto the window [-1, 1], the Vandermonde columns
    are scaled to unit norm, and np.linalg.lstsq solves the system. The
    subsets, the scaling and the residuals of all trials are stacked; a
    trial whose solve raises LinAlgError is skipped.
    """
    n = len(t)
    size = min(cfg.ransac_subset, n)
    subsets = np.array([rng.choice(n, size=size, replace=False)
                        for _ in range(cfg.ransac_iterations)],
                       dtype=np.intp).reshape(-1, size)
    ts = t[subsets]
    lo, hi = ts.min(axis=1), ts.max(axis=1)
    span = hi - lo
    # pu.mapparms(domain, window) and pu.mapdomain, window [-1, 1].
    off = (-hi - lo) / span
    scl = 2.0 / span
    x = off[:, None] + scl[:, None] * ts
    # Transposed Vandermonde matrices, (trial, power, sample), so that
    # each column norm sums its samples in the order np.sum does.
    van = np.empty((len(x), DETECT_ORDER + 1, x.shape[1]))
    van[:, 0] = x * 0 + 1
    for i in range(1, DETECT_ORDER + 1):
        van[:, i] = van[:, i - 1] * x
    col_norm = np.sqrt(np.square(van).sum(axis=2))
    col_norm[col_norm == 0] = 1
    lhs = van / col_norm[:, :, None]
    rhs = values[subsets] + 0.0
    rcond = x.shape[1] * np.finfo(float).eps
    coefs = np.full((len(x), DETECT_ORDER + 1), np.nan)
    valid = np.zeros(len(x), dtype=bool)
    for i in range(len(x)):
        try:
            coefs[i] = np.linalg.lstsq(lhs[i].T, rhs[i], rcond)[0]
        except np.linalg.LinAlgError:
            continue
        valid[i] = True
    if not valid.any():
        raise TooFewSamples("no valid RANSAC trial")
    coefs /= col_norm
    # Each trial's model at every sample time, by Horner's rule as
    # Polynomial.__call__ evaluates it.
    xt = off[:, None] + scl[:, None] * t
    fitted = coefs[:, -1:] + xt * 0
    for i in range(DETECT_ORDER - 1, -1, -1):
        fitted = coefs[:, i:i + 1] + fitted * xt
    sq = np.abs(values - fitted) ** 2
    keys = list(zip(np.median(sq, axis=1).tolist(),
                    np.sqrt(np.mean(sq, axis=1)).tolist()))
    best = min(np.flatnonzero(valid).tolist(), key=keys.__getitem__)
    return Polynomial(coefs[best], domain=[lo[best], hi[best]])


def detect_outliers(track: Sequence[TrackSample], cfg: SmootherConfig,
                    seed: int = 0) -> np.ndarray:
    """Outlier flags: a sample is flagged when any dimension's residual
    against its best order-2 model exceeds threshold_sigma times the
    model's residual deviation (floored at sigma_floor). seed seeds the
    RANSAC subsets."""
    if len(track) < cfg.min_samples:
        raise TooFewSamples(
            f"need at least {cfg.min_samples} samples, got {len(track)}")
    t, xy = _as_arrays(track)
    rng = np.random.default_rng(seed)
    flags = np.zeros(len(track), dtype=bool)
    for d in range(2):
        model = _ransac_best_fit(t, xy[:, d], cfg, rng)
        resid = xy[:, d] - model(t)
        sigma = max(float(np.std(resid)), cfg.sigma_floor)
        flags |= np.abs(resid) > cfg.threshold_sigma * sigma
    return flags


def smooth_and_interpolate(track: Sequence[TrackSample], flags: np.ndarray,
                           grid: Optional[Sequence[float]] = None,
                           ) -> SmoothedTrajectory:
    """Order-3 per-dimension fit on inliers, evaluated on the grid.

    The grid defaults to the track's timestamps. Grid times at a flagged
    sample are marked outlier; grid times without an inlier sample are
    marked interpolated.
    """
    t, xy = _as_arrays(track)
    flags = np.asarray(flags, dtype=bool)
    inlier = ~flags
    if int(inlier.sum()) <= SMOOTH_ORDER + 1:
        raise TooFewInliers(
            f"{int(inlier.sum())} inliers cannot support an order-3 fit")
    fit_x, fit_y = (Polynomial.fit(t[inlier], xy[inlier, d], SMOOTH_ORDER)
                    for d in range(2))
    grid_t = t if grid is None else np.asarray(list(grid), dtype=float)
    measured = np.isin(grid_t, t[inlier])
    outlier = np.isin(grid_t, t[flags])
    return SmoothedTrajectory(samples=[
        TrackSample(t=float(gt), x=float(fit_x(gt)), y=float(fit_y(gt)),
                    outlier=bool(o), interpolated=not bool(m))
        for gt, m, o in zip(grid_t, measured, outlier)])
