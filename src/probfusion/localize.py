"""Object localization from a selected cluster.

The representative point is the cluster member with the median planar
range; the object's position is its X and Y, and its distance that
planar range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster


@dataclass(frozen=True)
class ObjectLocalization:
    object_id: int
    range_m: float
    x_m: float
    y_m: float


def representative_point(ranges: np.ndarray) -> int:
    """Index of the median-range member; lower-middle for even counts."""
    ranges = np.asarray(ranges, dtype=float).ravel()
    if len(ranges) == 0:
        raise EmptyCluster("no points to pick a representative from")
    order = np.argsort(ranges, kind="stable")
    return int(order[(len(ranges) - 1) // 2])


def localize(object_id: int, cluster_xyz: np.ndarray,
             ranges: np.ndarray) -> ObjectLocalization:
    """Localize an object from its cluster's 3-D points and their planar
    ranges (cluster.planar_ranges), which the caller has already taken;
    a range count other than the point count is a ValueError."""
    xyz = np.asarray(cluster_xyz, dtype=float).reshape(-1, 3)
    ranges = np.asarray(ranges, dtype=float).ravel()
    if len(ranges) != len(xyz):
        raise ValueError(f"{len(ranges)} ranges for {len(xyz)} points")
    rep = representative_point(ranges)
    return ObjectLocalization(object_id=object_id,
                              range_m=float(ranges[rep]),
                              x_m=float(xyz[rep, 0]),
                              y_m=float(xyz[rep, 1]))
