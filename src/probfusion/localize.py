"""Object localization from a selected cluster.

The representative point is the cluster member with the median planar
range; distance and azimuth come from its X and Y coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import planar_ranges
from .errors import EmptyCluster, OriginPoint


@dataclass(frozen=True)
class ObjectLocalization:
    frame_id: int
    object_id: int
    class_label: str
    rep_index: int
    range_m: float
    azimuth_deg: float
    x_m: float
    y_m: float


def azimuth_of(x: float, y: float) -> float:
    """Angle from the +X axis in degrees, positive toward +Y (left)."""
    if x == 0.0 and y == 0.0:
        raise OriginPoint("azimuth undefined at the planar origin")
    # y + 0.0 normalizes a negative zero; tiny negative y can still round
    # to exactly -180 degrees, which maps to +180 to keep (-180, 180].
    angle = math.degrees(math.atan2(y + 0.0, x))
    return 180.0 if angle <= -180.0 else angle


def representative_point(ranges: np.ndarray) -> int:
    """Index of the median-range member; lower-middle for even counts."""
    ranges = np.asarray(ranges, dtype=float).ravel()
    if len(ranges) == 0:
        raise EmptyCluster("no points to pick a representative from")
    order = np.argsort(ranges, kind="stable")
    return int(order[(len(ranges) - 1) // 2])


def localize(frame_id: int, object_id: int, class_label: str,
             cluster_xyz: np.ndarray) -> ObjectLocalization:
    """Localize an object from its cluster's 3-D points."""
    xyz = np.asarray(cluster_xyz, dtype=float).reshape(-1, 3)
    if len(xyz) == 0:
        raise EmptyCluster("cannot localize an empty cluster")
    ranges = planar_ranges(xyz)
    rep = representative_point(ranges)
    x, y = float(xyz[rep, 0]), float(xyz[rep, 1])
    return ObjectLocalization(
        frame_id=frame_id,
        object_id=object_id,
        class_label=class_label,
        rep_index=rep,
        range_m=float(ranges[rep]),
        azimuth_deg=azimuth_of(x, y),
        x_m=x,
        y_m=y,
    )
