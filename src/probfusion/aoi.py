"""Bounding boxes: enlargement and pixel-membership masks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calib import CameraIntrinsics
from .classes import CLASSES
from .errors import check_number


@dataclass(frozen=True)
class BoundingBox:
    frame_id: int
    object_id: int
    class_label: str
    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if self.class_label not in CLASSES:
            raise ValueError(f"unknown class label {self.class_label!r}")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("box must have positive extent")

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    def mask(self, uv: np.ndarray) -> np.ndarray:
        """Rows of an (N, 2) pixel array inside the box (rect_mask)."""
        return rect_mask(uv, self.u_min, self.v_min, self.u_max, self.v_max)


def rect_mask(uv: np.ndarray, u_min: float, v_min: float, u_max: float,
              v_max: float) -> np.ndarray:
    """Rows of an (N, 2) pixel array inside [u_min, u_max) x
    [v_min, v_max); NaN rows are outside."""
    u, v = uv[:, 0], uv[:, 1]
    return (u >= u_min) & (u < u_max) & (v >= v_min) & (v < v_max)


@dataclass(frozen=True)
class EnlargeRatios:
    left: float = 1.0
    right: float = 1.0
    up: float = 0.0
    down: float = 0.0

    def __post_init__(self):
        for side in ("left", "right", "up", "down"):
            check_number(side, getattr(self, side), at_least=0)


def enlarge_aoi(box: BoundingBox, ratios: EnlargeRatios,
                intr: CameraIntrinsics) -> Optional[BoundingBox]:
    """Grow the box by per-side fractions of its size, clamped to the
    image; None when the grown box has no area inside the image."""
    w = box.width
    h = box.height
    u_min = max(0.0, box.u_min - ratios.left * w)
    u_max = min(float(intr.width), box.u_max + ratios.right * w)
    v_min = max(0.0, box.v_min - ratios.up * h)
    v_max = min(float(intr.height), box.v_max + ratios.down * h)
    if not (u_min < u_max and v_min < v_max):
        return None
    return BoundingBox(frame_id=box.frame_id, object_id=box.object_id,
                       class_label=box.class_label, u_min=u_min,
                       v_min=v_min, u_max=u_max, v_max=v_max)

