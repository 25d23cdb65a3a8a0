"""Per-class parameters: one row per object class.

Every module that needs a per-class value (label validation, histogram
granularity, TPR tolerance, simulated object geometry) reads it here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClassParams:
    granularity_m: float       # range-histogram bin width
    tolerance_length_m: float  # object length behind the TPR tolerance band
    size_m: tuple              # simulated (width, height)
    ground_clearance_m: float  # simulated silhouette base above the ground


CLASSES = {
    "car": ClassParams(2.0, 4.5, (1.8, 1.5), 0.3),
    "pedestrian": ClassParams(0.5, 0.6, (0.6, 1.7), 0.05),
    "escooter_rider": ClassParams(0.5, 1.5, (0.7, 1.8), 0.05),
    "other": ClassParams(1.0, 1.0, (1.0, 1.0), 0.1),
}
