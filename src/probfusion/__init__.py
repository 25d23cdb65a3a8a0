"""Probabilistic LiDAR-camera fusion robust to mapping errors.

Library layout:
  errors    exception types and the number rule for input files
  io        sequence-directory file formats
  config    pipeline configuration loading
  calib     calibration data and pinhole projection
  ground    RANSAC ground-plane removal
  classes   per-class parameter table
  aoi       bounding-box enlargement and pixel-membership masks
  cluster   range-histogram mode clustering
  shape     3x3 shape descriptors, KL similarity, cluster selection
  localize  median-range point: position and distance
  smoother  polynomial-RANSAC trajectory smoothing
  metrics   banded TPR, MAE, completeness guarantee, t-tests
  stats     Student-t tail probabilities for the t-tests
  sim       deterministic synthetic-scene oracle
  pipeline  frame/sequence orchestration
  cli       command-line entry points
"""

from .calib import (CalibrationPair, CameraIntrinsics, ExtrinsicTransform,
                    load_calibration, project_xyz)
from .errors import FusionError

__all__ = [
    "CalibrationPair", "CameraIntrinsics", "ExtrinsicTransform",
    "load_calibration", "project_xyz", "FusionError",
]

__version__ = "0.1.0"
