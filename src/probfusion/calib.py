"""Calibration data and LiDAR-to-pixel projection.

Conventions: LiDAR frame is x forward, y left, z up; camera frame is
z forward, x right, y down. The extrinsic transform absorbs the axis
permutation. Pixel coordinates stay real-valued (no rounding).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, check_number, check_numbers

DEPTH_EPSILON = 1e-6  # meters along the optical axis; at or below is "behind"

# Rotation taking LiDAR axes (x fwd, y left, z up) to camera axes
# (x right, y down, z fwd) for colocated sensors.
LIDAR_TO_CAMERA_AXES = np.array(
    [[0.0, -1.0, 0.0],
     [0.0, 0.0, -1.0],
     [1.0, 0.0, 0.0]]
)


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    ox: float
    oy: float
    width: int
    height: int

    def __post_init__(self):
        # The principal point (ox, oy) lies inside the image.
        for name, bounds in (("fx", dict(above=0)), ("fy", dict(above=0)),
                             ("width", dict(integer=True, above=0)),
                             ("height", dict(integer=True, above=0)),
                             ("ox", dict(at_least=0, below=self.width)),
                             ("oy", dict(at_least=0, below=self.height))):
            check_number(name, getattr(self, name), error=CalibrationError,
                         **bounds)


@dataclass(frozen=True)
class ExtrinsicTransform:
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.isfinite(t).all():
            raise CalibrationError(f"translation {t.tolist()} is not finite")
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise CalibrationError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise CalibrationError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class CalibrationPair:
    intrinsics: CameraIntrinsics
    extrinsic: ExtrinsicTransform


def project_xyz(intr: CameraIntrinsics, extr: ExtrinsicTransform,
                xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of an (N, 3) LiDAR array.

    Returns (uv, valid): uv is (N, 2) with NaN rows where invalid, valid is
    a boolean mask of points in front of the camera. Points that project
    outside the image rectangle stay valid; callers clip as needed.

    Each column is computed whole, as fx * x / z + ox with the
    translation added per column; the depth of an invalid row is NaN,
    which the division carries into its uv, so no row is gathered or
    scattered and nothing divides by zero.
    """
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    pc = xyz @ extr.rotation.T
    t = extr.translation
    z = pc[:, 2] + t[2]
    valid = z > DEPTH_EPSILON
    depth = np.where(valid, z, np.nan)
    uv = np.empty((len(xyz), 2))
    for j, (f, o) in enumerate(((intr.fx, intr.ox), (intr.fy, intr.oy))):
        col = pc[:, j] + t[j]
        col *= f
        col /= depth
        np.add(col, o, out=uv[:, j])
    return uv, valid


def default_extrinsic() -> ExtrinsicTransform:
    """Extrinsic for a camera colocated with the LiDAR, looking forward."""
    return ExtrinsicTransform(rotation=LIDAR_TO_CAMERA_AXES.copy(),
                              translation=np.zeros(3))


def load_calibration(path) -> CalibrationPair:
    """Load a calibration JSON file.

    Expected keys: intrinsics{fx,fy,ox,oy,width,height},
    extrinsic{rotation: 9 row-major numbers, translation: 3 numbers},
    distortion: 5 zeros; every number finite, CalibrationError otherwise.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
        intr = CameraIntrinsics(**raw["intrinsics"])
        ext_raw = raw["extrinsic"]
        distortion = raw.get("distortion", [0.0] * 5)
        for name, values, size in (
                ("extrinsic.rotation", ext_raw["rotation"], 9),
                ("extrinsic.translation", ext_raw["translation"], 3),
                ("distortion", distortion, 5)):
            check_numbers(name, values, f"{size} numbers", size,
                          error=CalibrationError)
        extr = ExtrinsicTransform(rotation=ext_raw["rotation"],
                                  translation=ext_raw["translation"])
        if any(distortion):
            raise CalibrationError("nonzero distortion coefficients are not supported")
    except (KeyError, TypeError, ValueError) as exc:
        raise CalibrationError(f"malformed calibration file {path}: {exc}") from exc
    return CalibrationPair(intrinsics=intr, extrinsic=extr)


def save_calibration(path, calib: CalibrationPair) -> None:
    intr = calib.intrinsics
    payload = {
        "intrinsics": {"fx": intr.fx, "fy": intr.fy, "ox": intr.ox,
                       "oy": intr.oy, "width": intr.width, "height": intr.height},
        "extrinsic": {
            "rotation": [float(x) for x in calib.extrinsic.rotation.ravel()],
            "translation": [float(x) for x in calib.extrinsic.translation],
        },
        "distortion": [0.0] * 5,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
