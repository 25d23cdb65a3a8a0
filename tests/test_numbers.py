"""One rule for every number of a stage config, a scene or a camera: an
integer field takes any numbers.Integral but a bool, a number field any
finite numbers.Real but a bool."""

import dataclasses

import numpy as np
import pytest

from probfusion.aoi import EnlargeRatios
from probfusion.calib import CameraIntrinsics
from probfusion.config import STAGES
from probfusion.errors import InvalidSpec, check_number, check_numbers
from probfusion.sim import SceneSpec

# (class, the arguments it needs besides the field under test)
CHECKED = [*((cls, {}) for _, cls in STAGES), (EnlargeRatios, {}),
           (SceneSpec, {}),
           (CameraIntrinsics, dict(fx=500.0, fy=500.0, ox=320.0, oy=240.0,
                                   width=640, height=480))]


def numeric_fields():
    return [pytest.param(cls, base, field.name, field.type == "int",
                         id=f"{cls.__name__}.{field.name}")
            for cls, base in CHECKED for field in dataclasses.fields(cls)
            if field.type in ("int", "float", "Optional[float]")]


@pytest.mark.parametrize("cls, base, name, integer", numeric_fields())
def test_numeric_field_takes_numbers_only(cls, base, name, integer):
    for bad in (True, float("nan"), float("inf"), "1"):
        with pytest.raises(ValueError, match=rf"^{name} must be an? "):
            cls(**{**base, name: bad})
    default = getattr(cls(**base), name)
    good = np.int64(default) if integer else np.float64(default or 0.2)
    assert getattr(cls(**{**base, name: good}), name) == good


def test_numeric_fields_cover_every_stage():
    names = {case.id for case in numeric_fields()}
    assert {"ClusteringConfig.kmeans_k", "SmootherConfig.ransac_subset",
            "GuaranteeConfig.t1_fraction", "RansacPlaneConfig.delta",
            "SceneSpec.n_ground_points", "CameraIntrinsics.width"} <= names


@pytest.mark.parametrize("value, kwargs, message", [
    (2.5, dict(integer=True), "k must be an integer, got 2.5"),
    (0, dict(integer=True, at_least=1), "k must be an integer >= 1, got 0"),
    (1.0, dict(above=0, below=1), "k must be a finite number > 0 and < 1, "
                                  "got 1.0"),
    (-0.5, dict(at_least=0, at_most=90), "k must be a finite number >= 0 "
                                         "and <= 90, got -0.5"),
    (2 ** 70, dict(integer=True, below=2 ** 63),
     f"k must be an integer < {2 ** 63}, got {2 ** 70}"),
])
def test_check_number_message(value, kwargs, message):
    with pytest.raises(ValueError) as info:
        check_number("k", value, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("value, kwargs", [
    (np.int64(3), dict(integer=True, at_least=3)),
    (np.float32(0.5), dict(above=0, below=1)),
    (10 ** 400, dict(integer=True)),   # beyond a float, still an integer
    (0, dict(at_least=0)),
])
def test_check_number_accepts(value, kwargs):
    check_number("k", value, **kwargs)


@pytest.mark.parametrize("values, message", [
    ((1.0, 2), None),
    ([1.0, float("nan")], "xs[1] must be a finite number, got nan"),
    ([1.0, "2"], "xs[1] must be a finite number, got '2'"),
    ([1.0], "xs is [1.0], not a pair"),
    ("12", "xs is '12', not a pair"),
])
def test_check_numbers(values, message):
    if message is None:
        check_numbers("xs", values, "a pair", 2, error=InvalidSpec)
        return
    with pytest.raises(InvalidSpec) as info:
        check_numbers("xs", values, "a pair", 2, error=InvalidSpec)
    assert str(info.value) == message
