"""Shared fixtures for the probfusion test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from probfusion.aoi import BoundingBox
from probfusion.calib import (CameraIntrinsics, ExtrinsicTransform,
                              default_extrinsic)
from probfusion.config import PipelineConfig
from probfusion.sim import SIMULATED_GUARANTEE, SIMULATED_RATIOS


# Selected with --hypothesis-profile=ci: the same examples on every run,
# so that a property test cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True)


# One line per acceptance criterion, echoed in the terminal summary so
# the outcomes are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def intr():
    return CameraIntrinsics(fx=500.0, fy=500.0, ox=320.0, oy=240.0,
                            width=640, height=480)


@pytest.fixture
def identity_extr():
    return ExtrinsicTransform(rotation=np.eye(3), translation=np.zeros(3))


@pytest.fixture
def forward_extr():
    return default_extrinsic()


def make_box(u_min=100.0, v_min=50.0, u_max=200.0, v_max=150.0,
             frame_id=0, object_id=1, class_label="car"):
    return BoundingBox(frame_id=frame_id, object_id=object_id,
                       class_label=class_label,
                       u_min=u_min, v_min=v_min, u_max=u_max, v_max=v_max)


def in_memory_config():
    """The settings sim.write_sequence_dir writes to config.json, for
    fusing simulated frames without files, with rng_seed 0."""
    return PipelineConfig(calibration_path=Path("unused"),
                          enlarge_ratios={"default": SIMULATED_RATIOS},
                          guarantee=SIMULATED_GUARANTEE)
