"""Shared fixtures for the probfusion test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from probfusion.aoi import BoundingBox
from probfusion.calib import (CameraIntrinsics, ExtrinsicTransform,
                              default_extrinsic)
from probfusion.cluster import RangeHistogram
from probfusion.config import PipelineConfig
from probfusion.sim import (SIMULATED_GUARANTEE, SIMULATED_RATIOS, ObjectSpec,
                            SceneSpec, Trajectory)


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


def crowd_scene(seed=3, n_objects=15, duration=2.0):
    """Mostly pedestrians, some cars, 8-50 m out (uniform over the ground
    area) and slow enough to stay in the camera's field of view: many
    small AOIs with several range peaks, so that K-Means, the histogram
    and shape scoring all run."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n_objects):
        x0 = float(np.sqrt(rng.uniform(8.0 ** 2, 50.0 ** 2)))
        y_lim = min(12.0, 0.6 * x0)
        car = i % 5 == 0
        vx, vy = ((float(rng.uniform(-3.0, 3.0)), 0.0) if car else
                  tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2)))
        objects.append(ObjectSpec(
            object_id=i + 1, class_label="car" if car else "pedestrian",
            trajectory=Trajectory(x_coeffs=(x0, vx),
                                  y_coeffs=(float(rng.uniform(-y_lim, y_lim)),
                                            vy))))
    return SceneSpec(duration=duration, frame_rate=10.0,
                     objects=tuple(objects), rng_seed=seed)


def stack_histograms(hists):
    """One detection's histogram after another, as the stack that
    cluster.build_range_histogram returns."""
    n_bins = np.array([len(h.bin_centers) for h in hists], dtype=int)
    bin_first = np.cumsum(n_bins) - n_bins
    return RangeHistogram(
        bin_centers=np.concatenate([np.empty(0)]
                                   + [h.bin_centers for h in hists]),
        counts=np.concatenate([np.zeros(0, dtype=int)]
                              + [h.counts for h in hists]),
        assignments=np.concatenate(
            [np.zeros(0, dtype=int)]
            + [h.assignments + first for h, first in zip(hists, bin_first)]),
        n_bins=n_bins,
        n_values=np.array([len(h.assignments) for h in hists], dtype=int))


def split_histogram(hist):
    """Each detection's histogram of a stack, its assignments counted
    from its own first bin."""
    hists = []
    bin_first = value_first = 0
    for n_bins, n_values in zip(hist.n_bins.tolist(), hist.n_values.tolist()):
        hists.append(RangeHistogram(
            bin_centers=hist.bin_centers[bin_first:bin_first + n_bins],
            counts=hist.counts[bin_first:bin_first + n_bins],
            assignments=(hist.assignments[value_first:value_first + n_values]
                         - bin_first)))
        bin_first += n_bins
        value_first += n_values
    return hists
