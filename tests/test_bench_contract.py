"""What the benchmark in perfbench/ relies on in the program.

The benchmark writes its overtaking sequences with its own copy of what
``probfusion simulate`` does, and its traced run rebinds names of
``probfusion.pipeline``. Both break silently when the program changes:
a rebound name that is gone, or one the pipeline no longer calls,
reports no time. So both are pinned here.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from probfusion import pipeline
from probfusion.cli import main as cli_main
from probfusion.config import load_pipeline_config
from probfusion.sim import default_calibration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    """perfbench/<name>.py, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def read_tree(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_simulate_to_dir_matches_cli(tmp_path):
    workloads = load_bench_module("workloads")
    workloads.simulate_to_dir(tmp_path / "bench", 7,
                              workloads.reference_registry(),
                              default_calibration())
    res = CliRunner().invoke(cli_main, ["simulate", "--seed", "7",
                                        "--out", str(tmp_path / "cli")])
    assert res.exit_code == 0, res.output
    bench, cli = read_tree(tmp_path / "bench"), read_tree(tmp_path / "cli")
    assert sorted(bench) == sorted(cli)
    assert [name for name in bench if bench[name] != cli[name]] == []


def test_traced_names_resolve():
    spans = load_bench_module("spans")
    missing = [name for name, _, _ in spans.PIPELINE_NAMES
               if not callable(getattr(pipeline, name, None))]
    missing += [f"ground.{name}" for name, _ in spans.GROUND_NAMES
                if not callable(getattr(pipeline.ground, name, None))]
    assert missing == []


def test_traced_names_are_called(tmp_path):
    # One crowd frame without observed pixels (so that it is projected),
    # the same frame with a point behind the sensor (so that the crop
    # drops a point and the ground fit reads the cropped rows) and one
    # fused sequence call every traced stage at least once, apart from
    # ground_mask: the pipeline removes the fit's own inliers, and
    # ground_mask measures a plane on other points.
    spans, workloads = load_bench_module("spans"), load_bench_module("workloads")
    calib = default_calibration()
    spec = workloads.crowd_spec(workloads.op_seed("crowd", 0, 0), 21,
                                duration=0.1, near_car=False)
    frame = workloads.simulate_frames([spec], calib)[0].record
    frame = dataclasses.replace(frame, observed_uv=None, uv_valid=None)
    cropped = dataclasses.replace(
        frame, cloud=np.vstack([frame.cloud, [[-5.0, 0.0, 0.0]]]))
    workloads.simulate_to_dir(tmp_path / "seq", 7,
                              workloads.reference_registry(), calib,
                              duration=1.0)
    cfg = load_pipeline_config(tmp_path / "seq" / "config.json")
    tracer = spans.Tracer()
    restore = spans.install(tracer, pipeline, workloads)
    try:
        for fr in (frame, cropped):
            pipeline.run_fusion_frame(fr, calib, workloads.in_memory_config(),
                                      workloads.reference_registry())
        pipeline.run_sequence(tmp_path / "seq", cfg, out_dir=tmp_path / "out")
    finally:
        restore()
    _, _, counts = tracer.totals([spans.SETUP_OP])
    names = [span for _, span, _ in spans.PIPELINE_NAMES]
    names += [span for name, span in spans.GROUND_NAMES
              if name != "ground_mask"]
    assert [name for name in names if counts[name]["calls"] == 0] == []
