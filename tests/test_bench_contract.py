"""What the benchmark in perfbench/ relies on in the program.

The benchmark writes its overtaking sequences with its own copy of what
``probfusion simulate`` does, and its traced run rebinds names of
``probfusion.pipeline``. Both break silently when the program changes,
so both are pinned here.
"""

import importlib.util
import sys
from pathlib import Path

from click.testing import CliRunner

from probfusion import pipeline
from probfusion.cli import main as cli_main
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
