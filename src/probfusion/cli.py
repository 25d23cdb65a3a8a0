"""Command-line interface.

Subcommands:
  simulate         scene spec -> sequence directory (with ground truth)
  fuse             sequence directory -> trajectories + report
  benchmark-shapes labeled cluster files -> benchmark registry
  evaluate         trajectories + ground truth -> report

Exit codes: 0 success, 1 input error (ValueError, OSError), 2 config
error (ConfigError), 3 internal error (any other FusionError).
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

import click
import numpy as np

from .config import load_pipeline_config
from .errors import ConfigError, FusionError, check_numbers
from .io import (read_frame_rate, read_ground_truth, read_json_object,
                 read_trajectory_csv, write_report)
from .metrics import align_to_ground_truth, mae_axis
from .shape import (MIN_BENCHMARK_SAMPLES, BenchmarkShapeRegistry,
                    build_benchmark, compute_descriptor)
from . import sim as simmod
from .pipeline import run_sequence


class _Cli(click.Group):
    """Ends a command that raised one of the errors above with its exit
    code and one stderr line; any other exception is a bug and keeps
    its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            code, message = 2, f"config error: {exc}"
        except (ValueError, OSError) as exc:
            code, message = 1, f"input error: {exc}"
        except FusionError as exc:
            code, message = 3, f"internal error: {exc}"
        click.echo(message, err=True)
        sys.exit(code)


@click.group(cls=_Cli)
def main():
    """Probabilistic LiDAR-camera fusion tools."""


@main.command()
@click.option("--scene", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Scene spec JSON; default overtaking fixture.")
@click.option("--seed", type=int, default=None,
              help="Scene rng_seed; default the scene file's, or 0.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--ideal", is_flag=True,
              help="Simulate with the all-zero ErrorModel (ideal mappings).")
def simulate(scene, seed, out, ideal):
    """Generate a synthetic sequence directory with ground truth."""
    spec = (simmod.load_scene_spec(scene) if scene is not None
            else simmod.overtaking_scene())
    if seed is not None:
        spec = dataclasses.replace(spec, rng_seed=seed)
    err = simmod.ErrorModel() if ideal else simmod.DEFAULT_ERROR_MODEL
    frames = simmod.write_sequence_dir(out, spec, err)
    click.echo(f"wrote {len(frames)} frames to {out}")


@main.command()
@click.argument("sequence_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--seed", type=int, default=None,
              help="Override the config rng_seed.")
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--no-smoother", is_flag=True)
def fuse(sequence_dir, config_path, seed, out, no_smoother):
    """Run the fusion pipeline over a sequence directory."""
    cfg = load_pipeline_config(config_path)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, "
                              f"got {seed}")
        cfg.rng_seed = seed
    report = run_sequence(sequence_dir, cfg, out_dir=out,
                          no_smoother=no_smoother)
    agg = report.get("evaluation", {}).get("aggregate", {})
    if "baseline_tpr_mean" in agg:
        click.echo(f"baseline TPR {agg['baseline_tpr_mean']:.3f}  "
                   f"p-fusion TPR {agg['fusion_tpr_mean']:.3f}")
    click.echo(f"report written for {report['n_frames']} frames")


@main.command("benchmark-shapes")
@click.argument("cluster_files", nargs=-1,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def benchmark_shapes(cluster_files, out):
    """Build a benchmark registry from labeled cluster files.

    Each input is a JSON file {"class": ..., "points": [[u, v], ...]}.
    """
    if not cluster_files:
        raise ValueError("no cluster files given")
    by_class: dict = {}
    for path in cluster_files:
        rec = read_json_object(path)
        try:
            for i, point in enumerate(rec["points"]):
                check_numbers(f"points[{i}]", point, "a [u, v] pair", 2)
            desc = compute_descriptor(np.asarray(rec["points"], dtype=float))
            if not isinstance(rec["class"], str):
                raise ValueError(f"class is {rec['class']!r}, not a string")
            by_class.setdefault(rec["class"], []).append(desc)
        except (KeyError, TypeError, ValueError, FusionError) as exc:
            raise ValueError(f"bad cluster file {path}: {exc}") from None
    shapes = {}
    for cls, descs in by_class.items():
        if len(descs) < MIN_BENCHMARK_SAMPLES:
            click.echo(f"warning: {cls}: benchmark built from only "
                       f"{len(descs)} samples (recommended minimum "
                       f"{MIN_BENCHMARK_SAMPLES})", err=True)
        shapes[cls] = build_benchmark(descs)
    registry = BenchmarkShapeRegistry(
        shapes=shapes,
        sample_counts={cls: len(descs) for cls, descs in by_class.items()})
    registry.save(out)
    click.echo(f"wrote benchmarks for {sorted(by_class)} to {out}")


@main.command()
@click.argument("trajectory_csvs", nargs=-1,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--ground-truth", type=click.Path(exists=True, dir_okay=False),
              required=True, help="ground_truth.jsonl of the sequence.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def evaluate(trajectory_csvs, ground_truth, out):
    """Compare trajectory CSVs against ground truth (MAE per axis).

    Timestamps come from the frame rate in the scene.json next to the
    ground-truth file (10 Hz without one).
    """
    if not trajectory_csvs:
        raise ValueError("no trajectories given")
    gt = read_ground_truth(ground_truth)
    frame_rate = read_frame_rate(Path(ground_truth).parent)
    frame_times = {frame_id: frame_id / frame_rate for frame_id in gt}
    report = {}
    for path in trajectory_csvs:
        id_text = Path(path).stem.rsplit("_", 1)[-1]
        if not re.fullmatch(r"[+-]?[0-9]+", id_text):
            raise ValueError(f"no object id in the name of {path}; "
                             "expected object_<id>.csv")
        obj_id = int(id_text)
        ex, ey, gx, gy = align_to_ground_truth(read_trajectory_csv(path), gt,
                                               obj_id, frame_times)
        if ex:
            report[str(obj_id)] = {"mae_x": mae_axis(ex, gx),
                                   "mae_y": mae_axis(ey, gy),
                                   "n": len(ex)}
    write_report(out, report)
    click.echo(f"evaluation written to {out}")


if __name__ == "__main__":
    main()
