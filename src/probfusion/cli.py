"""Command-line interface.

Subcommands:
  simulate         scene spec -> sequence directory (with ground truth)
  fuse             sequence directory -> trajectories + report
  benchmark-shapes labeled cluster files -> benchmark registry
  evaluate         trajectories + ground truth -> report

Exit codes: 0 success, 1 input error, 2 config error, 3 internal
invariant violation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .config import load_pipeline_config
from .errors import ConfigError, EmptySequence, FusionError
from .io import (read_frame_rate, read_ground_truth, read_trajectory_csv,
                 write_report)
from .metrics import align_to_ground_truth, mae_axis
from .shape import BenchmarkShapeRegistry, build_benchmark, compute_descriptor
from . import sim as simmod
from .pipeline import run_sequence

EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


@click.group()
def main():
    """Probabilistic LiDAR-camera fusion tools."""


@main.command()
@click.option("--scene", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Scene spec JSON; default overtaking fixture.")
@click.option("--seed", type=int, default=None,
              help="Scene rng_seed; default the scene file's, or 0.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--ideal", is_flag=True,
              help="Skip error injection (zero-error oracle sequence).")
def simulate(scene, seed, out, ideal):
    """Generate a synthetic sequence directory with ground truth."""
    try:
        spec = (simmod.load_scene_spec(scene) if scene is not None
                else simmod.overtaking_scene())
        if seed is not None:
            spec = dataclasses.replace(spec, rng_seed=seed)
    except (FusionError, json.JSONDecodeError, KeyError, TypeError) as exc:
        click.echo(f"invalid scene spec: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    frames = simmod.write_sequence_dir(
        out, spec, None if ideal else simmod.DEFAULT_ERROR_MODEL)
    click.echo(f"wrote {len(frames)} frames to {out}")


@main.command()
@click.argument("sequence_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--seed", type=int, default=None,
              help="Override the config rng_seed.")
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--baseline-only", is_flag=True)
@click.option("--no-smoother", is_flag=True)
def fuse(sequence_dir, config_path, seed, out, baseline_only, no_smoother):
    """Run the fusion pipeline over a sequence directory."""
    try:
        cfg = load_pipeline_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if seed is not None:
        if seed < 0:
            click.echo(f"config error: --seed must be a non-negative "
                       f"integer, got {seed}", err=True)
            sys.exit(EXIT_CONFIG)
        cfg.rng_seed = seed
    try:
        report = run_sequence(sequence_dir, cfg, out_dir=out,
                              baseline_only=baseline_only,
                              no_smoother=no_smoother)
    except (EmptySequence, OSError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    except FusionError as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
    agg = report.get("evaluation", {}).get("aggregate", {})
    if "baseline_tpr_mean" in agg:
        click.echo(f"baseline TPR {agg['baseline_tpr_mean']:.3f}  "
                   f"p-fusion TPR {agg['fusion_tpr_mean']:.3f}")
    click.echo(f"report written for {report['n_frames']} frames")


@main.command("benchmark-shapes")
@click.argument("cluster_files", nargs=-1,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--min-samples", type=int, default=10, show_default=True)
def benchmark_shapes(cluster_files, out, min_samples):
    """Build a benchmark registry from labeled cluster files.

    Each input is a JSON file {"class": ..., "points": [[u, v], ...]}.
    """
    if not cluster_files:
        click.echo("no cluster files given", err=True)
        sys.exit(EXIT_INPUT)
    by_class: dict = {}
    for path in cluster_files:
        try:
            with open(path) as fh:
                rec = json.load(fh)
            desc = compute_descriptor(np.asarray(rec["points"], dtype=float))
            by_class.setdefault(rec["class"], []).append(desc)
        except (KeyError, ValueError, FusionError, json.JSONDecodeError) as exc:
            click.echo(f"bad cluster file {path}: {exc}", err=True)
            sys.exit(EXIT_INPUT)
    registry = BenchmarkShapeRegistry(
        shapes={cls: build_benchmark(descs, min_samples=min_samples)
                for cls, descs in by_class.items()},
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
        click.echo("no trajectories given", err=True)
        sys.exit(EXIT_INPUT)
    try:
        gt = read_ground_truth(ground_truth)
        frame_rate = read_frame_rate(Path(ground_truth).parent)
    except ValueError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    frame_times = {frame_id: frame_id / frame_rate for frame_id in gt}
    report = {}
    for path in trajectory_csvs:
        try:
            obj_id = int(Path(path).stem.rsplit("_", 1)[-1])
        except ValueError:
            click.echo(f"no object id in the name of {path}; "
                       "expected object_<id>.csv", err=True)
            sys.exit(EXIT_INPUT)
        try:
            samples = read_trajectory_csv(path)
        except ValueError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        ex, ey, gx, gy = align_to_ground_truth(samples, gt, obj_id,
                                               frame_times)
        if ex:
            report[str(obj_id)] = {"mae_x": mae_axis(ex, gx),
                                   "mae_y": mae_axis(ey, gy),
                                   "n": len(ex)}
    write_report(out, report)
    click.echo(f"evaluation written to {out}")


if __name__ == "__main__":
    main()
