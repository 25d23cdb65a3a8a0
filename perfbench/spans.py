"""In-memory spans around the layers of the fusion pipeline.

The traced run rebinds, for its own duration only, the names that
``probfusion.pipeline`` imports (``ground``, ``seed_bin_centers``,
``load_sequence``, ...) and the names this benchmark calls, to wrappers
that record one span per call: name, start, end, parent span and op id.
Nothing in ``src/`` changes. Spans stay in memory and are written out
once the run is over.

A span's self time is its duration minus the time its direct child
spans cover. Calls are synchronous on one thread, so children nest
inside their parent and never overlap.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

SETUP_OP = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "counts",
                 "child_time")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.counts = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans; ``op`` is the id of the operation being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = SETUP_OP

    def wrap(self, fn, name, count=None):
        """fn, recording a span per call; count(args, result) -> dict."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), parent, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_time += span.duration
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "op": s.op, "error": s.error,
                     "counts": s.counts}, sort_keys=True) + "\n")

    def totals(self, ops) -> tuple[dict, dict, dict]:
        """Per span name over the given op ids: summed duration, summed
        self time, and summed counts (including a "calls" and an
        "errors" count)."""
        ops = set(ops)
        dur, self_t = defaultdict(float), defaultdict(float)
        counts: dict = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            if s.op not in ops:
                continue
            dur[s.name] += s.duration
            self_t[s.name] += s.self_time
            c = counts[s.name]
            c["calls"] += 1
            c["errors"] += s.error is not None
            for key, value in (s.counts or {}).items():
                c[key] += value
        return dur, self_t, counts


def _points_loaded(args, result):
    frames, _ = result
    return {"points": sum(len(f.cloud) for f in frames)}


def _frame_counts(args, result):
    locs, diag = result
    return {"detections": len(diag.objects),
            "localized": len(locs),
            "ok": sum(1 for o in diag.objects.values() if o.status == "ok")}


def _interpolated(args, result):
    return {"interpolated": sum(1 for s in result.samples if s.interpolated)}


# (name the pipeline module imports, span name, counter)
PIPELINE_NAMES = [
    ("run_fusion_frame", "pipeline.frame", _frame_counts),
    ("run_sequence", "pipeline.sequence", None),
    ("load_sequence", "io.load_sequence", _points_loaded),
    ("load_calibration", "io.load_calibration", None),
    ("write_report", "io.write_report", None),
    ("write_trajectory_csv", "io.write_trajectory", None),
    ("project_xyz", "calib.project", None),
    ("enlarge_aoi", "aoi.enlarge", None),
    ("planar_ranges", "cluster.ranges", None),
    ("seed_bin_centers", "cluster.kmeans", None),
    ("build_range_histogram", "cluster.hist", None),
    ("select_candidate_clusters", "cluster.select", None),
    ("select_cluster", "shape.select",
     lambda args, result: {"candidates": len(args[0])}),
    ("localize", "localize.localize", None),
    ("detect_outliers", "smoother.detect",
     lambda args, result: {"samples": len(args[0])}),
    ("smooth_and_interpolate", "smoother.smooth", _interpolated),
    ("tpr", "metrics.tpr", None),
    ("selection_completeness", "metrics.completeness", None),
    ("paired_t_test", "metrics.paired_t", None),
    ("one_sample_right_tail_t_test", "metrics.one_sample_t", None),
    ("mae_axis", "metrics.mae", None),
]

GROUND_NAMES = [
    ("crop_mask", "ground.crop_mask"),
    ("fit_ground_plane", "ground.fit"),
    ("ground_mask", "ground.ground_mask"),
]

# (name in the benchmark's workloads module, span name)
BENCH_NAMES = [
    ("simulate_sequence", "sim.simulate"),
    ("dump_simulated_sequence", "io.write_sequence"),
    ("save_registry", "io.write_registry"),
    ("write_pipeline_config", "io.write_config"),
    ("load_pipeline_config", "io.load_config"),
]


def install(tracer: Tracer, pipeline_module, workloads_module):
    """Rebind the traced names; returns a function that restores them."""
    saved = []

    def rebind(namespace, name, value):
        saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    pm = pipeline_module
    for name, span_name, count in PIPELINE_NAMES:
        rebind(pm, name, tracer.wrap(getattr(pm, name), span_name, count))
    ground = types.SimpleNamespace(**vars(pm.ground))
    for name, span_name in GROUND_NAMES:
        setattr(ground, name, tracer.wrap(getattr(pm.ground, name), span_name))
    rebind(pm, "ground", ground)
    registry = pm.BenchmarkShapeRegistry
    rebind(pm, "BenchmarkShapeRegistry", types.SimpleNamespace(
        load=tracer.wrap(registry.load, "io.load_registry")))
    for name, span_name in BENCH_NAMES:
        rebind(workloads_module, name,
               tracer.wrap(getattr(workloads_module, name), span_name))

    def restore():
        for namespace, name, value in reversed(saved):
            setattr(namespace, name, value)
        saved.clear()

    return restore
