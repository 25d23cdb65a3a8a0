"""Benchmark of the probfusion pipeline.

    python3 perfbench/run.py --workload overtaking --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from its
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics. See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("overtaking", "dense", "crowd")

# Thread pools numpy's BLAS may start; pinned before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# Set-ups measured in fresh processes before the run's own set-up;
# setup_s reports the median of all of them.
SETUP_CHILDREN = 4

# One crowd scene in this many has a car close enough that its frame
# skips ground removal: 3 of 120 frames, few enough that frame_ms_p90
# stays among the frames that do remove ground.
CROWD_NEAR_CAR_EVERY = 40

# Input sizes: (normal, tiny) per workload. The tiny sizes are for --smoke.
SIZES = {
    # sequence duration (s) of the overtaking fixture; 5.2 s = 52 frames
    "overtaking": {"normal": {"duration": 5.2, "min_ops": 3},
                   "tiny": {"duration": 1.0, "min_ops": 1}},
    # scenes x 5 frames (1 Hz) of ground points each
    "dense": {"normal": {"scenes": 4, "points": 120_000, "min_ops": 100},
              "tiny": {"scenes": 1, "points": 5_000, "min_ops": 1}},
    # one frame per scene, objects per scene
    "crowd": {"normal": {"scenes": 120, "objects": 21, "min_ops": 100},
              "tiny": {"scenes": 3, "objects": 21, "min_ops": 1}},
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import probfusion from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "probfusion" / "__init__.py").is_file():
        fail(f"no probfusion sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import probfusion
    if Path(probfusion.__file__).resolve().parent != src / "probfusion":
        fail(f"probfusion imported from {probfusion.__file__}, not {src}")
    import spans
    import workloads
    return workloads, spans


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "l3_cache": l3.read_text().strip() if l3.exists() else "unknown",
        "machine": platform.machine(),
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, inside the observed range."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: set-up, the timed closed loop, checks, metrics."""

    def __init__(self, w, sp, workload, seed, seconds, trace, size,
                 corrupt=None):
        self.w, self.sp = w, sp
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.size = trace, size
        self.corrupt = corrupt          # hook for the smoke check only
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.tracer = sp.Tracer() if trace else None
        self.restore = None
        self.op_counts: dict = {}       # traced op id -> {count: value}
        self.untraced_s: list = []      # paired op times in traced runs
        self.traced_s: list = []
        self.count_ops = 0              # first traced ops that counts cover
        self.phases: dict = {}          # overtaking: rates of its two halves

    # -------------------------------------------------------------- trace

    def traced(self, enabled: bool, op: int):
        """Turn the rebinding on or off before an op in a traced run."""
        if not self.trace:
            return
        if enabled and self.restore is None:
            import probfusion.pipeline as pipeline
            self.restore = self.sp.install(self.tracer, pipeline, self.w)
        elif not enabled and self.restore is not None:
            self.restore()
            self.restore = None
        self.tracer.op = op

    def paired(self, op_index: int, fn):
        """Run fn untraced and traced (order alternating), or just once.

        Returns the untraced result and time in untraced runs, the
        traced ones in traced runs.
        """
        if not self.trace:
            start = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - start
        out = {}
        for enabled in ((False, True) if op_index % 2 == 0 else (True, False)):
            self.traced(enabled, op_index)
            start = time.perf_counter()
            out[enabled] = (fn(), time.perf_counter() - start)
            self.traced(False, op_index)
        self.untraced_s.append(out[False][1])
        self.traced_s.append(out[True][1])
        return out[True]

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def op_failed(self, what):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: raised")
        if self.failed <= 3:
            traceback.print_exc()

    # -------------------------------------------------------------- setup

    def setup(self):
        """Reference shapes, calibration and (dense, crowd) input frames."""
        from probfusion import sim
        w = self.w
        self.calib = sim.default_calibration()
        self.cfg = w.in_memory_config()
        self.registry = w.reference_registry()
        self.inputs = self.make_inputs()

    def make_inputs(self):
        w, size = self.w, self.size
        if self.workload == "dense":
            specs = [w.dense_spec(w.op_seed("dense", self.seed, i),
                                  size["points"])
                     for i in range(size["scenes"])]
        elif self.workload == "crowd":
            specs = [w.crowd_spec(w.op_seed("crowd", self.seed, i),
                                  size["objects"], duration=0.1,
                                  near_car=i % CROWD_NEAR_CAR_EVERY == 0)
                     for i in range(size["scenes"])]
        else:
            return None
        return w.simulate_frames(specs, self.calib)

    # ---------------------------------------------------------- overtaking

    def loop_overtaking(self):
        w = self.w
        work = WORK_DIR / f"overtaking-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        sim_rates, fuse_rates, total_rates, frame_ms = [], [], [], []
        quality = []
        kept = None
        window = time.perf_counter()
        i = 0
        try:
            while True:
                seq = work / f"op{i}"
                seed = w.op_seed("overtaking", self.seed, i)

                def op():
                    start = time.perf_counter()
                    n = w.simulate_to_dir(seq, seed, self.registry,
                                          self.calib, self.size["duration"])
                    mid = time.perf_counter()
                    w.fuse_dir(seq, seq / "out")
                    return n, mid - start

                try:
                    (n, sim_s), op_s = self.paired(i, op)
                except Exception:
                    self.op_failed(f"op {i}")
                else:
                    if self.corrupt is not None:
                        self.corrupt(i, seq / "out" / "report.json")
                    n_det = w.count_detections(seq)
                    problems = w.check_report(seq / "out" / "report.json",
                                              n, n_det)
                    self.record(problems, f"op {i}")
                    if not problems:
                        sim_rates.append(n / sim_s)
                        fuse_rates.append(n / (op_s - sim_s))
                        total_rates.append(n / op_s)
                        frame_ms.append(1000.0 * op_s / n)
                        if len(quality) < self.size["min_ops"]:
                            quality.append(self.report_quality(seq, n_det))
                        self.op_counts[i] = {
                            "io.bytes_written": w.bytes_written(seq)
                            - w.bytes_written(seq / "out")}
                    if kept is None:
                        kept = seq
                if seq != kept:
                    shutil.rmtree(seq, ignore_errors=True)
                i += 1
                if (time.perf_counter() - window >= self.seconds
                        and i >= self.size["min_ops"]):
                    break
            self.count_ops = 1
            if not quality:
                fail("no overtaking op passed its check", 1)
            self.traced(False, self.sp.SETUP_OP)
            self.record(w.check_determinism(kept, work), "determinism check")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.samples = len(frame_ms)
        self.phases = {
            "simulate_frames_per_s": statistics.median(sim_rates),
            "fuse_frames_per_s": statistics.median(fuse_rates),
        }
        return {
            "frames_per_s": statistics.median(total_rates),
            "frame_ms_p50": statistics.median(frame_ms),
            "frame_ms_p90": quantile(frame_ms, 0.9),
        }, quality

    def report_quality(self, seq, n_det):
        with open(seq / "out" / "report.json") as fh:
            report = json.load(fh)
        agg = report["evaluation"]["aggregate"]
        return {"tpr": agg["fusion_tpr_mean"], "mae_x": agg["mae_x"],
                "mae_y": agg["mae_y"], "soft": report["soft_failures"],
                "detections": n_det}

    # ---------------------------------------------------- dense and crowd

    def loop_frames(self):
        """Whole passes over the set-up frames until the time is up.

        Rates and percentiles are taken within each pass, which fuses
        the same frames every time, and reported as the median over
        passes: a burst of machine noise in a few passes does not move
        them.
        """
        from probfusion.metrics import ToleranceConfig
        w, inputs = self.w, self.inputs
        tol = ToleranceConfig()
        passes, quality = [], []       # passes: frame ms of each pass
        window = time.perf_counter()
        op = 0
        while True:
            pass_ms = []
            first_pass = op == 0
            for inp in inputs:
                try:
                    (locs, diag), op_s = self.paired(
                        op, lambda: w.fuse_frame(inp, self.calib, self.cfg,
                                                 self.registry))
                except Exception:
                    self.op_failed(f"op {op}")
                    op += 1
                    continue
                if self.corrupt is not None:
                    self.corrupt(op, diag)
                problems = w.check_frame(inp, locs, diag)
                self.record(problems, f"op {op}")
                if not problems:
                    pass_ms.append(1000.0 * op_s)
                    if first_pass:
                        quality.append(w.frame_quality(inp, locs, diag, tol))
                op += 1
            if pass_ms:
                passes.append(pass_ms)
            if (time.perf_counter() - window >= self.seconds
                    and op >= self.size["min_ops"]):
                break
        self.count_ops = len(inputs)
        self.samples = sum(len(ms) for ms in passes)
        if not passes:
            fail(f"no {self.workload} op succeeded", 1)
        return {
            "frames_per_s": statistics.median(
                1000.0 * len(ms) / sum(ms) for ms in passes),
            "frame_ms_p50": statistics.median(
                statistics.median(ms) for ms in passes),
            "frame_ms_p90": statistics.median(
                quantile(ms, 0.9) for ms in passes),
        }, self.frame_quality_summary(quality)

    @staticmethod
    def frame_quality_summary(per_frame):
        tprs = [v for q in per_frame for v in q["tpr"]]
        err_x = [v for q in per_frame for v in q["err_x"]]
        err_y = [v for q in per_frame for v in q["err_y"]]
        return [{"tpr": statistics.fmean(tprs) if tprs else 0.0,
                 "mae_x": statistics.fmean(err_x) if err_x else 0.0,
                 "mae_y": statistics.fmean(err_y) if err_y else 0.0,
                 "soft": sum(q["soft_failures"] for q in per_frame),
                 "detections": sum(q["detections"] for q in per_frame)}]

    # ---------------------------------------------------------------- run

    def run(self, import_s, setups):
        """import_s: this process's start-up and import time; setups:
        seconds of the set-ups made in fresh processes."""
        if self.trace:
            self.traced(True, self.sp.SETUP_OP)
        start = time.perf_counter()
        self.setup()
        setups = [*setups, import_s + time.perf_counter() - start]
        self.traced(False, self.sp.SETUP_OP)
        setup_s = statistics.median(setups)
        if self.workload == "overtaking":
            timing, quality = self.loop_overtaking()
        else:
            timing, quality = self.loop_frames()
        self.traced(False, self.sp.SETUP_OP)
        detections = sum(q["detections"] for q in quality)
        end_to_end = {
            "setup_s": setup_s,
            **timing,
            "peak_rss_mb": peak_rss_mb(),
            "fusion_tpr_mean": statistics.fmean(q["tpr"] for q in quality),
        }
        self.quality = {
            "mae_x_m": statistics.fmean(q["mae_x"] for q in quality),
            "mae_y_m": statistics.fmean(q["mae_y"] for q in quality),
            "soft_failure_frac": (sum(q["soft"] for q in quality)
                                  / max(detections, 1)),
        }
        return end_to_end

    def per_layer(self) -> dict:
        """Per-layer metrics from the spans of the traced ops."""
        tr = self.tracer
        traced_ops = sorted({s.op for s in tr.spans if s.op >= 0})
        n_ops = max(len(traced_ops), 1)
        dur, self_t, all_counts = tr.totals(traced_ops)
        _, _, counts = tr.totals(traced_ops[:self.count_ops])
        setup_dur, _, _ = tr.totals([self.sp.SETUP_OP])

        def per_op(*names):
            return sum(dur[n] for n in names) / n_ops

        def count(name, key="calls"):
            return counts[name][key]

        if self.workload == "overtaking":
            sim_s = per_op("sim.simulate")
        else:
            sim_s = setup_dur["sim.simulate"]
        load_s = dur["io.load_sequence"]
        detections = count("pipeline.frame", "detections")
        metrics = {
            "io.write_s": per_op("io.write_sequence", "io.write_registry",
                                 "io.write_config"),
            "io.bytes_written": sum(self.op_counts.get(op, {}).get(
                "io.bytes_written", 0) for op in traced_ops[:self.count_ops]),
            "io.load_s": per_op("io.load_sequence", "io.load_calibration",
                                "io.load_registry", "io.load_config"),
            "io.load_points_per_s": (
                all_counts["io.load_sequence"]["points"] / load_s
                if load_s else 0.0),
            "io.report_write_s": per_op("io.write_report",
                                        "io.write_trajectory"),
            "sim.simulate_s": sim_s,
            "ground.fit_s": per_op("ground.fit"),
            "ground.fit_calls": count("ground.fit"),
            "ground.crop_mask_s": per_op("ground.crop_mask",
                                         "ground.ground_mask"),
            "ground.skipped_frames": count("ground.fit", "errors"),
            "pipeline.frame_s": per_op("pipeline.frame"),
            "pipeline.frame_self_s": self_t["pipeline.frame"] / n_ops,
            "pipeline.sequence_self_s": self_t["pipeline.sequence"] / n_ops,
            "cluster.kmeans_s": per_op("cluster.kmeans"),
            "cluster.kmeans_calls": count("cluster.kmeans"),
            "cluster.hist_s": per_op("cluster.hist"),
            "cluster.select_s": per_op("cluster.select"),
            "cluster.ranges_s": per_op("cluster.ranges"),
            "shape.select_s": per_op("shape.select"),
            "shape.select_calls": count("shape.select"),
            "shape.candidates_scored": count("shape.select", "candidates"),
            "localize.localize_s": per_op("localize.localize"),
            "aoi.enlarge_s": per_op("aoi.enlarge"),
            "smoother.detect_s": per_op("smoother.detect"),
            "smoother.smooth_s": per_op("smoother.smooth"),
            "smoother.tracks": count("smoother.detect"),
            "smoother.samples_in": count("smoother.detect", "samples"),
            "smoother.samples_interpolated": count("smoother.smooth",
                                                   "interpolated"),
            "metrics.eval_s": per_op("metrics.tpr", "metrics.completeness",
                                     "metrics.paired_t",
                                     "metrics.one_sample_t", "metrics.mae"),
            "pipeline.detections": detections,
            "pipeline.localized": count("pipeline.frame", "localized"),
            "pipeline.ok_ratio": (count("pipeline.frame", "ok") / detections
                                  if detections else 0.0),
            "trace.overhead_frac": statistics.median(
                t / u - 1.0 for t, u in zip(self.traced_s, self.untraced_s)),
            **self.quality,
        }
        return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(run: Run, values: dict, specs: list) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }


def child_setup(args):
    """Seconds of one set-up in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed:\n{proc.stderr}", 1)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-sized inputs")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the output")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    w, sp = import_program()
    size = SIZES[args.workload]["tiny" if args.tiny else "normal"]
    if args.setup_only:
        Run(w, sp, args.workload, args.seed, 0, False, size).setup()
        print(time.perf_counter() - PROCESS_START)
        return 0
    import_s = time.perf_counter() - PROCESS_START
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    setups = [child_setup(args) for _ in range(SETUP_CHILDREN)]
    run = Run(w, sp, args.workload, args.seed, seconds, bool(args.trace),
              size)
    env = environment()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={seconds} trace={args.trace} tiny={args.tiny}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    end_to_end = run.run(import_s, setups)

    if args.trace:
        values = run.per_layer()
        specs = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        run.tracer.write(trace_path, {"workload": args.workload,
                                      "seed": args.seed, "env": env,
                                      "metrics": values})
        print(f"spans: {len(run.tracer.spans)} written to "
              f"{trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end
        specs = spec["end_to_end"]
    print(f"samples: {run.samples} timed ops "
          f"({int(0.1 * run.samples)} beyond frame_ms_p90)")
    for m in specs:
        print(f"  {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']}")
    # Figures that are not bounded metrics: see perfbench/README.md.
    for name, value in {**run.phases, **run.quality}.items():
        print(f"  ({name:<28} {value:>14.6g})")
    print(f"check: correct={run.failed == 0} attempted={run.attempted} "
          f"failed={run.failed} failed_frac={run.failed / run.attempted:.4g}")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    print(json.dumps(result_line(run, values, specs)))
    return 0


# ------------------------------------------------------------------ smoke

def smoke():
    """Each workload at a tiny size: metrics printed with their units,
    and a corrupted output counted as failed."""
    spec = load_spec()
    w, sp = import_program()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                fail(f"smoke {workload} trace={trace} exited "
                     f"{proc.returncode}:\n{proc.stderr}", 1)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"smoke {workload} trace={trace}: metrics {got} "
                     f"!= {want}", 1)
            if not result["correct"] or result["failed"]:
                fail(f"smoke {workload} trace={trace}: outputs failed "
                     f"the check:\n{proc.stdout}", 1)
            print(f"smoke {workload} trace={trace}: "
                  f"{len(got)} metrics, {result['attempted']} checked ops")

        corrupted = []

        def corrupt(op, output):
            if op != 0:
                return
            if isinstance(output, Path):
                report = json.loads(output.read_text())
                report["evaluation"]["aggregate"]["mae_x"] = float("nan")
                output.write_text(json.dumps(report))
            elif output.objects:
                output.objects.pop(next(iter(output.objects)))
            else:
                return
            corrupted.append(op)

        run = Run(w, sp, workload, 1, 0, False,
                  {**SIZES[workload]["tiny"], "min_ops": 2}, corrupt=corrupt)
        run.run(0.0, [])
        if corrupted != [0] or run.failed != 1:
            fail(f"smoke {workload}: corrupted output counted "
                 f"{run.failed} failures, want 1", 1)
        print(f"smoke {workload}: corrupted output counted as failed")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
