"""End-to-end acceptance gate.

Each test prints one unbuffered PASS/FAIL line so the outcome of every
criterion is visible in the terminal regardless of pytest's capture
settings.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
import scipy.stats

from probfusion.classes import CLASSES
from probfusion.cluster import CandidateCluster
from probfusion.config import load_pipeline_config
from probfusion.ground import (RansacPlaneConfig, fit_ground_plane,
                               ground_mask, min_inlier_count, required_trials)
from probfusion.localize import representative_point
from probfusion.metrics import (ToleranceConfig, one_sample_right_tail_t_test,
                                paired_t_test, selection_completeness,
                                tolerance_band, tpr)
from probfusion.pipeline import (baseline_ranges, run_fusion_frame,
                                 run_sequence)
from probfusion.shape import (ShapeFilterConfig, compute_descriptor, derotate,
                              principal_axis_angle, score_candidates,
                              select_cluster)
from probfusion.sim import (DEFAULT_ERROR_MODEL, SIMULATED_GUARANTEE,
                            ErrorModel, _sample_silhouette,
                            default_calibration, overtaking_scene,
                            reference_benchmarks, simulate_sequence,
                            write_sequence_dir)
from probfusion.shape import BenchmarkShapeRegistry
from probfusion.smoother import (SmootherConfig, TrackSample, detect_outliers,
                                 smooth_and_interpolate)
from probfusion.stats import student_t_sf

import conftest


def report_line(number, name, ok):
    line = f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------- shared runs

def run_hypothesis_trials(seeds):
    """Per-sequence mean TPRs (baseline vs fusion) and guarantee frames
    for the target object of the overtaking fixture."""
    calib = default_calibration()
    benchmarks = BenchmarkShapeRegistry(shapes=reference_benchmarks(),
                                        sample_counts={})
    tol = ToleranceConfig()
    cfg = conftest.in_memory_config()
    base_means, fusion_means, guarantee_frames = [], [], []
    for seed in seeds:
        frames = simulate_sequence(overtaking_scene(rng_seed=seed), calib,
                                   DEFAULT_ERROR_MODEL)
        b_list, f_list = [], []
        for fr in frames:
            _, diag = run_fusion_frame(fr, calib, cfg, benchmarks)
            odiag = diag.objects.get(1)
            if odiag is None:
                continue
            baseline = baseline_ranges(fr, calib)[1]
            gt_range = fr.gt_poses[1]["range"]
            if baseline and odiag.selected_ranges:
                b_list.append(tpr(baseline, gt_range, "car", tol).rate)
                f_list.append(tpr(odiag.selected_ranges, gt_range,
                                  "car", tol).rate)
            members = np.nonzero(fr.labels == 1)[0].tolist()
            guarantee_frames.append((odiag.selected_indices, members))
        base_means.append(float(np.mean(b_list)))
        fusion_means.append(float(np.mean(f_list)))
    return base_means, fusion_means, guarantee_frames


@pytest.fixture(scope="module")
def hypothesis_runs():
    start = time.monotonic()
    base, fusion, guarantee = run_hypothesis_trials(range(20))
    return {"base": base, "fusion": fusion, "guarantee": guarantee,
            "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def sequence_reports(tmp_path_factory):
    """Full-disk pipeline runs of the overtaking fixture, ideal and with
    the default error model, each fused twice for the determinism check."""
    tmp = tmp_path_factory.mktemp("acceptance")
    out = {}
    for label, err in (("ideal", ErrorModel()),
                       ("errors", DEFAULT_ERROR_MODEL)):
        seq_dir = tmp / f"seq_{label}"
        write_sequence_dir(seq_dir, overtaking_scene(rng_seed=0), err)
        cfg = load_pipeline_config(seq_dir / "config.json")
        run_sequence(seq_dir, cfg, out_dir=tmp / f"out_{label}_a")
        report = run_sequence(seq_dir, cfg, out_dir=tmp / f"out_{label}_b")
        out[label] = {
            "report": report,
            "bytes_a": (tmp / f"out_{label}_a" / "report.json").read_bytes(),
            "bytes_b": (tmp / f"out_{label}_b" / "report.json").read_bytes(),
        }
    return out


# ------------------------------------------------------------------ criteria

def test_criterion_01_formula_checks():
    ok = required_trials(0.99, 0.2, 6) == 16
    ok &= min_inlier_count(0.2, 1000) == 800
    car = tolerance_band(10.0, "car", ToleranceConfig())
    sco = tolerance_band(10.0, "escooter_rider", ToleranceConfig())
    ok &= abs(car[0] - 9.325) < 1e-9 and abs(car[1] - 10.675) < 1e-9
    ok &= abs(sco[0] - 9.775) < 1e-9 and abs(sco[1] - 10.225) < 1e-9
    report_line(1, "formula checks", bool(ok))


def test_criterion_02_ground_removal():
    rng = np.random.default_rng(0)
    gxy = rng.uniform([1, -10], [60, 10], size=(500, 2))
    ground = np.column_stack([gxy, rng.normal(0.0, 0.02, 500)])
    oxy = rng.uniform([5, -5], [40, 5], size=(50, 2))
    objects = np.column_stack([oxy, rng.uniform(0.5, 2.0, 50)])
    cloud = np.vstack([ground, objects])
    cfg = RansacPlaneConfig()
    model = fit_ground_plane(cloud, cfg, seed=0)
    removed = ground_mask(cloud, model, cfg.delta)
    angle = math.degrees(math.acos(min(1.0, abs(model.normal[2]))))
    ok = removed[:500].mean() >= 0.95
    ok &= (~removed[500:]).mean() >= 0.99
    ok &= angle < 1.0
    report_line(2, "ground removal", bool(ok))


def test_criterion_03_shape_selection():
    bench = reference_benchmarks()["pedestrian"]
    rng = np.random.default_rng(2024)
    trials = 200
    wins = 0
    gain_stable = 0
    for _ in range(trials):
        cands, pts = [], []
        for cls in ("car", "pedestrian", "car"):
            width, height = CLASSES[cls].size_m
            r = rng.uniform(8.0, 20.0) if cls == "pedestrian" \
                else rng.uniform(8.0, 35.0)
            n = max(30, int(round(15000.0 * width * height / (r * r))))
            ab = _sample_silhouette(cls, width, height, n, rng)
            uv = np.column_stack([ab[:, 0], -ab[:, 1]]) * (700.0 / r)
            cands.append(CandidateCluster(member_indices=np.arange(n),
                                          center_range=r))
            pts.append(uv)
        winners = []
        for k in (0.5, 1.0, 2.0):
            chosen = select_cluster(score_candidates(
                np.concatenate(pts), [len(p) for p in pts], cands,
                [bench] * 3, ShapeFilterConfig(sigmoid_gain=k)))
            winners.append(next(i for i, c in enumerate(cands)
                                if c is chosen))
        wins += winners[1] == 1
        gain_stable += len(set(winners)) == 1
    ok = wins >= 0.95 * trials and gain_stable == trials
    report_line(3, f"shape selection ({wins}/{trials} wins, "
                   f"{gain_stable}/{trials} gain-stable)", bool(ok))


def test_criterion_04_rotation_robustness():
    # Point-symmetric ellipse fill: PCA axes are exact, so the estimate
    # noise cannot push a boundary angle past the 40-degree gate.
    step = 0.02
    us = step * np.arange(0, 16)
    vs = step * np.arange(0, 51)
    uu, vv = np.meshgrid(us, vs)
    keep = (uu / 0.3) ** 2 + (vv / 1.0) ** 2 <= 1.0
    q = np.column_stack([uu[keep], vv[keep]])
    base = np.unique(np.vstack([q * s for s in
                                ([1, 1], [-1, 1], [1, -1], [-1, -1])]), axis=0)
    ref = compute_descriptor(base)
    ok = True
    for theta in (-40, -20, 0, 20, 40):
        th = math.radians(theta)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        tilted = base @ rot.T
        est = principal_axis_angle(tilted)
        ok &= not est.rejected
        d = compute_descriptor(derotate(tilted, est))
        ok &= float(np.abs(d.weights - ref.weights).sum()) <= 0.05
    th60 = math.radians(60)
    rot60 = np.array([[math.cos(th60), -math.sin(th60)],
                      [math.sin(th60), math.cos(th60)]])
    ok &= principal_axis_angle(base @ rot60.T).rejected
    report_line(4, "rotation robustness", bool(ok))


def test_criterion_05_median_robustness():
    rng = np.random.default_rng(501)
    trials = 500
    ok_count = 0
    for _ in range(trials):
        frac = rng.uniform(0.0, 0.49)
        n = 100
        n_out = int(math.floor(frac * n))
        true_r = rng.uniform(8.0, 40.0)
        inliers = rng.uniform(true_r - 0.25, true_r + 0.25, n - n_out)
        outliers = rng.uniform(true_r + 5.0, true_r + 30.0, n_out)
        ranges = rng.permutation(np.concatenate([inliers, outliers]))
        rep = ranges[representative_point(ranges)]
        ok_count += abs(rep - true_r) <= 0.5
    # Beyond half contamination the guarantee no longer binds; document
    # that it indeed breaks rather than asserting success.
    inliers = rng.uniform(19.75, 20.25, 40)
    outliers = rng.uniform(25.0, 50.0, 60)
    ranges = rng.permutation(np.concatenate([inliers, outliers]))
    rep60 = ranges[representative_point(ranges)]
    beyond = abs(rep60 - 20.0) > 0.5
    report_line(5, f"median robustness ({ok_count}/{trials}; "
                   f"breaks at 60% contamination: {beyond})",
                ok_count == trials)


def test_criterion_06_smoother():
    rng = np.random.default_rng(606)
    t = np.linspace(0.0, 9.9, 100)
    true_x = 30.0 - 4.0 * t + 0.2 * t ** 2
    true_y = 3.0 + 0.5 * t - 0.05 * t ** 2
    x = true_x + rng.normal(0, 0.1, 100)
    y = true_y + rng.normal(0, 0.1, 100)
    bad = rng.choice(100, size=10, replace=False)
    x[bad] += rng.choice([-1, 1], 10) * rng.uniform(3.5, 6.0, 10)
    y[bad] += rng.choice([-1, 1], 10) * rng.uniform(3.5, 6.0, 10)
    track = [TrackSample(t=float(ti), x=float(xi), y=float(yi))
             for ti, xi, yi in zip(t, x, y)]
    flags = detect_outliers(track, SmootherConfig())
    injected = np.zeros(100, dtype=bool)
    injected[bad] = True
    detection_ok = flags[injected].mean() >= 0.9
    false_ok = flags[~injected].mean() <= 0.05
    traj = smooth_and_interpolate(track, flags)
    est_x = np.array([s.x for s in traj.samples])
    rms_ok = float(np.sqrt(np.mean((est_x - true_x) ** 2))) <= 0.15

    # Noiseless cubic with 3 dropped frames.
    t_full = np.linspace(0, 5, 24)
    cubic = lambda tt: 1.0 + 2.0 * tt - 0.3 * tt ** 2 + 0.04 * tt ** 3
    keep = np.ones(24, dtype=bool)
    keep[[6, 12, 18]] = False
    kept = [TrackSample(t=float(ti), x=float(cubic(ti)), y=0.0)
            for ti in t_full[keep]]
    traj2 = smooth_and_interpolate(kept, np.zeros(keep.sum(), dtype=bool),
                                   grid=t_full)
    interp_ok = all(abs(s.x - cubic(s.t)) <= 1e-6
                    for s in traj2.samples if s.interpolated)
    ok = detection_ok and false_ok and rms_ok and interp_ok
    report_line(6, "trajectory smoother", bool(ok))


def test_criterion_07_hypothesis_1(hypothesis_runs):
    base = hypothesis_runs["base"]
    fusion = hypothesis_runs["fusion"]
    t_stat, p_value, n = paired_t_test(base, fusion)
    improvement = float(np.mean(fusion) - np.mean(base))
    ok = p_value < 0.01 and improvement >= 0.10 and n == 20
    ok &= hypothesis_runs["elapsed"] < 120.0
    report_line(7, f"hypothesis 1 (p={p_value:.2e}, "
                   f"improvement={improvement * 100:.1f}pp, "
                   f"{hypothesis_runs['elapsed']:.0f}s)", bool(ok))


def test_criterion_08_hypothesis_2(hypothesis_runs):
    fusion = hypothesis_runs["fusion"]
    t_stat, p_value, _ = one_sample_right_tail_t_test(fusion, 0.5)
    guard = selection_completeness(hypothesis_runs["guarantee"],
                                   SIMULATED_GUARANTEE)
    ok = p_value < 0.05 and guard.passed
    report_line(8, f"hypothesis 2 (p={p_value:.2e}, "
                   f"guarantee={guard.empirical_probability:.3f})", bool(ok))


def test_criterion_09_end_to_end_localization(sequence_reports):
    ideal = sequence_reports["ideal"]["report"]["evaluation"]["aggregate"]
    noisy = sequence_reports["errors"]["report"]["evaluation"]["aggregate"]
    ok = ideal["mae_x"] <= 0.5 and ideal["mae_y"] <= 0.5
    ok &= noisy["mae_x"] <= 2.0 and noisy["mae_y"] <= 2.0
    report_line(9, f"end-to-end localization "
                   f"(ideal MAE {ideal['mae_x']:.3f}/{ideal['mae_y']:.3f}, "
                   f"errors {noisy['mae_x']:.3f}/{noisy['mae_y']:.3f})",
                bool(ok))


def test_criterion_10_statistical_oracle():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(20):
        n = int(rng.integers(3, 25))
        before = rng.uniform(0, 1, n)
        after = before + rng.normal(0.05, 0.1, n)
        t_stat, p_value, _ = paired_t_test(before, after)
        ref = scipy.stats.ttest_rel(after, before, alternative="greater")
        ok &= abs(t_stat - ref.statistic) <= 1e-6
        ok &= abs(p_value - ref.pvalue) <= 1e-6
        sample = rng.uniform(0.3, 1.0, n)
        t1, p1, _ = one_sample_right_tail_t_test(sample, 0.5)
        ref1 = scipy.stats.ttest_1samp(sample, 0.5, alternative="greater")
        ok &= abs(t1 - ref1.statistic) <= 1e-6
        ok &= abs(p1 - ref1.pvalue) <= 1e-6
        dof = int(rng.integers(2, 60))
        tv = float(rng.uniform(-6, 6))
        ok &= abs(student_t_sf(tv, dof) - scipy.stats.t.sf(tv, dof)) <= 1e-6
    report_line(10, "statistical oracle", bool(ok))


def test_criterion_11_determinism(sequence_reports):
    ok = True
    for label in ("ideal", "errors"):
        ok &= sequence_reports[label]["bytes_a"] == \
            sequence_reports[label]["bytes_b"]
    # The in-memory hypothesis harness is equally reproducible.
    a = run_hypothesis_trials([0])
    b = run_hypothesis_trials([0])
    ok &= json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    report_line(11, "determinism", bool(ok))
