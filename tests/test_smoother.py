"""Trajectory outlier detection and polynomial smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from probfusion.errors import TooFewInliers, TooFewSamples
from probfusion.smoother import (SmootherConfig, TrackSample, _ransac_best_fit,
                                 detect_outliers, smooth_and_interpolate)


def make_track(t, x, y=None):
    y = np.zeros_like(t) if y is None else y
    return [TrackSample(t=float(ti), x=float(xi), y=float(yi))
            for ti, xi, yi in zip(t, x, y)]


def quadratic_track(n=100, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 9.9, n)
    x = 30.0 - 4.0 * t + 0.2 * t ** 2
    y = 3.0 + 0.5 * t - 0.05 * t ** 2
    if noise > 0:
        x = x + rng.normal(0, noise, n)
        y = y + rng.normal(0, noise, n)
    return t, x, y


class TestDetectOutliers:
    def test_noiseless_parabola_clean(self):
        t, x, y = quadratic_track(n=30)
        flags = detect_outliers(make_track(t, x, y), SmootherConfig())
        assert not flags.any()

    def test_single_displaced_sample_flagged(self):
        t, x, y = quadratic_track(n=40, noise=0.02)
        y = y.copy()
        y[17] += 5.0
        flags = detect_outliers(make_track(t, x, y), SmootherConfig())
        assert flags[17]
        assert flags.sum() == 1

    def test_ten_percent_contamination(self):
        # Planar displacement >3 m split across both axes, the way a
        # mis-selected background cluster moves the whole estimate.
        t, x, y = quadratic_track(n=100, noise=0.1, seed=3)
        rng = np.random.default_rng(99)
        bad = rng.choice(100, size=10, replace=False)
        x, y = x.copy(), y.copy()
        x[bad] += rng.choice([-1, 1], 10) * rng.uniform(3.5, 6.0, 10)
        y[bad] += rng.choice([-1, 1], 10) * rng.uniform(3.5, 6.0, 10)
        flags = detect_outliers(make_track(t, x, y), SmootherConfig())
        injected = np.zeros(100, dtype=bool)
        injected[bad] = True
        assert flags[injected].mean() >= 0.9
        assert flags[~injected].mean() <= 0.05

    def test_any_dimension_rule(self):
        # test_single_displaced_sample_flagged puts its spike on y.
        t, x, y = quadratic_track(n=30)
        x = x.copy()
        x[5] += 4.0
        flags = detect_outliers(make_track(t, x, y), SmootherConfig())
        assert flags[5]

    def test_too_few_samples(self):
        t = np.arange(5.0)
        with pytest.raises(TooFewSamples):
            detect_outliers(make_track(t, t), SmootherConfig())

    def test_determinism(self):
        t, x, y = quadratic_track(n=60, noise=0.1, seed=7)
        track = make_track(t, x, y)
        cfg = SmootherConfig()
        assert np.array_equal(detect_outliers(track, cfg, seed=11),
                              detect_outliers(track, cfg, seed=11))

    def test_constant_track_stable(self):
        t = np.linspace(0, 5, 20)
        flags = detect_outliers(make_track(t, np.full(20, 12.0)),
                                SmootherConfig())
        assert not flags.any()


class TestSmoothAndInterpolate:
    def test_exact_cubic_reproduced(self):
        t = np.linspace(0, 5, 24)
        x = 1.0 + 2.0 * t - 0.3 * t ** 2 + 0.04 * t ** 3
        traj = smooth_and_interpolate(make_track(t, x),
                                      np.zeros(24, dtype=bool))
        out = np.array([s.x for s in traj.samples])
        assert np.allclose(out, x, atol=1e-9)
        assert not any(s.interpolated for s in traj.samples)

    def test_gap_interpolation_matches_generator(self):
        t_full = np.linspace(0, 5, 24)
        cubic = lambda t: 1.0 + 2.0 * t - 0.3 * t ** 2 + 0.04 * t ** 3
        keep = np.ones(24, dtype=bool)
        keep[[6, 12, 18]] = False
        t = t_full[keep]
        traj = smooth_and_interpolate(make_track(t, cubic(t)),
                                      np.zeros(keep.sum(), dtype=bool),
                                      grid=t_full)
        interp = [s for s in traj.samples if s.interpolated]
        assert len(interp) == 3
        for s in interp:
            assert abs(s.x - cubic(s.t)) <= 1e-6

    def test_all_outliers_raise(self):
        t = np.linspace(0, 5, 10)
        with pytest.raises(TooFewInliers):
            smooth_and_interpolate(make_track(t, t),
                                   np.ones(10, dtype=bool))

    def test_outlier_excluded_from_fit(self):
        t = np.linspace(0, 5, 20)
        x = 2.0 * t
        x_bad = x.copy()
        x_bad[10] += 50.0
        flags = np.zeros(20, dtype=bool)
        flags[10] = True
        traj = smooth_and_interpolate(make_track(t, x_bad), flags)
        out = np.array([s.x for s in traj.samples])
        assert np.allclose(out, x, atol=1e-9)
        # The flagged timestamp is re-synthesized from the fit.
        assert traj.samples[10].interpolated

    def test_explicit_grid(self):
        t = np.linspace(0, 5, 12)
        x = t ** 2
        grid = np.linspace(0, 5, 7)
        traj = smooth_and_interpolate(make_track(t, x),
                                      np.zeros(12, dtype=bool), grid=grid)
        assert [s.t for s in traj.samples] == list(grid)

    def test_flagged_times_marked_outlier(self):
        # A grid of frame times with gaps: only the flagged measured
        # times are outliers; they and the gaps are interpolated.
        t_full = np.linspace(0, 5, 24)
        keep = np.ones(24, dtype=bool)
        keep[[6, 12]] = False
        t = t_full[keep]
        flags = np.zeros(len(t), dtype=bool)
        flags[[3, 15]] = True
        traj = smooth_and_interpolate(make_track(t, 2.0 * t), flags,
                                      grid=t_full)
        assert [s.t for s in traj.samples if s.outlier] == [t[3], t[15]]
        assert [s.t for s in traj.samples if s.interpolated] == \
            sorted([t[3], t[15], t_full[6], t_full[12]])


class TestSmoothTrack:
    """Outlier detection, then smoothing, as run_sequence calls them."""

    def test_end_to_end_quadratic_with_contamination(self):
        t, x, y = quadratic_track(n=100, noise=0.1, seed=5)
        rng = np.random.default_rng(17)
        bad = rng.choice(100, size=10, replace=False)
        x = x.copy()
        x[bad] += rng.choice([-1, 1], 10) * 5.0
        track = make_track(t, x, y)
        traj = smooth_and_interpolate(
            track, detect_outliers(track, SmootherConfig()))
        out_x = np.array([s.x for s in traj.samples])
        true_x = 30.0 - 4.0 * t + 0.2 * t ** 2
        rms = np.sqrt(np.mean((out_x - true_x) ** 2))
        assert rms <= 0.15

    def test_idempotence_on_clean_data(self):
        t, x, y = quadratic_track(n=50)
        cfg = SmootherConfig()
        track1 = make_track(t, x, y)
        traj1 = smooth_and_interpolate(track1, detect_outliers(track1, cfg))
        track2 = [TrackSample(t=s.t, x=s.x, y=s.y) for s in traj1.samples]
        traj2 = smooth_and_interpolate(track2, detect_outliers(track2, cfg))
        for a, b in zip(traj1.samples, traj2.samples):
            assert abs(a.x - b.x) < 1e-9
            assert abs(a.y - b.y) < 1e-9

    def test_nonincreasing_timestamps_rejected(self):
        samples = [TrackSample(t=0.0, x=0.0, y=0.0),
                   TrackSample(t=1.0, x=1.0, y=0.0),
                   TrackSample(t=1.0, x=2.0, y=0.0)] + \
                  [TrackSample(t=2.0 + i, x=0.0, y=0.0) for i in range(6)]
        with pytest.raises(ValueError):
            detect_outliers(samples, SmootherConfig())


class TestConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            SmootherConfig(threshold_sigma=0.0)

    def test_bad_min_samples(self):
        with pytest.raises(ValueError):
            SmootherConfig(min_samples=4)

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            SmootherConfig(ransac_subset=2)


class TestRansacMatchesOracle:
    """_ransac_best_fit returns the model of the reference version in
    oracles.py (one Polynomial.fit per trial), bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(8, 60), seed=st.integers(0, 2 ** 32 - 1),
           subset=st.integers(3, 9), outliers=st.floats(0.0, 0.5),
           steps=st.sampled_from(["regular", "irregular"]))
    def test_matches_oracle(self, n, seed, subset, outliers, steps):
        rng = np.random.default_rng(seed)
        if steps == "regular":
            t = np.arange(n) / 10.0
        else:
            t = np.cumsum(rng.uniform(0.01, 1.0, n))
        values = 20.0 - 3.0 * t + 0.1 * t ** 2 + rng.normal(0, 0.05, n)
        hit = rng.random(n) < outliers
        values[hit] += rng.normal(0, 4.0, int(hit.sum()))
        cfg = SmootherConfig(ransac_subset=subset)
        got = _ransac_best_fit(t, values, cfg, np.random.default_rng(seed))
        ref = oracles._ransac_best_fit(t, values, cfg,
                                       np.random.default_rng(seed))
        for name in ("coef", "domain", "window"):
            assert getattr(got, name).tobytes() == \
                getattr(ref, name).tobytes(), name
