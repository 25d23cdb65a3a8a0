"""Evaluation metrics: banded mapping accuracy, MAE, completeness
guarantee, and one-sided t-tests (cross-checked against SciPy)."""

import numpy as np
import pytest
import scipy.stats

from probfusion.classes import CLASSES
from probfusion.errors import EmptyInput, LengthMismatch, TooFewSamples
from probfusion.metrics import (GuaranteeConfig, ToleranceConfig, mae_axis,
                                one_sample_right_tail_t_test, paired_t_test,
                                selection_completeness, tolerance_band, tpr)


class TestToleranceBand:
    def test_car_band(self):
        low, high = tolerance_band(10.0, "car", ToleranceConfig())
        assert low == pytest.approx(9.325)
        assert high == pytest.approx(10.675)

    def test_escooter_band(self):
        low, high = tolerance_band(10.0, "escooter_rider", ToleranceConfig())
        assert low == pytest.approx(9.775)
        assert high == pytest.approx(10.225)

    def test_unlisted_class_takes_class_table_length(self):
        half = 0.15 * CLASSES["pedestrian"].tolerance_length_m
        assert tolerance_band(10.0, "pedestrian", ToleranceConfig()) == \
            (10.0 - half, 10.0 + half)

    def test_nonpositive_range(self):
        with pytest.raises(ValueError):
            tolerance_band(0.0, "car", ToleranceConfig())


class TestTpr:
    def test_all_inside(self):
        r = tpr([10.0] * 10, 10.0, "car", ToleranceConfig())
        assert (r.tp, r.tn) == (10, 0)
        assert r.rate == 1.0

    def test_three_quarters(self):
        r = tpr([10.0, 10.1, 9.9, 30.0], 10.0, "car", ToleranceConfig())
        assert (r.tp, r.tn) == (3, 1)
        assert r.rate == pytest.approx(0.75)

    def test_inclusive_endpoints(self):
        r = tpr([9.325, 10.675], 10.0, "car", ToleranceConfig())
        assert r.tp == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            tpr([], 10.0, "car", ToleranceConfig())

    def test_counts_conserved(self):
        rng = np.random.default_rng(1)
        ranges = rng.uniform(5, 15, 100)
        r = tpr(ranges, 10.0, "car", ToleranceConfig())
        assert r.tp + r.tn == 100
        assert 0.0 <= r.rate <= 1.0


class TestMaeAxis:
    def test_identical_series(self):
        assert mae_axis([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mae_axis([1.0, 2.0], [0.0, 4.0]) == pytest.approx(1.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mae_axis([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mae_axis([], [])

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        assert mae_axis(a, b) == pytest.approx(mae_axis(b, a))


class TestSelectionCompleteness:
    def test_perfect_selection(self):
        frames = [(list(range(10)), list(range(10)))] * 5
        res = selection_completeness(frames, GuaranteeConfig(t1=1.0, t2=0.9))
        assert res.empirical_probability == 1.0
        assert res.passed

    def test_eight_of_ten_fails_at_09(self):
        good = ([0, 1, 2], [0, 1, 2])
        bad = ([0], [0, 1, 2])  # misses 2 >= t1
        frames = [good] * 8 + [bad] * 2
        res = selection_completeness(frames, GuaranteeConfig(t1=1.0, t2=0.9))
        assert res.empirical_probability == pytest.approx(0.8)
        assert not res.passed

    def test_lower_threshold_passes(self):
        good = ([0, 1, 2], [0, 1, 2])
        bad = ([0], [0, 1, 2])
        frames = [good] * 8 + [bad] * 2
        res = selection_completeness(frames, GuaranteeConfig(t1=1.0, t2=0.5))
        assert res.passed

    def test_fractional_threshold(self):
        # t1 = 20 % of 10 true members = 2; missing 1 point succeeds,
        # missing 2 fails.
        ok_frame = (list(range(9)), list(range(10)))
        bad_frame = (list(range(8)), list(range(10)))
        cfg = GuaranteeConfig(t1_fraction=0.2)
        res = selection_completeness([ok_frame, bad_frame], cfg)
        assert res.empirical_probability == pytest.approx(0.5)

    def test_extra_selected_points_harmless(self):
        frames = [(list(range(20)), [3, 4, 5])]
        res = selection_completeness(frames, GuaranteeConfig(t1=1.0, t2=0.9))
        assert res.empirical_probability == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            selection_completeness([], GuaranteeConfig())


class TestPairedTTest:
    def test_constant_improvement_degenerates(self):
        before = [0.5] * 10
        after = [0.6] * 10
        t, p, n = paired_t_test(before, after)
        assert t == np.inf
        assert p == 0.0
        assert n == 10

    def test_no_change(self):
        t, p, n = paired_t_test([0.4, 0.5, 0.6], [0.4, 0.5, 0.6])
        assert t == 0.0
        assert p == 0.5

    def test_hand_example(self):
        before = [0.0, 0.0, 0.0, 0.0]
        after = [0.1, 0.2, 0.15, 0.05]
        t, p, n = paired_t_test(before, after)
        assert t == pytest.approx(3.873, abs=0.01)
        assert p < 0.02

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            paired_t_test([0.5], [0.6])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paired_t_test([0.5, 0.6], [0.6])

    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            before = rng.uniform(0, 1, n)
            after = before + rng.normal(0.05, 0.1, n)
            t, p, _ = paired_t_test(before, after)
            ref = scipy.stats.ttest_rel(after, before, alternative="greater")
            assert t == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-6)


class TestOneSampleTTest:
    def test_all_at_null(self):
        t, p, n = one_sample_right_tail_t_test([0.5, 0.5, 0.5], mu0=0.5)
        assert t == 0.0
        assert p == 0.5

    def test_hand_example(self):
        t, p, n = one_sample_right_tail_t_test([0.6, 0.7, 0.8, 0.7], mu0=0.5)
        assert t == pytest.approx(4.899, abs=0.01)
        assert p < 0.01

    def test_single_value_rejected(self):
        with pytest.raises(TooFewSamples):
            one_sample_right_tail_t_test([0.7])

    def test_below_null_large_p(self):
        t, p, _ = one_sample_right_tail_t_test([0.1, 0.2, 0.15], mu0=0.5)
        assert t < 0
        assert p > 0.5

    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            sample = rng.uniform(0.3, 1.0, n)
            t, p, _ = one_sample_right_tail_t_test(sample, mu0=0.5)
            ref = scipy.stats.ttest_1samp(sample, 0.5, alternative="greater")
            assert t == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-6)


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            ToleranceConfig(fraction=0.0)

    def test_bad_length(self):
        # Tolerance lengths come from the class table only.
        with pytest.raises(TypeError, match="object_length_m"):
            ToleranceConfig(object_length_m={"car": 4.5})

    def test_bad_guarantee(self):
        with pytest.raises(ValueError):
            GuaranteeConfig(t1=-1.0)
        with pytest.raises(ValueError):
            GuaranteeConfig(t2=0.0)
