import numpy as np
import pytest

from maxvar import (
    BudgetTooSmall,
    DimensionMismatch,
    OutOfRange,
    PairedScenarios,
    PreconditionViolated,
    check_averseness,
    check_constant,
    check_l2_continuity,
    check_monotonicity,
    check_positive_homogeneity,
    check_subadditivity,
    check_translation,
    from_samples,
    run_suite,
)

from helpers import bernoulli_half, d4

D4_VALUES = [1.0, 2.0, 3.0, 4.0]


def paired(x, y, weights=None):
    return PairedScenarios.from_weights(np.asarray(x, float), np.asarray(y, float), weights)


class TestPairedScenarios:
    def test_marginals_and_sum(self):
        p = paired(D4_VALUES, [-v for v in D4_VALUES])
        assert p.marginal_x().values.tolist() == D4_VALUES
        assert p.marginal_y().values.tolist() == [-4.0, -3.0, -2.0, -1.0]
        assert p.sum_law().values.tolist() == [0.0]

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            PairedScenarios(np.array([1.0]), np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(OutOfRange):
            PairedScenarios(np.array([1.0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(OutOfRange):
            PairedScenarios(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.6, 0.6]))


class TestConstancy:
    def test_zero(self):
        assert check_constant(5, 0.0).violation == 0.0

    def test_negative(self):
        rec = check_constant(2, -3.7)
        assert rec.passed and rec.violation <= 1e-12

    def test_large_magnitude_scaled_tolerance(self):
        rec = check_constant(10, 1e6)
        assert rec.passed
        assert rec.tolerance == pytest.approx(1e-6)
        assert rec.violation <= 1e-6


class TestSubadditivity:
    def test_negation_pair_has_slack(self):
        p = paired(D4_VALUES, [-v for v in D4_VALUES])
        rec = check_subadditivity(p, 2)
        assert rec.passed
        # maxvar(0) = 0 vs 3.125 - 1.875: slack of 1.25 means violation -1.25
        assert rec.violation == pytest.approx(-1.25, abs=1e-12)

    def test_identical_columns_are_additive(self):
        p = paired(D4_VALUES, D4_VALUES)
        rec = check_subadditivity(p, 2)
        assert rec.passed
        assert abs(rec.violation) <= 1e-12

    def test_independent_copies_on_product_scenarios(self):
        xs, ys, ws = [], [], []
        for a in D4_VALUES:
            for b in D4_VALUES:
                xs.append(a)
                ys.append(b)
                ws.append(1.0)
        rec = check_subadditivity(paired(xs, ys, ws), 3)
        assert rec.passed


class TestMonotonicity:
    def test_shifted_dominates(self):
        p = paired(D4_VALUES, [v + 1 for v in D4_VALUES])
        rec = check_monotonicity(p, 2)
        assert rec.passed
        assert rec.violation == pytest.approx(-1.0, abs=1e-12)

    def test_equal_is_boundary(self):
        rec = check_monotonicity(paired(D4_VALUES, D4_VALUES), 2)
        assert rec.passed and rec.violation == 0.0

    def test_clipped_dominates(self):
        p = paired(D4_VALUES, [max(v, 2.0) for v in D4_VALUES])
        assert check_monotonicity(p, 2).passed

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_monotonicity(paired(D4_VALUES, [v - 1 for v in D4_VALUES]), 2)


class TestHomogeneityAndTranslation:
    def test_doubling(self):
        rec = check_positive_homogeneity(d4(), 2, 2.0)
        assert rec.passed and rec.violation <= 1e-12

    def test_identity_scale(self):
        assert check_positive_homogeneity(d4(), 2, 1.0).violation == 0.0

    def test_small_scale(self):
        rec = check_positive_homogeneity(d4(), 3, 0.1)
        assert rec.passed

    def test_lambda_domain(self):
        with pytest.raises(OutOfRange):
            check_positive_homogeneity(d4(), 2, 0.0)

    def test_translation_cases(self):
        for c in (1.0, 0.0, -10.0):
            rec = check_translation(d4(), 2, c)
            assert rec.passed, c


class TestAverseness:
    def test_d4_margin(self):
        rec = check_averseness(d4(), 2)
        assert rec.passed
        assert rec.violation == pytest.approx(-0.625, abs=1e-12)  # margin 0.625

    def test_bernoulli_margin(self):
        rec = check_averseness(bernoulli_half(), 2)
        assert rec.violation == pytest.approx(-0.25, abs=1e-12)

    def test_tiny_spread_margin(self):
        eps = 1e-6
        rec = check_averseness(from_samples([(0, 1), (eps, 1)]), 2)
        assert rec.passed
        assert -rec.violation == pytest.approx(eps / 4, rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            check_averseness(from_samples([(3, 1)]), 2)
        with pytest.raises(PreconditionViolated):
            check_averseness(d4(), 1)


class TestLipschitzSurrogate:
    def test_identical(self):
        rec = check_l2_continuity(paired(D4_VALUES, D4_VALUES), 3)
        assert rec.passed and rec.violation == pytest.approx(-0.0, abs=1e-15)

    def test_uniform_shift(self):
        p = paired(D4_VALUES, [v + 0.01 for v in D4_VALUES])
        rec = check_l2_continuity(p, 3)
        # |diff| = 0.01 vs bound 0.03
        assert rec.passed
        assert rec.violation == pytest.approx(-0.02, abs=1e-12)

    def test_random_perturbations(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            y = np.asarray(D4_VALUES) + rng.normal(0, 0.5, 4)
            rec = check_l2_continuity(paired(D4_VALUES, y), 4)
            assert rec.passed

    def test_label(self):
        assert check_l2_continuity(paired(D4_VALUES, D4_VALUES), 2).name == "A4-surrogate"


class TestSuite:
    def test_small_suite_passes(self):
        report = run_suite(seed=42, trials=25)
        assert report.passed
        assert report.trials == 25
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        for required in (
            "A1-constancy",
            "A2-convexity",
            "A3-monotonicity",
            "A4-surrogate",
            "A5-positive-homogeneity",
            "A6-averseness",
            "subadditivity",
            "translation",
            "abs-bound",
        ):
            assert required in names

    def test_single_trial(self):
        report = run_suite(seed=7, trials=1)
        assert report.trials == 1
        assert report.passed

    def test_deterministic_reports(self):
        a = run_suite(seed=11, trials=10).to_json()
        b = run_suite(seed=11, trials=10).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_suite(seed=1, trials=5).to_json()
        b = run_suite(seed=2, trials=5).to_json()
        assert a != b

    def test_budget(self):
        with pytest.raises(BudgetTooSmall):
            run_suite(seed=1, trials=0)

    def test_pass_flag_matches_tolerance(self):
        report = run_suite(seed=3, trials=5)
        for c in report.checks:
            assert c.passed == (c.violation <= c.tolerance)
