import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import maxvar
from maxvar import (
    BudgetTooSmall,
    DimensionMismatch,
    EmptyInput,
    OutOfRange,
    PreconditionViolated,
    ScenarioTable,
    SeededSampler,
    UnknownColumn,
    VerificationReport,
    check_averseness,
    check_constant,
    check_l2_continuity,
    check_monotonicity,
    check_positive_homogeneity,
    check_subadditivity,
    check_translation,
    from_samples,
    portfolio_law,
    run_suite,
)
from maxvar import axioms, cli, dist, envelope, measures
from maxvar.axioms import _beta_star_record

from conftest import tier1_budget
from helpers import bernoulli_half, d4, run_suite_per_check

D4_VALUES = [1.0, 2.0, 3.0, 4.0]


def paired(x, y, weights=None):
    """Positions x and y on common scenarios, weighted (uniform when omitted)."""
    probs = None if weights is None else np.asarray(weights, float) / math.fsum(weights)
    return ScenarioTable(("x", "y"), np.column_stack([x, y]), probs)


class TestPairedScenarios:
    """A joint law of (X, Y) is a table with columns x and y; each law the
    two-variable checks read comes from portfolio_law."""

    def test_marginals_and_sum(self):
        t = paired(D4_VALUES, [-v for v in D4_VALUES])
        assert portfolio_law(t, axioms.X).values.tolist() == D4_VALUES
        assert portfolio_law(t, axioms.Y).values.tolist() == [-4.0, -3.0, -2.0, -1.0]
        assert portfolio_law(t, axioms.X_PLUS_Y).values.tolist() == [0.0]
        for lam, mix in axioms.MIXES:
            want = sorted({lam * x + (1.0 - lam) * -x for x in D4_VALUES})
            assert portfolio_law(t, mix).values.tolist() == want

    def test_validation(self):
        # a probability vector of the wrong length
        with pytest.raises(DimensionMismatch):
            ScenarioTable(("x", "y"), [[1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(OutOfRange):
            ScenarioTable(("x", "y"), [[1.0, 1.0]], [0.0])
        with pytest.raises(OutOfRange):
            ScenarioTable(("x", "y"), [[1.0, 1.0], [2.0, 2.0]], [0.6, 0.6])
        with pytest.raises(EmptyInput):
            ScenarioTable(("x", "y"), np.empty((0, 2)))
        # a table without a y column
        with pytest.raises(UnknownColumn):
            check_subadditivity(ScenarioTable(("x",), [[1.0]]), 2)


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

    def test_numpy_scalar_gives_a_renderable_record(self):
        # compared as numpy floats, passed was a numpy bool that to_json refused
        rec = check_constant(2, np.float64(3.0))
        assert type(rec.passed) is bool
        assert rec.witness == "c=3.0 n=2"
        doc = json.loads(VerificationReport(0, 1, (rec,)).to_json())
        assert doc["checks"][0]["passed"] is True


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

    @pytest.mark.parametrize("trials", [2.5, 2.0, True, "7", None])
    def test_non_integer_trials_rejected(self, trials):
        # not truncated: 2.5 used to run 2 trials and True 1
        with pytest.raises(OutOfRange):
            run_suite(seed=1, trials=trials)

    def test_numpy_integer_trials(self):
        assert run_suite(seed=1, trials=np.int64(2)).to_json() == run_suite(1, 2).to_json()

    def test_pass_flag_matches_tolerance(self):
        report = run_suite(seed=3, trials=5)
        for c in report.checks:
            assert c.passed == (c.violation <= c.tolerance)


class TestBetaStarCheck:
    def test_catches_a_wrong_var_atom(self, monkeypatch):
        # a VaR search that reads one atom too high must fail the check,
        # which reads VaR from its definition without that search
        search = measures._var_index
        monkeypatch.setattr(
            measures,
            "_var_index",
            lambda d, alpha: np.minimum(search(d, alpha) + 1, d.atom_count - 1),
        )
        record = _beta_star_record(d4(), 0.5, measures.cvar_min(d4(), 0.5).beta_star)
        assert not record.passed
        assert record.violation == 1.0


# trial 0 of this seed draws a one-atom law, so averseness falls back to a
# fresh law of two or more atoms, drawn before the near table's uniforms
ONE_ATOM_SEED = 1217


def first_trial_law(seed):
    return axioms.random_distribution(SeededSampler(seed, stream_id=1).generator())


def count_calls(monkeypatch, names):
    """Count the calls to each named public function of maxvar, through
    every maxvar module that binds it."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(maxvar, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (axioms, cli, dist, envelope, measures):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def count_batches(monkeypatch):
    """Record each call of the row-batched evaluator as (rows, rows it sums
    in its one pass)."""
    calls = []
    original = measures._maxvar_rows

    def counted(values, layers, takes, per_law):
        calls.append((len(takes), int(takes.sum())))
        return original(values, layers, takes, per_law)

    monkeypatch.setattr(measures, "_maxvar_rows", counted)
    return calls


class TestSuiteSharing:
    """run_suite evaluates each law and route value once per trial and hands
    it to every check that reads it; its report is the per-check loop's,
    which evaluates afresh in each public check, byte for byte."""

    @pytest.mark.fuzz
    @tier1_budget(40)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 4))
    @example(ONE_ATOM_SEED, 1)
    def test_matches_per_check_loop(self, seed, trials):
        assert run_suite(seed, trials).to_json() == run_suite_per_check(seed, trials).to_json()

    @pytest.mark.parametrize("seed", [0, 42, ONE_ATOM_SEED])
    def test_matches_per_check_loop_at_16_trials(self, seed):
        assert run_suite(seed, 16).to_json() == run_suite_per_check(seed, 16).to_json()

    def test_example_seed_takes_the_averseness_fallback(self):
        assert first_trial_law(ONE_ATOM_SEED).atom_count == 1

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_one_evaluation_per_law_and_route_value(self, monkeypatch, seed):
        # 13 distinct (law, n) values: the constant, checked on its own, and
        # two row batches: X, Y, X+Y, the monotone and near tables' Y and the
        # three mixes, then d, lam d, d + c at n and d at n + 1; no portfolio
        # law is built. One extremal density, and core_check on it and on the
        # random family's density
        assert first_trial_law(seed).atom_count >= 2
        names = ("maxvar_choquet", "portfolio_law", "extremal_density", "core_check")
        counts = count_calls(monkeypatch, names)
        batches = count_batches(monkeypatch)
        run_suite(seed, 1)
        # equal, not just at most: a counter that never fires reads 0
        assert counts == {
            "maxvar_choquet": 1,
            "portfolio_law": 0,
            "extremal_density": 1,
            "core_check": 2,
        }
        assert batches == [(8, 8), (4, 4)]

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_only_tied_rows_take_the_per_law_path(self, monkeypatch, seed):
        # the pair's x repeats its first entry, so the law of X and of any
        # portfolio whose values tie merges atoms: exactly those take their
        # per-law path, and the report is still the per-check loop's
        def tied_pair(gen):
            pair = random_paired(gen)
            rows = pair.rows.copy()
            rows[-1, 0] = rows[0, 0]
            return ScenarioTable(pair.columns, rows, pair.probs)

        random_paired = axioms.random_paired
        monkeypatch.setattr(axioms, "random_paired", tied_pair)
        want = run_suite_per_check(seed, 1).to_json()
        portfolios = []
        batch = axioms._maxvar_portfolios
        monkeypatch.setattr(
            axioms, "_maxvar_portfolios", lambda ps, *args: portfolios.extend(ps) or batch(ps, *args)
        )
        counts = count_calls(monkeypatch, ("maxvar_choquet", "portfolio_law"))
        batches = count_batches(monkeypatch)
        assert run_suite(seed, 1).to_json() == want
        # portfolio_law as this module bound it, uncounted
        tied = sum(portfolio_law(t, p).atom_count < len(t.rows) for t, p in portfolios)
        assert len(portfolios) == 8 and tied >= 1
        assert counts == {"maxvar_choquet": 1 + tied, "portfolio_law": tied}
        assert batches == [(8, 8 - tied), (4, 4)]
