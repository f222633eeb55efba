import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxvar import (
    BudgetTooSmall,
    CopyCount,
    OutOfRange,
    QuadratureRule,
    RiskLevel,
    SeededSampler,
    abs_expectation,
    cvar_choquet,
    cvar_min,
    distortion_h,
    distortion_via_weights,
    expectation,
    from_samples,
    g_alpha,
    maxvar_choquet,
    maxvar_mc,
    maxvar_mixture_exact,
    maxvar_mixture_quad,
    maxvar_spectral,
    minvar,
    suggest_rule,
    var,
    weight,
    weight_cdf,
)

from helpers import (
    bernoulli_half,
    brute_force_cvar,
    brute_force_maxvar,
    brute_force_minvar,
    d4,
    random_small_dist,
)


@st.composite
def laws(draw, max_atoms=12):
    m = draw(st.integers(1, max_atoms))
    values = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    weights = draw(st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=m, max_size=m))
    return from_samples(list(zip(values, weights)))


alphas = st.floats(0.0, 0.999, allow_nan=False)
copies = st.integers(1, 6)


class TestDomainTypes:
    def test_risk_level_rejects_one(self):
        with pytest.raises(OutOfRange):
            RiskLevel(1.0)
        with pytest.raises(OutOfRange):
            RiskLevel(-0.01)
        assert RiskLevel(0.0).alpha == 0.0

    def test_copy_count_rejects_non_integers(self):
        with pytest.raises(OutOfRange):
            CopyCount(2.5)
        with pytest.raises(OutOfRange):
            CopyCount(2.0)
        with pytest.raises(OutOfRange):
            CopyCount(0)
        with pytest.raises(OutOfRange):
            CopyCount(True)
        assert CopyCount(np.int64(3)).n == 3

    def test_quadrature_rule_bounds(self):
        with pytest.raises(OutOfRange):
            QuadratureRule(panels=0)
        with pytest.raises(OutOfRange):
            QuadratureRule(panels=1, points_per_panel=1)
        with pytest.raises(OutOfRange):
            QuadratureRule(panels=1, points_per_panel=65)


class TestVar:
    def test_examples(self):
        d = d4()
        assert var(d, 0.5) == 3.0
        assert var(d, 0.0) == 1.0
        assert var(d, 0.9) == 4.0

    def test_accepts_risk_level_wrapper(self):
        assert var(d4(), RiskLevel(0.5)) == 3.0


class TestCvar:
    def test_min_examples(self):
        d = d4()
        mid = cvar_min(d, 0.5)
        assert mid.value == 3.5 and mid.beta_star == 3.0
        assert cvar_min(d, 0.0).value == 2.5
        high = cvar_min(d, 0.75)
        assert high.value == 4.0 and high.beta_star == 4.0

    def test_choquet_examples(self):
        d = d4()
        assert cvar_choquet(d, 0.5) == 3.5
        assert cvar_choquet(d, 0.0) == 2.5
        assert cvar_choquet(from_samples([(-2, 1)]), 0.9) == -2.0

    @given(laws(), alphas)
    def test_two_routes_agree(self, d, alpha):
        assert abs(cvar_min(d, alpha).value - cvar_choquet(d, alpha)) <= 1e-10

    @given(laws(), alphas)
    def test_beta_star_is_var(self, d, alpha):
        assert cvar_min(d, alpha).beta_star == var(d, alpha)

    @given(laws(), alphas)
    def test_dominates_expectation(self, d, alpha):
        assert cvar_min(d, alpha).value >= expectation(d) - 1e-12

    def test_dominance_equality_cases(self):
        d = d4()
        assert abs(cvar_min(d, 0.0).value - expectation(d)) <= 1e-12
        constant = from_samples([(7, 1)])
        assert cvar_min(constant, 0.9).value == 7.0
        # strict for alpha > 0 on a non-constant law
        assert cvar_min(d, 0.25).value > expectation(d)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(25):
            d = random_small_dist(rng)
            # levels on the cumulative breakpoints tie two atoms as minimizers
            cases.append((d, (0.0, 0.3, 0.5, 0.9, 0.99, *d.cumulative[:-1])))
        for m in (2, 3, 4, 5, 7, 10):
            d = from_samples([(v, 1) for v in rng.uniform(-100.0, 100.0, size=m)])
            cases.append((d, [j / m for j in range(m)]))
        for d, levels in cases:
            for alpha in levels:
                assert cvar_min(d, alpha).value == pytest.approx(
                    brute_force_cvar(d, alpha), abs=1e-9
                )


class TestDistortions:
    def test_g_alpha_examples(self):
        assert g_alpha(0.5, 0.25) == 0.5
        assert g_alpha(0.5, 0.6) == 1.0
        assert g_alpha(0.0, 0.37) == 0.37

    def test_g_alpha_domain(self):
        with pytest.raises(OutOfRange):
            g_alpha(0.5, 1.2)

    def test_weight_examples(self):
        assert weight(2, 0.0) == 2.0  # 0^0 = 1 branch
        assert weight(2, 1.0) == 0.0
        assert weight(3, 0.5) == 1.5

    def test_weight_needs_two_copies(self):
        with pytest.raises(OutOfRange):
            weight(1, 0.5)

    def test_weight_normalizes_closed_form(self):
        for n in range(2, 17):
            assert weight_cdf(n, 1.0) == 1.0
            assert weight_cdf(n, 0.0) == 0.0

    def test_weight_normalizes_numerically(self):
        # single-panel Gauss-Legendre, exact for these low-degree polynomials
        nodes, gl_w = np.polynomial.legendre.leggauss(33)
        x = 0.5 * (nodes + 1.0)
        for n in range(2, 17):
            total = 0.5 * math.fsum(gl_w * np.array([weight(n, xi) for xi in x]))
            assert abs(total - 1.0) <= 1e-12

    def test_h_examples(self):
        assert distortion_h(2, 0.25) == 0.4375
        assert distortion_h(5, 0.0) == 0.0
        assert distortion_h(5, 1.0) == 1.0
        assert distortion_h(1, 0.73) == 0.73

    def test_h_equals_weight_mixture_on_grid(self):
        for n in range(2, 9):
            for i in range(101):
                x = i / 100.0
                lhs = distortion_h(n, x)
                rhs = distortion_via_weights(n, x)
                assert abs(lhs - rhs) <= 1e-10, (n, x)


class TestMaxvarRoutes:
    def test_constant_is_fixed_point(self):
        c = from_samples([(-3.7, 2)])
        for n in (1, 2, 5, 10):
            assert maxvar_choquet(c, n) == -3.7

    def test_named_values(self):
        d = d4()
        assert maxvar_choquet(d, 2) == 3.125
        assert maxvar_choquet(d, 3) == 3.4375
        assert maxvar_choquet(bernoulli_half(), 2) == 0.75

    def test_choquet_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = random_small_dist(rng)
            for n in (1, 2, 3):
                assert abs(maxvar_choquet(d, n) - brute_force_maxvar(d, n)) <= 1e-12

    def test_mixture_exact_examples(self):
        assert maxvar_mixture_exact(d4(), 2) == pytest.approx(3.125, abs=1e-12)
        assert maxvar_mixture_exact(from_samples([(2.5, 1)]), 3) == 2.5
        assert maxvar_mixture_exact(bernoulli_half(), 2) == pytest.approx(0.75, abs=1e-12)

    def test_mixture_exact_n1_is_expectation(self):
        d = d4()
        assert maxvar_mixture_exact(d, 1) == expectation(d)

    def test_spectral_examples(self):
        assert maxvar_spectral(d4(), 2) == 3.125
        assert maxvar_spectral(d4(), 1) == expectation(d4())
        two = from_samples([(-1, 1), (1, 1)])
        assert maxvar_spectral(two, 2) == 0.5

    @given(laws(), copies)
    def test_spectral_equals_choquet(self, d, n):
        assert abs(maxvar_spectral(d, n) - maxvar_choquet(d, n)) <= 1e-12

    @given(laws(), copies)
    def test_mixture_agrees_with_choquet(self, d, n):
        a, b = maxvar_choquet(d, n), maxvar_mixture_exact(d, n)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    @given(laws(), st.integers(1, 5))
    def test_monotone_in_n(self, d, n):
        lo, hi = maxvar_choquet(d, n), maxvar_choquet(d, n + 1)
        assert hi >= lo - 1e-12
        if d.atom_count > 1:
            assert hi > lo  # strict for non-constant laws

    @given(laws(), copies)
    def test_abs_bound(self, d, n):
        assert abs(maxvar_choquet(d, n)) <= n * abs_expectation(d) + 1e-9


class TestMixtureQuad:
    def test_d4_sixteen_points(self):
        value = maxvar_mixture_quad(d4(), 2, QuadratureRule(panels=4))
        assert abs(value - 3.125) <= 1e-10

    def test_constant(self):
        c = from_samples([(7.25, 1)])
        assert abs(maxvar_mixture_quad(c, 3, QuadratureRule(panels=1)) - 7.25) <= 1e-12

    def test_cross_method_n5(self):
        d = d4()
        value = maxvar_mixture_quad(d, 5, suggest_rule(d))
        assert abs(value - maxvar_choquet(d, 5)) <= 1e-8

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            maxvar_mixture_quad(d4(), 2, QuadratureRule(panels=3))

    def test_extra_panels_still_exact(self):
        value = maxvar_mixture_quad(d4(), 2, QuadratureRule(panels=11, points_per_panel=8))
        assert abs(value - 3.125) <= 1e-10

    def test_n1_is_expectation(self):
        assert maxvar_mixture_quad(d4(), 1, QuadratureRule(panels=4)) == 2.5

    def test_dust_law_nodes_that_round_to_one(self):
        # the last panel's Gauss nodes round to 1.0; E(max of 2) = 1e6 (2p - p^2)
        d = from_samples([(0.0, 0.9999999999999999), (1e6, 1e-16)])
        value = maxvar_mixture_quad(d, 2, suggest_rule(d))
        assert abs(value - 2e-10) <= 1e-12 * 2e-10


class TestMonteCarlo:
    def test_constant_has_zero_error(self):
        for value, trials in ((4.2, 100), (0.1, 3)):
            est = maxvar_mc(from_samples([(value, 1)]), 3, trials, SeededSampler(1))
            assert est.estimate == value
            assert est.std_error == 0.0

    def test_d4_pair_max_within_four_se(self):
        est = maxvar_mc(d4(), 2, 10**6, SeededSampler(314159))
        assert abs(est.estimate - 3.125) <= 4 * est.std_error
        # true SD of the pair max is sqrt(10.625 - 3.125^2) ~ 0.927
        assert est.std_error == pytest.approx(9.27e-4, abs=5e-5)

    def test_n1_recovers_mean(self):
        est = maxvar_mc(d4(), 1, 10**6, SeededSampler(2718))
        assert abs(est.estimate - 2.5) <= 4 * est.std_error

    def test_deterministic_per_seed(self):
        a = maxvar_mc(d4(), 2, 1000, SeededSampler(5, 1))
        b = maxvar_mc(d4(), 2, 1000, SeededSampler(5, 1))
        assert a.estimate == b.estimate

    def test_budget(self):
        with pytest.raises(BudgetTooSmall):
            maxvar_mc(d4(), 2, 1, SeededSampler(1))


class TestMinvar:
    def test_examples(self):
        assert minvar(d4(), 2) == 1.875
        assert minvar(from_samples([(9, 1)]), 4) == 9.0
        assert minvar(d4(), 1) == 2.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = random_small_dist(rng)
            for n in (1, 2, 3):
                assert abs(minvar(d, n) - brute_force_minvar(d, n)) <= 1e-12

    @given(laws(), copies)
    def test_dual_to_maxvar(self, d, n):
        # minvar lower-bounds the mean the way maxvar upper-bounds it
        assert minvar(d, n) <= expectation(d) + 1e-12
