import math
import tracemalloc

import numpy as np
import pytest
import maxvar.measures as measures
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxvar import (
    BudgetTooSmall,
    CopyCount,
    EmpiricalDistribution,
    NonFiniteValue,
    OutOfRange,
    PortfolioSpec,
    QuadratureRule,
    RiskError,
    RiskLevel,
    ScenarioTable,
    SeededSampler,
    abs_expectation,
    affine,
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
    portfolio_law,
    quadrature_breakpoints,
    suggest_rule,
    var,
    weight,
    weight_cdf,
)
from maxvar.dist import _cumulative, _left_quantile_index, _row_sums
from maxvar.measures import (
    _FOLD_MAX_N,
    _MC_CHUNK,
    _MC_MAX_DRAWS,
    _RESCALE,
    _gauss_legendre,
    _var_index,
)

from conftest import tier1_budget
from helpers import (
    bernoulli_half,
    brute_force_cvar,
    brute_force_maxvar,
    brute_force_minvar,
    d4,
    exact_maxvar,
    h_frozen,
    layers_by_diff,
    left_quantile_index_by_search,
    mc_draw_then_max,
    mixture_exact_at_both_ends,
    minvar_on_mirrored_law,
    mixture_quad_per_panel,
    quad_nodes,
    quad_panels,
    quadrature_breakpoints_unique,
    random_small_dist,
    run_maxima_frozen,
    spectral_by_search,
    tail_weight_cdf_frozen,
    tail_weight_frozen,
    var_index_by_negation,
    weight_cdf_frozen,
    weight_frozen,
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


@st.composite
def dust_laws(draw, max_atoms=12):
    # masses spread over 300 decades, values up to 1e8 in magnitude
    m = draw(st.integers(1, max_atoms))
    values = draw(st.lists(st.floats(-1e8, 1e8), min_size=m, max_size=m))
    exponents = draw(st.lists(st.floats(-300.0, 0.0), min_size=m, max_size=m))
    return from_samples([(v, 10.0**e) for v, e in zip(values, exponents)])


alphas = st.floats(0.0, 0.999, allow_nan=False)
copies = st.integers(1, 6)
# counts past 2^53, where n - 1 no longer rounds apart from n, up to the bound
huge_copies = st.sampled_from([2**53 + 1, 2**128])
one_atom_laws = st.floats(-1e8, 1e8).map(lambda v: from_samples([(v, 1.0)]))
# mixture-quad's panel products overflow on both laws before the rescale: on
# the first a row's sum leaves the float range at n = 2, on the second a row
# holds both +inf and -inf at n = 128
NEAR_RANGE = [(0.0, 1.0), (1e300, 1.0), (1.7e308, 2.0)]
BOTH_INFINITIES = [(-8e307, 1.0), (8e307, 0.01)]


@st.composite
def quad_laws(draw, max_atoms=40):
    # equal weights (ties in the breakpoints' spacing), or masses down to 1e-20
    m = draw(st.integers(1, max_atoms))
    values = draw(st.lists(st.floats(-1e8, 1e8), min_size=m, max_size=m))
    if draw(st.booleans()):
        return from_samples([(v, 1.0) for v in values])
    exponents = draw(st.lists(st.floats(-20.0, 0.0), min_size=m, max_size=m))
    return from_samples([(v, 10.0**e) for v, e in zip(values, exponents)])


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

    def test_copy_count_bound(self):
        # past 2^128 every route refuses the count; below it none overflows
        assert CopyCount(2**128).n == 2**128
        with pytest.raises(OutOfRange, match=f"in 1..{2**128}"):
            CopyCount(2**128 + 1)
        d = from_samples([(1, 1), (2, 1), (3, 1), (4, 1)])
        for call in (lambda n: maxvar_choquet(d, n), lambda n: maxvar_mixture_exact(d, n),
                     lambda n: weight(n, 0.5)):
            assert math.isfinite(call(2**128))
            with pytest.raises(OutOfRange):
                call(10**400)

    def test_quadrature_rule_bounds(self):
        with pytest.raises(OutOfRange):
            QuadratureRule(panels=0)
        with pytest.raises(OutOfRange):
            QuadratureRule(panels=1, points_per_panel=1)
        with pytest.raises(OutOfRange):
            QuadratureRule(panels=1, points_per_panel=65)

    def test_quadrature_rule_rejects_non_integers(self):
        for panels, points in ((3, 16.5), (4, 16.0), (2.5, 16), (True, 16), (4, False)):
            with pytest.raises(OutOfRange):
                QuadratureRule(panels, points)
        rule = QuadratureRule(np.int64(4), np.int32(8))
        assert type(rule.panels) is int and type(rule.points_per_panel) is int
        assert rule == QuadratureRule(4, 8)


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

    def test_reads_allocate_constant_memory(self):
        # one search of the survival array's reversed view, which is not
        # copied: once the law's arrays are cached, var and cvar_min allocate
        # a few scalars, where one copy of an array of 1e5 atoms is 800 kB
        rng = np.random.default_rng(5)
        m = 100_000
        d = from_samples(np.column_stack([rng.standard_normal(m), rng.uniform(0.5, 1.0, m)]))
        cvar_min(d, 0.5)  # caches the survival and tail arrays
        tracemalloc.start()
        try:
            for alpha in (0.0, 0.5, 0.99, 1.0 - 1e-12):
                var(d, alpha)
                cvar_min(d, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_384

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


# Entries of [0, 1] for the forms in n: its ends, the largest double below 1,
# the smallest subnormal, probability dust and uniform draws.
UNIT_LISTED = [0.0, 1.0, 1.0 - 2.0**-53, 5e-324, 1e-300, 1e-20, 1e-16]
unit_entries = st.one_of(st.sampled_from(UNIT_LISTED), st.floats(0.0, 1.0))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCopyCountForms:
    """Each CopyCount method gives the bits of its frozen copy in helpers,
    on arrays and on plain floats."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(unit_entries, min_size=1, max_size=20),
           st.one_of(st.integers(1, 64), huge_copies))
    def test_h_matches_frozen_form(self, entries, n):
        cc = CopyCount(n)
        for x in (np.array(entries), entries[0]):
            assert_same_bits(cc.h(x), h_frozen(n, x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(unit_entries, min_size=1, max_size=20),
           st.one_of(st.integers(2, 64), huge_copies))
    def test_weight_forms_match_frozen_forms(self, entries, n):
        cc = CopyCount(n)
        forms = (
            (cc.weight, weight_frozen),
            (cc.tail_weight, tail_weight_frozen),
            (cc.weight_cdf, weight_cdf_frozen),
            (cc.tail_weight_cdf, tail_weight_cdf_frozen),
            # W and V from one shared power
            (lambda x: cc.weight_cdfs(x)[0], weight_cdf_frozen),
            (lambda x: cc.weight_cdfs(x)[1], tail_weight_cdf_frozen),
        )
        for x in (np.array(entries), entries[0]):
            for method, frozen in forms:
                assert_same_bits(method(x), frozen(n, x))

    @settings(max_examples=200, deadline=None)
    @given(
        # the fold at its smallest n, the last n that folds, the first that
        # reduceat reduces, or any n up to three times the switch
        st.one_of(st.sampled_from([1, _FOLD_MAX_N, _FOLD_MAX_N + 1]), st.integers(1, 3 * _FOLD_MAX_N)),
        st.integers(1, 4),
        st.data(),
    )
    def test_run_maxima_match_frozen_form(self, n, trials, data):
        # both sides of the fold/reduceat switch, returned or written to out
        u = np.array(data.draw(st.lists(unit_entries, min_size=trials * n, max_size=trials * n)))
        want = run_maxima_frozen(u, n, trials)
        assert_same_bits(CopyCount(n).run_maxima(u), want)
        out = np.full(trials, np.nan)
        assert CopyCount(n).run_maxima(u, out=out) is out
        assert_same_bits(out, want)


@st.composite
def cumulative_rows(draw):
    # 1-4 rows of atom probabilities of one length, spread over 300 decades
    rows, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    exps = draw(st.lists(st.floats(-300.0, 0.0), min_size=rows * m, max_size=rows * m))
    weights = 10.0 ** np.array(exps).reshape(rows, m)
    return weights / weights.sum(axis=1, keepdims=True)


class TestRowForms:
    """The cumulative rule and the layers act along the last axis: each row
    of a matrix has the bits of the 1-d call on that row."""

    @settings(max_examples=100, deadline=None)
    @given(cumulative_rows(), st.one_of(st.integers(1, 64), huge_copies))
    def test_rows_match_one_dimensional_calls(self, probs, n):
        cum, cc = _cumulative(probs), CopyCount(n)
        layers = cc.layers(cum)
        assert layers.shape == cum.shape == probs.shape
        for row, p in enumerate(probs):
            assert_same_bits(cum[row], _cumulative(p))
            one = cc.layers(cum[row])
            assert layers.dtype == one.dtype  # an object array at n = 2^128 on numpy 1.24
            assert np.asarray(layers[row], dtype=float).tobytes() == np.asarray(one, dtype=float).tobytes()


def route_outcome(route, *args):
    # the result's type and bits, or the type and message of its typed error
    try:
        value = route(*args)
    except RiskError as exc:
        return type(exc), str(exc)
    return type(value), np.float64(value).tobytes()


class TestPerLawPathsMatchFrozenCopies:
    """The VaR index, the left-quantile reindex and mixture-exact's W and V
    give the bits of their frozen full-length copies in helpers."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(laws(), dust_laws()), st.data())
    def test_var_index_matches_negated_search(self, d, data):
        levels = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 1.0 - 1e-12, 1.0]),
            st.floats(0.0, 1.0),
            # 1 - S_k, which is S_k's level exactly when S_k >= 0.5
            st.sampled_from([1.0 - s for s in d.survival.tolist()]),
        )
        alpha = data.draw(levels)
        assert_same_bits(_var_index(d, alpha), var_index_by_negation(d, alpha))
        grid = np.array(data.draw(st.lists(levels, min_size=6, max_size=6)))
        for x in (grid, grid.reshape(2, 3)):  # mixture-quad reads a 2-d grid
            assert_same_bits(_var_index(d, x), var_index_by_negation(d, x))

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.one_of(laws(), dust_laws()).map(lambda d: d.cumulative),
            # levels with long runs of ties, as dust on a clipped cumulative makes
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=20).map(
                lambda x: np.array(sorted(x))
            ),
        )
    )
    def test_left_quantile_index_matches_search(self, cum):
        assert_same_bits(_left_quantile_index(cum), left_quantile_index_by_search(cum))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(laws(), dust_laws()), st.one_of(st.integers(1, 64), huge_copies))
    # the dust stratum's tail product overflows: the same error
    @example(from_samples([(-1.0, 1.0), (1e287, 5e-17)]), 2**128)
    def test_routes_match_frozen_copies(self, d, n):
        assert route_outcome(maxvar_spectral, d, n) == route_outcome(spectral_by_search, d, n)
        want = route_outcome(mixture_exact_at_both_ends, d, n)
        assert route_outcome(maxvar_mixture_exact, d, n) == want


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

    def test_mixture_exact_refuses_a_sum_past_the_float_range(self):
        # F rounds to 1 below the top atom while S keeps its 5e-17, so the
        # first stratum's dV is n and its tail product overflows
        for top, n in ((1e287, 2**128), (1e305, 10**20)):
            d = from_samples([(-1.0, 1.0), (top, 5e-17)])
            with pytest.raises(NonFiniteValue, match=f"at n = {n} leaves the float range"):
                maxvar_mixture_exact(d, n)
            assert math.isfinite(maxvar_mixture_exact(d, 2))

    @given(laws(), st.integers(1, 5))
    # atoms a few ulps apart, where the rounded values tie or step down 1 ulp
    @example(from_samples([(-5e-324, 1), (0, 1)]), 1)
    @example(from_samples([(0.01, 1), (0.010000000000000002, 1)]), 2)
    def test_monotone_in_n(self, d, n):
        lo, hi = maxvar_choquet(d, n), maxvar_choquet(d, n + 1)
        assert hi >= lo - 1e-12
        if d.atom_count > 1:
            # strict for non-constant laws, which only exact values can show
            assert exact_maxvar(d, n + 1) > exact_maxvar(d, n)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(laws(), dust_laws()), st.one_of(st.integers(1, 64), huge_copies))
    def test_layers_match_diff_reference(self, d, n):
        layers = CopyCount(n).layers(d.cumulative)
        assert layers.tobytes() == layers_by_diff(d, n).tobytes()

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

    @pytest.mark.parametrize("n", [2, 5, 64, 128])
    def test_atoms_near_the_float_range(self, n):
        # the integrand overflows on these atoms, so the rule runs on the law
        # divided by 2**600, an exact scaling, and agrees with choquet
        for rows in (NEAR_RANGE, BOTH_INFINITIES):
            d = from_samples(rows)
            value = maxvar_mixture_quad(d, n, suggest_rule(d, max(16, n // 2)))
            assert math.isfinite(value)
            assert value == pytest.approx(maxvar_choquet(d, n), rel=1e-13)

    @pytest.mark.parametrize(
        ("rows", "n", "error"),
        [
            (NEAR_RANGE, 2, OverflowError),  # a row's partial sum leaves the float range
            (BOTH_INFINITIES, 128, ValueError),  # a row holds both +inf and -inf
        ],
    )
    def test_row_sum_errors_reach_the_rescale(self, rows, n, error):
        d = from_samples(rows)
        rule = suggest_rule(d, max(16, n // 2))
        with pytest.raises(error):
            _row_sums(quad_panels(d, n, rule)[1])
        small = affine(d, 1.0 / _RESCALE, 0.0)
        assert maxvar_mixture_quad(d, n, rule) == _RESCALE * mixture_quad_per_panel(small, n, rule)

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


    @tier1_budget(300)
    @given(
        st.one_of(quad_laws(), one_atom_laws),
        st.integers(1, 64),
        st.integers(0, 40),
        st.integers(2, 64),
    )
    def test_matches_per_panel_reference(self, d, n, extra_panels, points):
        # extra panels exercise the midpoint insertion between breakpoints
        rule = QuadratureRule(suggest_rule(d).panels + extra_panels, points)
        got = maxvar_mixture_quad(d, n, rule)
        assert got.hex() == mixture_quad_per_panel(d, n, rule).hex()

    @tier1_budget(300)
    @given(
        st.one_of(quad_laws(), dust_laws(), one_atom_laws),
        st.integers(0, 40),
        st.integers(2, 64),
    )
    # the dust law of test_dust_law_nodes_that_round_to_one, and one whose
    # last panel's first node reads the bottom atom and its last the top one
    @example(from_samples([(0.0, 0.9999999999999999), (1e6, 1e-16)]), 0, 16)
    @example(from_samples([(0.0, 1.0), (1.0, 1e-15)]), 0, 16)
    def test_panel_var_index_matches_full_search(self, d, extra_panels, points):
        x = quad_nodes(d, QuadratureRule(suggest_rule(d).panels + extra_panels, points))[2]
        got, want = measures._panel_var_index(d, x), _var_index(d, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()

    def test_cached_nodes_are_read_only(self):
        for array in _gauss_legendre(16):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cached_nodes_match_a_fresh_solve(self):
        # a law off the exact-polynomial path: 8 points differ from 16
        d = from_samples([(v, 1.0 + v % 3) for v in range(-7, 30)])
        values = []
        for points in (16, 8, 16):
            rule = suggest_rule(d, points)
            nodes, gl_weights = np.polynomial.legendre.leggauss(points)
            assert _gauss_legendre(points)[0].tobytes() == nodes.tobytes()
            assert _gauss_legendre(points)[1].tobytes() == gl_weights.tobytes()
            values.append(maxvar_mixture_quad(d, 40, rule))
            assert values[-1].hex() == mixture_quad_per_panel(d, 40, rule).hex()
        assert values[0] == values[2] != values[1]


def clipped_law():
    # the probabilities' running sum passes 1.0 at the middle atom
    probs = np.array([0.3, 0.7000000000000002, 1e-17])
    return EmpiricalDistribution(np.array([0.0, 1.0, 2.0]), probs)


class TestQuadratureBreakpoints:
    @tier1_budget(300)
    @given(st.one_of(quad_laws(), dust_laws(), one_atom_laws))
    # tied levels: the dust adds nothing to 0.5; levels of exactly 1.0 below
    # the top atom, one reached by the sum and one clipped from above
    @example(from_samples([(0.0, 0.5), (1.0, 1e-17), (2.0, 1e-17), (3.0, 0.5)]))
    @example(from_samples([(0.0, 0.5), (1.0, 0.5), (2.0, 1e-17), (3.0, 1e-17)]))
    @example(clipped_law())
    def test_matches_unique_form(self, d):
        got = quadrature_breakpoints(d)
        assert got.dtype == np.float64
        assert got.tobytes() == quadrature_breakpoints_unique(d).tobytes()

    def test_clipped_levels(self):
        d = clipped_law()
        assert np.cumsum(d.probs)[1] > 1.0 and d.cumulative.tolist() == [0.3, 1.0, 1.0]
        assert quadrature_breakpoints(d).tolist() == [0.3]


class TestMonteCarlo:
    def test_constant_has_zero_error(self):
        for value, trials in ((4.2, 100), (0.1, 3)):
            est = maxvar_mc(from_samples([(value, 1)]), 3, trials, SeededSampler(1))
            assert est.estimate == value
            assert est.std_error == 0.0

    def test_atoms_near_the_float_range(self):
        # the squares (and, near 1e308, the sum) overflow, so both moments
        # come from the maxima divided by 2**600, an exact scaling
        for values in ([1e300, -1e300, 3e299], [1.7e308, 1e308, 0.0]):
            d = from_samples([(v, 1.0) for v in values])
            small = from_samples([(v * 2.0**-600, 1.0) for v in values])
            est = maxvar_mc(d, 3, 10, SeededSampler(1))
            ref = maxvar_mc(small, 3, 10, SeededSampler(1))
            assert est.estimate == ref.estimate * 2.0**600
            assert est.std_error == ref.std_error * 2.0**600
            assert math.isfinite(est.std_error) and est.std_error > 0.0

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
        assert a.std_error == b.std_error

    @tier1_budget(200)
    @given(
        st.one_of(dust_laws(), one_atom_laws, laws()),
        st.integers(1, 64),
        st.integers(2, 5000),
        st.integers(0, 2**32 - 1),
    )
    # trials x n one short of a chunk, one chunk, one past it, over several
    # chunks at n = 1, and runs longer than a chunk, one to a buffer
    @example(d4(), 7, (_MC_CHUNK - 1) // 7, 1)
    @example(d4(), 64, _MC_CHUNK // 64, 2)
    @example(d4(), 3, (_MC_CHUNK + 1) // 3, 3)
    @example(d4(), 1, 2 * _MC_CHUNK + 1, 4)
    @example(d4(), _MC_CHUNK + 3, 3, 5)
    @example(d4(), 2 * _MC_CHUNK + 1, 2, 6)
    def test_matches_draw_then_max(self, d, n, trials, seed):
        # the max of n inverse-CDF draws is the draw at the max of n uniforms
        got = maxvar_mc(d, n, trials, SeededSampler(seed, 1))
        want = mc_draw_then_max(d, n, trials, SeededSampler(seed, 1))
        assert got.estimate == want.estimate
        assert got.std_error == want.std_error

    def test_budget(self):
        with pytest.raises(BudgetTooSmall):
            maxvar_mc(d4(), 2, 1, SeededSampler(1))

    @pytest.mark.parametrize(
        "n, trials",
        [
            (2**53 + 1, 16),
            (2**128, 16),
            (2**128, 2),
            (1, _MC_MAX_DRAWS + 1),
            (2**18, 2**18 + 1),
            (2**22, 2**22 + 1),
        ],
    )
    def test_refused_counts_draw_nothing(self, n, trials, monkeypatch):
        # above _MC_MAX_DRAWS uniforms the call is refused before the first draw
        def no_draws(self, out):
            raise AssertionError("drew uniforms")

        monkeypatch.setattr(SeededSampler, "fill", no_draws)
        message = f"cannot draw trials x n = {trials} x {n} = {trials * n} uniforms"
        with pytest.raises(OutOfRange, match=message):
            maxvar_mc(d4(), n, trials, SeededSampler(9))

    def test_count_at_the_limit_runs(self, monkeypatch):
        # 2^18 x 2^18 is _MC_MAX_DRAWS itself: accepted, with one run of n
        # floats in the buffer (the draws are skipped; drawing them all would
        # take minutes)
        shapes = []

        def constant_maxima(cc, s, buf, maxima):
            shapes.append((cc.n, len(buf)))
            maxima[:] = 0.5
            return maxima

        monkeypatch.setattr(measures, "_trial_maxima", constant_maxima)
        assert 2**18 * 2**18 == _MC_MAX_DRAWS
        est = maxvar_mc(d4(), 2**18, 2**18, SeededSampler(9))
        assert (est.estimate, est.std_error, est.trials) == (2.0, 0.0, 2**18)
        assert shapes == [(2**18, 2**18)]

    def test_memory_is_trials_plus_chunk(self):
        # all trials x n uniforms at once would take 51 MB here; streamed, the
        # peak stays under eight floats per trial plus two chunks (4.9 MB of
        # the 6.9 MB bound with numpy 2.4)
        trials = 10**5
        d = d4()
        d.cumulative
        tracemalloc.start()
        try:
            maxvar_mc(d, 64, trials, SeededSampler(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 * trials + 2 * _MC_CHUNK)

    @pytest.mark.parametrize("trials", [2.9, 2.0, True, "7", None])
    def test_non_integer_trials_rejected(self, trials):
        # not truncated: 2.9 used to run 2 trials, and "7" was accepted
        with pytest.raises(OutOfRange):
            maxvar_mc(d4(), 2, trials, SeededSampler(1))

    def test_numpy_integer_trials(self):
        est = maxvar_mc(d4(), 2, np.int64(50), SeededSampler(1))
        assert est.trials == 50 and type(est.trials) is int
        assert est == maxvar_mc(d4(), 2, 50, SeededSampler(1))


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

    @tier1_budget(300)
    @given(
        st.one_of(laws(max_atoms=40), dust_laws(), quad_laws(), one_atom_laws),
        st.sampled_from([1, 2, 3, 8, 64, 2**53 + 1, 2**128]),
    )
    def test_matches_mirrored_law(self, d, n):
        # the bits of maxvar on the law of -X, built and summed by references
        assert minvar(d, n).hex() == minvar_on_mirrored_law(d, n).hex()

    @pytest.mark.parametrize(
        "raw, n",
        [
            ([(0.0, 1.0)], 1),
            ([(-0.0, 1.0)], 3),
            ([(-1.0, 1.0), (1.0, 1.0)], 1),
            # the mirrored law's bottom layer 2^-n underflows to 0, leaving -1 * 0 + 0 * 1
            ([(0.0, 1.0), (1.0, 1.0)], 2**53 + 1),
            ([(-0.0, 1.0), (5.0, 1.0)], 2**53 + 1),
            ([(-2.0, 1.0), (0.0, 2.0), (2.0, 1.0)], 1),
        ],
    )
    def test_zero_results_keep_their_sign(self, raw, n):
        # the minimum is exactly 0 here; no random draw lands on an exact zero
        d = from_samples(raw)
        got = minvar(d, n)
        assert got == 0.0
        assert got.hex() == minvar_on_mirrored_law(d, n).hex()


def batch_outcome(evaluate):
    # each value's type and bits, or the type and message of the first error
    try:
        values = evaluate()
    except (RiskError, OverflowError) as exc:
        return type(exc), str(exc)
    return [(type(v), np.float64(v).tobytes()) for v in values]


# Magnitudes of the batch tables and laws: everyday values, and values near
# the float range, whose combinations overflow and whose spans leave it.
BATCH_SCALES = [1.0, 100.0, 1e307, 8e307, 1.7e308]
BATCH_SPECS = [
    PortfolioSpec({"x": 1.0}),
    PortfolioSpec({"y": 1.0}),
    PortfolioSpec({"x": 1.0, "y": 1.0}),
    PortfolioSpec({"y": 0.25, "x": 0.75}),
    PortfolioSpec({"x": -2.5, "y": 0.0}),
    PortfolioSpec({"x": 1e-300}),
]


@st.composite
def batch_portfolios(draw):
    """Portfolios of up to 10 (table, spec) pairs on tables of 1-300
    scenarios, and the probability vector of the first table. Values come
    from a seeded draw at one magnitude, with ties forced inside columns
    (runs of 0.0 and -0.0 among them) about half the time; probabilities are
    equal or spread over up to 300 decades. A second table shares the first
    one's probabilities, copied, and a third, on other probabilities, must
    take the per-law path, as must a spec that names an unknown column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 300))
    scale = draw(st.sampled_from(BATCH_SCALES))
    tie_share = draw(st.sampled_from([0.0, 0.0, 0.2, 1.0]))
    decades = draw(st.sampled_from([None, 2.0, 300.0]))

    def columns():
        cols = rng.uniform(-1.0, 1.0, size=(k, 2)) * scale
        tied = rng.random((k, 2)) < tie_share
        pool = np.array([0.0, -0.0, 0.5, -1.0]) * scale
        cols[tied] = rng.choice(pool, size=int(tied.sum()))
        return cols

    probs = None
    if decades is not None:
        weights = 10.0 ** rng.uniform(-decades, 0.0, size=k)
        probs = weights / math.fsum(weights.tolist())
    first = ScenarioTable(("x", "y"), columns(), probs)
    shared = ScenarioTable(("x", "y"), columns(), first.scenario_probs)
    other = ScenarioTable(("x", "y"), columns(), rng.dirichlet(np.ones(k)) if k > 1 else None)
    tables = draw(st.lists(st.sampled_from([first, first, shared, other]), min_size=1, max_size=10))
    specs = draw(st.lists(st.sampled_from(BATCH_SPECS), min_size=len(tables), max_size=len(tables)))
    if draw(st.integers(0, 9)) == 0:  # a column the tables lack: UnknownColumn
        specs[draw(st.integers(0, len(specs) - 1))] = PortfolioSpec({"z": 1.0})
    return list(zip(tables, specs)), first.scenario_probs


@st.composite
def batch_laws(draw):
    """A law of 1-300 atoms at one magnitude, and up to three affine maps:
    scales and shifts that keep every atom, merge neighbours (a scale of
    1e-300, a shift of 1e20), reverse the atoms, collapse them, or overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m = draw(st.integers(1, 300))
    scale = draw(st.sampled_from(BATCH_SCALES[:3]))
    values = rng.uniform(-1.0, 1.0, size=m) * scale
    if draw(st.booleans()):
        values[: m // 2] = rng.choice([0.0, -0.0], size=m // 2)
    weights = 10.0 ** rng.uniform(-draw(st.sampled_from([0.5, 20.0])), 0.0, size=m)
    d = from_samples(np.column_stack([values, weights]))
    maps = draw(st.lists(
        st.tuples(
            st.one_of(st.floats(0.01, 4.0), st.sampled_from([1.0, 1e-300, 0.0, -1.0, 1e300])),
            st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e20, 1.7e308])),
        ),
        max_size=3,
    ))
    return d, maps


BATCH_TABLE = ScenarioTable(("x", "y"), [[-1.7e308, 0.0], [1.7e308, -0.0], [0.5, 1.0]], [0.25, 0.25, 0.5])
BATCH_TABLE_PORTFOLIOS = [(BATCH_TABLE, spec) for spec in BATCH_SPECS[2::-1]]


class TestRowBatch:
    """run_suite's two row-batched evaluations give the per-law path's
    values bit for bit, and its first error, type and message."""

    @tier1_budget(60)
    @given(batch_portfolios(), batch_laws(), st.sampled_from([1, 2, 3, 10, 64]))
    # X+Y and X span more than the float range, and Y's values tie at 0.0
    # and -0.0; the image at scale 1e-300 merges both atoms, the other is taken
    @example(
        (BATCH_TABLE_PORTFOLIOS, BATCH_TABLE.scenario_probs),
        (from_samples([(1.0, 1.0), (2.0, 1.0)]), [(1e-300, 0.0), (2.0, 1.0)]),
        2,
    )
    def test_matches_per_law(self, portfolios, law, n):
        portfolios, probs = portfolios
        got = batch_outcome(lambda: measures._maxvar_portfolios(portfolios, probs, n))
        want = batch_outcome(lambda: [maxvar_choquet(portfolio_law(t, p), n) for t, p in portfolios])
        assert got == want
        d, maps = law
        got = batch_outcome(lambda: measures._maxvar_law_rows(d, n, maps))
        # the layers at n stay in d's slot for the routes asked next
        assert d._layer_slot[0] == n
        want = batch_outcome(lambda: [
            maxvar_choquet(d, n),
            *(maxvar_choquet(affine(d, scale, shift), n) for scale, shift in maps),
            maxvar_choquet(d, n + 1),
        ])
        assert got == want

    def test_a_row_sum_past_the_float_range_sends_every_law_per_law(self, monkeypatch):
        # the row pass raises as fsum does on a row past the float range:
        # every law then takes its path, which returns or raises in order
        def past_the_range(x):
            raise OverflowError("intermediate overflow in fsum")

        t = ScenarioTable(("x", "y"), [[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]], [0.2, 0.3, 0.5])
        portfolios = [(t, PortfolioSpec({"x": 1.0})), (t, PortfolioSpec({"x": 1.0, "y": 1.0}))]
        d = from_samples([(1.0, 1.0), (2.0, 3.0)])
        want = [maxvar_choquet(portfolio_law(t, p), 3) for t, p in portfolios]
        want_d = [maxvar_choquet(d, 3), maxvar_choquet(affine(d, 2.0, 1.0), 3), maxvar_choquet(d, 4)]
        monkeypatch.setattr(measures, "_row_sums", past_the_range)
        assert measures._maxvar_portfolios(portfolios, t.scenario_probs, 3) == want
        assert measures._maxvar_law_rows(d, 3, [(2.0, 1.0)]) == want_d
