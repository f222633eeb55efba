import math
from fractions import Fraction

import maxvar.dist as dist
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxvar import (
    AllZeroWeights,
    CopyCount,
    EmpiricalDistribution,
    EmptyInput,
    NegativeProb,
    NonFiniteValue,
    OutOfRange,
    PortfolioSpec,
    ScenarioTable,
    SeededSampler,
    abs_expectation,
    affine,
    cdf,
    expectation,
    from_samples,
    portfolio_law,
    quantile,
    sample,
    suggest_rule,
)
from maxvar.dist import (
    _GUIDE_CHUNK,
    _GUIDE_MIN_SHARE,
    _GUIDE_STEPS,
    _SUM_CHUNK,
    _SUM_MIN_SIZE,
    _guide_table,
    _guided_index,
    _inverse_cdf_values,
    _row_sums,
    _sum,
)

from conftest import tier1_budget
from helpers import (
    affine_by_unique,
    d4,
    from_samples_validated,
    inverse_cdf_index_by_search,
    law_outcome,
    portfolio_law_via_pairs,
    quad_panels,
)


def finite_floats(lo=-100.0, hi=100.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def small_laws(draw, max_atoms=12):
    m = draw(st.integers(1, max_atoms))
    values = draw(
        st.lists(finite_floats(), min_size=m, max_size=m)
    )
    weights = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=m, max_size=m)
    )
    return from_samples(list(zip(values, weights)))


# few distinct values, so rows collide and merge; both signs of zero, a
# subnormal and magnitudes whose portfolio sums overflow
VALUE_POOL = (0.0, -0.0, 1.0, -1.0, 2.5, -5e-324, 1e-300, 1e8, -1e8, 1e300, 1e308)
pool_values = st.one_of(st.sampled_from(VALUE_POOL), finite_floats(-1e8, 1e8))
# zero of either sign, or positive down to subnormal; at most 40 rows of
# <= 1e300 keep the total finite
pair_weights = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(1e-320, 1e300))


SIGNED_ZEROS = [-0.0, -1.0, 2.0, -2.0, 0.0, 0.0, -1.0, 2.0, 0.0, 3.0]
SIGNED_ZEROS += [0.0, -1.0, 2.0, -2.0, 3.0, 1.0, -1.0, 2.0, -2.0, 3.0]


@st.composite
def sample_rows(draw):
    # past 16 values the merge's quicksort partitions instead of inserting
    rows = draw(st.lists(st.tuples(pool_values, pair_weights), min_size=1, max_size=40))
    return np.array(rows) if draw(st.booleans()) else rows


@st.composite
def affine_laws(draw):
    # pool values (both zeros, subnormals, near the float range) or uniform
    # ones, with masses down to dust; up to 40 atoms, so that a colliding map
    # merges runs long enough for the order of each run's sum to show
    m = draw(st.integers(1, 40))
    values = draw(st.lists(pool_values, min_size=m, max_size=m))
    exponents = draw(st.lists(st.floats(-300.0, 0.0), min_size=m, max_size=m))
    return from_samples([(v, 10.0**e) for v, e in zip(values, exponents)])


# maps that collide neighbours (a shift that swallows the values, products
# that underflow to 0.0 or -0.0 around a -0.0 shift), reverse the order,
# overflow, or are not finite
affine_scales = st.one_of(
    st.sampled_from((1.0, -1.0, -0.5, 1e-17, 5e-324, -5e-324, 1e-300, -1e-300, 1e10, 0.0)),
    finite_floats(-1e10, 1e10),
    st.sampled_from((math.inf, -math.inf, math.nan)),
)
affine_shifts = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 1e17, 1e-300, -1e-300, 1e308, -1e308)),
    finite_floats(-1e8, 1e8),
    st.sampled_from((math.inf, math.nan)),
)
affine_maps = st.one_of(
    st.sampled_from(((1e-17, 1e17), (-5e-324, -1e-300), (-1.0, 0.0))),
    st.tuples(affine_scales, affine_shifts),
)


@st.composite
def portfolio_cases(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    columns = tuple("xyz"[:k])
    rows = draw(st.lists(st.lists(pool_values, min_size=k, max_size=k), min_size=m, max_size=m))
    probs = None
    if draw(st.booleans()):
        masses = draw(st.lists(st.floats(1e-300, 1.0), min_size=m, max_size=m))
        probs = np.array(masses) / math.fsum(masses)
    weights = draw(
        st.lists(
            st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.5)), finite_floats(-10, 10)),
            min_size=k,
            max_size=k,
        )
    )
    assume(any(w != 0.0 for w in weights))
    return ScenarioTable(columns, np.array(rows), probs), PortfolioSpec(dict(zip(columns, weights)))


class TestFromSamples:
    def test_merges_duplicates_and_normalizes(self):
        d = from_samples([(3, 1), (1, 1), (3, 1), (2, 1)])
        assert d.values.tolist() == [1.0, 2.0, 3.0]
        assert d.probs.tolist() == [0.25, 0.25, 0.5]

    def test_single_atom(self):
        d = from_samples([(5, 2)])
        assert d.values.tolist() == [5.0]
        assert d.probs.tolist() == [1.0]

    def test_uniform_weights(self):
        assert d4().probs.tolist() == [0.25] * 4

    def test_zero_weight_atoms_dropped(self):
        d = from_samples([(1, 0), (2, 1)])
        assert d.values.tolist() == [2.0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            from_samples([])

    def test_non_finite(self):
        # a non-finite input, a total that overflows, a merged weight that does
        rows = (
            [(math.nan, 1)],
            [(1, math.inf)],
            [(1.0, 1e308), (2.0, 1e308)],
            [(1.0, 1e308), (1.0, 1e308)],
            # finite values whose span, largest minus smallest, overflows
            [(-1e308, 1.0), (1e308, 1.0)],
        )
        for raw in rows:
            with pytest.raises(NonFiniteValue):
                from_samples(raw)
        with pytest.raises(NonFiniteValue, match="span more than the float range"):
            EmpiricalDistribution(np.array([-1.7e308, 1.7e308]), np.array([0.5, 0.5]))

    def test_all_zero_weights(self):
        with pytest.raises(AllZeroWeights):
            from_samples([(1, 0), (2, 0)])

    def test_negative_weight(self):
        with pytest.raises(NegativeProb):
            from_samples([(1, -0.5), (2, 1)])
        # a weight whose probability underflows to 0 against the total
        with pytest.raises(NegativeProb, match="atom probabilities must be > 0"):
            from_samples([[1.0, 1e-320], [2.0, 1e10]])

    def test_arrays_are_immutable(self):
        d = d4()
        with pytest.raises(ValueError):
            d.values[0] = 99.0

    @pytest.mark.fuzz
    @tier1_budget(300)
    @given(sample_rows())
    @example([(1.0, 1e-320), (2.0, 1e10)])
    @example([(0.0, 1.0), (-0.0, 1.0), (-0.0, 0.0)])
    # a run of both zeros among 20 values, which the quicksort partitions
    # (numpy 2.4 on an AVX-512 host keeps 0.0, where a stable sort would keep
    # the first, -0.0); one value throughout; no two values equal; weights of
    # 0.0 and -0.0
    @example([(v, 1.0) for v in SIGNED_ZEROS])
    @example(np.array([(2.5, 1.0 + v) for v in range(20)]))
    @example(np.column_stack([np.linspace(-3.0, 3.0, 25)[::-1], np.arange(1.0, 26.0)]))
    @example([(1.0, 0.0), (2.0, -0.0), (3.0, 1.0), (3.0, -0.0), (-0.0, 0.0), (4.0, 2.0)])
    def test_matches_validated_construction(self, rows):
        assert law_outcome(from_samples, rows) == law_outcome(from_samples_validated, rows)

    @pytest.mark.fuzz
    @tier1_budget(200)
    @given(portfolio_cases())
    def test_portfolio_law_matches_pairs_reference(self, case):
        t, p = case
        assert law_outcome(portfolio_law, t, p) == law_outcome(portfolio_law_via_pairs, t, p)


class TestCdf:
    def test_midpoint(self):
        c = cdf(d4(), 2)
        assert c.le_prob == 0.5
        assert c.gt_prob == 0.5

    def test_below_support(self):
        assert cdf(d4(), 0.5).le_prob == 0.0

    def test_full_support(self):
        assert cdf(d4(), 4).le_prob == 1.0

    def test_above_max_and_below_min(self):
        d = d4()
        assert cdf(d, 1e9).le_prob == 1.0
        assert cdf(d, -1e9).le_prob == 0.0

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            cdf(d4(), math.nan)

    @given(small_laws(), finite_floats(-150, 150))
    def test_complement_exact(self, d, t):
        c = cdf(d, t)
        assert c.le_prob + c.gt_prob == 1.0

    @given(small_laws())
    def test_boundary_invariants(self, d):
        assert cdf(d, float(d.values[-1])).le_prob == 1.0
        just_below_min = float(np.nextafter(d.values[0], -np.inf))
        assert cdf(d, just_below_min).le_prob == 0.0


class TestQuantile:
    def test_examples(self):
        d = d4()
        assert quantile(d, 0.5) == 2.0
        assert quantile(d, 0.51) == 3.0
        assert quantile(d, 1.0) == 4.0
        assert quantile(d, 0.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            quantile(d4(), 1.5)
        with pytest.raises(OutOfRange):
            quantile(d4(), -0.1)

    @given(small_laws())
    def test_quantile_of_atom_cdf_recovers_atom(self, d):
        for v in d.values:
            assert quantile(d, cdf(d, v).le_prob) == v


class TestExpectation:
    def test_examples(self):
        assert expectation(d4()) == 2.5
        assert expectation(from_samples([(5, 1)])) == 5.0
        assert expectation(from_samples([(0, 1), (1, 1)])) == 0.5

    def test_abs_examples(self):
        assert abs_expectation(d4()) == 2.5
        assert abs_expectation(from_samples([(-1, 1), (1, 1)])) == 1.0
        assert abs_expectation(from_samples([(-3, 1)])) == 3.0

    @given(small_laws(), finite_floats(-10, 10), finite_floats(-10, 10))
    def test_affine_identity(self, d, a, b):
        lhs = expectation(affine(d, a, b))
        rhs = a * expectation(d) + b
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestAffine:
    def test_scale(self):
        d = affine(d4(), 2, 0)
        assert d.values.tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_degenerate(self):
        d = affine(d4(), 0, 7)
        assert d.values.tolist() == [7.0]
        assert d.probs.tolist() == [1.0]

    def test_negation_reorders(self):
        d = affine(d4(), -1, 0)
        assert d.values.tolist() == [-4.0, -3.0, -2.0, -1.0]

    def test_rounding_collision_remerges(self):
        # a huge shift absorbs the 2^-52 gap, colliding the two atoms
        tiny = from_samples([(1.0, 1), (1.0 + 2**-52, 1)])
        squashed = affine(tiny, 1.0, 1e30)
        assert squashed.atom_count == 1
        assert squashed.probs.tolist() == [1.0]

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            affine(d4(), math.inf, 0)
        # a finite scale whose products overflow: the error, and no warning
        with pytest.raises(NonFiniteValue):
            affine(from_samples([(1e300, 1), (2e300, 1)]), 1e10, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(affine_laws(), affine_maps)
    # every atom collides into 1e17: the one run's weights must be summed in
    # atom order (a pairwise sum of these twelve gives 1.0, not 1 - 2^-53)
    @example(from_samples([(i, w) for i, w in enumerate((5, 8, 3, 5, 8, 2, 3, 2, 5, 9, 2, 4))]),
             (1e-17, 1e17))
    # products that underflow to 0.0 and -0.0 merge into the first atom's zero
    @example(from_samples([(-1e-300, 1), (0.0, 2), (1e-300, 3)]), (-1e-300, -0.0))
    # minvar's -X of a -0.0 atom with dust beside it, and of subnormal atoms
    # around zero: no atom merges, so the constructor is skipped
    @example(from_samples([(-0.0, 1.0), (1.0, 1e-300)]), (-1.0, 0.0))
    @example(from_samples([(-5e-324, 1.0), (0.0, 1e-300), (5e-324, 2.0)]), (-1.0, 0.0))
    def test_matches_unique_merge(self, d, scale_shift):
        scale, shift = scale_shift
        got = law_outcome(affine, d, scale, shift)
        assert got == law_outcome(affine_by_unique, d, scale, shift)
        if not isinstance(got[0], type):  # a law, not an error: its levels too
            cum, ref = (f(d, scale, shift).cumulative for f in (affine, affine_by_unique))
            assert cum.tobytes() == ref.tobytes()

    def test_negation_skips_the_checking_constructor(self, monkeypatch):
        # minvar's -X merges no atom, so it never pays the constructor
        d = from_samples([(-0.0, 1.0), (1e-300, 1e-300), (3.0, 2.0)])
        want = law_outcome(affine_by_unique, d, -1.0, 0.0)

        def no_checks(self):
            raise AssertionError("the checking constructor was called")

        monkeypatch.setattr(EmpiricalDistribution, "__post_init__", no_checks)
        assert law_outcome(affine, d, -1.0, 0.0) == want


def bottom_dust_law():
    # 29 atoms of mass 1e-20 below one of mass 1: their 29 distinct levels
    # crowd the first cell of the inverse-CDF guide table
    return from_samples([(float(v), 1e-20) for v in range(29)] + [(29.0, 1.0)])


class TestSampler:
    def test_degenerate_law(self):
        d = from_samples([(5, 1)])
        draws = sample(d, SeededSampler(123), 3)
        assert draws.tolist() == [5.0, 5.0, 5.0]

    def test_same_seed_same_sequence(self):
        a = sample(d4(), SeededSampler(99, 3), 1000)
        b = sample(d4(), SeededSampler(99, 3), 1000)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = sample(d4(), SeededSampler(99, 0), 1000)
        b = sample(d4(), SeededSampler(99, 1), 1000)
        assert not np.array_equal(a, b)

    def test_draws_advance_state(self):
        s = SeededSampler(5)
        first = sample(d4(), s, 10)
        second = sample(d4(), s, 10)
        assert not np.array_equal(first, second)

    def test_mean_within_four_se(self):
        # exact variance of d4 is 1.25 -> SE = sqrt(1.25/1e6)
        draws = sample(d4(), SeededSampler(2024), 10**6)
        se = math.sqrt(1.25 / 10**6)
        assert abs(float(np.mean(draws)) - 2.5) <= 4 * se

    def test_seed_must_be_integer(self):
        with pytest.raises(OutOfRange):
            SeededSampler(1.5)

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange):
            sample(d4(), SeededSampler(1), -1)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "3"])
    def test_non_integer_count_rejected(self, count):
        # not truncated: 2.5 used to draw 2 values
        with pytest.raises(OutOfRange):
            SeededSampler(1).uniforms(count)

    def test_numpy_integer_count(self):
        got = SeededSampler(1).uniforms(np.int64(3))
        assert got.tolist() == SeededSampler(1).uniforms(3).tolist()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=8), st.integers(0, 2**32 - 1))
    def test_filled_chunks_equal_one_draw(self, sizes, seed):
        # each uniform comes from one 64-bit output, so chunks cut the stream anywhere
        chunked = SeededSampler(seed, 2)
        parts = [chunked.fill(np.empty(size)) for size in sizes]
        whole = SeededSampler(seed, 2).uniforms(sum(sizes))
        assert np.concatenate([whole[:0], *parts]).tobytes() == whole.tobytes()
        after = SeededSampler(seed, 2).uniforms(sum(sizes) + 3)[-3:]
        assert chunked.uniforms(3).tobytes() == after.tobytes()

    def test_sample_matches_search(self):
        for d in (d4(), bottom_dust_law()):
            got = sample(d, SeededSampler(11, 4), 5000)
            u = SeededSampler(11, 4).uniforms(5000)
            assert got.tobytes() == d.values[inverse_cdf_index_by_search(d.cumulative, u)].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(small_laws())
    def test_empirical_cdf_within_dkw_band(self, d):
        # DKW band at level 1e-6 for 1e5 draws
        count = 10**5
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * count))
        draws = sample(d, SeededSampler(7, 1), count)
        for v, f in zip(d.values, d.cumulative):
            emp = float(np.count_nonzero(draws <= v)) / count
            assert abs(emp - f) <= eps


@st.composite
def cumulative_levels(draw):
    # a law's cumulative probabilities, with masses over 300 decades (dust,
    # and levels that round together or to 1.0 below the top atom), or a raw
    # nondecreasing array with plateaus, crowded near 0 or near 1, pinned to 1.0
    m = draw(st.integers(1, 32))
    if draw(st.booleans()):
        exponents = draw(st.lists(st.floats(-300.0, 0.0), min_size=m, max_size=m))
        return from_samples([(float(i), 10.0**e) for i, e in enumerate(exponents)]).cumulative
    ulps = st.integers(0, 64).map(lambda k: 1.0 - k * 2.0**-53)
    tiny = st.integers(0, 64).map(lambda k: k * 5e-324)
    level = st.one_of(st.floats(0.0, 1.0), ulps, tiny)
    levels = draw(st.lists(level, min_size=m - 1, max_size=m - 1))
    repeats = draw(st.lists(st.integers(1, 4), min_size=m - 1, max_size=m - 1))
    plateaus = [x for x, k in zip(levels, repeats) for _ in range(k)]
    return np.array(sorted(plateaus) + [1.0])


class TestInverseCdfIndex:
    """The guide table against the left binary search it must equal."""

    @pytest.mark.fuzz
    @tier1_budget(200)
    @given(cumulative_levels(), st.lists(st.floats(0.0, 1.0), max_size=20), st.randoms())
    @example(bottom_dust_law().cumulative, [], None)
    @example(from_samples([(0.0, 1.0)]).cumulative, [0.0, 0.5, 1.0], None)
    def test_matches_searchsorted(self, cum, extra, rnd):
        # every level, its neighbours towards 0 and 1, 0.0 and drawn keys,
        # in a drawn order
        keys = [*cum, *np.nextafter(cum, 0.0), *np.nextafter(cum, 1.0), 0.0, *extra]
        if rnd is not None:
            rnd.shuffle(keys)
        u = np.array(keys)
        got = _guided_index(cum, _guide_table(cum), u)
        assert got.dtype == np.intp
        assert got.tobytes() == inverse_cdf_index_by_search(cum, u).astype(np.intp).tobytes()

    def test_few_keys_skip_the_table(self, monkeypatch):
        # a draw or two from a large law costs O(log m) each, not an O(m) table
        d = from_samples([(float(v), 1.0) for v in range(1000)])
        monkeypatch.setattr(np, "bincount", None)
        u = SeededSampler(3).uniforms(1000 // _GUIDE_MIN_SHARE - 1)
        got = sample(d, SeededSampler(3), u.size)
        assert got.tobytes() == d.values[inverse_cdf_index_by_search(d.cumulative, u)].tobytes()

    @pytest.mark.parametrize("chunk", [3, _GUIDE_CHUNK])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "twice"])
    @pytest.mark.parametrize("law", ["dust", "wide"])
    def test_values_overwrite_keys_chunk_by_chunk(self, chunk, extra, law, monkeypatch):
        # the dust law's 30 levels take the table, the wide law's
        # 16 * (2 chunks + 2) levels the direct search, on either side of
        # each chunk boundary
        monkeypatch.setattr(dist, "_GUIDE_CHUNK", chunk)
        count = 2 * chunk + 1 if extra == "twice" else chunk + extra
        if law == "dust":
            d = bottom_dust_law()
        else:
            atoms = _GUIDE_MIN_SHARE * (2 * chunk + 2)
            d = from_samples(np.column_stack([np.arange(atoms, dtype=float), np.ones(atoms)]))
        u = SeededSampler(count).uniforms(count)
        keys = u.copy()
        assert _inverse_cdf_values(d, keys) is keys
        assert keys.tobytes() == d.values[inverse_cdf_index_by_search(d.cumulative, u)].tobytes()

    def test_law_builds_its_table_once(self, monkeypatch):
        d = from_samples([(float(v), 1.0) for v in range(40)])
        builds = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: builds.append(a) or bincount(*a, **k))
        first = sample(d, SeededSampler(1), 100)
        assert sample(d, SeededSampler(1), 100).tobytes() == first.tobytes()
        assert len(builds) == 1 and not d.guide.flags.writeable

    def test_crowded_cell_falls_back_to_search(self, monkeypatch):
        # the dust levels share a cell, more than the walk steps through
        cum = bottom_dust_law().cumulative
        calls = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(a) or search(*a, **k))
        u = np.array([cum[-2], cum[0], 0.5])
        got = _guided_index(cum, _guide_table(cum), u)
        assert got.tolist() == search(cum, u).tolist() == [28, 0, 29]
        assert _GUIDE_STEPS < 28 and len(calls) == 1


# Lengths on both sides of the fsum cut-off and of a chunk boundary, on
# both sides of a step of the certified path's 2**b (the least power of two
# above n + 2), one above 2**17, and the empty and one-element arrays of the
# short-array path.
SUM_LENGTHS = (
    0,
    1,
    3,
    _SUM_MIN_SIZE - 1,
    _SUM_MIN_SIZE,
    _SUM_MIN_SIZE + 1,
    2**10 - 3,
    2**10 - 2,
    _SUM_CHUNK - 1,
    _SUM_CHUNK,
    _SUM_CHUNK + 1,
    2**15 - 3,
    2**15 - 2,
    2 * _SUM_CHUNK + 7,
    2**17 + 5,
)


def sum_outcome(f, x):
    """The result's bits (hex keeps the sign of zero), or the error type."""
    try:
        return f(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def sum_terms(draw, n):
    # n terms of one kind: cancelling pairs with dust, subnormals, a wide
    # spread, signed zeros, a sum on or next to a rounding midpoint, or a few
    # drawn floats repeated
    kind = draw(st.sampled_from(["cancel", "subnormal", "wide", "zeros", "midpoint", "drawn"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cancel":
        half = max(n - 1, 0) // 2
        y = rng.standard_normal(half) * 10.0 ** rng.integers(-20, 21, half)
        dust = rng.standard_normal(n - 2 * half) * 10.0 ** rng.integers(-320, -20, n - 2 * half)
        x = rng.permutation(np.concatenate([y, -y, dust]))
    elif kind == "subnormal":
        x = rng.integers(-(2**52), 2**52, n) * 2.0**-1074
        x[rng.random(n) < 0.1] *= 2.0**60
    elif kind == "wide":
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    elif kind == "zeros":
        x = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])), 0.0, -0.0)
    elif kind == "midpoint":
        # integers around 2**60, where floats are 2**7 or 2**8 apart, and a
        # last term that puts the exact sum on the midpoint between the two
        # floats around it, or a little to one side; then all scaled by a
        # power of two, which keeps the midpoint
        body = rng.integers(-(2**40), 2**40, max(n - 2, 0))
        partial = 2**60 + int(body.sum())
        gap = 2 ** (partial.bit_length() - 53)
        offset = draw(st.sampled_from([0.0, 2.0**-20, -(2.0**-20), 1.0, -1.0]))
        last = float(gap // 2 - partial % gap) + offset
        x = np.concatenate([[2.0**60], body.astype(float), [last]])[:n]
        x = np.ldexp(rng.permutation(x), draw(st.integers(-300, 300)))
    else:
        # few distinct values repeated: infinities, nan and 1e308 included
        x = np.resize(np.array(draw(st.lists(st.floats(), min_size=1, max_size=6))), n)
    return x


@st.composite
def sum_inputs(draw):
    x = sum_terms(draw, draw(st.sampled_from(SUM_LENGTHS)))
    if draw(st.booleans()):
        x = np.repeat(x, 2)[::2]  # a strided view, like a CSV column
    return x


@st.composite
def row_sum_inputs(draw):
    # 1-200 rows of width 2-64, each a copy of one of a few drawn rows of
    # sum_terms' kinds scaled by a power of two; then an inf in some rows, or
    # both infinities in one, and a column-major or strided layout
    width = draw(st.integers(2, 64))
    rows = draw(st.integers(1, 200))
    drawn = np.array([sum_terms(draw, width) for _ in range(draw(st.integers(1, 6)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):
        scale = np.ldexp(1.0, rng.integers(-8, 9, rows))[:, None]
        x = drawn[rng.integers(len(drawn), size=rows)] * scale
    special = draw(st.sampled_from(["none", "inf", "both"]))
    if special == "inf":
        for row in rng.integers(rows, size=3).tolist():
            x[row, rng.integers(width)] = rng.choice([math.inf, -math.inf])
    elif special == "both":
        x[rng.integers(rows), [0, -1]] = math.inf, -math.inf
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = np.repeat(x, 2, axis=1)[:, ::2]
    return x


@pytest.mark.fuzz
class TestExactSum:
    @tier1_budget(300)
    @given(sum_inputs())
    def test_bit_identical_to_fsum(self, x):
        assert sum_outcome(_sum, x) == sum_outcome(math.fsum, x)

    def test_intermediate_overflow_raises_like_fsum(self):
        # exactly 1e308, but fsum overflows on the way; _sum must not differ
        for x in ([1e308, 1e308, -1e308], np.resize([1e308, 1e308, -1e308], 3 * _SUM_MIN_SIZE)):
            with pytest.raises(OverflowError):
                math.fsum(x)
            with pytest.raises(OverflowError):
                _sum(x)

    def test_large_arrays_do_not_call_fsum(self, monkeypatch):
        x = np.linspace(-1.0, 3.0, _SUM_MIN_SIZE)
        expected = math.fsum(x)

        def no_fsum(values):
            raise AssertionError("math.fsum called above the size cut-off")

        monkeypatch.setattr(math, "fsum", no_fsum)
        assert _sum(x) == expected

    def test_route_sums_take_the_certified_path(self, monkeypatch):
        # a 1e5-atom law's probabilities, its mean's terms and its Choquet
        # terms (values times the layers F_k^n - F_{k-1}^n)
        rng = np.random.default_rng(19)
        d = from_samples(np.column_stack([rng.standard_normal(10**5), rng.random(10**5)]))
        arrays = [d.probs, d.values * d.probs]
        arrays += [d.values * CopyCount(n).layers(d.cumulative) for n in (2, 5, 64)]
        expected = [math.fsum(x).hex() for x in arrays]

        def no_fsum(values):
            raise AssertionError("the certificate refused a route's sum")

        monkeypatch.setattr(math, "fsum", no_fsum)
        assert [_sum(x).hex() for x in arrays] == expected

    def test_ties_and_cancellation_fall_back_to_fsum(self, monkeypatch):
        # 2**53 + 1 and 2**53 + 3 lie halfway between two floats (fsum rounds
        # them to even), y - y is exactly zero in any order, and zeros span
        # more than one chunk of the fallback's lists
        tie_down, tie_up = np.zeros(1000), np.zeros(1000)
        tie_down[:2] = 2.0**53, 1.0
        tie_up[:2] = 2.0**53, 3.0
        y = np.random.default_rng(5).standard_normal(800) * 10.0 ** np.arange(-8.0, 8.0).repeat(50)
        cancel = np.random.default_rng(6).permutation(np.concatenate([y, -y]))
        zeros = np.where(np.arange(2 * _SUM_CHUNK + 7) % 3 == 0, -0.0, 0.0)
        arrays = (tie_down, tie_up, cancel, zeros)
        expected = [math.fsum(x).hex() for x in arrays]
        sizes = []
        fsum = math.fsum

        def recorded(values):
            values = list(values)
            sizes.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", recorded)
        assert [_sum(x).hex() for x in arrays] == expected
        assert sizes == [1000, 1000, 1600, 2 * _SUM_CHUNK + 7]


def on_a_midpoint(terms) -> bool:
    """Whether the exact sum of ``terms`` lies within 2**-80 of its size of
    the midpoint between its correctly rounded float and a neighbour."""
    exact = sum(map(Fraction, terms))
    rounded = float(exact)
    return any(
        abs(exact - (Fraction(rounded) + Fraction(math.nextafter(rounded, way))) / 2)
        <= abs(exact) * Fraction(2) ** -80
        for way in (math.inf, -math.inf)
    )


def row_sums_outcome(x):
    """Each row's bits, or the error type of the call."""
    try:
        return [s.hex() for s in _row_sums(x).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestRowSums:
    @pytest.mark.fuzz
    @tier1_budget(300)
    @given(row_sum_inputs())
    def test_bit_identical_to_fsum_per_row(self, x):
        # a row whose fsum raises makes the call raise, the first one's error
        expected = [sum_outcome(math.fsum, row) for row in x.tolist()]
        errors = [outcome for outcome in expected if isinstance(outcome, type)]
        assert row_sums_outcome(x) == (errors[0] if errors else expected)

    def test_panel_rows_take_the_certified_path(self, monkeypatch):
        # mixture-quad's panel matrix on a law of positive values, where no
        # row cancels or sums to zero. A few rows' exact sums still lie on a
        # rounding midpoint (16 terms of like size leave their sum only a few
        # bits below its last place); those rows alone may reach fsum.
        rng = np.random.default_rng(22)
        d = from_samples(np.column_stack([rng.uniform(1.0, 100.0, 150), rng.random(150) + 0.5]))
        rows = quad_panels(d, 8, suggest_rule(d))[1].tolist()
        expected = [math.fsum(row).hex() for row in rows]
        ties = [row for row in rows if on_a_midpoint(row)]
        fsummed = []
        fsum = math.fsum

        def recorded(values):
            fsummed.append(values)
            return fsum(values)

        monkeypatch.setattr(math, "fsum", recorded)
        assert row_sums_outcome(np.array(rows)) == expected
        assert fsummed == ties and len(ties) < len(rows) // 20
