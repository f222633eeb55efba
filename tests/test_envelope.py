import copy
import math
import pickle
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxvar import (
    CopyCount,
    CvarFeasibleFamily,
    DimensionMismatch,
    DiscreteMixtureSpec,
    EmpiricalDistribution,
    EnvelopeDensity,
    InfeasibleFamily,
    InfeasiblePart,
    NotInEnvelope,
    OutOfRange,
    RiskError,
    SeededSampler,
    core_check,
    cvar_extremal_density,
    cvar_min,
    discrete_envelope_check,
    dual_gap,
    expectation,
    extremal_density,
    from_samples,
    maxvar_choquet,
    maxvar_spectral,
    mixture_density,
)
from maxvar import envelope
from maxvar.axioms import _random_feasible_family, random_distribution
from maxvar.dist import _SUM_CHUNK, _left_quantile_index, _sum

from conftest import tier1_budget
from helpers import (
    core_check_full_length,
    cvar_extremal_segments,
    d4,
    mixture_density_per_segment,
    random_feasible_family_per_segment,
    random_small_dist,
    skewed_law,
    tight_sets_by_sort,
    tight_sets_in_entry_order,
    upper_set_violations_full_length,
    validate_family_per_segment,
)


def assert_sets_in_entry_order(report, d, n, e):
    # the same sets as the sorted reference, each in entry order
    assert tuple(tuple(sorted(s)) for s in report.tight_sets) == tight_sets_by_sort(d, n, e)
    assert report.tight_sets == tight_sets_in_entry_order(d, n, e)


def xq(d, e):
    return math.fsum(d.values * e.q * d.probs)


class TestExtremalDensity:
    def test_d4_n2(self):
        d = d4()
        e = extremal_density(d, 2)
        assert e.q.tolist() == [0.25, 0.75, 1.25, 1.75]
        assert math.fsum(e.q * d.probs) == 1.0
        assert xq(d, e) == 3.125

    def test_constant(self):
        d = from_samples([(3, 1)])
        assert extremal_density(d, 7).q.tolist() == [1.0]

    def test_n1_is_uniform_density(self):
        d = d4()
        assert extremal_density(d, 1).q.tolist() == [1.0] * 4

    def test_attains_maxvar_generally(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_small_dist(rng)
            for n in range(1, 8):
                e = extremal_density(d, n)
                assert xq(d, e) == pytest.approx(maxvar_choquet(d, n), abs=1e-10)
                assert np.all(e.q >= 0.0)
                assert np.max(e.q) <= n + 1e-12
                assert abs(math.fsum(e.q * d.probs) - 1.0) <= 1e-12


class TestCvarExtremalDensity:
    def test_attains_cvar(self):
        d = d4()
        e = cvar_extremal_density(d, 0.5)
        assert e.q.tolist() == [0.0, 0.0, 2.0, 2.0]
        assert xq(d, e) == cvar_min(d, 0.5).value

    def test_alpha_zero_is_uniform(self):
        assert cvar_extremal_density(d4(), 0.0).q.tolist() == [1.0] * 4

    def test_random_feasibility_and_attainment(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = random_small_dist(rng)
            alpha = float(rng.uniform(0, 0.999))
            e = cvar_extremal_density(d, alpha)
            assert np.all(e.q >= 0.0)
            assert np.max(e.q) <= 1.0 / (1.0 - alpha) + 1e-9
            assert abs(math.fsum(e.q * d.probs) - 1.0) <= 1e-12
            assert xq(d, e) == pytest.approx(cvar_min(d, alpha).value, abs=1e-10)


class TestCoreCheck:
    def test_extremal_is_tight_everywhere(self):
        d = d4()
        report = core_check(d, 2, extremal_density(d, 2), collect_sets=True)
        assert report.passed
        assert report.max_violation <= 1e-12
        assert report.max_equality_gap <= 1e-12
        assert report.tight_sets == (
            (4.0,),
            (4.0, 3.0),
            (4.0, 3.0, 2.0),
            (4.0, 3.0, 2.0, 1.0),
        )

    def test_tight_single_set_value(self):
        # E(Q 1_{top atom}) = 1.75 * 0.25 = 0.4375 = h(0.25)
        d = d4()
        report = core_check(d, 2, extremal_density(d, 2), collect_sets=True)
        assert (4.0,) in report.tight_sets

    def test_uniform_density_passes(self):
        report = core_check(d4(), 2, EnvelopeDensity(np.ones(4)))
        assert report.passed
        assert report.max_violation <= 0.0

    def test_overweight_tail_fails(self):
        report = core_check(d4(), 2, EnvelopeDensity(np.array([0.0, 0.0, 0.0, 4.0])))
        assert not report.passed
        # E(Q 1_{{4}}) = 1 against h(0.25) = 0.4375
        assert report.max_violation == pytest.approx(0.5625, abs=1e-12)

    def test_non_unit_mean_fails(self):
        report = core_check(d4(), 2, EnvelopeDensity(np.full(4, 0.5)))
        assert not report.passed
        assert report.mean_gap == pytest.approx(-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            core_check(d4(), 2, EnvelopeDensity(np.ones(3)))

    def test_ties_enter_together(self):
        report = core_check(d4(), 2, EnvelopeDensity(np.ones(4)), collect_sets=True)
        assert report.tight_sets == ((1.0, 2.0, 3.0, 4.0),)


    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 64))
    def test_tight_sets_match_sort_per_set_reference(self, data, n):
        # equal weights and cvar_extremal_density tie q, so sets enter together;
        # on dust laws rounding can leave the extremal q non-monotone
        d = data.draw(
            st.one_of(
                small_laws(max_atoms=1),
                small_laws(max_atoms=60, min_weight_exp=-20.0),
                small_laws(max_atoms=40, min_weight_exp=0.0),
            )
        )
        alpha = data.draw(st.floats(0.0, 0.99))
        for e in (
            extremal_density(d, n),
            cvar_extremal_density(d, alpha),
            EnvelopeDensity(np.ones(d.atom_count)),
        ):
            report = core_check(d, n, e, collect_sets=True)
            assert_sets_in_entry_order(report, d, n, e)
            assert core_check(d, n, e) == replace(report, tight_sets=())

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 64))
    def test_permuted_extremal_sets_match_sort_per_set_reference(self, data, n):
        # on an equal-weight law membership depends only on the probabilities,
        # so the extremal q permuted over the atoms stays in the envelope with
        # every upper-level set tight, and most of those sets are not index
        # ranges
        m = data.draw(st.integers(1, 60))
        values = data.draw(st.lists(st.floats(-100, 100), min_size=m, max_size=m, unique=True))
        d = from_samples([(v, 1.0) for v in values])
        q = extremal_density(d, n).q
        e = EnvelopeDensity(q[data.draw(st.permutations(range(d.atom_count)))])
        report = core_check(d, n, e, collect_sets=True)
        assert report.passed
        assert len(report.tight_sets) == len(np.unique(q))
        assert_sets_in_entry_order(report, d, n, e)
        assert core_check(d, n, e) == replace(report, tight_sets=())

    def test_extremal_sets_are_value_suffixes_at_size(self):
        d = law_of_2000_atoms()
        assert d.atom_count == 2000
        report = core_check(d, 4, extremal_density(d, 4), collect_sets=True)
        assert report.passed
        assert len(report.tight_sets) == 2000
        for j, members in enumerate(report.tight_sets):
            assert members == tuple(d.values[::-1][: j + 1].tolist())

    def test_unread_sets_cost_no_memory(self):
        # a default call lists no sets: the 2000 tight sets of this law,
        # listed, peaked at 15.9 MB
        d = law_of_2000_atoms()
        e = extremal_density(d, 4)
        tracemalloc.start()
        try:
            report = core_check(d, 4, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.tight_sets == ()
        assert peak < 1 << 20

    def test_copies_equal_the_report(self):
        d = d4()
        report = core_check(d, 2, extremal_density(d, 2), collect_sets=True)
        assert len(report.tight_sets) == 4
        assert pickle.loads(pickle.dumps(report)) == report
        assert copy.copy(report) == report
        assert replace(report) == report


def law_of_2000_atoms():
    rng = np.random.default_rng(12)
    return from_samples(np.column_stack([rng.normal(size=2000), rng.uniform(0.5, 1.0, 2000)]))


def mean_past_the_range():
    """A law whose probabilities sum to just above 1, and a family whose
    first segment, [0, 1e-300), holds the largest float in flat and its
    negation in tail: 1 - 1e-300 rounds to 1, so Q_a(1-a) is 0 at both
    ends and the bounds hold, and the mean's fsum overflows."""
    d = EmpiricalDistribution(np.array([0.0, 1.0]), np.array([0.7114974269921934, 0.2885025730078067]))
    top = sys.float_info.max
    fam = CvarFeasibleFamily(
        np.array([0.0, 1e-300, 1.0]), np.array([[top, top], [1.0, 1.0]]),
        np.array([[-top, -top], [0.0, 0.0]]),
    )
    return d, fam


class TestMixtureDensity:
    def test_all_ones_family(self):
        d = d4()
        fam = CvarFeasibleFamily.from_constant_densities(
            [0.0, 0.3, 1.0], [np.ones(4), np.ones(4)]
        )
        assert mixture_density(d, 3, fam).q.tolist() == [1.0] * 4

    def test_extremal_family_reproduces_extremal_density(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = random_small_dist(rng)
            fam = CvarFeasibleFamily.cvar_extremal(d)
            for n in range(1, 8):
                got = mixture_density(d, n, fam).q
                want = extremal_density(d, n).q
                assert np.max(np.abs(got - want)) <= 1e-10

    def test_random_families_stay_weakly_dual(self):
        rng = np.random.default_rng(33)
        d = d4()
        bound = maxvar_choquet(d, 3)
        for _ in range(200):
            fam = _random_feasible_family(d, rng)
            q = mixture_density(d, 3, fam)
            assert xq(d, q) <= bound + 1e-9

    def test_mixture_output_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = random_small_dist(rng)
            fam = _random_feasible_family(d, rng)
            for n in (1, 2, 5, 10):
                q = mixture_density(d, n, fam).q
                assert np.all(q >= 0.0)
                assert np.max(q) <= n + 1e-9
                assert abs(math.fsum(q * d.probs) - 1.0) <= 1e-9

    def test_bound_violation_rejected(self):
        # constant 2 on a segment starting at 0 breaks Q <= 1/(1-0)
        fam = CvarFeasibleFamily.from_constant_densities(
            [0.0, 1.0], [np.array([0.0, 0.0, 0.0, 4.0])]
        )
        with pytest.raises(InfeasibleFamily):
            mixture_density(d4(), 2, fam)

    def test_non_unit_mean_rejected(self):
        fam = CvarFeasibleFamily.from_constant_densities(
            [0.0, 1.0], [np.full(4, 0.9)]
        )
        with pytest.raises(InfeasibleFamily):
            mixture_density(d4(), 2, fam)

    def test_zero_tails_skip_the_sum(self, monkeypatch):
        # an all-zero tail has mean exactly 0, so only the flat parts' means
        # reach the row pass of the exact sum; a tail with a nonzero mean is
        # still summed, on its own row
        seen = []
        row_sums = envelope._row_sums
        monkeypatch.setattr(
            envelope, "_row_sums", lambda x: seen.append(x.any(axis=1).tolist()) or row_sums(x)
        )
        fam = CvarFeasibleFamily.from_constant_densities([0.0, 0.3, 1.0], [np.ones(4), np.ones(4)])
        assert mixture_density(d4(), 3, fam).q.tolist() == [1.0] * 4
        assert seen == [[True, True]]
        seen.clear()
        tail = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.05]])
        with pytest.raises(InfeasibleFamily, match="tail component has nonzero mean"):
            mixture_density(d4(), 3, replace(fam, tail=tail))
        assert seen == [[True, True], [True]]

    def test_non_finite_entries_rejected_without_a_warning(self):
        # +inf and -inf, whose sums meet inf - inf, or a nan in the second
        # segment: a typed error that names it, and no numpy warning
        inf, nan = math.inf, math.nan
        for flat, tail in (([inf, -inf, 1.0, 1.0], [-inf, inf, 0.0, 0.0]),
                           ([1.0, nan, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])):
            fam = CvarFeasibleFamily(
                np.array([0.0, 0.5, 1.0]), np.array([[1.0] * 4, flat]), np.array([[0.0] * 4, tail])
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    InfeasibleFamily, match=re.escape("segment [0.5, 1.0) has an entry that is not finite")
                ):
                    mixture_density(d4(), 2, fam)

    def test_mean_past_the_float_range_rejected_without_a_warning(self):
        d, fam = mean_past_the_range()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleFamily, match=re.escape("segment [0.0, 1e-300) mean is not 1")):
                mixture_density(d, 2, fam)
            assert _raised(validate_family_per_segment, d, fam) == (
                InfeasibleFamily, "segment [0.0, 1e-300) mean is not 1"
            )

    def test_partition_gap_rejected(self):
        # ends short of 1, starts above 0, decreases, repeats a bound
        for bounds in (
            [0.0, 0.4, 0.9],
            [0.1, 0.4, 1.0],
            [0.0, 0.6, 0.4, 1.0],
            [0.0, 0.5, 0.5, 1.0],
        ):
            fam = CvarFeasibleFamily.from_constant_densities(
                bounds, [np.ones(4)] * (len(bounds) - 1)
            )
            with pytest.raises(InfeasibleFamily):
                mixture_density(d4(), 2, fam)

    def test_dimension_mismatch(self):
        # every density too short, or densities of different lengths
        for densities in ([np.ones(3)], [np.ones(4), np.ones(3)], [np.ones(3), np.ones(4)]):
            bounds = np.linspace(0.0, 1.0, len(densities) + 1)
            with pytest.raises(DimensionMismatch):
                fam = CvarFeasibleFamily.from_constant_densities(bounds, densities)
                mixture_density(d4(), 2, fam)
        # direct construction: a tail of the wrong shape, or one bound too many
        ones, zeros = np.ones((1, 4)), np.zeros((1, 4))
        for bounds, flat, tail in (
            ([0.0, 1.0], ones, np.zeros(4)),
            ([0.0, 1.0], ones, np.zeros((1, 1))),
            ([0.0, 1.0], ones, np.zeros((4, 1))),
            ([0.0, 0.5, 1.0], ones, zeros),
        ):
            with pytest.raises(DimensionMismatch):
                mixture_density(d4(), 2, CvarFeasibleFamily(np.array(bounds), flat, tail))


@st.composite
def small_laws(draw, max_atoms=12, min_weight_exp=-2.0):
    m = draw(st.integers(1, max_atoms))
    values = draw(st.lists(st.floats(-100, 100), min_size=m, max_size=m))
    exps = draw(st.lists(st.floats(min_weight_exp, 0.0), min_size=m, max_size=m))
    return from_samples([(v, 10.0**e) for v, e in zip(values, exps)])


@st.composite
def constant_families(draw):
    """A law (one atom about half the time) and 1-12 (bounds, density)
    segments: each density is a unit-mean draw shrunk toward 1 to meet its
    bound. About two families in three have a flaw, which may be harmless: one
    density pushed past its bound or off unit mean, or bounds that decrease,
    repeat, or do not start at 0 or end at 1."""
    d = draw(st.one_of(small_laws(max_atoms=1), small_laws()))
    segments = draw(st.integers(1, 12))
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    cuts = draw(st.lists(inner, min_size=segments - 1, max_size=segments - 1, unique=True))
    cuts.sort()
    flaws = [None] * 3 + ["cap", "mean", "order", "repeat", "start", "end"]
    flaw = draw(st.sampled_from(flaws))
    if flaw == "order":
        cuts.reverse()
    bounds = np.array([0.0, *cuts, 1.0])
    if flaw in ("start", "end"):
        bounds = 0.9 * bounds + (0.1 if flaw == "start" else 0.0)
    if flaw == "repeat":
        i = draw(st.integers(0, segments))
        bounds = np.insert(bounds, i, bounds[i])
    densities = []
    for lo in bounds[:-1]:
        raw = np.array(
            draw(st.lists(st.floats(1e-3, 2.0), min_size=d.atom_count, max_size=d.atom_count))
        )
        q = raw / math.fsum(raw * d.probs)
        cap = 1.0 / (1.0 - min(lo, 0.999))
        over = q > cap
        gamma = float(np.min((cap - 1.0) / (q[over] - 1.0))) if over.any() else 1.0
        densities.append(1.0 + gamma * draw(st.sampled_from([0.999, 1.0])) * (q - 1.0))
    i = draw(st.integers(0, len(densities) - 1))
    if flaw == "mean":
        densities[i] = densities[i] * 1.01
    if flaw == "cap":
        densities[i] = 1.0 + 1.5 * (densities[i] - 1.0)
    return d, bounds, densities


def _outcome(build):
    """The density's bytes, or the type of the typed error it raised."""
    try:
        return build().q.tobytes()
    except RiskError as exc:
        return type(exc)


class TestFamilyArrays:
    """The array form of a family integrates bit for bit like the reference
    that validates and adds one segment at a time, and raises the same type of
    error where that reference does."""

    # nine segments on one atom: a pairwise sum of the M x 1 rows is 1 ulp off
    @example((from_samples([(1.0, 1.0)]), np.linspace(0.0, 1.0, 10), [np.ones(1)] * 9), 7)
    @given(constant_families(), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_constant_families_match_per_segment_reference(self, case, n):
        d, bounds, densities = case
        segments = [
            (float(lo), float(hi), dens, np.zeros_like(dens))
            for lo, hi, dens in zip(bounds[:-1], bounds[1:], densities)
        ]
        fam = CvarFeasibleFamily.from_constant_densities(bounds, densities)
        want = _outcome(lambda: mixture_density_per_segment(d, n, segments))
        assert _outcome(lambda: mixture_density(d, n, fam)) == want
        # the row order of the sum does not depend on the memory layout
        fortran = CvarFeasibleFamily(
            fam.bounds, np.asfortranarray(fam.flat), np.asfortranarray(fam.tail)
        )
        assert _outcome(lambda: mixture_density(d, n, fortran)) == want

    def test_family_owns_read_only_copies(self):
        bounds, density = np.array([0.0, 0.5, 1.0]), np.ones(4)
        fam = CvarFeasibleFamily.from_constant_densities(bounds, [density, density])
        assert fam.bounds is not bounds
        bounds[1], density[0] = 0.25, 2.0  # the caller's arrays stay the caller's
        assert fam.bounds.tolist() == [0.0, 0.5, 1.0] and fam.flat[0, 0] == 1.0
        for arr in (fam.bounds, fam.flat, fam.tail):
            with pytest.raises(ValueError):
                arr[0] = 3.0
        # each array keeps its memory order
        fortran = CvarFeasibleFamily(fam.bounds, np.asfortranarray(fam.flat), fam.tail)
        assert fortran.flat.flags.f_contiguous and not fortran.flat.flags.c_contiguous
        assert fortran.tail.flags.c_contiguous

    @given(small_laws(max_atoms=40, min_weight_exp=-20.0), st.integers(1, 12))
    def test_cvar_extremal_matches_per_segment_reference(self, d, n):
        fam = CvarFeasibleFamily.cvar_extremal(d)
        segments = cvar_extremal_segments(d)
        assert fam.bounds.tolist() == [0.0] + [hi for _, hi, _, _ in segments]
        assert fam.flat.tobytes() == np.stack([flat for _, _, flat, _ in segments]).tobytes()
        assert fam.tail.tobytes() == np.stack([tail for _, _, _, tail in segments]).tobytes()
        assert _outcome(lambda: mixture_density(d, n, fam)) == _outcome(
            lambda: mixture_density_per_segment(d, n, segments)
        )


# laws of the suite's own draw, 1-1000 atoms, some past the exact sum's
# certified-path size
suite_laws = st.integers(0, 2**32).map(lambda s: random_distribution(np.random.default_rng(s)))


@st.composite
def flawed_families(draw):
    """A law, a family on it with at most one injected flaw, and a
    ``_SWEEP_CHUNK`` that splits the segments into blocks of 1 to 7 rows or
    keeps them in one. The family is the suite's random draw or the extremal
    CVaR family, whose tails are not zero. The flaw sits at a random segment
    and atom: bounds that repeat, decrease or are nan; the density pushed
    below 0 or above its bound at the segment's lo or its hi only; a mean off
    1; a tail shifted off mean 0; a nan; +inf and -inf entries whose sums
    make ``math.fsum`` raise; or finite entries near the float range, whose
    sums or bound checks may overflow, at one entry or along a first
    segment squeezed to [0, 1e-300), where Q_a(1-a) is the same at both
    ends."""
    d = draw(st.one_of(small_laws(max_atoms=1), small_laws(max_atoms=30, min_weight_exp=-20.0)))
    if draw(st.booleans()):
        gen = SeededSampler(draw(st.integers(0, 2**32)), draw(st.integers(0, 64))).generator()
        fam = _random_feasible_family(d, gen)
    else:
        fam = CvarFeasibleFamily.cvar_extremal(d)
    bounds, flat, tail = fam.bounds.copy(), fam.flat.copy(), fam.tail.copy()
    i = draw(st.integers(0, len(bounds) - 2))
    j = draw(st.integers(0, d.atom_count - 1))
    lo, hi = float(bounds[i]), float(bounds[i + 1])
    kinds = [None, "order", "negative", "over", "mean", "tail", "nan", "inf", "huge"]
    kind = draw(st.sampled_from(kinds))
    if kind == "order":
        bounds[i + 1] = draw(st.sampled_from([lo, lo - 0.01, math.nan]))
    elif kind in ("negative", "over"):
        # the linear Q_a(1-a) = flat(1-a) + tail through 0.5 at one end and
        # a value past a bound at the other, or past it at both when 1 - lo
        # and 1 - hi round together
        bad = -0.5 if kind == "negative" else 1.5
        at_lo, at_hi = (bad, 0.5) if draw(st.booleans()) else (0.5, bad)
        span = (1.0 - lo) - (1.0 - hi)
        flat[i, j] = (at_lo - at_hi) / span if span else 0.0
        tail[i, j] = at_lo - flat[i, j] * (1.0 - lo) if span else bad
    elif kind == "mean":
        flat[i] *= draw(st.sampled_from([1.01, 1.0 + 1e-11]))
    elif kind == "tail":
        tail[i] += draw(st.sampled_from([1e-3, -1e-3, 1e-11]))
    elif kind == "nan":
        flat[i, j] = math.nan
    elif kind == "inf":
        flat[i, j], tail[i, j] = math.inf, -math.inf
        k = draw(st.integers(0, d.atom_count - 1))
        flat[i, k], tail[i, k] = -math.inf, math.inf
    elif kind == "huge":
        big = draw(st.sampled_from([1e307, 2.0**1023, sys.float_info.max, -sys.float_info.max]))
        if draw(st.booleans()):
            # the first segment squeezed to [0, 1e-300), where 1 - lo and
            # 1 - hi round together, and its whole row near the range with
            # Q_a(1-a) = 0: the bounds hold, and the mean's sum may overflow
            bounds[1] = 1e-300
            flat[0], tail[0] = big, -big
        else:  # one entry, whose tail may push Q_a(1-a) past the range too
            flat[i, j], tail[i, j] = big, draw(st.sampled_from([-big, big, 0.0]))
    chunk = draw(st.sampled_from([1, 2, 3 * d.atom_count, 7 * d.atom_count, envelope._SWEEP_CHUNK]))
    return d, CvarFeasibleFamily(bounds, flat, tail), chunk


def _raised(check, d, fam):
    """The type and message of the typed error that ``check(d, fam)``
    raises, or None. Any other error, or a numpy warning (an error under
    this suite's settings), fails the test."""
    try:
        check(d, fam)
    except RiskError as exc:
        return type(exc), str(exc)
    return None


class TestFamilyRowPass:
    """The random family is drawn, and a family validated, a block of
    segments at a time, against frozen per-segment forms in helpers."""

    @pytest.mark.fuzz
    @tier1_budget(200)
    @given(
        st.one_of(small_laws(max_atoms=1), small_laws(40, -20.0), suite_laws),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**20),
    )
    @example(skewed_law(), 98, 1)
    def test_random_family_matches_per_segment_reference(self, d, seed, stream):
        ours, theirs = (SeededSampler(seed, stream).generator() for _ in range(2))
        got = _random_feasible_family(d, ours)
        want = random_feasible_family_per_segment(d, theirs)
        for name in ("bounds", "flat", "tail"):
            assert getattr(got, name).shape == getattr(want, name).shape
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert ours.random() == theirs.random()  # the same draws were taken

    @pytest.mark.fuzz
    @tier1_budget(300)
    @given(flawed_families())
    @example((*mean_past_the_range(), envelope._SWEEP_CHUNK))
    @example((*mean_past_the_range(), 2))
    def test_validation_matches_per_segment_reference(self, case):
        d, fam, chunk = case
        with mock.patch.object(envelope, "_SWEEP_CHUNK", chunk):
            got = _raised(envelope._validate_family, d, fam)
        assert got == _raised(validate_family_per_segment, d, fam)

    @pytest.mark.parametrize("chunk", [4, 8, 12, envelope._SWEEP_CHUNK])
    def test_first_failing_segment_wins(self, chunk):
        # four atoms, so a chunk of 4, 8 or 12 floats holds 1, 2 or 3 segments
        d, ones = d4(), np.ones(4)
        fam = CvarFeasibleFamily.from_constant_densities([0.0, 0.2, 0.4, 0.6, 1.0], [ones] * 4)
        tail_mean = np.zeros((4, 4))
        tail_mean[1, 3] = 1e-3  # segment 1: a tail mean of 2.5e-4
        infinities = np.zeros((4, 4))  # segment 2: +inf and -inf, whose sums meet inf - inf
        infinities[2, :2] = -math.inf, math.inf
        flat = fam.flat.copy()
        flat[2, :2] = math.inf, -math.inf
        flat[3, 0] = -1.0  # segment 3: negative at its lo
        tail_message = (InfeasibleFamily, "segment [0.2, 0.4) tail component has nonzero mean")
        finite_message = (InfeasibleFamily, "segment [0.4, 0.6) has an entry that is not finite")
        nan_flat = fam.flat.copy()
        nan_flat[2, 1] = math.nan
        cases = (
            (fam.flat, tail_mean, tail_message),
            (flat, infinities, finite_message),
            (flat, infinities + tail_mean, tail_message),
            (nan_flat, np.zeros((4, 4)), finite_message),
        )
        with mock.patch.object(envelope, "_SWEEP_CHUNK", chunk):
            for flat_case, tail_case, want in cases:
                bad = CvarFeasibleFamily(fam.bounds, flat_case, tail_case)
                assert _raised(validate_family_per_segment, d, bad) == want
                assert _raised(envelope._validate_family, d, bad) == want

    def test_extremal_family_memory_is_block_sized(self):
        # 1024 equal atoms: probabilities of exactly 2**-10, so the extremal
        # family of 1024 segments is feasible; each of its M x m arrays takes
        # 8 MiB, and integrating it holds two of them at its peak
        d = from_samples([(float(v), 1.0) for v in range(1024)])
        fam = CvarFeasibleFamily.cvar_extremal(d)
        mixture_density(d, 3, fam)  # the law's cached arrays
        peaks = []
        tracemalloc.start()
        try:
            envelope._validate_family(d, fam)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            mixture_density(d, 3, fam)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        block = 8 * envelope._SWEEP_CHUNK  # bytes of one block of segments
        assert peaks[0] < 8 * block
        assert peaks[1] < 2 * fam.flat.nbytes + 8 * block


class TestDiscreteMixture:
    def test_expectation_level(self):
        spec = DiscreteMixtureSpec(((1.0, 0.0),))
        d = d4()
        combined = discrete_envelope_check(d, spec, [EnvelopeDensity(np.ones(4))])
        assert combined.q.tolist() == [1.0] * 4
        assert xq(d, combined) == expectation(d)

    def test_two_level_equality_at_extremal_parts(self):
        d = d4()
        spec = DiscreteMixtureSpec(((0.5, 0.0), (0.5, 0.5)))
        parts = [cvar_extremal_density(d, 0.0), cvar_extremal_density(d, 0.5)]
        combined = discrete_envelope_check(d, spec, parts)
        assert xq(d, combined) == pytest.approx(3.0, abs=1e-12)

    def test_random_feasible_parts_stay_below_bound(self):
        d = d4()
        spec = DiscreteMixtureSpec(((0.5, 0.0), (0.5, 0.5)))
        rng = np.random.default_rng(8)
        for _ in range(100):
            parts = []
            for _, alpha in spec.levels:
                cap = 1.0 / (1.0 - alpha)
                raw = rng.uniform(0.0, 2.0, 4) + 1e-3
                q = raw / math.fsum(raw * d.probs)
                over = q > cap
                gamma = 1.0
                if over.any():
                    gamma = float(np.min((cap - 1.0) / (q[over] - 1.0)))
                parts.append(EnvelopeDensity(1.0 + 0.999 * gamma * (q - 1.0)))
            combined = discrete_envelope_check(d, spec, parts)
            assert xq(d, combined) <= 3.0 + 1e-9

    def test_infeasible_part_rejected(self):
        d = d4()
        spec = DiscreteMixtureSpec(((1.0, 0.5),))
        with pytest.raises(InfeasiblePart):
            discrete_envelope_check(d, spec, [EnvelopeDensity(np.array([0, 0, 0, 4.0]))])

    def test_nan_part_names_its_level(self):
        # NaN fails every comparison, so the bound must be a condition it fails
        spec = DiscreteMixtureSpec(((0.5, 0.0), (0.5, 0.5)))
        with pytest.raises(InfeasiblePart, match="level 0.5 violates"):
            discrete_envelope_check(d4(), spec, [np.ones(4), [math.nan, 1.0, 1.0, 1.0]])

    def test_spec_validation(self):
        with pytest.raises(OutOfRange):
            DiscreteMixtureSpec(((0.5, 0.0), (0.4, 0.5)))  # weights sum != 1
        with pytest.raises(OutOfRange):
            DiscreteMixtureSpec(((1.0, 1.0),))  # alpha = 1
        with pytest.raises(OutOfRange):
            DiscreteMixtureSpec(())

    def test_part_count_mismatch(self):
        spec = DiscreteMixtureSpec(((0.5, 0.0), (0.5, 0.5)))
        with pytest.raises(InfeasiblePart):
            discrete_envelope_check(d4(), spec, [EnvelopeDensity(np.ones(4))])


class TestDualGap:
    def test_extremal_gap_is_zero(self):
        d = d4()
        assert abs(dual_gap(d, 2, extremal_density(d, 2))) <= 1e-10

    def test_uniform_density_gap(self):
        assert dual_gap(d4(), 2, EnvelopeDensity(np.ones(4))) == pytest.approx(
            0.625, abs=1e-12
        )

    def test_constant_law(self):
        d = from_samples([(-4, 1)])
        assert dual_gap(d, 5, EnvelopeDensity(np.ones(1))) == 0.0

    def test_rejects_non_member(self):
        with pytest.raises(NotInEnvelope):
            dual_gap(d4(), 2, EnvelopeDensity(np.array([0.0, 0.0, 0.0, 4.0])))

    def test_strong_duality_random(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = random_small_dist(rng)
            for n in range(1, 11):
                gap = dual_gap(d, n, extremal_density(d, n))
                assert abs(gap) <= 1e-10

    def test_weak_duality_large_random(self):
        gen = np.random.default_rng(123)
        d = random_distribution(gen, max_atoms=400)
        for n in (2, 5, 10):
            fam = _random_feasible_family(d, gen)
            gap = dual_gap(d, n, mixture_density(d, n, fam))
            assert gap >= -1e-9


# the copy counts the slot sees: small, the suite's and the benchmark's, and
# past 2^53, where every layer below level 1 rounds to 0
SLOT_COUNTS = (1, 2, 3, 7, 64, 2**53 + 1, 2**128)
SLOT_ROUTES = ("maxvar_choquet", "maxvar_spectral", "extremal_density", "dual_gap")


def _slot_outcome(route, *args):
    # the bits of a float or a density, or the type and message of a typed error
    try:
        got = route(*args)
    except RiskError as exc:
        return type(exc), str(exc)
    return (got.q if isinstance(got, EnvelopeDensity) else np.float64(got)).tobytes()


def _fresh_layer_routes(d, n):
    """Each route of SLOT_ROUTES as the library forms it, from layers that
    ``CopyCount(n).layers(d.cumulative)`` forms afresh, and the extremal
    density that ``dual_gap`` is asked about."""
    cc = CopyCount(n)
    layers = cc.layers(d.cumulative)
    value = float(_sum(d.values * layers))
    e = EnvelopeDensity(np.ones(d.atom_count) if n == 1 else layers / d.probs)
    routes = {
        "maxvar_choquet": lambda: value,
        "maxvar_spectral": lambda: float(
            _sum(d.values[_left_quantile_index(d.cumulative)] * layers)
        ),
        "extremal_density": lambda: e,
        "dual_gap": lambda: envelope._member_gap(d, cc, e, value)[1],
    }
    return routes, e


class TestLayerSlot:
    """The law's one-entry slot for the layers of F^n, which maxvar_choquet,
    maxvar_spectral, extremal_density and dual_gap read."""

    @pytest.mark.fuzz
    @tier1_budget(200)
    @given(
        st.one_of(small_laws(40, -20.0), suite_laws, st.builds(skewed_law)),
        st.lists(st.tuples(st.sampled_from(SLOT_ROUTES), st.sampled_from(SLOT_COUNTS)),
                 min_size=1, max_size=12),
    )
    def test_matches_fresh_layers(self, d, asks):
        # any sequence of routes and counts on one law, so that each ask
        # finds the slot empty, holding its n or holding another
        library = {
            "maxvar_choquet": maxvar_choquet,
            "maxvar_spectral": maxvar_spectral,
            "extremal_density": extremal_density,
        }
        for route, n in asks:
            fresh, e = _fresh_layer_routes(d, n)
            if route == "dual_gap":
                got = _slot_outcome(dual_gap, d, n, e)
            else:
                got = _slot_outcome(library[route], d, n)
            assert got == _slot_outcome(fresh[route])

    @pytest.mark.parametrize("n", [2, 64, 2**128])
    def test_slot_array_is_read_only_and_kept(self, n):
        d, cc = skewed_law(), CopyCount(n)
        layers = d._layers(cc)
        assert not layers.flags.writeable
        # as floats: an object array (numpy 1.24 at n = 2^128) holds pointers
        want = cc.layers(d.cumulative)
        assert np.asarray(layers, float).tobytes() == np.asarray(want, float).tobytes()
        assert d._layers(CopyCount(n)) is layers

    def test_one_layers_call_per_law_and_n(self, monkeypatch):
        asked = []
        layers = CopyCount.layers
        monkeypatch.setattr(
            CopyCount, "layers", lambda cc, cum: asked.append(cc.n) or layers(cc, cum)
        )
        d = skewed_law()
        for n in (64, 64, 7):
            maxvar_choquet(d, n)
            maxvar_spectral(d, n)
            dual_gap(d, n, extremal_density(d, n))
        assert asked == [64, 7]
        maxvar_choquet(d, 64)  # one entry: the slot now holds n = 7
        assert asked == [64, 7, 64]

    @tier1_budget(200)
    @given(st.one_of(small_laws(40, -20.0), suite_laws, st.builds(skewed_law)))
    def test_left_quantile_values_are_cached(self, d):
        atoms = d.left_quantile_values
        assert atoms.tobytes() == d.values[_left_quantile_index(d.cumulative)].tobytes()
        assert not atoms.flags.writeable
        assert d.left_quantile_values is atoms


def report_bits(report):
    # every field, each float by its bits (hex keeps the sign of zero)
    return (
        report.max_violation.hex(),
        report.mean_gap.hex(),
        report.max_equality_gap.hex(),
        tuple(tuple(v.hex() for v in members) for members in report.tight_sets),
        report.tolerance.hex(),
        report.passed,
    )


EVEN5 = from_samples([(float(v), 1.0) for v in range(5)])
SWEEP_DENSITIES = ("extremal", "increasing", "ties", "sorted-ties", "permuted", "off-mean", "ones")


def sets_affordable(d, n, e):
    # False where the tight sets alone would hold millions of references
    violations, _, _ = upper_set_violations_full_length(d, n, e.q)
    return np.count_nonzero(np.abs(violations) <= envelope._CORE_TOL) * d.atom_count <= 2_000_000


@st.composite
def sweep_cases(draw):
    """A chunk size; a law of 1-12 atoms or of chunk - 1, chunk, chunk + 1
    or 2 chunk + 1 atoms, with masses down to 1e-20 or all equal; n; a
    density; and whether to collect the tight sets. The density is the
    extremal one (strictly increasing on most laws, not always on dust), a
    strictly increasing one, one with ties in any order or sorted, the
    extremal one permuted over the atoms, the extremal one off unit mean, or
    the constant 1."""
    chunk = draw(st.sampled_from([1, 2, 3, 8, envelope._SWEEP_CHUNK]))
    sizes = st.sampled_from([chunk - 1, chunk, chunk + 1, 2 * chunk + 1])
    m = max(1, draw(st.one_of(st.integers(1, 12), sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([-20.0, -2.0, 0.0]))
    masses = 10.0 ** rng.uniform(low, 0.0, m)
    d = from_samples(np.column_stack([rng.uniform(-100.0, 100.0, m), masses]))
    m = d.atom_count
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(SWEEP_DENSITIES))
    q = extremal_density(d, n).q
    if kind == "increasing":
        q = np.cumsum(rng.uniform(0.5, 1.5, m))
    elif kind in ("ties", "sorted-ties"):
        q = rng.integers(1, 4, m).astype(float)
        if kind == "sorted-ties":
            q.sort()
    elif kind == "permuted":
        q = q[rng.permutation(m)]
    elif kind == "off-mean":
        q = q * draw(st.sampled_from([0.5, 1.0 + 1e-6, 3.0]))
    elif kind == "ones":
        q = np.ones(m)
    if kind in ("increasing", "ties", "sorted-ties"):
        q = q / math.fsum(q * d.probs)
    return chunk, d, n, EnvelopeDensity(q), draw(st.booleans())


class TestCoreCheckSweep:
    """The chunked sweep against its frozen full-length form in helpers."""

    @pytest.mark.fuzz
    @tier1_budget(200)
    @given(sweep_cases())
    # at two atoms a chunk: one tie through every chunk, and a strictly
    # increasing q across three chunks
    @example((2, EVEN5, 3, EnvelopeDensity(np.ones(5)), True))
    @example((2, EVEN5, 3, extremal_density(EVEN5, 3), True))
    def test_matches_full_length(self, case):
        chunk, d, n, e, collect = case
        collect = collect and sets_affordable(d, n, e)
        with mock.patch.object(envelope, "_SWEEP_CHUNK", chunk):
            got = core_check(d, n, e, collect_sets=collect)
        assert report_bits(got) == report_bits(core_check_full_length(d, n, e, collect))

    def test_increasing_q_skips_the_sort(self, monkeypatch):
        d = from_samples([(float(v), 1.0 + v % 3) for v in range(50)])
        e, ties = extremal_density(d, 5), EnvelopeDensity(np.ones(50))
        assert np.all(e.q[:-1] < e.q[1:])
        want = core_check(d, 5, e), core_check(d, 5, ties)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(a) or argsort(*a, **k))
        assert core_check(d, 5, e) == want[0] and not sorts
        assert core_check(d, 5, ties) == want[1] and len(sorts) == 1

    def test_large_law_memory_is_chunk_sized(self):
        # the full-length temporaries of the argsort form (7 arrays of m
        # floats at the peak) page-faulted afresh on every call of a large
        # law: now core_check holds the mean's product q * probs, and
        # dual_gap maxvar_choquet's layers and products, beside the exact
        # sum's and the sweep's chunk-sized buffers
        rng = np.random.default_rng(5)
        m = 100_000
        d = from_samples(np.column_stack([rng.standard_normal(m), rng.uniform(0.5, 1.0, m)]))
        e = extremal_density(d, 64)
        d.cumulative
        peaks = []
        tracemalloc.start()
        try:
            core_check(d, 64, e, collect_sets=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            dual_gap(d, 64, e)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        buffers = _SUM_CHUNK + 8 * envelope._SWEEP_CHUNK
        assert peaks[0] < 8 * (m + buffers)
        assert peaks[1] < 8 * (2 * m + buffers)
