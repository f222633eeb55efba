"""Property-test battery for the coherency/averseness axioms of maxvar and
the cross-route identities, with machine-readable reports.

Subadditivity and the other two-variable properties need a joint law, not
just marginals, so their test currency is a :class:`ScenarioTable` with
columns ``x`` and ``y``, and every law of it comes from :func:`portfolio_law`
through the specs below. Closedness
cannot be quantified over limits directly; it is covered by the Lipschitz
surrogate |maxvar_n(X) - maxvar_n(Y)| <= n E|X - Y| and labeled
"A4-surrogate" in reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._serialize import render_json
from .dist import (
    EmpiricalDistribution,
    PortfolioSpec,
    ScenarioTable,
    SeededSampler,
    _integer,
    _row_sums,
    _sum,
    abs_expectation,
    affine,
    expectation,
    from_samples,
    portfolio_law,
)
from .envelope import (
    CvarFeasibleFamily,
    _member_gap,
    extremal_density,
    mixture_density,
)
from .errors import BudgetTooSmall, OutOfRange, PreconditionViolated
from .measures import (
    _copy_count,
    _maxvar_law_rows,
    _maxvar_portfolios,
    cvar_choquet,
    cvar_min,
    maxvar_choquet,
    maxvar_mixture_exact,
    maxvar_spectral,
)


# Portfolios of a table with columns x and y: portfolio_law(t, X) is the law
# of X, portfolio_law(t, X_PLUS_Y) the joint law's sum, and so on.
X = PortfolioSpec({"x": 1.0})
Y = PortfolioSpec({"y": 1.0})
X_PLUS_Y = PortfolioSpec({"x": 1.0, "y": 1.0})
# (lam, lam*X + (1-lam)*Y) for the convexity check
MIXES = tuple(
    (lam, PortfolioSpec({"x": lam, "y": 1.0 - lam})) for lam in (0.25, 0.5, 0.75)
)


def _xy_table(x, y, probs) -> ScenarioTable:
    # x and y of the same length, from the suite's own draws
    return ScenarioTable(("x", "y"), np.column_stack([x, y]), probs)


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome; passes iff violation <= tolerance."""

    name: str
    passed: bool
    violation: float
    tolerance: float
    witness: str


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    trials: int
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return render_json(self.to_doc())


def _record(name: str, violation: float, tolerance: float, witness: str) -> CheckRecord:
    # compared as floats, so passed is a bool even for numpy inputs
    violation, tolerance = float(violation), float(tolerance)
    return CheckRecord(
        name=name,
        passed=violation <= tolerance,
        violation=violation,
        tolerance=tolerance,
        witness=witness,
    )


# Each check but constancy, which shares no number, has its record built by
# one private function from the numbers it reads. Its callers evaluate those
# numbers: the public check_* function where the check has one, and
# run_suite, which evaluates each law and route value of a trial once and
# hands it to every builder that reads it.


def check_constant(nc, c: float) -> CheckRecord:
    """Constancy: the measure of a constant is the constant."""
    cc = _copy_count(nc)
    c = float(c)
    law = EmpiricalDistribution(np.array([c]), np.array([1.0]))
    violation = abs(maxvar_choquet(law, cc) - c)
    return _record(
        "A1-constancy", violation, 1e-12 * max(1.0, abs(c)), f"c={c!r} n={cc.n}"
    )


def _subadditivity_record(t: ScenarioTable, cc, joint, split) -> CheckRecord:
    return _record(
        "subadditivity",
        joint - split,
        1e-9,
        f"scenarios={len(t.rows)} n={cc.n} lhs={joint!r} rhs={split!r}",
    )


def check_subadditivity(t: ScenarioTable, nc) -> CheckRecord:
    """maxvar_n(X+Y) <= maxvar_n(X) + maxvar_n(Y) on the joint law of the
    table's columns ``x`` and ``y``."""
    cc = _copy_count(nc)
    joint = maxvar_choquet(portfolio_law(t, X_PLUS_Y), cc)
    split = maxvar_choquet(portfolio_law(t, X), cc) + maxvar_choquet(portfolio_law(t, Y), cc)
    return _subadditivity_record(t, cc, joint, split)


def _monotonicity_record(t: ScenarioTable, cc, low, high) -> CheckRecord:
    return _record(
        "A3-monotonicity", low - high, 1e-9, f"scenarios={len(t.rows)} n={cc.n}"
    )


def check_monotonicity(t: ScenarioTable, nc) -> CheckRecord:
    """x <= y scenario-wise implies maxvar_n(X) <= maxvar_n(Y)."""
    cc = _copy_count(nc)
    if np.any(t.column("x") > t.column("y")):
        raise PreconditionViolated("monotonicity needs x <= y in every scenario")
    low = maxvar_choquet(portfolio_law(t, X), cc)
    high = maxvar_choquet(portfolio_law(t, Y), cc)
    return _monotonicity_record(t, cc, low, high)


def _homogeneity_record(d: EmpiricalDistribution, cc, lam, base, scaled) -> CheckRecord:
    return _record(
        "A5-positive-homogeneity",
        abs(scaled - lam * base),
        1e-9 * max(1.0, abs(lam * base)),
        f"lam={lam!r} n={cc.n} atoms={d.atom_count}",
    )


def check_positive_homogeneity(d: EmpiricalDistribution, nc, lam: float) -> CheckRecord:
    """maxvar_n(lam X) = lam maxvar_n(X) for lam > 0."""
    cc = _copy_count(nc)
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise OutOfRange(f"lambda must be > 0, got {lam!r}")
    base = maxvar_choquet(d, cc)
    scaled = maxvar_choquet(affine(d, lam, 0.0), cc)
    return _homogeneity_record(d, cc, lam, base, scaled)


def _translation_record(d: EmpiricalDistribution, cc, c, base, shifted) -> CheckRecord:
    return _record(
        "translation",
        abs(shifted - base - c),
        1e-9,
        f"c={c!r} n={cc.n} atoms={d.atom_count}",
    )


def check_translation(d: EmpiricalDistribution, nc, c: float) -> CheckRecord:
    """maxvar_n(X + c) = maxvar_n(X) + c."""
    cc = _copy_count(nc)
    c = float(c)
    shifted = maxvar_choquet(affine(d, 1.0, c), cc)
    return _translation_record(d, cc, c, maxvar_choquet(d, cc), shifted)


def _averseness_record(d: EmpiricalDistribution, cc, value, mean) -> CheckRecord:
    margin = value - mean
    # violation <= tolerance means margin >= 1e-12, i.e. strictly positive
    return _record(
        "A6-averseness",
        -margin,
        -1e-12,
        f"margin={margin!r} n={cc.n} atoms={d.atom_count}",
    )


def check_averseness(d: EmpiricalDistribution, nc) -> CheckRecord:
    """Strict averseness: maxvar_n(X) > E(X) for non-constant X, n >= 2."""
    cc = _copy_count(nc)
    if cc.n < 2:
        raise PreconditionViolated("averseness needs n >= 2")
    if d.is_constant():
        raise PreconditionViolated("averseness needs a non-constant distribution")
    return _averseness_record(d, cc, maxvar_choquet(d, cc), expectation(d))


def _l2_continuity_record(t: ScenarioTable, cc, rx, ry) -> CheckRecord:
    mean_abs_diff = _sum(np.abs(t.column("x") - t.column("y")) * t.scenario_probs)
    return _record(
        "A4-surrogate",
        abs(rx - ry) - cc.n * mean_abs_diff,
        1e-9,
        f"scenarios={len(t.rows)} n={cc.n}",
    )


def check_l2_continuity(t: ScenarioTable, nc) -> CheckRecord:
    """Surrogate for closedness: |maxvar_n(X) - maxvar_n(Y)| <= n E|X - Y|."""
    cc = _copy_count(nc)
    rx = maxvar_choquet(portfolio_law(t, X), cc)
    ry = maxvar_choquet(portfolio_law(t, Y), cc)
    return _l2_continuity_record(t, cc, rx, ry)


def _convexity_record(t: ScenarioTable, cc, rx, ry, mixed) -> CheckRecord:
    # implied by subadditivity + positive homogeneity; checked directly anyway.
    # mixed holds maxvar_n of each portfolio of MIXES, in that order
    worst = -math.inf
    witness = ""
    for (lam, _), value in zip(MIXES, mixed):
        violation = value - (lam * rx + (1.0 - lam) * ry)
        if violation > worst:
            worst = violation
            witness = f"lam={lam} scenarios={len(t.rows)} n={cc.n}"
    return _record("A2-convexity", worst, 1e-9, witness)


def _abs_bound_record(d: EmpiricalDistribution, cc, value) -> CheckRecord:
    return _record(
        "abs-bound",
        abs(value) - cc.n * abs_expectation(d),
        1e-9,
        f"n={cc.n} atoms={d.atom_count}",
    )


def _n_monotone_record(d: EmpiricalDistribution, cc, value, next_value) -> CheckRecord:
    return _record(
        "maxvar-n-monotone", value - next_value, 1e-12, f"n={cc.n} atoms={d.atom_count}"
    )


def _route_mixture_record(d: EmpiricalDistribution, cc, a, b) -> CheckRecord:
    return _record(
        "route-mixture-exact",
        abs(a - b) / max(1.0, abs(a)),
        1e-9,
        f"n={cc.n} atoms={d.atom_count} choquet={a!r}",
    )


def _route_spectral_record(d: EmpiricalDistribution, cc, a, b) -> CheckRecord:
    return _record(
        "route-spectral", abs(a - b), 1e-12, f"n={cc.n} atoms={d.atom_count}"
    )


def _cvar_routes_record(d: EmpiricalDistribution, alpha, a, b) -> CheckRecord:
    return _record(
        "cvar-two-routes", abs(a - b), 1e-10, f"alpha={alpha!r} atoms={d.atom_count}"
    )


def _cvar_dominance_record(d: EmpiricalDistribution, alpha, mean, cvar) -> CheckRecord:
    return _record(
        "cvar-dominance", mean - cvar, 1e-12, f"alpha={alpha!r} atoms={d.atom_count}"
    )


def _beta_star_record(d: EmpiricalDistribution, alpha, beta_star) -> CheckRecord:
    # VaR by a linear scan of its definition: the first atom whose survival
    # is below 1 - alpha, or the top atom if there is none
    below = np.flatnonzero(d.survival < 1.0 - alpha)
    var_atom = float(d.values[below[0] if below.size else -1])
    return _record(
        "cvar-beta-star-is-var",
        abs(beta_star - var_atom),
        0.0,
        f"alpha={alpha!r} atoms={d.atom_count}",
    )


def _duality_strong_record(d: EmpiricalDistribution, cc, gap) -> CheckRecord:
    return _record(
        "duality-strong-extremal", abs(gap), 1e-10, f"n={cc.n} atoms={d.atom_count}"
    )


def _core_tightness_record(d: EmpiricalDistribution, cc, report) -> CheckRecord:
    # the extremal density is tight on every upper-level set, so the largest
    # equality gap doubles as the membership violation here
    return _record(
        "core-check-extremal",
        max(report.max_equality_gap, abs(report.mean_gap)),
        1e-9,
        f"n={cc.n} atoms={d.atom_count}",
    )


def _envelope_bound_record(d: EmpiricalDistribution, cc, q) -> CheckRecord:
    worst = max(float(np.max(q)) - cc.n, float(-np.min(q)))
    return _record(
        "envelope-bound", worst, 1e-12, f"n={cc.n} atoms={d.atom_count}"
    )


_FAMILY_SEGMENTS = 4  # level segments of a random feasible family
_PAIRED_MAX_SCENARIOS = 300  # most scenarios in a random pair


def _random_feasible_family(
    d: EmpiricalDistribution, gen: np.random.Generator
) -> CvarFeasibleFamily:
    """A random piecewise-constant feasible family: each segment density is a
    raw positive draw normalized to unit mean, then shrunk toward the
    always-feasible constant 1 until its segment-wide CVaR bound holds.

    All segments at once, one row each: the raw draws come in one call, the
    same stream as one call per segment, each row's mean is its correctly
    rounded sum through :func:`_row_sums`, and each row's shrink factor is
    the least ratio over its entries above the bound, or 1 when none is (no
    such ratio exceeds 1)."""
    cuts = np.sort(gen.uniform(0.05, 0.95, size=_FAMILY_SEGMENTS - 1))
    bounds = np.concatenate(([0.0], cuts, [1.0]))
    raw = gen.uniform(0.0, 2.0, size=(_FAMILY_SEGMENTS, d.atom_count)) + 1e-3
    q = raw / _row_sums(raw * d.probs)[:, None]
    cap = (1.0 / (1.0 - bounds[:-1]))[:, None]  # pointwise bound over each segment
    shrink = q - 1.0
    ratio = np.divide(cap - 1.0, shrink, out=np.ones_like(q), where=q > cap)
    gamma = ratio.min(axis=1)
    flat = 1.0 + 0.999 * gamma[:, None] * shrink
    return CvarFeasibleFamily(bounds, flat, np.zeros_like(flat))


def _duality_weak_record(d: EmpiricalDistribution, cc, gap) -> CheckRecord:
    return _record(
        "duality-weak-random-family", -gap, 1e-9, f"n={cc.n} atoms={d.atom_count}"
    )


def random_distribution(
    gen: np.random.Generator,
    max_atoms: int = 1000,
    min_atoms: int = 1,
) -> EmpiricalDistribution:
    """Random law: 1-1000 atoms, values in [-100, 100), weights bounded away
    from zero so the total never degenerates."""
    m = int(gen.integers(min_atoms, max_atoms + 1))
    values = gen.uniform(-100.0, 100.0, size=m)
    weights = gen.uniform(0.05, 1.0, size=m)
    return from_samples(np.column_stack([values, weights]))


def random_paired(gen: np.random.Generator) -> ScenarioTable:
    """Random positions x and y on 1-300 common scenarios with random weights."""
    k = int(gen.integers(1, _PAIRED_MAX_SCENARIOS + 1))
    x = gen.uniform(-100.0, 100.0, size=k)
    y = gen.uniform(-100.0, 100.0, size=k)
    weights = gen.uniform(0.05, 1.0, size=k)
    return _xy_table(x, y, weights / _sum(weights))


def _suite_trials(trials) -> int:
    # the one suite trial-count rule, for run_suite and verify --trials alike
    trials = _integer(trials, "trials")
    if trials < 1:
        raise BudgetTooSmall("need at least 1 trial")
    return trials


def run_suite(seed: int, trials: int) -> VerificationReport:
    """Run every check on ``trials`` randomized instances.

    Deterministic per seed: trial t draws all of its data from stream t+1 of
    the seed, and records aggregate the worst signed violation per check
    name. Byte-identical reports for identical (seed, trials).

    Each trial evaluates each (law, n) route value once, and every check
    that reads a number is handed it: maxvar_n(X) of the pair, which the
    monotone and near tables share through their column x and
    probabilities, maxvar_n(d), E(d), CVaR_alpha of d, and the extremal
    density with its one membership report. The twelve MAXVAR values of
    the two-variable and one-law checks come from two row batches, each
    one certified row-sum pass: the eight portfolios on the pair's
    scenario probabilities (``measures._maxvar_portfolios``), and d, lam d
    and d + c at n with d at n + 1 on d's atoms
    (``measures._maxvar_law_rows``). A row the batch cannot take as the
    per-law path does (values that tie, are not finite or span more than
    the float range, an ``affine`` that merges atoms) takes that path, so
    every value keeps its bits. The generator is drawn in the order of the
    checks, as when each check evaluated its own numbers: the one-atom
    averseness fallback before the near table's perturbation, and the
    random family last.
    """
    trials = _suite_trials(trials)
    worst: dict[str, CheckRecord] = {}

    def consider(rec: CheckRecord) -> None:
        old = worst.get(rec.name)
        if old is None or rec.violation > old.violation:
            worst[rec.name] = rec

    for trial in range(trials):
        gen = SeededSampler(seed, stream_id=trial + 1).generator()
        d = random_distribution(gen)
        pair = random_paired(gen)
        n = int(gen.integers(2, 11))
        c = float(gen.uniform(-50.0, 50.0))
        lam = float(gen.uniform(0.01, 4.0))
        alpha = float(gen.uniform(0.0, 0.999))
        cc = _copy_count(n)

        consider(check_constant(cc, c))
        # the monotone and near tables keep the pair's column x and
        # probabilities, so the pair's law of X is theirs too
        x, y = pair.column("x"), pair.column("y")
        mono = _xy_table(x, x + np.abs(y) * 0.1, pair.probs)
        if d.atom_count < 2:  # draws a law of two or more atoms before the near table's draws
            consider(check_averseness(random_distribution(gen, 50, min_atoms=2), cc))
        near = _xy_table(x, x + gen.uniform(-0.5, 0.5, size=len(x)), pair.probs)
        portfolios = [(pair, X), (pair, Y), (pair, X_PLUS_Y), (mono, Y), (near, Y)]
        portfolios += [(pair, mix) for _, mix in MIXES]
        rx, ry, joint, mono_high, near_y, *mixed = _maxvar_portfolios(
            portfolios, pair.scenario_probs, cc
        )
        rd, scaled, shifted, rd_next = _maxvar_law_rows(d, cc, [(lam, 0.0), (1.0, c)])
        mean = expectation(d)
        consider(_subadditivity_record(pair, cc, joint, rx + ry))
        consider(_monotonicity_record(mono, cc, rx, mono_high))
        consider(_homogeneity_record(d, cc, lam, rd, scaled))
        consider(_translation_record(d, cc, c, rd, shifted))
        if d.atom_count >= 2:
            consider(_averseness_record(d, cc, rd, mean))
        consider(_l2_continuity_record(near, cc, rx, near_y))
        consider(_convexity_record(pair, cc, rx, ry, mixed))
        consider(_abs_bound_record(d, cc, rd))
        consider(_n_monotone_record(d, cc, rd, rd_next))
        consider(_route_mixture_record(d, cc, rd, maxvar_mixture_exact(d, cc)))
        consider(_route_spectral_record(d, cc, rd, maxvar_spectral(d, cc)))
        cvar = cvar_min(d, alpha)
        consider(_cvar_routes_record(d, alpha, cvar.value, cvar_choquet(d, alpha)))
        consider(_cvar_dominance_record(d, alpha, mean, cvar.value))
        consider(_beta_star_record(d, alpha, cvar.beta_star))
        extremal = extremal_density(d, cc)
        report, gap = _member_gap(d, cc, extremal, rd)
        consider(_duality_strong_record(d, cc, gap))
        consider(_core_tightness_record(d, cc, report))
        consider(_envelope_bound_record(d, cc, extremal.q))
        family = mixture_density(d, cc, _random_feasible_family(d, gen))
        consider(_duality_weak_record(d, cc, _member_gap(d, cc, family, rd)[1]))

    checks = tuple(worst[name] for name in sorted(worst))
    return VerificationReport(seed=int(seed), trials=trials, checks=checks)
