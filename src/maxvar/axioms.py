"""Property-test battery for the coherency/averseness axioms of maxvar and
the cross-route identities, with machine-readable reports.

Subadditivity and the other two-variable properties need a joint law, not
just marginals, so :class:`PairedScenarios` is the test currency. Closedness
cannot be quantified over limits directly; it is covered by the Lipschitz
surrogate |maxvar_n(X) - maxvar_n(Y)| <= n E|X - Y| and labeled
"A4-surrogate" in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._serialize import render_json
from .dist import (
    EmpiricalDistribution,
    SeededSampler,
    _check_probs,
    _sum,
    abs_expectation,
    affine,
    expectation,
    from_samples,
)
from .envelope import (
    CvarFeasibleFamily,
    core_check,
    dual_gap,
    extremal_density,
    mixture_density,
)
from .errors import (
    BudgetTooSmall,
    DimensionMismatch,
    NonFiniteValue,
    OutOfRange,
    PreconditionViolated,
)
from .measures import (
    _copy_count,
    cvar_choquet,
    cvar_min,
    maxvar_choquet,
    maxvar_mixture_exact,
    maxvar_spectral,
    var,
)


@dataclass(frozen=True, eq=False)
class PairedScenarios:
    """A joint law of (X, Y) on common scenarios."""

    x: np.ndarray
    y: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if not (len(x) == len(y) == len(probs)) or len(x) == 0:
            raise DimensionMismatch("x, y, probs must be nonempty and equally long")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NonFiniteValue("scenario values must be finite")
        _check_probs(probs, what="scenario probabilities")
        for name, arr in (("x", x), ("y", y), ("probs", probs)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_weights(cls, x, y, weights=None) -> "PairedScenarios":
        """Build a joint law from raw weights (uniform when omitted)."""
        x = np.asarray(x, dtype=float)
        if weights is None:
            weights = np.ones(len(x))
        weights = np.asarray(weights, dtype=float)
        return cls(x, y, weights / _sum(weights))

    def marginal_x(self) -> EmpiricalDistribution:
        return from_samples(np.column_stack([self.x, self.probs]))

    def marginal_y(self) -> EmpiricalDistribution:
        return from_samples(np.column_stack([self.y, self.probs]))

    def sum_law(self) -> EmpiricalDistribution:
        return from_samples(np.column_stack([self.x + self.y, self.probs]))

    def mix_law(self, lam: float) -> EmpiricalDistribution:
        """Law of lam*X + (1-lam)*Y, scenario-wise."""
        return from_samples(
            np.column_stack([lam * self.x + (1.0 - lam) * self.y, self.probs])
        )

    def mean_abs_diff(self) -> float:
        return _sum(np.abs(self.x - self.y) * self.probs)


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
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "violation": c.violation,
                    "tolerance": c.tolerance,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return render_json(self.to_doc())


def _record(name: str, violation: float, tolerance: float, witness: str) -> CheckRecord:
    return CheckRecord(
        name=name,
        passed=violation <= tolerance,
        violation=float(violation),
        tolerance=float(tolerance),
        witness=witness,
    )


def check_constant(nc, c: float) -> CheckRecord:
    """Constancy: the measure of a constant is the constant."""
    n = _copy_count(nc)
    law = EmpiricalDistribution(np.array([float(c)]), np.array([1.0]))
    violation = abs(maxvar_choquet(law, n) - c)
    return _record(
        "A1-constancy", violation, 1e-12 * max(1.0, abs(c)), f"c={c!r} n={n}"
    )


def check_subadditivity(p: PairedScenarios, nc) -> CheckRecord:
    """maxvar_n(X+Y) <= maxvar_n(X) + maxvar_n(Y) on the joint law."""
    n = _copy_count(nc)
    joint = maxvar_choquet(p.sum_law(), n)
    split = maxvar_choquet(p.marginal_x(), n) + maxvar_choquet(p.marginal_y(), n)
    return _record(
        "subadditivity",
        joint - split,
        1e-9,
        f"scenarios={len(p.x)} n={n} lhs={joint!r} rhs={split!r}",
    )


def check_monotonicity(p: PairedScenarios, nc) -> CheckRecord:
    """X <= Y scenario-wise implies maxvar_n(X) <= maxvar_n(Y)."""
    n = _copy_count(nc)
    if np.any(p.x > p.y):
        raise PreconditionViolated("monotonicity needs x <= y in every scenario")
    low = maxvar_choquet(p.marginal_x(), n)
    high = maxvar_choquet(p.marginal_y(), n)
    return _record(
        "A3-monotonicity", low - high, 1e-9, f"scenarios={len(p.x)} n={n}"
    )


def check_positive_homogeneity(d: EmpiricalDistribution, nc, lam: float) -> CheckRecord:
    """maxvar_n(lam X) = lam maxvar_n(X) for lam > 0."""
    n = _copy_count(nc)
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise OutOfRange(f"lambda must be > 0, got {lam!r}")
    base = maxvar_choquet(d, n)
    scaled = maxvar_choquet(affine(d, lam, 0.0), n)
    violation = abs(scaled - lam * base)
    return _record(
        "A5-positive-homogeneity",
        violation,
        1e-9 * max(1.0, abs(lam * base)),
        f"lam={lam!r} n={n} atoms={d.atom_count}",
    )


def check_translation(d: EmpiricalDistribution, nc, c: float) -> CheckRecord:
    """maxvar_n(X + c) = maxvar_n(X) + c."""
    n = _copy_count(nc)
    c = float(c)
    shifted = maxvar_choquet(affine(d, 1.0, c), n)
    violation = abs(shifted - maxvar_choquet(d, n) - c)
    return _record("translation", violation, 1e-9, f"c={c!r} n={n} atoms={d.atom_count}")


def check_averseness(d: EmpiricalDistribution, nc) -> CheckRecord:
    """Strict averseness: maxvar_n(X) > E(X) for non-constant X, n >= 2."""
    n = _copy_count(nc)
    if n < 2:
        raise PreconditionViolated("averseness needs n >= 2")
    if d.is_constant():
        raise PreconditionViolated("averseness needs a non-constant distribution")
    margin = maxvar_choquet(d, n) - expectation(d)
    # violation <= tolerance means margin >= 1e-12, i.e. strictly positive
    return _record(
        "A6-averseness",
        -margin,
        -1e-12,
        f"margin={margin!r} n={n} atoms={d.atom_count}",
    )


def check_l2_continuity(p: PairedScenarios, nc) -> CheckRecord:
    """Surrogate for closedness: |maxvar_n(X) - maxvar_n(Y)| <= n E|X - Y|."""
    n = _copy_count(nc)
    diff = abs(
        maxvar_choquet(p.marginal_x(), n) - maxvar_choquet(p.marginal_y(), n)
    )
    return _record(
        "A4-surrogate",
        diff - n * p.mean_abs_diff(),
        1e-9,
        f"scenarios={len(p.x)} n={n}",
    )


def _check_convexity(p: PairedScenarios, nc) -> CheckRecord:
    # implied by subadditivity + positive homogeneity; checked directly anyway
    n = _copy_count(nc)
    worst = -math.inf
    witness = ""
    rx = maxvar_choquet(p.marginal_x(), n)
    ry = maxvar_choquet(p.marginal_y(), n)
    for lam in (0.25, 0.5, 0.75):
        mixed = maxvar_choquet(p.mix_law(lam), n)
        violation = mixed - (lam * rx + (1.0 - lam) * ry)
        if violation > worst:
            worst = violation
            witness = f"lam={lam} scenarios={len(p.x)} n={n}"
    return _record("A2-convexity", worst, 1e-9, witness)


def _check_abs_bound(d: EmpiricalDistribution, nc) -> CheckRecord:
    n = _copy_count(nc)
    return _record(
        "abs-bound",
        abs(maxvar_choquet(d, n)) - n * abs_expectation(d),
        1e-9,
        f"n={n} atoms={d.atom_count}",
    )


def _check_n_monotone(d: EmpiricalDistribution, nc) -> CheckRecord:
    n = _copy_count(nc)
    gap = maxvar_choquet(d, n) - maxvar_choquet(d, n + 1)
    return _record(
        "maxvar-n-monotone", gap, 1e-12, f"n={n} atoms={d.atom_count}"
    )


def _check_route_mixture(d: EmpiricalDistribution, nc) -> CheckRecord:
    n = _copy_count(nc)
    a = maxvar_choquet(d, n)
    b = maxvar_mixture_exact(d, n)
    return _record(
        "route-mixture-exact",
        abs(a - b) / max(1.0, abs(a)),
        1e-9,
        f"n={n} atoms={d.atom_count} choquet={a!r}",
    )


def _check_route_spectral(d: EmpiricalDistribution, nc) -> CheckRecord:
    n = _copy_count(nc)
    a = maxvar_choquet(d, n)
    b = maxvar_spectral(d, n)
    return _record(
        "route-spectral", abs(a - b), 1e-12, f"n={n} atoms={d.atom_count}"
    )


def _check_cvar_routes(d: EmpiricalDistribution, alpha: float) -> CheckRecord:
    a = cvar_min(d, alpha).value
    b = cvar_choquet(d, alpha)
    return _record(
        "cvar-two-routes", abs(a - b), 1e-10, f"alpha={alpha!r} atoms={d.atom_count}"
    )


def _check_cvar_dominance(d: EmpiricalDistribution, alpha: float) -> CheckRecord:
    gap = expectation(d) - cvar_min(d, alpha).value
    return _record(
        "cvar-dominance", gap, 1e-12, f"alpha={alpha!r} atoms={d.atom_count}"
    )


def _check_beta_star(d: EmpiricalDistribution, alpha: float) -> CheckRecord:
    res = cvar_min(d, alpha)
    return _record(
        "cvar-beta-star-is-var",
        abs(res.beta_star - var(d, alpha)),
        0.0,
        f"alpha={alpha!r} atoms={d.atom_count}",
    )


def _check_duality_strong(d: EmpiricalDistribution, nc) -> CheckRecord:
    n = _copy_count(nc)
    q = extremal_density(d, n)
    gap = dual_gap(d, n, q)
    return _record(
        "duality-strong-extremal", abs(gap), 1e-10, f"n={n} atoms={d.atom_count}"
    )


def _check_core_tightness(d: EmpiricalDistribution, nc) -> CheckRecord:
    # the extremal density is tight on every upper-level set, so the largest
    # equality gap doubles as the membership violation here
    n = _copy_count(nc)
    report = core_check(d, n, extremal_density(d, n), collect_sets=False)
    return _record(
        "core-check-extremal",
        max(report.max_equality_gap, abs(report.mean_gap)),
        1e-9,
        f"n={n} atoms={d.atom_count}",
    )


def _check_envelope_bound(d: EmpiricalDistribution, nc) -> CheckRecord:
    n = _copy_count(nc)
    q = extremal_density(d, n).q
    worst = max(float(np.max(q)) - n, float(-np.min(q)))
    return _record(
        "envelope-bound", worst, 1e-12, f"n={n} atoms={d.atom_count}"
    )


_FAMILY_SEGMENTS = 4  # level segments of a random feasible family
_PAIRED_MAX_SCENARIOS = 300  # most scenarios in a random pair


def _random_feasible_family(
    d: EmpiricalDistribution, gen: np.random.Generator
) -> CvarFeasibleFamily:
    """A random piecewise-constant feasible family: each segment density is a
    raw positive draw normalized to unit mean, then shrunk toward the
    always-feasible constant 1 until its segment-wide CVaR bound holds."""
    cuts = np.sort(gen.uniform(0.05, 0.95, size=_FAMILY_SEGMENTS - 1))
    bounds = np.concatenate(([0.0], cuts, [1.0]))
    densities = []
    for lo in bounds[:-1]:
        raw = gen.uniform(0.0, 2.0, size=d.atom_count) + 1e-3
        q = raw / _sum(raw * d.probs)
        cap = 1.0 / (1.0 - lo)  # pointwise bound over the whole segment
        over = q > cap
        gamma = 1.0
        if over.any():
            gamma = float(np.min((cap - 1.0) / (q[over] - 1.0)))
        densities.append(1.0 + 0.999 * gamma * (q - 1.0))
    return CvarFeasibleFamily.from_constant_densities(bounds, densities)


def _check_duality_weak(
    d: EmpiricalDistribution, nc, gen: np.random.Generator
) -> CheckRecord:
    n = _copy_count(nc)
    fam = _random_feasible_family(d, gen)
    q = mixture_density(d, n, fam)
    gap = dual_gap(d, n, q)
    return _record(
        "duality-weak-random-family", -gap, 1e-9, f"n={n} atoms={d.atom_count}"
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


def random_paired(gen: np.random.Generator) -> PairedScenarios:
    k = int(gen.integers(1, _PAIRED_MAX_SCENARIOS + 1))
    x = gen.uniform(-100.0, 100.0, size=k)
    y = gen.uniform(-100.0, 100.0, size=k)
    return PairedScenarios.from_weights(x, y, gen.uniform(0.05, 1.0, size=k))


def run_suite(seed: int, trials: int) -> VerificationReport:
    """Run every check on ``trials`` randomized instances.

    Deterministic per seed: trial t draws all of its data from stream t+1 of
    the seed, and records aggregate the worst signed violation per check
    name. Byte-identical reports for identical (seed, trials).
    """
    trials = int(trials)
    if trials < 1:
        raise BudgetTooSmall("need at least 1 trial")
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

        consider(check_constant(n, c))
        consider(check_subadditivity(pair, n))
        mono = PairedScenarios(
            pair.x, pair.x + np.abs(pair.y) * 0.1, pair.probs
        )
        consider(check_monotonicity(mono, n))
        consider(check_positive_homogeneity(d, n, lam))
        consider(check_translation(d, n, c))
        averse_d = d if d.atom_count >= 2 else random_distribution(gen, 50, min_atoms=2)
        consider(check_averseness(averse_d, n))
        near = PairedScenarios(
            pair.x, pair.x + gen.uniform(-0.5, 0.5, size=len(pair.x)), pair.probs
        )
        consider(check_l2_continuity(near, n))
        consider(_check_convexity(pair, n))
        consider(_check_abs_bound(d, n))
        consider(_check_n_monotone(d, n))
        consider(_check_route_mixture(d, n))
        consider(_check_route_spectral(d, n))
        consider(_check_cvar_routes(d, alpha))
        consider(_check_cvar_dominance(d, alpha))
        consider(_check_beta_star(d, alpha))
        consider(_check_duality_strong(d, n))
        consider(_check_core_tightness(d, n))
        consider(_check_envelope_bound(d, n))
        consider(_check_duality_weak(d, n, gen))

    checks = tuple(worst[name] for name in sorted(worst))
    return VerificationReport(seed=int(seed), trials=trials, checks=checks)
