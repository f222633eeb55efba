"""Dual risk envelope of maxvar on finite laws.

maxvar_n(X) = sup E(XQ) over the envelope: mixtures integral of Q_a w_n(a) da
of per-level CVaR-feasible densities (0 <= Q_a <= 1/(1-a), E(Q_a) = 1). On a
finite law every envelope element we need is such a mixture, and membership
reduces to finitely many inequalities: E(Q 1_A) <= h(P(A)) over the
upper-level sets of Q, plus E(Q) = 1. The difference E(Q 1_A) - h(P(A)) is
convex along the greedy (descending-q) filling order, so it is maximized on
those sets; checking them is therefore sufficient, not just necessary.

The per-level extremal CVaR density is affine in 1/(1-a) on each segment
between cumulative-probability breakpoints, so family members are stored as
Q_a = flat + tail/(1-a); piecewise-constant families are the tail = 0 case.
Every weight integral uses the closed-form antiderivatives, no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import EmpiricalDistribution, _check_probs, _sum
from .errors import (
    DimensionMismatch,
    InfeasibleFamily,
    InfeasiblePart,
    NotInEnvelope,
    OutOfRange,
)
from .measures import (
    RiskLevel,
    _alpha_value,
    _copy_count,
    _layers,
    _var_index,
    _weight_cdf_arr,
    _weight_over_tail_arr,
    cvar_min,
    maxvar_choquet,
)

_FEAS_TOL = 1e-12
_CORE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EnvelopeDensity:
    """A nonnegative density on the atoms of an associated distribution.

    Construction only enforces shape, finiteness, and nonnegativity (tiny
    negative rounding residue up to 1e-12 is snapped to zero); unit mean and
    the envelope bound are checked against a distribution by the operations
    that have one.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or len(q) == 0:
            raise DimensionMismatch("q must be a nonempty 1-d array")
        if not np.all(np.isfinite(q)):
            raise OutOfRange("density entries must be finite")
        if np.any(q < -_FEAS_TOL):
            raise OutOfRange(f"density entries must be >= 0, min is {q.min()!r}")
        q = np.maximum(q, 0.0)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class FamilySegment:
    """One level segment [lo, hi) carrying Q_a = flat + tail/(1-a)."""

    lo: float
    hi: float
    flat: np.ndarray
    tail: np.ndarray


class CvarFeasibleFamily:
    """A family of per-level densities, piecewise affine in 1/(1-a) over a
    breakpoint partition of [0, 1)."""

    def __init__(self, segments: tuple[FamilySegment, ...]):
        self.segments = tuple(segments)

    @classmethod
    def from_constant_densities(cls, breakpoints, densities) -> "CvarFeasibleFamily":
        """Piecewise-constant family: ``breakpoints`` are the partition
        boundaries 0 = a_0 < ... < a_M = 1 and ``densities`` holds one
        density per segment."""
        bounds = np.asarray(breakpoints, dtype=float)
        if len(bounds) < 2 or len(densities) != len(bounds) - 1:
            raise InfeasibleFamily("need M+1 breakpoints for M segment densities")
        segments = []
        for i, dens in enumerate(densities):
            flat = np.asarray(dens.q if isinstance(dens, EnvelopeDensity) else dens, float)
            segments.append(
                FamilySegment(
                    lo=float(bounds[i]),
                    hi=float(bounds[i + 1]),
                    flat=flat,
                    tail=np.zeros_like(flat),
                )
            )
        return cls(tuple(segments))

    @classmethod
    def cvar_extremal(cls, d: EmpiricalDistribution) -> "CvarFeasibleFamily":
        """The family whose level-a member is the extremal CVaR density of
        ``d``: mass 1/(1-a) on the strict tail of beta*, remainder on the
        beta* atom. Breakpoints sit at the cumulative probabilities of ``d``,
        where beta* changes."""
        cum = d.cumulative
        bounds = np.concatenate(([0.0], cum))
        segments = []
        m = d.atom_count
        for k in range(m):
            lo, hi = float(bounds[k]), float(bounds[k + 1])
            if hi <= lo:
                continue  # zero-width stratum from a clipped tie
            flat = np.zeros(m)
            tail = np.zeros(m)
            flat[k] = 1.0 / d.probs[k]
            tail[k] = -d.survival[k] / d.probs[k]
            tail[k + 1 :] = 1.0
            segments.append(FamilySegment(lo=lo, hi=hi, flat=flat, tail=tail))
        return cls(tuple(segments))


def _validate_family(d: EmpiricalDistribution, fam: CvarFeasibleFamily) -> None:
    if not fam.segments:
        raise InfeasibleFamily("family has no segments")
    m = d.atom_count
    expect_lo = 0.0
    for seg in fam.segments:
        if len(seg.flat) != m or len(seg.tail) != m:
            raise DimensionMismatch(
                f"segment density has {len(seg.flat)} entries, distribution has {m} atoms"
            )
        if seg.lo != expect_lo:
            raise InfeasibleFamily(f"segments must partition [0, 1); gap at {expect_lo!r}")
        if not seg.hi > seg.lo:
            raise InfeasibleFamily("segment bounds must be increasing")
        # Q_a(1-a) = flat(1-a) + tail is linear in a, so the pointwise bounds
        # 0 <= Q_a <= 1/(1-a) over the whole segment reduce to its endpoints.
        for a in (seg.lo, seg.hi):
            scaled = seg.flat * (1.0 - a) + seg.tail
            if np.any(scaled < -_FEAS_TOL):
                raise InfeasibleFamily(
                    f"segment [{seg.lo}, {seg.hi}) density goes negative at level {a}"
                )
            if np.any(scaled > 1.0 + _FEAS_TOL):
                raise InfeasibleFamily(
                    f"segment [{seg.lo}, {seg.hi}) exceeds the CVaR bound at level {a}"
                )
        if abs(_sum(seg.flat * d.probs) - 1.0) > _FEAS_TOL:
            raise InfeasibleFamily(f"segment [{seg.lo}, {seg.hi}) mean is not 1")
        if abs(_sum(seg.tail * d.probs)) > _FEAS_TOL:
            raise InfeasibleFamily(
                f"segment [{seg.lo}, {seg.hi}) tail component has nonzero mean"
            )
        expect_lo = seg.hi
    if expect_lo != 1.0:
        raise InfeasibleFamily(f"segments must end at 1, last ends at {expect_lo!r}")


def extremal_density(d: EmpiricalDistribution, nc) -> EnvelopeDensity:
    """The envelope element attaining sup E(XQ): q_k = (F_k^n - F_{k-1}^n)/p_k."""
    n = _copy_count(nc)
    if n == 1:
        # the n = 1 envelope is the expectation dual: exactly the constant 1
        return EnvelopeDensity(np.ones(d.atom_count))
    return EnvelopeDensity(_layers(d, n) / d.probs)


def cvar_extremal_density(d: EmpiricalDistribution, a) -> EnvelopeDensity:
    """The density attaining E(XQ) = CVaR_a(X): 1/(1-a) on the strict tail of
    beta*, the remaining mass on the beta* atom."""
    alpha = _alpha_value(a)
    k = _var_index(d, alpha)
    spread = 1.0 - alpha
    q = np.zeros(d.atom_count)
    q[k + 1 :] = 1.0 / spread
    q[k] = (1.0 - d.survival[k] / spread) / d.probs[k]
    return EnvelopeDensity(q)


@dataclass(frozen=True)
class CoreCheckReport:
    """Outcome of the envelope membership test for one density.

    ``max_violation`` is the largest signed excess E(Q 1_A) - h(P(A)) over
    the upper-level sets of Q; ``max_equality_gap`` is the largest absolute
    deviation from equality over the same sets (zero up to rounding when the
    density is extremal, where every upper-level set is tight).
    """

    max_violation: float
    mean_gap: float
    max_equality_gap: float
    tight_sets: tuple[tuple[float, ...], ...]
    tolerance: float
    passed: bool


def _upper_set_violations(
    d: EmpiricalDistribution, n: int, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed violations E(Q 1_A) - h(P(A)) over the upper-level sets of q,
    plus the descending-q atom order and each set's prefix-end index."""
    order = np.argsort(-q, kind="stable")
    sorted_q = q[order]
    mass = np.minimum(np.cumsum(d.probs[order]), 1.0)
    charge = np.cumsum(sorted_q * d.probs[order])
    ends = np.nonzero(np.append(sorted_q[:-1] > sorted_q[1:], True))[0]
    violations = charge[ends] - (1.0 - (1.0 - mass[ends]) ** n)
    return violations, order, ends


def core_check(
    d: EmpiricalDistribution,
    nc,
    e: EnvelopeDensity,
    collect_sets: bool = True,
) -> CoreCheckReport:
    """Membership test against the distortion capacity h(P(.)).

    Verifies E(Q 1_A) <= h(P(A)) + 1e-9 on every upper-level set
    A = {Q >= threshold} (thresholds at distinct q values; tied atoms enter
    together) and E(Q) = 1 +- 1e-9. Reports the largest signed violation and
    the sets where equality holds within 1e-9; pass ``collect_sets=False`` to
    skip materializing the tight sets on large distributions.
    """
    n = _copy_count(nc)
    q = e.q
    if len(q) != d.atom_count:
        raise DimensionMismatch(
            f"density has {len(q)} entries, distribution has {d.atom_count} atoms"
        )
    violations, order, ends = _upper_set_violations(d, n, q)
    tight: list[tuple[float, ...]] = []
    if collect_sets:
        for j in ends[np.abs(violations) <= _CORE_TOL]:
            members = np.sort(d.values[order[: j + 1]])
            tight.append(tuple(members.tolist()))
    mean_gap = _sum(q * d.probs) - 1.0
    max_violation = float(np.max(violations))
    passed = max_violation <= _CORE_TOL and abs(mean_gap) <= _CORE_TOL
    return CoreCheckReport(
        max_violation=max_violation,
        mean_gap=mean_gap,
        max_equality_gap=float(np.max(np.abs(violations))),
        tight_sets=tuple(tight),
        tolerance=_CORE_TOL,
        passed=passed,
    )


def mixture_density(
    d: EmpiricalDistribution, nc, fam: CvarFeasibleFamily
) -> EnvelopeDensity:
    """Integrate a feasible family against w_n: q = sum over segments of
    flat * dW + tail * dV, with dW, dV the closed-form weight integrals.

    For n = 1 the mixture degenerates to a point mass at level 0, so the
    result is the first segment evaluated there.
    """
    n = _copy_count(nc)
    _validate_family(d, fam)
    first = fam.segments[0]
    if n == 1:
        return EnvelopeDensity(first.flat + first.tail)
    q = np.zeros(d.atom_count)
    for seg in fam.segments:
        bounds = np.array([seg.lo, seg.hi])
        d_w = float(np.diff(_weight_cdf_arr(n, bounds))[0])
        d_v = float(np.diff(_weight_over_tail_arr(n, bounds))[0])
        q += seg.flat * d_w + seg.tail * d_v
    return EnvelopeDensity(q)


@dataclass(frozen=True)
class DiscreteMixtureSpec:
    """Levels (lambda_i, alpha_i) of a finite CVaR mixture; lambda_i > 0
    summing to 1, 0 <= alpha_i < 1."""

    levels: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        levels = tuple((float(lam), RiskLevel(alpha).alpha) for lam, alpha in self.levels)
        _check_probs([lam for lam, _ in levels], what="mixture weights")
        object.__setattr__(self, "levels", levels)


def discrete_envelope_check(
    d: EmpiricalDistribution, spec: DiscreteMixtureSpec, parts
) -> EnvelopeDensity:
    """Combine per-level feasible densities into sum of lambda_i Q_i and
    verify the finite-mixture duality bound
    E(X sum lambda_i Q_i) <= sum lambda_i CVaR_{alpha_i}(X) + 1e-9,
    with equality when every part is the per-level extremal density."""
    parts = list(parts)
    if len(parts) != len(spec.levels):
        raise InfeasiblePart(
            f"{len(spec.levels)} levels but {len(parts)} part densities"
        )
    combined = np.zeros(d.atom_count)
    bound_terms = []
    for (lam, alpha), part in zip(spec.levels, parts):
        q = part.q if isinstance(part, EnvelopeDensity) else np.asarray(part, float)
        if len(q) != d.atom_count:
            raise DimensionMismatch(
                f"part density has {len(q)} entries, distribution has {d.atom_count} atoms"
            )
        if np.any(q < -_FEAS_TOL) or np.any(q > 1.0 / (1.0 - alpha) + _FEAS_TOL):
            raise InfeasiblePart(f"part at level {alpha} violates 0 <= Q <= 1/(1-alpha)")
        if abs(_sum(q * d.probs) - 1.0) > _FEAS_TOL:
            raise InfeasiblePart(f"part at level {alpha} does not have unit mean")
        combined += lam * q
        bound_terms.append(lam * cvar_min(d, alpha).value)
    attained = _sum(d.values * combined * d.probs)
    bound = _sum(bound_terms)
    if attained > bound + 1e-9:
        raise NotInEnvelope(
            f"mixture density attains {attained!r} above its CVaR bound {bound!r}"
        )
    return EnvelopeDensity(combined)


def dual_gap(d: EmpiricalDistribution, nc, e: EnvelopeDensity) -> float:
    """maxvar_n(X) - E(XQ) for an envelope member; >= 0 up to rounding and
    zero for the extremal density. Raises NotInEnvelope when the membership
    check fails."""
    n = _copy_count(nc)
    report = core_check(d, n, e, collect_sets=False)
    if not report.passed:
        raise NotInEnvelope(
            f"density fails membership: max violation {report.max_violation!r}, "
            f"mean gap {report.mean_gap!r}"
        )
    return maxvar_choquet(d, n) - _sum(d.values * e.q * d.probs)
