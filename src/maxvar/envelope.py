"""Dual risk envelope of maxvar on finite laws.

maxvar_n(X) = sup E(XQ) over the envelope: mixtures integral of Q_a w_n(a) da
of per-level CVaR-feasible densities (0 <= Q_a <= 1/(1-a), E(Q_a) = 1). On a
finite law every envelope element we need is such a mixture, and membership
reduces to finitely many inequalities: E(Q 1_A) <= h(P(A)) over the
upper-level sets of Q, plus E(Q) = 1. The difference E(Q 1_A) - h(P(A)) is
convex along the greedy (descending-q) filling order, so it is maximized on
those sets; checking them is therefore sufficient, not just necessary.

The per-level extremal CVaR density is affine in 1/(1-a) on each segment
between cumulative-probability breakpoints, so a family is stored as arrays:
segment bounds plus one row of flat and one of tail per segment, with
Q_a = flat + tail/(1-a); piecewise-constant families are the tail = 0 case.
Every weight integral uses the closed-form antiderivatives, no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import EmpiricalDistribution, _check_probs, _row_sums, _sum
from .errors import (
    DimensionMismatch,
    InfeasibleFamily,
    InfeasiblePart,
    NotInEnvelope,
    OutOfRange,
)
from .measures import (
    CopyCount,
    RiskLevel,
    _alpha_value,
    _copy_count,
    _var_index,
    cvar_min,
    maxvar_choquet,
)

_FEAS_TOL = 1e-12
_CORE_TOL = 1e-9
# Atoms per chunk of core_check's sweep over the upper-level sets. Its
# buffers of this many floats stay in cache and are reused from the heap,
# where full-length temporaries on a large law were mapped afresh and
# page-faulted in on every call.
_SWEEP_CHUNK = 1 << 13


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


@dataclass(frozen=True, eq=False)
class CvarFeasibleFamily:
    """A family of per-level densities, piecewise affine in 1/(1-a) over the
    partition 0 = bounds[0] < ... < bounds[M] = 1 of [0, 1): for a in
    [bounds[i], bounds[i+1]) the member is Q_a = flat[i] + tail[i]/(1-a).

    ``bounds`` is a float array of length M+1; ``flat`` and ``tail`` are
    M x m float arrays, one row per segment and one column per atom. The
    family keeps read-only copies, each in its given memory order. Feasibility
    is checked against a distribution by :func:`mixture_density`.
    """

    bounds: np.ndarray
    flat: np.ndarray
    tail: np.ndarray

    def __post_init__(self) -> None:
        for name in ("bounds", "flat", "tail"):
            arr = np.array(getattr(self, name), dtype=float, order="K")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_constant_densities(cls, breakpoints, densities) -> "CvarFeasibleFamily":
        """Piecewise-constant family: ``breakpoints`` are the partition
        boundaries 0 = a_0 < ... < a_M = 1 and ``densities`` holds one
        density per segment."""
        bounds = np.asarray(breakpoints, dtype=float)
        if len(bounds) < 2 or len(densities) != len(bounds) - 1:
            raise InfeasibleFamily("need M+1 breakpoints for M segment densities")
        rows = [
            np.asarray(dens.q if isinstance(dens, EnvelopeDensity) else dens, float)
            for dens in densities
        ]
        if len({row.shape for row in rows}) != 1:
            raise DimensionMismatch("segment densities must all have the same length")
        flat = np.stack(rows)
        return cls(bounds, flat, np.zeros_like(flat))

    @classmethod
    def cvar_extremal(cls, d: EmpiricalDistribution) -> "CvarFeasibleFamily":
        """The family whose level-a member is the extremal CVaR density of
        ``d``: mass 1/(1-a) on the strict tail of beta*, remainder on the
        beta* atom. Breakpoints sit at the cumulative probabilities of ``d``,
        where beta* changes; a zero-width stratum from a clipped tie has no
        segment. Segment i with beta* at atom k has flat = 1/p_k at k and
        tail = -S_k/p_k at k, 1 above k."""
        cum = d.cumulative
        k = np.flatnonzero(cum > np.concatenate(([0.0], cum[:-1])))
        rows = np.arange(len(k))
        flat = np.zeros((len(k), d.atom_count))
        flat[rows, k] = 1.0 / d.probs[k]
        tail = (np.arange(d.atom_count) > k[:, None]).astype(float)
        tail[rows, k] = -d.survival[k] / d.probs[k]
        return cls(np.concatenate(([0.0], cum[k])), flat, tail)


def _validate_family(d: EmpiricalDistribution, fam: CvarFeasibleFamily) -> None:
    """Raise the first way ``fam`` fails to be a feasible family on ``d``:
    its shape, its first bound, then each segment in order, with the checks
    of :func:`_raise_first_failure` in their order, then its last bound.

    The segments are checked in blocks of ``max(1, _SWEEP_CHUNK // m)``
    rows for m atoms, so the dense O(m^2) ``cvar_extremal`` family takes
    temporaries of one block, never of the whole family. Every check runs
    on finite entries only, so no warning is emitted.
    """
    shape = (len(fam.bounds) - 1, d.atom_count)
    if np.shape(fam.flat) != shape or np.shape(fam.tail) != shape:
        raise DimensionMismatch(
            f"flat and tail are {np.shape(fam.flat)} and {np.shape(fam.tail)}, "
            f"need (segments, atoms) = {shape}"
        )
    if fam.bounds[0] != 0.0:
        raise InfeasibleFamily(
            f"segments must partition [0, 1); first starts at {float(fam.bounds[0])!r}"
        )
    block = max(1, _SWEEP_CHUNK // shape[1])
    for start in range(0, shape[0], block):
        _raise_first_failure(d, fam, start, min(start + block, shape[0]))
    if fam.bounds[-1] != 1.0:
        raise InfeasibleFamily(f"segments must end at 1, last ends at {float(fam.bounds[-1])!r}")


# Every finite float is an integer multiple of 2**-1074.
_ULP_SCALE = 1 << 1074


def _row_means(terms: np.ndarray) -> np.ndarray:
    """The exact sum of each row of the finite 2-d array ``terms``, rounded
    once: ``_row_sums``, whose rows have ``math.fsum``'s bits. Should a
    row's fsum raise on partial sums past the float range, every row is
    summed again on its own, and each row whose fsum raises takes its exact
    sum as an integer count of 2**-1074, divided back with one correct
    rounding, or +-inf past the float range. Where fsum returns, the exact
    sum rounds to its result, so every row keeps fsum's bits."""
    try:
        return _row_sums(terms)
    except OverflowError:
        pass
    sums = []
    for row in terms.tolist():
        try:
            sums.append(math.fsum(row))
        except OverflowError:
            units = sum(num * (_ULP_SCALE // den) for num, den in map(float.as_integer_ratio, row))
            try:
                sums.append(units / _ULP_SCALE)  # int / int rounds correctly
            except OverflowError:
                sums.append(math.inf if units > 0 else -math.inf)
    return np.array(sums)


def _raise_first_failure(
    d: EmpiricalDistribution, fam: CvarFeasibleFamily, start: int, stop: int
) -> None:
    """Raise ``InfeasibleFamily`` for the first of the segments ``start`` to
    ``stop`` that is not feasible on ``d``, with the first check it fails, in
    this order: an entry of flat or tail that is not finite; bounds that do
    not increase; the density negative, then above its CVaR bound, at the
    segment's lo, then the same at its hi; a mean other than 1; a tail with
    a nonzero mean. The rows of a check are computed for all these segments
    at once, up to the first with an entry that is not finite, which fails
    there; a segment's means are summed only when its bounds hold, and its
    tail's only when its mean is 1 and the tail is not all zero.

    A mean is the exact sum of a row's products with the probabilities,
    rounded once (:func:`_row_means`): ``math.fsum``'s result, or where
    fsum's partial sums overflow on entries near the float range, the exact
    sum's rounding, infinite past the range, which fails."""
    flat, tail = fam.flat[start:stop], fam.tail[start:stop]
    failed = np.zeros((8, stop - start), dtype=bool)  # per check, per segment
    np.logical_not(np.isfinite(flat).all(axis=1) & np.isfinite(tail).all(axis=1), out=failed[0])
    # the other checks stop short of the first segment with an entry that is
    # not finite, which fails there: no inf - inf or nan is ever formed
    count = int(failed[0].argmax()) if failed[0].any() else stop - start
    lo, hi = fam.bounds[start : start + count], fam.bounds[start + 1 : start + count + 1]
    flat, tail = flat[:count], tail[:count]
    failed[1, :count] = ~(hi > lo)
    # Q_a(1-a) = flat(1-a) + tail is linear in a, so the pointwise bounds
    # 0 <= Q_a <= 1/(1-a) over the whole segment reduce to its endpoints.
    for check, a in ((2, lo), (4, hi)):
        scaled = flat * (1.0 - a)[:, None]
        with np.errstate(over="ignore"):  # an overflow is past a bound either way
            scaled += tail
        np.any(scaled < -_FEAS_TOL, axis=1, out=failed[check, :count])
        np.any(scaled > 1.0 + _FEAS_TOL, axis=1, out=failed[check + 1, :count])
    bounded = failed[:6].any(axis=0)
    summed = int(bounded.argmax()) if bounded.any() else stop - start
    means = _row_means(flat[:summed] * d.probs)
    failed[6, :summed] = np.abs(means - 1.0) > _FEAS_TOL
    # an all-zero tail has mean exactly 0: skip its sum, which the exact
    # sum's certificate would refuse and hand to math.fsum
    tails = np.flatnonzero(tail[:summed].any(axis=1) & ~failed[6, :summed])
    if tails.size:
        failed[7, tails] = np.abs(_row_means(tail[tails] * d.probs)) > _FEAS_TOL
    if not failed.any():
        return
    segment = int(failed.any(axis=0).argmax())
    lo, hi = (float(b) for b in fam.bounds[start + segment : start + segment + 2])
    messages = (
        f"segment [{lo}, {hi}) has an entry that is not finite",
        "segment bounds must be increasing",
        f"segment [{lo}, {hi}) density goes negative at level {lo}",
        f"segment [{lo}, {hi}) exceeds the CVaR bound at level {lo}",
        f"segment [{lo}, {hi}) density goes negative at level {hi}",
        f"segment [{lo}, {hi}) exceeds the CVaR bound at level {hi}",
        f"segment [{lo}, {hi}) mean is not 1",
        f"segment [{lo}, {hi}) tail component has nonzero mean",
    )
    raise InfeasibleFamily(messages[int(failed[:, segment].argmax())])


def extremal_density(d: EmpiricalDistribution, nc) -> EnvelopeDensity:
    """The envelope element attaining sup E(XQ): q_k = (F_k^n - F_{k-1}^n)/p_k,
    with the layers that ``maxvar_choquet`` reads from the law's slot."""
    cc = _copy_count(nc)
    if cc.n == 1:
        # the n = 1 envelope is the expectation dual: exactly the constant 1
        return EnvelopeDensity(np.ones(d.atom_count))
    return EnvelopeDensity(d._layers(cc) / d.probs)


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
    ``tight_sets`` lists the sets where equality holds, smallest first, each
    as its atom values in entry order (descending q, ties in ascending value).
    """

    max_violation: float
    mean_gap: float
    max_equality_gap: float
    tight_sets: tuple[tuple[float, ...], ...]
    tolerance: float
    passed: bool


def _strictly_increasing(q: np.ndarray) -> bool:
    # q[i] < q[i + 1] for every i, one chunk of comparisons at a time
    below, above = q[:-1], q[1:]
    return all(
        np.less(below[s : s + _SWEEP_CHUNK], above[s : s + _SWEEP_CHUNK]).all()
        for s in range(0, len(below), _SWEEP_CHUNK)
    )


def _carried_cumsum(buf: np.ndarray, carry) -> np.ndarray:
    # np.cumsum of the whole sequence, continued from the total of the entries
    # before this chunk (None for the first chunk): cumsum adds in sequence,
    # so a chunk whose first entry takes that total first has the bits of the
    # full-length cumsum
    if carry is not None:
        buf[0] += carry
    return np.cumsum(buf, out=buf)


def _upper_set_sweep(
    d: EmpiricalDistribution, cc: CopyCount, q: np.ndarray, collect_sets: bool
) -> tuple[float, float, list[int], np.ndarray | None]:
    """The upper-level sets of q in descending-q order, one chunk at a time:
    the largest signed violation E(Q 1_A) - h(P(A)), the largest |violation|,
    the prefix-end index of each tight set (only with ``collect_sets``), and
    the descending-q atom order, or None when q is strictly increasing and
    that order is the reversed index."""
    m = len(q)
    if _strictly_increasing(q):
        order = None
        desc_q, desc_p = q[::-1], d.probs[::-1]
    else:
        order = np.argsort(-q, kind="stable")
    size = min(m, _SWEEP_CHUNK)
    mass_buf, charge_buf = np.empty(size), np.empty(size)
    mass_total = charge_total = None
    worst = widest = -math.inf
    tight = []
    for start in range(0, m, _SWEEP_CHUNK):
        stop = min(start + _SWEEP_CHUNK, m)
        # one entry past the chunk tells whether the chunk's last atom ends a set
        ahead = min(stop + 1, m)
        if order is None:
            chunk_q, chunk_p = desc_q[start:ahead], desc_p[start:stop]
        else:
            chunk_q, chunk_p = q[order[start:ahead]], d.probs[order[start:stop]]
        mass, charge = mass_buf[: stop - start], charge_buf[: stop - start]
        np.copyto(mass, chunk_p)
        np.multiply(chunk_q[: stop - start], chunk_p, out=charge)
        mass_total = _carried_cumsum(mass, mass_total)[-1]
        charge_total = _carried_cumsum(charge, charge_total)[-1]
        if order is not None:  # tied atoms enter together: a set ends where q drops
            drops = chunk_q[:-1] > chunk_q[1:]
            ends = np.flatnonzero(drops if ahead > stop else np.append(drops, True))
            if not ends.size:  # one tie runs through the chunk
                continue
            mass, charge = mass[ends], charge[ends]
        violations = charge
        violations -= cc.h(np.minimum(mass, 1.0, out=mass))
        gaps = np.abs(violations)
        worst = max(worst, float(violations.max()))
        widest = max(widest, float(gaps.max()))
        if collect_sets:
            at = np.flatnonzero(gaps <= _CORE_TOL)
            tight.extend((start + (at if order is None else ends[at])).tolist())
    return worst, widest, tight, order


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
    the sets where equality holds within 1e-9, each a prefix of one tuple of
    the atom values in entry order (descending q, ties in ascending value):
    O(m^2) references to m floats when all m sets are tight, as for the
    extremal density. Pass ``collect_sets=False`` on large laws to skip them.

    One sweep visits the sets in entry order, ``_SWEEP_CHUNK`` atoms at a
    time. Each chunk's prefix sums of mass and charge continue from the
    previous chunk's totals, so they have the bits of one full-length
    ``np.cumsum``, and each chunk is reduced to its largest violation, its
    largest |violation| and its tight ends before the next. When q is
    strictly increasing in atom index, as the extremal density's is on laws
    without dust, an O(m) test finds the entry order to be the reversed
    index and nothing is sorted; any other q, ties included, takes a stable
    argsort of -q. Beyond that order, the mean's product ``q * probs`` and
    the tight sets, a call allocates O(chunk) memory.
    """
    cc = _copy_count(nc)
    q = e.q
    if len(q) != d.atom_count:
        raise DimensionMismatch(
            f"density has {len(q)} entries, distribution has {d.atom_count} atoms"
        )
    max_violation, max_gap, tight_ends, order = _upper_set_sweep(d, cc, q, collect_sets)
    tight = ()
    if collect_sets:  # set j is the first j + 1 atoms to enter: a prefix of one tuple
        entered = tuple((d.values[::-1] if order is None else d.values[order]).tolist())
        tight = tuple(entered[: j + 1] for j in tight_ends)
    mean_gap = _sum(q * d.probs) - 1.0
    passed = max_violation <= _CORE_TOL and abs(mean_gap) <= _CORE_TOL
    return CoreCheckReport(
        max_violation=max_violation,
        mean_gap=mean_gap,
        max_equality_gap=max_gap,
        tight_sets=tight,
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
    cc = _copy_count(nc)
    _validate_family(d, fam)
    if cc.n == 1:
        return EnvelopeDensity(fam.flat[0] + fam.tail[0])
    d_w, d_v = (np.diff(x)[:, None] for x in cc.weight_cdfs(fam.bounds))
    terms = fam.flat * d_w
    terms += fam.tail * d_v
    # accumulate adds the rows one at a time in partition order, whatever the
    # memory layout; the leading 0.0 + turns a -0.0 total into +0.0
    return EnvelopeDensity(0.0 + np.add.accumulate(terms, axis=0, out=terms)[-1])


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
    attained = _attained(d, combined)
    bound = _sum(bound_terms)
    if attained > bound + 1e-9:
        raise NotInEnvelope(
            f"mixture density attains {attained!r} above its CVaR bound {bound!r}"
        )
    return EnvelopeDensity(combined)


def _attained(d: EmpiricalDistribution, q: np.ndarray) -> float:
    """E(XQ) for a density of unit mean: terms (v q) p, or v (q p) if a v q
    overflows (q p <= 1, so no term then exceeds the largest |v|)."""
    with np.errstate(over="ignore"):
        terms = d.values * q
    return _sum(terms * d.probs if np.isfinite(terms).all() else d.values * (q * d.probs))


def _member_gap(
    d: EmpiricalDistribution, cc: CopyCount, e: EnvelopeDensity, value=None
) -> tuple[CoreCheckReport, float]:
    """:func:`dual_gap` with its membership report: core_check first, then
    NotInEnvelope on a failure, then maxvar_n(X) - E(XQ), where maxvar_n(X)
    is ``value`` when the caller has it and is computed only past the check
    otherwise."""
    report = core_check(d, cc, e, collect_sets=False)
    if not report.passed:
        raise NotInEnvelope(
            f"density fails membership: max violation {report.max_violation!r}, "
            f"mean gap {report.mean_gap!r}"
        )
    if value is None:
        value = maxvar_choquet(d, cc)
    return report, value - _attained(d, e.q)


def dual_gap(d: EmpiricalDistribution, nc, e: EnvelopeDensity) -> float:
    """maxvar_n(X) - E(XQ) for an envelope member; >= 0 up to rounding and
    zero for the extremal density. Raises NotInEnvelope when the membership
    check fails."""
    return _member_gap(d, _copy_count(nc), e)[1]
