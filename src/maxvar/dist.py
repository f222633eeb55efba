"""Finite empirical distributions: exact CDF/quantile/expectation machinery,
deterministic inverse-CDF sampling, and the laws of portfolios of positions
on common scenarios.

All laws are finite collections of atoms. Atom values are strictly increasing
(duplicates merged by exact bit equality at construction) and probabilities
are positive, normalized by their correctly rounded sum (via :func:`_sum`).
A :class:`ScenarioTable` holds several positions on the same scenarios;
:func:`portfolio_law` is the one place a joint table becomes a law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AllZeroWeights,
    DimensionMismatch,
    EmptyInput,
    NegativeProb,
    NonFiniteValue,
    OutOfRange,
    ProbSumMismatch,
    UnknownColumn,
)

_MASK64 = (1 << 64) - 1

# Probabilities must renormalize to 1 within this tolerance.
PROB_SUM_TOL = 1e-12

# Below this many elements fsum is faster than the superaccumulator
# (crossover measured at about 550 elements for same-sign probabilities,
# earlier for terms spanning many binades).
_SUM_MIN_SIZE = 512
# Elements per bincount pass. Each scaled element splits into an integer
# part below 2**36 and a fraction in units of 2**-32, so the float64 bin
# sums of one chunk stay below 2**50 and are exact.
_SUM_CHUNK = 1 << 14
# The int64 bin totals stay below 2**63 up to this many elements.
_SUM_MAX_SIZE = 1 << 26
# Below this bound no partial sum of fewer than _SUM_MAX_SIZE elements can
# overflow, so fsum never raises on the inputs the superaccumulator takes.
_SUM_MAX_ABS = 2.0**960


def _sum(x) -> float:
    """Correctly rounded sum of ``x``, bit-identical to ``math.fsum(x)``.

    A 1-d float64 array of moderate size and magnitude is summed exactly in
    an integer superaccumulator (Neal, "Fast exact summation using small and
    large superaccumulators", 2015): write each finite element as
    ``m * 2**(e - 1075)`` with an integer significand ``m < 2**53`` and ``e``
    its biased exponent (1 for subnormals), bin it by ``e // 16``, and add
    the bins with ``np.bincount``. The exact integer total is then divided
    by ``2**1075``; CPython's int true division rounds correctly, subnormal
    results included. A shorter 1-d float64 array goes to ``math.fsum`` as a
    list: iterating the array would make one numpy scalar per element, and
    ``.tolist()`` gives the same floats about twice as fast (the list is
    never longer than ``_SUM_MIN_SIZE``). Everything else (non-arrays,
    non-finite or huge entries) goes to ``math.fsum`` as it is, which keeps
    its results and its errors on inf, nan and intermediate overflow.
    """
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64):
        return math.fsum(x)
    if x.size < _SUM_MIN_SIZE:
        return math.fsum(x.tolist())
    if not (x.size < _SUM_MAX_SIZE and x.max() < _SUM_MAX_ABS and x.min() > -_SUM_MAX_ABS):
        return math.fsum(x)
    # bins[k] holds the coefficient of 2**(16 k) in the total, in units of
    # 2**-1075. Bin q = e // 16 is bits 56..62 of the element; scaling by
    # 2**(1043 - 16 q) is exact and gives t = m * 2**(e - 16 q) / 2**32, so
    # trunc(t) counts units of 2**(16 q + 32) (bin q + 2) and the fraction,
    # times 2**32, units of 2**(16 q) (bin q).
    bins = np.zeros(130, dtype=np.int64)
    for start in range(0, x.size, _SUM_CHUNK):
        chunk = x[start : start + _SUM_CHUNK]
        q = (chunk.view(np.int64) >> 56) & 0x7F
        t = np.ldexp(chunk, (1043 - 16 * q).astype(np.int32))
        whole = np.trunc(t)
        t -= whole
        bins[2:] += np.bincount(q, whole, 128).astype(np.int64)
        bins[:128] += np.ldexp(np.bincount(q, t, 128), 32).astype(np.int64)
    total = sum(c << (16 * k) for k, c in enumerate(bins.tolist()) if c)
    return total / (1 << 1075)


def _check_probs(probs, tol: float = PROB_SUM_TOL, what: str = "probabilities") -> float:
    """Check that every entry is finite and > 0 and that the correctly
    rounded sum is within ``tol`` of 1; returns that sum."""
    probs = np.asarray(probs, dtype=float)
    if not np.isfinite(probs).all():
        raise NonFiniteValue(f"{what} must be finite")
    if np.any(probs <= 0.0):
        raise NegativeProb(f"{what} must be > 0")
    total = _sum(probs)
    if abs(total - 1.0) > tol:
        raise ProbSumMismatch(f"{what} sum to {total!r}, not 1")
    return total


def _integer(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an int, checked to be an int or numpy integer in ``lo..hi``;
    bools and floats (even 16.0) are rejected, never truncated."""
    if (
        isinstance(x, bool)
        or not isinstance(x, (int, np.integer))
        or (lo is not None and x < lo)
        or (hi is not None and x > hi)
    ):
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise OutOfRange(f"{what} must be an integer{bound}, got {x!r}")
    return int(x)


def _unit_interval(x, what: str) -> float:
    """``x`` as a float, checked to lie in [0, 1]."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"{what} must be in [0, 1], got {x!r}")
    return x


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """A finite law: sorted distinct atom values with positive probabilities.

    Immutable after construction; the backing arrays are read-only and safe
    to share across concurrent tasks. Prefer :func:`from_samples` over the
    raw constructor unless the data is already merged and normalized.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if values.ndim != 1 or probs.ndim != 1 or len(values) != len(probs):
            raise DimensionMismatch("values and probs must be 1-d arrays of equal length")
        if len(values) == 0:
            raise EmptyInput("a distribution needs at least one atom")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("atom values must be finite")
        _check_probs(probs, what="atom probabilities")
        if np.any(np.diff(values) <= 0.0):
            raise OutOfRange("atom values must be strictly increasing")
        values = values.copy()
        probs = probs.copy()
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def atom_count(self) -> int:
        return len(self.values)

    def is_constant(self) -> bool:
        return len(self.values) == 1

    @cached_property
    def cumulative(self) -> np.ndarray:
        """P(X <= v_k) per atom; the final entry is pinned to exactly 1.0."""
        cum = np.cumsum(self.probs)
        np.minimum(cum, 1.0, out=cum)
        cum[-1] = 1.0
        cum.setflags(write=False)
        return cum

    @cached_property
    def survival(self) -> np.ndarray:
        """P(X > v_k) per atom, accumulated from the top atom down.

        Suffix summation keeps small tail probabilities at full relative
        accuracy, which the tail-sensitive risk measures rely on.
        """
        suffix = np.cumsum(self.probs[::-1])[::-1]
        surv = np.append(suffix[1:], 0.0)
        surv.setflags(write=False)
        return surv

    @cached_property
    def upper_tails(self) -> np.ndarray:
        """E(X - v_k)_+ per atom, accumulated from the top atom down."""
        terms = np.diff(self.values) * self.survival[:-1]
        tails = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
        tails.setflags(write=False)
        return tails


@dataclass(frozen=True)
class CdfValue:
    """CDF evaluation at a threshold; ``le_prob + gt_prob == 1`` exactly."""

    at: float
    le_prob: float
    gt_prob: float


@dataclass(eq=False)
class SeededSampler:
    """Counter-based uniform stream: (seed, stream_id, draw index) fully
    determines every output on every platform.

    Draws are stateful; concurrent tasks must each own a distinct
    ``stream_id`` rather than share one sampler.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            _integer(getattr(self, name), name)
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms in [0, 1) from this stream."""
        return self._gen.random(_integer(count, "count", 0))

    def generator(self) -> np.random.Generator:
        """The underlying generator, for structured draws in test harnesses."""
        return self._gen


def from_samples(raw) -> EmpiricalDistribution:
    """Build a law from (value, weight) pairs.

    Duplicate values (exact bit equality) are merged by summing weights;
    zero-weight atoms are dropped; weights are normalized by their
    correctly rounded sum.
    """
    if isinstance(raw, np.ndarray):
        data = np.asarray(raw, dtype=float)
    else:
        data = np.asarray(list(raw), dtype=float)
    if data.size == 0:
        raise EmptyInput("no (value, weight) pairs given")
    if data.ndim != 2 or data.shape[1] != 2:
        raise DimensionMismatch("expected a sequence of (value, weight) pairs")
    values, weights = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(data)):
        raise NonFiniteValue("values and weights must be finite")
    if np.any(weights < 0.0):
        raise NegativeProb("weights must be >= 0")
    uniq, inverse = np.unique(values, return_inverse=True)
    merged = np.bincount(inverse, weights=weights, minlength=len(uniq))
    keep = merged > 0.0
    if not keep.any():
        raise AllZeroWeights("total weight is zero")
    uniq, merged = uniq[keep], merged[keep]
    total = _sum(merged)
    return EmpiricalDistribution(uniq, merged / total)


def cdf(d: EmpiricalDistribution, t: float) -> CdfValue:
    """Right-continuous CDF at ``t``: le_prob = sum of probs of atoms <= t."""
    t = float(t)
    if not math.isfinite(t):
        raise NonFiniteValue("threshold must be finite")
    idx = int(np.searchsorted(d.values, t, side="right"))
    le = 0.0 if idx == 0 else float(d.cumulative[idx - 1])
    return CdfValue(at=t, le_prob=le, gt_prob=1.0 - le)


def quantile(d: EmpiricalDistribution, u: float) -> float:
    """Left-continuous generalized inverse: smallest atom whose cumulative
    probability reaches ``u``; ``quantile(0)`` is the smallest atom."""
    u = _unit_interval(u, "quantile level")
    idx = int(np.searchsorted(d.cumulative, u, side="left"))
    return float(d.values[idx])


def expectation(d: EmpiricalDistribution) -> float:
    """E(X), correctly rounded sum via :func:`_sum`."""
    return _sum(d.values * d.probs)


def abs_expectation(d: EmpiricalDistribution) -> float:
    """E(|X|), correctly rounded sum via :func:`_sum`."""
    return _sum(np.abs(d.values) * d.probs)


def sample(d: EmpiricalDistribution, s: SeededSampler, count: int) -> np.ndarray:
    """``count`` i.i.d. draws via the inverse CDF on the sampler's stream."""
    u = s.uniforms(count)
    idx = np.searchsorted(d.cumulative, u, side="left")
    return d.values[idx]


def affine(d: EmpiricalDistribution, scale: float, shift: float) -> EmpiricalDistribution:
    """Law of ``scale * X + shift``; collapses to a single atom when scale is 0."""
    scale = float(scale)
    shift = float(shift)
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise NonFiniteValue("scale and shift must be finite")
    if scale == 0.0:
        return EmpiricalDistribution(np.array([shift]), np.array([1.0]))
    new_values = d.values * scale + shift
    # The map is strictly monotone, but rounding can collide neighbors;
    # re-merge so the invariants survive.
    uniq, inverse = np.unique(new_values, return_inverse=True)
    merged = np.bincount(inverse, weights=d.probs, minlength=len(uniq))
    return EmpiricalDistribution(uniq, merged)


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """Named columns of per-scenario outcomes with optional probabilities
    (equal weights when omitted): positions on common scenarios, so a
    portfolio of them has a joint law, not just marginals.

    Immutable after construction; the arrays are read-only copies.
    """

    columns: tuple[str, ...]
    rows: np.ndarray
    probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise OutOfRange(f"column names must be distinct, got {tuple(self.columns)!r}")
        rows = np.asarray(self.rows, dtype=float).copy()
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise DimensionMismatch("rows must be 2-d with one column per name")
        if rows.shape[0] == 0:
            raise EmptyInput("a table needs at least one scenario row")
        if not np.isfinite(rows).all():
            raise NonFiniteValue("scenario outcomes must be finite")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.probs is not None:
            probs = np.asarray(self.probs, dtype=float).copy()
            if probs.shape != (rows.shape[0],):
                raise DimensionMismatch("need one probability per scenario row")
            _check_probs(probs, what="scenario probabilities")
            probs.setflags(write=False)
            object.__setattr__(self, "probs", probs)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownColumn(f"no column named {name!r}")
        return self.rows[:, self.columns.index(name)]

    @property
    def scenario_probs(self) -> np.ndarray:
        if self.probs is not None:
            return self.probs
        count = self.rows.shape[0]
        return np.full(count, 1.0 / count)


@dataclass(frozen=True)
class PortfolioSpec:
    """Column weights defining the portfolio value per scenario."""

    weights: dict[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise EmptyInput("portfolio needs at least one column weight")
        clean = {str(k): float(v) for k, v in self.weights.items()}
        if not all(math.isfinite(w) for w in clean.values()):
            raise OutOfRange("portfolio weights must be finite")
        if not any(w != 0.0 for w in clean.values()):
            raise AllZeroWeights("portfolio weights are all zero")
        object.__setattr__(self, "weights", clean)


def portfolio_law(t: ScenarioTable, p: PortfolioSpec) -> EmpiricalDistribution:
    """Per scenario, value = sum of weight_c * outcome_c, added in the
    spec's column order from 0.0; then merge into a law."""
    combo = np.zeros(t.rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # from_samples rejects inf/nan
        for name, w in p.weights.items():
            combo = combo + w * t.column(name)
    return from_samples(np.column_stack([combo, t.scenario_probs]))
