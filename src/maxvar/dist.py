"""Finite empirical distributions: exact CDF/quantile/expectation machinery
plus deterministic inverse-CDF sampling.

All laws are finite collections of atoms. Atom values are strictly increasing
(duplicates merged by exact bit equality at construction) and probabilities
are positive, normalized by their compensated sum.
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
)

_MASK64 = (1 << 64) - 1

# Probabilities must renormalize to 1 within this tolerance.
PROB_SUM_TOL = 1e-12


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
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(probs)):
            raise NonFiniteValue("atom values and probabilities must be finite")
        if np.any(probs <= 0.0):
            raise NegativeProb("every atom probability must be > 0")
        if np.any(np.diff(values) <= 0.0):
            raise OutOfRange("atom values must be strictly increasing")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ProbSumMismatch(f"probabilities sum to {total!r}, not 1")
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
            raw = getattr(self, name)
            if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
                raise OutOfRange(f"{name} must be an integer, got {raw!r}")
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms in [0, 1) from this stream."""
        if count < 0:
            raise OutOfRange("count must be >= 0")
        return self._gen.random(int(count))

    def generator(self) -> np.random.Generator:
        """The underlying generator, for structured draws in test harnesses."""
        return self._gen

    def substream(self, stream_id: int) -> "SeededSampler":
        """A fresh independent stream under the same seed."""
        return SeededSampler(self.seed, stream_id)


def from_samples(raw) -> EmpiricalDistribution:
    """Build a law from (value, weight) pairs.

    Duplicate values (exact bit equality) are merged by summing weights;
    zero-weight atoms are dropped; weights are normalized by their
    compensated sum.
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
    total = math.fsum(merged)
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
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise OutOfRange(f"quantile level must be in [0, 1], got {u!r}")
    idx = int(np.searchsorted(d.cumulative, u, side="left"))
    return float(d.values[idx])


def expectation(d: EmpiricalDistribution) -> float:
    """E(X), compensated summation."""
    return math.fsum(d.values * d.probs)


def abs_expectation(d: EmpiricalDistribution) -> float:
    """E(|X|), compensated summation."""
    return math.fsum(np.abs(d.values) * d.probs)


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
