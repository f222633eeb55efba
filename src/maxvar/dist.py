"""Finite empirical distributions: exact CDF/quantile/expectation machinery,
deterministic inverse-CDF sampling, and the laws of portfolios of positions
on common scenarios.

All laws are finite collections of atoms. Atom values are strictly increasing
(values that compare equal, 0.0 and -0.0 too, are merged at construction)
and probabilities are positive, normalized by their correctly rounded sum
(via :func:`_sum`).
A :class:`ScenarioTable` holds several positions on the same scenarios;
:func:`portfolio_law` is the one place a joint table becomes a law.
"""

from __future__ import annotations

import itertools
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

# Below this many elements fsum of the list is not slower than the
# certified path. The two cross at about 400-450 elements, for probabilities
# and for values times probabilities alike: at 512 the array path takes 14
# us against fsum's 18, at 1000 15 us against 38 (best of 7 on a 2-core
# Xeon, Python 3.11, numpy 2.4). Below 512 the gain would be a few us a call.
_SUM_MIN_SIZE = 512
# Elements per pass of the certified path, and per list that its fsum
# fallback holds at a time.
_SUM_CHUNK = 1 << 14
# The certified path adds a chunk's residuals as the columns of rows this
# wide (at most _SUM_CHUNK / _SUM_ROW = 128 rows), then adds the column sums,
# so each residual meets at most 2 * 127 roundings in its chunk, in whatever
# order numpy adds.
_SUM_ROW = 128
# Below this bound no partial sum of fewer than 2**63 elements can overflow,
# so fsum never raises on the inputs the certified path takes.
_SUM_MAX_ABS = 2.0**960
# Arrays and rows whose largest |x| is below this (all zeros too) skip the
# certified path, which keeps its extraction unit far above the subnormals.
_SUM_MIN_TOP = 2.0**-900


def _sum(x) -> float:
    """Correctly rounded sum of ``x``, bit-identical to ``math.fsum(x)``.

    A 1-d float64 array of fewer than ``_SUM_MIN_SIZE`` elements goes to
    ``math.fsum`` as a list: iterating the array would make one numpy scalar
    per element, and ``.tolist()`` gives the same floats about twice as
    fast. Anything else that is not such an array, or has an entry that is
    not finite or not below ``2**960`` in size, goes to ``math.fsum`` as it
    is, which keeps its results and its errors on inf, nan and intermediate
    overflow.

    Every other array takes the certified path, which proves a float sum
    correctly rounded in a few numpy passes:

    - Extraction (Rump, Ogita and Oishi, "Accurate floating-point
      summation, part I: faithful rounding", SIAM J. Sci. Comput. 31(1),
      2008). Let ``top < 2**e`` bound every |x|, ``n + 2 < 2**b`` and
      ``sigma = 2**(e + b)`` (:func:`_sigma_exponent`). Then each ``q =
      (sigma + x) - sigma`` is exact, a multiple of ``2**(e + b - 53)`` and
      at most ``2**e`` in size, and ``r = x - q`` is exact with ``|r| <=
      2**(e + b - 53)``. Every partial sum of the q's is such a multiple
      below ``sigma``, so ``head``, their float sum in any order, is exact.
    - Bound (:func:`_sum_error`). ``rest``, the float sum of the r's, puts
      each term through at most ``D = 2 * 127 + chunks - 1`` roundings (a
      chunk's columns, its column sums, then the running total over
      chunks). So it is within ``gamma_D * sum|r| <= gamma_D * n * 2**(e +
      b - 53)`` of the exact sum of the r's (Higham, *Accuracy and Stability
      of Numerical Algorithms*, 2nd ed., 2002, ch. 4). ``err`` takes ``2 D
      u`` for ``gamma_D`` and adds ``n * 2**-1073``, which covers underflow
      and the roundings of ``err`` itself.
    - Certificate (:func:`_certify`). TwoSum splits ``head + rest`` into
      ``s + t`` exactly, so the exact sum lies in ``[s + t - err, s + t +
      err]``. When that interval lies strictly inside the half-gaps to the
      floats on either side of ``s``, the exact sum rounds to ``s`` and is
      no tie, so ``s`` is fsum's result bit for bit. The half-gaps are
      powers of two, or 0 when ``s`` is zero or below the normal range, so
      comparing the rounded ``t + err`` and ``t - err`` with them can only
      err towards a refusal.

    An exact zero (its sign is not certified), a sum on or near a rounding
    midpoint, heavy cancellation and arrays whose largest |x| is below
    ``2**-900`` are refused, and go to ``math.fsum`` after all, fed
    ``_SUM_CHUNK`` floats at a time as lists: as fast as one list of the
    whole array, with one chunk's list in memory at a time.

    :func:`_row_sums` runs the same proof on every row of a matrix at once,
    with one sigma per row and a depth of the row's width less one; the
    three helpers named above serve both.
    """
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64):
        return math.fsum(x)
    if x.size < _SUM_MIN_SIZE:
        return math.fsum(x.tolist())
    lo, hi = float(x.min()), float(x.max())
    if not (-_SUM_MAX_ABS < lo and hi < _SUM_MAX_ABS):
        return math.fsum(x)
    certified = _certified_sum(x, max(hi, -lo))
    if certified is not None:
        return certified
    chunks = (x[start : start + _SUM_CHUNK].tolist() for start in range(0, x.size, _SUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks))


def _certified_sum(x: np.ndarray, top: float) -> float | None:
    """The certified path of :func:`_sum`: the correctly rounded sum of
    ``x``, or None when it cannot be certified; ``top`` is the largest |x|."""
    if not top >= _SUM_MIN_TOP:
        return None
    n = x.size
    sigma = 2.0 ** _sigma_exponent(math.frexp(top)[1], n)
    buf = np.empty(min(_SUM_CHUNK, -(-n // _SUM_ROW) * _SUM_ROW))
    head = rest = 0.0
    for start in range(0, n, _SUM_CHUNK):
        chunk = x[start : start + _SUM_CHUNK]
        q = buf[: chunk.size]
        np.add(chunk, sigma, out=q)
        np.subtract(q, sigma, out=q)
        head += float(q.sum())
        np.subtract(chunk, q, out=q)  # the residuals r
        buf[chunk.size :] = 0.0  # the rows of a short chunk end in zeros
        rest += float(buf.reshape(-1, _SUM_ROW).sum(axis=0).sum())
    depth = 2 * (_SUM_ROW - 1) + -(-n // _SUM_CHUNK) - 1
    s, certified = _certify(head, rest, _sum_error(depth, n, sigma), math.nextafter)
    return s if certified else None


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of the 2-d float64 array ``x``,
    each bit-identical to ``math.fsum`` of that row.

    The row form of :func:`_sum`'s certified path, all rows in one pass: a
    sigma per row from its largest |x|, one extraction, ``sum(axis=1)`` for
    the heads and for the residuals, and the certificate per row. Any order
    of adding a row of ``w`` terms puts each term through at most ``w - 1``
    roundings, so that is the bound's depth. A row that is refused, or has
    an entry that is not finite or not below ``2**960`` in size, goes to
    ``math.fsum`` as a list, in row order, so the first such row whose fsum
    raises raises its ``OverflowError`` or ``ValueError`` here. Such rows'
    passes may overflow or meet inf - inf; their results are discarded, so
    those warnings are silenced.
    """
    width = x.shape[1]
    top = np.abs(x).max(axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, _sigma_exponent(np.frexp(top)[1], width))[:, None]
        q = x + sigma
        q -= sigma
        head = q.sum(axis=1)
        np.subtract(x, q, out=q)  # the residuals r
        err = _sum_error(width - 1, width, sigma[:, 0])
        s, certified = _certify(head, q.sum(axis=1), err, np.nextafter)
    certified &= (top >= _SUM_MIN_TOP) & (top < _SUM_MAX_ABS)
    for row in np.flatnonzero(~certified).tolist():
        s[row] = math.fsum(x[row].tolist())
    return s


def _sigma_exponent(e, n: int):
    """The exponent of the extraction's ``sigma`` for ``n`` terms below
    ``2**e`` in size: ``e + b`` with ``n + 2 < 2**b``. ``e`` may be an int or
    an integer array."""
    return e + (n + 2).bit_length()


def _sum_error(depth: int, n: int, sigma):
    """The certificate's bound on the error of the residuals' float sum:
    ``n`` residuals of at most ``sigma * 2**-53`` in size, each through at
    most ``depth`` roundings. ``sigma`` is a power of two or an array of
    them; the product before it is exact while ``depth * n < 2**53``."""
    return depth * n * 2.0**-105 * sigma + n * 2.0**-1073


def _certify(head, rest, err, nextafter):
    """``s = head + rest`` and whether the exact sum, within ``err`` of
    ``head + rest``, is certified to round to ``s``: floats with
    ``math.nextafter``, or arrays elementwise with ``np.nextafter``."""
    s = head + rest
    rest_part = s - head
    t = (head - (s - rest_part)) + (rest - rest_part)
    above = (nextafter(s, math.inf) - s) * 0.5
    below = (s - nextafter(s, -math.inf)) * 0.5
    return s, (t + err < above) & (t - err > -below)


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
    raw constructor unless the data is already merged and normalized. The
    constructor checks everything and stores copies; :func:`from_samples`
    and :func:`portfolio_law` build their laws through one merge step that
    checks the probabilities once and keeps the arrays it made.

    The per-law arrays (``cumulative``, ``survival``, ``guide``,
    ``upper_tails``, ``left_quantile_values``) are computed on first read
    and cached, read-only; the layers of F^n are kept for the last n asked
    (:meth:`_layers`).
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
        if np.any(values[1:] <= values[:-1]):
            raise OutOfRange("atom values must be strictly increasing")
        self._store(values.copy(), probs.copy())

    def _store(self, values: np.ndarray, probs: np.ndarray) -> None:
        # take ownership of fresh, checked float arrays: read-only from here
        # on; the gaps between atom values (tails, CVaR) must not overflow
        lo, hi = float(values[0]), float(values[-1])
        if hi - lo == math.inf:
            raise NonFiniteValue(f"atom values {lo!r} to {hi!r} span more than the float range")
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
        """P(X <= v_k) per atom, by :func:`_cumulative`; the final entry is
        exactly 1.0."""
        cum = _cumulative(self.probs)
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
    def guide(self) -> np.ndarray:
        """The inverse-CDF guide table of :func:`_guide_table` over
        ``cumulative``, built once per law for :func:`_inverse_cdf_values`."""
        lo = _guide_table(self.cumulative)
        lo.setflags(write=False)
        return lo

    @cached_property
    def upper_tails(self) -> np.ndarray:
        """E(X - v_k)_+ per atom, accumulated from the top atom down."""
        terms = np.diff(self.values) * self.survival[:-1]
        tails = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
        tails.setflags(write=False)
        return tails

    @cached_property
    def left_quantile_values(self) -> np.ndarray:
        """Per atom, the left quantile at its cumulative level: the value of
        the first atom of its run of equal levels (:func:`_left_quantile_index`)."""
        atoms = self.values[_left_quantile_index(self.cumulative)]
        atoms.setflags(write=False)
        return atoms

    # The layers of the last copy count asked of _layers, as (n, layers).
    _layer_slot = (0, None)

    def _layers(self, cc) -> np.ndarray:
        """``cc.layers(self.cumulative)`` for a ``measures.CopyCount``, made
        read-only and kept in a one-entry slot, so routes that ask for the
        same n in turn form the layers once; another n replaces them. The
        slot is one tuple written in one step, so a concurrent reader sees
        the old entry or the new one, and either is right for its n."""
        n, layers = self._layer_slot
        if n == cc.n:
            return layers
        layers = cc.layers(self.cumulative)
        layers.setflags(write=False)
        object.__setattr__(self, "_layer_slot", (cc.n, layers))
        return layers


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """The cumulative probabilities of atom probabilities in ascending atom
    order, along the last axis: the running sum, capped at 1, with its last
    entry pinned to exactly 1.0. A fresh array; each row of a matrix has the
    bits of the 1-d call on that row, since ``np.cumsum`` adds in sequence."""
    cum = np.cumsum(probs, axis=-1)
    np.minimum(cum, 1.0, out=cum)
    cum[..., -1] = 1.0
    return cum


def _left_quantile_index(cum: np.ndarray) -> np.ndarray:
    # per entry of the nondecreasing levels, the first index of its run of
    # equal levels (searchsorted(cum, cum) in one pass): the running max of
    # the run starts, with 0 off them
    left = np.arange(len(cum))
    left[1:][cum[1:] == cum[:-1]] = 0
    np.maximum.accumulate(left, out=left)
    return left


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

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Overwrite the contiguous float64 array ``out`` with the next
        ``out.size`` uniforms and return it. numpy makes each uniform from
        one 64-bit output of the stream, so filling buffers in turn gives
        the same bits as one :meth:`uniforms` call of their total size."""
        return self._gen.random(out=out)

    def generator(self) -> np.random.Generator:
        """The underlying generator, for structured draws in test harnesses."""
        return self._gen


def _merge(values: np.ndarray, weights: np.ndarray) -> EmpiricalDistribution:
    """The law of finite ``values`` with finite weights ``>= 0``: equal values
    merged by summing their weights, zero-weight atoms dropped, and the
    weights divided by their correctly rounded sum.

    One sort does it: the steps ``np.unique(values, return_inverse=True)``
    runs, an argsort of kind ``"quicksort"``, the gather and a first-of-run
    mask, so a run of 0.0 and -0.0 keeps the zero that ``np.unique`` keeps.
    When no values tie, each weight is its atom's, in sorted order. When some
    do, the inverse is built as ``np.unique`` builds it and ``np.bincount``
    adds each run's weights in input order. The values come out fresh,
    finite and strictly increasing, so only the probabilities are checked
    (once, by :func:`_check_probs`) and both arrays are kept without the
    constructor's checks and copies.
    """
    perm = values.argsort(kind="quicksort")
    uniq = values[perm]
    first = np.empty(len(uniq), dtype=bool)
    first[:1] = True
    np.not_equal(uniq[1:], uniq[:-1], out=first[1:])
    if first.all():
        merged = weights[perm]
    else:
        inverse = np.empty(len(perm), dtype=np.intp)
        inverse[perm] = np.cumsum(first) - 1
        uniq = uniq[first]
        merged = np.bincount(inverse, weights=weights, minlength=len(uniq))
    keep = merged > 0.0
    if not keep.all():
        if not keep.any():
            raise AllZeroWeights("total weight is zero")
        uniq, merged = uniq[keep], merged[keep]
    try:
        total = _sum(merged)  # inf when a merged weight overflowed
    except OverflowError:  # finite merged weights whose sum overflows
        total = math.inf
    if total == math.inf:
        raise NonFiniteValue("total weight must be finite")
    probs = merged / total
    _check_probs(probs, what="atom probabilities")
    law = object.__new__(EmpiricalDistribution)
    law._store(uniq, probs)
    return law


def from_samples(raw) -> EmpiricalDistribution:
    """Build a law from (value, weight) pairs.

    Equal values (0.0 and -0.0 too) are merged by summing weights;
    zero-weight atoms are dropped; weights are normalized by their
    correctly rounded sum. After the pairs are checked (finite, weights
    ``>= 0``) the law comes from the one merge step that
    :func:`portfolio_law` also uses; a total weight that overflows raises
    ``NonFiniteValue``.
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
    return _merge(values, weights)


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


# Forward steps of the guide-table walk; keys still short of their atom
# after these go to a binary search.
_GUIDE_STEPS = 4
# Fewer keys than one per this many levels skip the table, whose O(m)
# build they would not repay: against a binary search of random keys it
# pays from about m/20 keys on at m = 1e5 and m/60 at m = 1e6 (2-core
# Xeon, numpy 2.4); at m = 1e6, 10 draws took 6 ms through it, 14 us without.
_GUIDE_MIN_SHARE = 16
# Keys per lookup of _inverse_cdf_values: the temporaries of one chunk's
# walk take 256 KiB each. At 1e5 keys on 1e5 levels, 2^13 keys a chunk
# took 0.4 ms more than one lookup of all of them (2.7 ms), 2^15 about the
# same (2-core Xeon, numpy 2.4).
_GUIDE_CHUNK = 1 << 15


def _guide_table(cumulative: np.ndarray) -> np.ndarray:
    """The guide table of :func:`_guided_index` over the levels
    ``cumulative``: ``lo[c]`` counts the levels below c/K, for K cells, the
    next power of two >= m."""
    cells = 1 << (len(cumulative) - 1).bit_length()
    counts = np.bincount((cumulative * cells).astype(np.intp), minlength=cells + 1)
    lo = np.zeros(cells + 1, dtype=np.intp)
    np.cumsum(counts[:-1], out=lo[1:])
    return lo


def _guided_index(cumulative: np.ndarray, lo: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The atom index of each key in ``u``, in [0, 1], through the inverse CDF:
    ``np.searchsorted(cumulative, u, side="left")`` bit for bit, for any
    nondecreasing, nonnegative ``cumulative`` pinned to 1.0 at its end, and
    its guide table ``lo`` from :func:`_guide_table`.

    A guide table (Chen and Asau 1974; Devroye, *Non-Uniform Random Variate
    Generation*, 1986, III.2.4) of K cells, K the next power of two >= m:
    ``lo[c]`` counts the levels below c/K, so a key u starts its search at
    ``lo[floor(u K)]``, which no answer precedes. A level F lies below c/K
    exactly when floor(F K) < c, and F K and u K are exact products because
    K is a power of two, so ``lo`` is one ``bincount`` and one ``cumsum``.
    Each key then walks forward while its level is below it, at most
    ``_GUIDE_STEPS`` times; the keys left over, from cells crowded with
    levels as on a dust law, are searched in full. O(keys) time after the
    O(m) table; the keys keep their order.
    """
    idx = lo[(u * (len(lo) - 1)).astype(np.intp)]
    ahead = np.flatnonzero(cumulative[idx] < u)
    for _ in range(_GUIDE_STEPS):
        if not ahead.size:
            return idx
        idx[ahead] += 1
        ahead = ahead[cumulative[idx[ahead]] < u[ahead]]
    if ahead.size:
        idx[ahead] = np.searchsorted(cumulative, u[ahead], side="left")
    return idx


def _inverse_cdf_values(d: EmpiricalDistribution, u: np.ndarray) -> np.ndarray:
    """Each key of the float array ``u``, in [0, 1], overwritten by the value
    of its atom through the inverse CDF,
    ``d.values[np.searchsorted(d.cumulative, u, side="left")]`` bit for bit,
    and ``u`` returned.

    The keys are looked up ``_GUIDE_CHUNK`` at a time by
    :func:`_guided_index` through the law's cached guide table, so the
    indices take O(chunk) memory, not O(keys), and repeated draws from one
    law build the table once. Fewer than m / ``_GUIDE_MIN_SHARE`` keys are
    searched in full without a table, in O(keys log m)."""
    cum = d.cumulative
    lo = None if len(u) * _GUIDE_MIN_SHARE < len(cum) else d.guide
    for start in range(0, len(u), _GUIDE_CHUNK):
        keys = u[start : start + _GUIDE_CHUNK]
        idx = np.searchsorted(cum, keys, side="left") if lo is None else _guided_index(cum, lo, keys)
        # every index is in range; "clip" writes straight into keys, where
        # the default mode would gather into a temporary first
        np.take(d.values, idx, out=keys, mode="clip")
    return u


def sample(d: EmpiricalDistribution, s: SeededSampler, count: int) -> np.ndarray:
    """``count`` i.i.d. draws via the inverse CDF on the sampler's stream:
    each uniform is overwritten by its atom's value through
    :func:`_inverse_cdf_values`, the left search of the cumulative
    probabilities, in O(m + count) time, or O(count log m) for fewer than
    m/16 draws."""
    return _inverse_cdf_values(d, s.uniforms(count))


def affine(d: EmpiricalDistribution, scale: float, shift: float) -> EmpiricalDistribution:
    """Law of ``scale * X + shift``; collapses to a single atom when scale is 0."""
    scale = float(scale)
    shift = float(shift)
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise NonFiniteValue("scale and shift must be finite")
    if scale == 0.0:
        return EmpiricalDistribution(np.array([shift]), np.array([1.0]))
    with np.errstate(over="ignore"):  # an overflowed value is rejected below
        new_values = d.values * scale + shift
    # The map is monotone, so the new values are already in order and only
    # neighbours that round together collide: keep each run's first value and
    # sum its weights in atom order.
    first = np.empty(len(new_values), dtype=bool)
    first[0] = True
    np.not_equal(new_values[1:], new_values[:-1], out=first[1:])
    if first.all() and math.isfinite(new_values[0]) and math.isfinite(new_values[-1]):
        # Nothing merged and nothing overflowed: the values are strictly
        # monotone and the probabilities are d's, already checked, so both
        # go straight to the store as in _merge.
        law = object.__new__(EmpiricalDistribution)
        if scale < 0.0:
            law._store(new_values[::-1].copy(), d.probs[::-1].copy())
        else:
            law._store(new_values, d.probs)
        return law
    uniq = new_values[first]
    merged = np.bincount(np.cumsum(first) - 1, weights=d.probs)
    if scale < 0.0:
        uniq, merged = uniq[::-1], merged[::-1]
    return EmpiricalDistribution(uniq, merged)


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """Named columns of per-scenario outcomes with optional probabilities
    (equal weights when omitted): positions on common scenarios, so a
    portfolio of them has a joint law, not just marginals.

    Immutable after construction; the arrays are read-only copies. The
    constructor checks everything and stores copies; ``load_csv`` has
    checked the arrays it parsed and hands them to the table as they are.
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
        probs = self.probs
        if probs is not None:
            probs = np.asarray(probs, dtype=float).copy()
            if probs.shape != (rows.shape[0],):
                raise DimensionMismatch("need one probability per scenario row")
            _check_probs(probs, what="scenario probabilities")
        self._store(tuple(self.columns), rows, probs)

    def _store(self, columns: tuple[str, ...], rows: np.ndarray, probs: np.ndarray | None) -> None:
        # take ownership of distinct names and fresh, checked float arrays
        # (probs may be None): read-only from here on
        rows.setflags(write=False)
        if probs is not None:
            probs.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
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
    spec's column order from 0.0; then merge into a law.

    The table has already checked its scenario probabilities, so only the
    portfolio values are checked here, before the merge step that
    :func:`from_samples` also uses: the same law, bit for bit.
    """
    combo = _portfolio_values(t, p, np.zeros(t.rows.shape[0]))
    if not np.isfinite(combo).all():
        raise NonFiniteValue("values and weights must be finite")
    return _merge(combo, t.scenario_probs)


def _portfolio_values(t: ScenarioTable, p: PortfolioSpec, out: np.ndarray) -> np.ndarray:
    """The value of portfolio ``p`` per scenario of ``t``, added into ``out``,
    which holds zeros: weight_c * outcome_c in the spec's column order. The
    one place a portfolio's values are formed; an overflow leaves an inf or
    a nan, which the caller rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        for name, w in p.weights.items():
            out += w * t.column(name)
    return out
