"""VaR, CVaR (two routes), MAXVAR (four routes), MINVAR, and the CVaR-mixture
weight machinery.

Conventions, fixed once for the whole package:

* VaR_a(X) = inf{v : P(X > v) < 1 - a}, evaluated with the strict tail
  inequality. On atoms this is the "upper" convention: uniform{1,2,3,4} at
  a = 0.5 gives 3, not 2.
* CVaR_a(X) = min over b of b + E(X - b)_+ / (1 - a); the minimum is
  attained at b = VaR_a(X) (Rockafellar & Uryasev 2000), so every CVaR read
  evaluates the objective at the VaR atom, found by :func:`_var_index`.
* maxvar_n(X) = E(max of n i.i.d. copies). Its CDF is F^n, so on a finite
  law it evaluates exactly as sum_k v_k (F_k^n - F_{k-1}^n).
* maxvar_n is also the w_n-weighted mixture of CVaR over levels, with
  w_n(a) = n(n-1)(1-a)a^(n-2) and 0^0 = 1; the induced distortion is
  h(x) = 1 - (1-x)^n. :class:`CopyCount` holds h, the layers, w_n, W and V,
  and every route reads them from it.

Summation is correctly rounded, via ``dist._sum``, and runs over atoms in
ascending order, so cross-route comparisons have deterministic rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import (
    EmpiricalDistribution,
    SeededSampler,
    _check_probs,
    _cumulative,
    _integer,
    _inverse_cdf_values,
    _portfolio_values,
    _row_sums,
    _sum,
    _unit_interval,
    affine,
    expectation,
    portfolio_law,
)
from .errors import BudgetTooSmall, NonFiniteValue, OutOfRange, RiskError

# Runs of up to this many uniforms are reduced by folding their columns,
# longer runs by reduceat. Per 1e5 runs drawn in 2^15-float chunks (2-core
# Xeon, numpy 2.4): fold 0.42 against 2.5 ms at n = 7, 2.2 against 3.0 at
# n = 16, 1.9 against 1.9 at n = 20 and 16 against 3.7 at n = 64.
_FOLD_MAX_N = 16
# Uniforms per draw into maxvar_mc's one reused buffer: 256 KiB, which the
# reduction reads while it is still in cache.
_MC_CHUNK = 1 << 15
# The most uniforms one maxvar_mc call draws: 2^36, about 8 minutes of
# drawing at 7 ns a uniform (2-core Xeon, numpy 2.4). As one float64 array
# they would take 512 GiB.
_MC_MAX_DRAWS = 2**36


@dataclass(frozen=True)
class RiskLevel:
    """A CVaR/VaR confidence level; 0 <= alpha < 1 (the tail scaling
    1/(1-alpha) is singular at 1, so alpha = 1 is rejected)."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not (math.isfinite(a) and 0.0 <= a < 1.0):
            raise OutOfRange(f"risk level must satisfy 0 <= alpha < 1, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class CopyCount:
    """Number of i.i.d. copies; an integer in 1..2^128. Non-integers are rejected.

    The one home of every expression in n. Its methods take a float or an
    array and check nothing: h, the layers of F^n, the mixture weight w_n,
    the tail weight w_n(a)/(1-a), their integrals W and V from 0, and the
    maxima of runs of n uniforms.
    """

    n: int

    def __post_init__(self) -> None:
        # the routes compute in floats, and 2^128 keeps the weight's n(n-1) finite
        object.__setattr__(self, "n", _integer(self.n, "copy count", 1, 2**128))

    def h(self, x):
        """The distortion h(x) = 1 - (1-x)^n: P(max of n copies lands in a
        set of mass x)."""
        return 1.0 - (1.0 - x) ** self.n

    def layers(self, cumulative: np.ndarray) -> np.ndarray:
        """F_k^n - F_{k-1}^n per atom from the cumulative probabilities F_k,
        along the last axis: the law of the max of n copies, or of each row's
        law for a matrix of cumulative rows.

        F_0^n = 0, so the first layer is F_1^n itself; the others are the same
        IEEE differences as ``np.diff(F**n, prepend=0.0)``, bit for bit, and
        each row of a matrix has the bits of the 1-d call on that row."""
        powered = cumulative**self.n
        layers = np.empty_like(powered)
        layers[..., 0] = powered[..., 0]
        np.subtract(powered[..., 1:], powered[..., :-1], out=layers[..., 1:])
        return layers

    def weight(self, a):
        """w_n(a) = n(n-1)(1-a)a^(n-2), with 0^0 = 1; a density only for n >= 2."""
        n = self.n
        return n * (n - 1) * (1.0 - a) * a ** (n - 2)

    def tail_weight(self, a):
        """w_n(a)/(1-a) = n(n-1)a^(n-2), formed without the division. Its
        rounding differs from :meth:`weight`'s, so the two stay separate."""
        n = self.n
        return n * (n - 1) * a ** (n - 2)

    def weight_cdf(self, a):
        """W(a), the integral of w_n from 0 to a: n a^(n-1) - (n-1) a^n."""
        return self.weight_cdfs(a)[0]

    def tail_weight_cdf(self, a):
        """V(a), the integral of the tail weight w_n(t)/(1-t) from 0 to a:
        n a^(n-1)."""
        n = self.n
        return n * a ** (n - 1)

    def weight_cdfs(self, a):
        """(W(a), V(a)) with one power a^(n-1): W is formed as V - (n-1) a^n,
        the same IEEE operations as n a^(n-1) - (n-1) a^n, so both keep the
        bits of :meth:`weight_cdf` and :meth:`tail_weight_cdf`."""
        v = self.tail_weight_cdf(a)
        return v - (self.n - 1) * a**self.n, v

    def run_maxima(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The max of each run of n consecutive entries of ``u``, which holds
        whole runs, written to ``out`` when it is given.

        Up to ``_FOLD_MAX_N`` the columns of the runs' rows are folded with
        ``np.maximum``; above it ``np.maximum.reduceat`` reduces each run. A
        max is exact, so the two give the same bits."""
        n = self.n
        if n > _FOLD_MAX_N:
            return np.maximum.reduceat(u, np.arange(0, len(u), n), out=out)
        rows = u.reshape(-1, n)
        # at n = 1 the first and last columns coincide, and their max copies them
        out = np.maximum(rows[:, 0], rows[:, -1], out=out)
        for j in range(1, n - 1):
            np.maximum(out, rows[:, j], out=out)
        return out


@dataclass(frozen=True)
class CvarResult:
    value: float
    beta_star: float


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    trials: int
    seed: int


_MAX_POINTS = 64
# A route that overflows on atoms near the float range reruns on X / _RESCALE
# and scales back: exact for a power of two, but for atoms it underflows.
_RESCALE = 2.0**600


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: ``panels`` subintervals of [0, 1] with
    ``points_per_panel`` nodes each; panels >= 1 and 2 <= points_per_panel
    <= 64. Like :class:`CopyCount`, bools and floats (even 16.0) are rejected.
    Snapped to a law's breakpoints it is exact for n <= 2 * points_per_panel."""

    panels: int
    points_per_panel: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "panels", _integer(self.panels, "panels", 1))
        points = _integer(self.points_per_panel, "points_per_panel", 2, _MAX_POINTS)
        object.__setattr__(self, "points_per_panel", points)


def _alpha_value(a) -> float:
    return a.alpha if isinstance(a, RiskLevel) else RiskLevel(a).alpha


def _copy_count(nc) -> CopyCount:
    return nc if isinstance(nc, CopyCount) else CopyCount(nc)


def _mixture_copy_count(nc) -> CopyCount:
    # the w_n mixture has a weight density only for n >= 2
    cc = _copy_count(nc)
    if cc.n < 2:
        raise OutOfRange("the mixture weight needs n >= 2; n = 1 is a point mass at alpha = 0")
    return cc


def _trial_count(trials) -> int:
    trials = _integer(trials, "trials")
    if trials < 2:
        raise BudgetTooSmall("need at least 2 trials for a standard error")
    return trials


def _var_index(d: EmpiricalDistribution, alpha):
    # the smallest k with surv[k] < 1 - alpha, for a level or an array of them:
    # surv descends, so k counts the atoms with surv >= 1 - alpha, found by one
    # search of its ascending reversed view (no copy); a level of 1.0 reads the
    # top atom
    m = d.atom_count
    k = m - np.searchsorted(d.survival[::-1], 1.0 - alpha, side="left")
    return np.minimum(k, m - 1)


def _panel_var_index(d: EmpiricalDistribution, x: np.ndarray) -> np.ndarray:
    # _var_index(d, x) for rows of ascending levels, as mixture-quad's panels
    # hold: the index is nondecreasing in the level, so a row whose first and
    # last nodes share an atom has it at every node. Only the other rows,
    # those that straddle a breakpoint or have a node that rounds onto one,
    # are searched in full.
    ends = _var_index(d, x[:, [0, -1]])
    k = np.repeat(ends[:, :1], x.shape[1], axis=1)
    split = np.flatnonzero(ends[:, 0] != ends[:, 1])
    if split.size:
        k[split] = _var_index(d, x[split])
    return k


def var(d: EmpiricalDistribution, a) -> float:
    """Value-at-Risk with the strict tail inequality (see module notes)."""
    return float(d.values[_var_index(d, _alpha_value(a))])


def _cvar_at(d: EmpiricalDistribution, alpha):
    # (CVaR, VaR atom index) for a level or an array of them: the objective
    # b + E(X - b)_+ / (1 - alpha) read at its minimizer b = VaR_alpha
    k = _var_index(d, alpha)
    return d.values[k] + d.upper_tails[k] / (1.0 - alpha), k


def cvar_min(d: EmpiricalDistribution, a) -> CvarResult:
    """CVaR as min over b of b + E(X - b)_+ / (1 - alpha), read in O(log m)
    at its minimizer b = VaR_alpha."""
    value, k = _cvar_at(d, _alpha_value(a))
    return CvarResult(float(value), float(d.values[k]))


def cvar_choquet(d: EmpiricalDistribution, a) -> float:
    """CVaR as the distorted-survival integral, evaluated exactly as a finite
    sum over atom gaps: v_1 + sum_k (v_{k+1} - v_k) g_alpha(P(X > v_k))."""
    alpha = _alpha_value(a)
    if d.atom_count == 1:
        return float(d.values[0])
    gaps = np.diff(d.values)
    g = np.minimum(d.survival[:-1] / (1.0 - alpha), 1.0)
    return float(d.values[0] + _sum(gaps * g))


def g_alpha(a, x: float) -> float:
    """Tail distortion for CVaR: x/(1-alpha) below 1-alpha, clamped to 1 above."""
    alpha = _alpha_value(a)
    x = _unit_interval(x, "distortion argument")
    spread = 1.0 - alpha
    return x / spread if x < spread else 1.0


def weight(nc, alpha: float) -> float:
    """Mixture weight density w_n(alpha) = n(n-1)(1-alpha)alpha^(n-2), with
    0^0 = 1. Only defined for n >= 2; n = 1 has no density (the mixture
    degenerates to a point mass at alpha = 0, which the maxvar routes handle
    directly)."""
    return _mixture_copy_count(nc).weight(_unit_interval(alpha, "alpha"))


def weight_cdf(nc, alpha: float) -> float:
    """Closed-form integral of w_n from 0 to alpha: n a^(n-1) - (n-1) a^n."""
    return _mixture_copy_count(nc).weight_cdf(_unit_interval(alpha, "alpha"))


def distortion_h(nc, x: float) -> float:
    """Distortion reproducing maxvar as a Choquet integral: h(x) = 1 - (1-x)^n."""
    return _copy_count(nc).h(_unit_interval(x, "distortion argument"))


def distortion_via_weights(nc, x: float) -> float:
    """The w_n-mixture of the CVaR distortions, integrated exactly.

    For fixed x the integrand g_alpha(x) w_n(alpha) switches branch at
    alpha = 1 - x; each branch integrates in closed form. Equals
    :func:`distortion_h` analytically; kept separate as the independent
    route for the identity check.
    """
    n = _mixture_copy_count(nc).n
    x = _unit_interval(x, "distortion argument")
    ramp = x * n * (1.0 - x) ** (n - 1)  # integral of x w_n/(1-a) over [0, 1-x]
    clamped = 1.0 - weight_cdf(n, 1.0 - x)  # integral of w_n over [1-x, 1]
    return ramp + clamped


def maxvar_choquet(d: EmpiricalDistribution, nc) -> float:
    """Maxvar via the power CDF, sum_k v_k (F_k^n - F_{k-1}^n): the correctly
    rounded sum of the rounded products v_k (F_k^n - F_{k-1}^n). The products
    round, so exact monotonicity in n can fail by an ulp: on {0.01,
    0.010000000000000002} with equal mass, n = 2 gives 0.010000000000000002
    and n = 3 gives 0.01.

    The layers are read through the law's one-entry slot, which
    :func:`maxvar_spectral` and ``extremal_density`` read too, so a law
    asked at one n by all three forms them once."""
    return float(_sum(d.values * d._layers(_copy_count(nc))))


def maxvar_spectral(d: EmpiricalDistribution, nc) -> float:
    """Maxvar through the quantile layer: integral of quantile(u) n u^(n-1) du,
    evaluated atom-wise.

    This is the :func:`maxvar_choquet` sum reindexed through the left quantile
    at each cumulative level, the first atom of its run of tied levels. The
    reindex moves only atoms on tied cumulative levels, whose layer is exactly
    zero, so the two sums are identical term by term: the ``route-spectral``
    check is not an independent cross-check. The reindexed values are cached
    on the law (``left_quantile_values``), and the layers are its slot's.
    """
    return float(_sum(d.left_quantile_values * d._layers(_copy_count(nc))))


def _maxvar_rows(values: np.ndarray, layers: np.ndarray, takes: np.ndarray, per_law) -> list:
    """:func:`maxvar_choquet` of k laws, bit for bit, in one certified
    row-sum pass.

    Where ``takes`` is true, row i of the k x m arrays ``values`` and
    ``layers`` holds law i's atom values in ascending order and its layers,
    and its value is that row's ``_row_sums`` entry, which has the bits of
    ``math.fsum`` as ``maxvar_choquet``'s sum has. Every other law goes
    through ``per_law(i)``, its per-law path, which returns or raises as it
    does. The values come back in row order, and the first law whose path
    raises raises: a taken row whose sum leaves the float range sends every
    law through its path.
    """
    if not takes.all():
        values, layers = values[takes], layers[takes]
    try:
        # on numpy 1.24 the layers at n past the int64 range are an object
        # array of floats, and so are the products
        sums = iter(_row_sums((values * layers).astype(float, copy=False)).tolist())
    except OverflowError:
        takes = np.zeros_like(takes)
    return [next(sums) if take else per_law(i) for i, take in enumerate(takes.tolist())]


def _maxvar_portfolios(portfolios, probs: np.ndarray, nc) -> list:
    """``[maxvar_choquet(portfolio_law(t, p), nc) for t, p in portfolios]``,
    bit for bit and error for error, with one row per portfolio, where
    ``probs`` is a table's checked scenario probabilities.

    Each row's values are formed by ``dist._portfolio_values``, as
    ``portfolio_law`` forms them, and all rows are sorted by one row-wise
    quicksort argsort. Each row's probabilities are ``probs`` permuted the
    same way and divided by the correctly rounded total of ``probs``: the
    sum of a permutation is the same sum, so that is the total that
    ``portfolio_law``'s merge divides by, and one ``dist._check_probs`` of
    ``probs`` so divided is its check of every row. Then one cumulative
    pass, one layers pass and one certified row-sum pass
    (:func:`_maxvar_rows`). A portfolio goes through the per-law path when
    its table's scenario probabilities are not ``probs`` (positive floats,
    so equal values are equal bits) or it names an unknown column, when its
    values are not finite, tie or span more than the float range, or when
    the probability check fails.
    """
    cc = _copy_count(nc)
    combos = np.zeros((len(portfolios), len(probs)))
    takes = np.zeros(len(portfolios), dtype=bool)
    for i, (t, p) in enumerate(portfolios):
        if np.array_equal(t.scenario_probs, probs):
            try:
                takes[i] = np.isfinite(_portfolio_values(t, p, combos[i])).all()
            except RiskError:  # an unknown column, raised again by its path
                pass
    combos[~takes] = 0.0
    perm = combos.argsort(axis=1, kind="quicksort")
    values = np.take_along_axis(combos, perm, axis=1)
    with np.errstate(over="ignore"):  # a span past the float range is inf
        takes &= values[:, -1] - values[:, 0] < math.inf
    takes &= (values[:, 1:] != values[:, :-1]).all(axis=1)
    scaled = probs / _sum(probs)
    try:
        _check_probs(scaled)
    except RiskError:  # say a probability that underflows to 0: raised again by each path
        takes[:] = False
    layers = cc.layers(_cumulative(scaled[perm]))
    return _maxvar_rows(
        values, layers, takes, lambda i: maxvar_choquet(portfolio_law(*portfolios[i]), cc)
    )


def _maxvar_law_rows(d: EmpiricalDistribution, nc, maps) -> list:
    """``maxvar_choquet`` of ``d`` at n, of ``affine(d, scale, shift)`` at n
    for each (scale, shift) of ``maps``, and of ``d`` at n + 1, in that
    order, bit for bit and error for error, with one row per value on d's
    atoms.

    The rows at n take d's layers from its slot; the layers at n + 1 are
    formed without writing the slot, which keeps n's for the routes asked
    next. An image's values are ``affine``'s, and its probabilities, so its
    layers, are d's when ``affine`` kept every atom in order: scale > 0 and
    as many atoms as d. An image that merges atoms, reverses them or fails
    goes through its per-law path, as does d at n + 1 past the copy count's
    range. The sums are :func:`_maxvar_rows`'.
    """
    cc = _copy_count(nc)
    k = len(maps) + 2
    values, layers = np.zeros((k, d.atom_count)), np.zeros((k, d.atom_count))
    takes = np.zeros(k, dtype=bool)
    values[0], layers[0], takes[0] = d.values, d._layers(cc), True
    for i, (scale, shift) in enumerate(maps, 1):
        try:
            image = affine(d, scale, shift)
        except RiskError:  # raised again by its path
            continue
        takes[i] = scale > 0.0 and image.atom_count == d.atom_count
        if takes[i]:
            values[i], layers[i] = image.values, layers[0]
    try:
        values[-1], layers[-1], takes[-1] = d.values, CopyCount(cc.n + 1).layers(d.cumulative), True
    except OutOfRange:  # raised again by its path
        pass

    def per_law(i):
        if i == 0:
            return maxvar_choquet(d, cc)
        if i == k - 1:
            return maxvar_choquet(d, cc.n + 1)
        return maxvar_choquet(affine(d, *maps[i - 1]), cc)

    return _maxvar_rows(values, layers, takes, per_law)


def maxvar_mixture_exact(d: EmpiricalDistribution, nc) -> float:
    """Maxvar as the w_n-mixture of CVaR, integrated in closed form.

    On each level segment between consecutive cumulative probabilities the
    minimizer beta* is the same atom, so (1-a) CVaR_a is linear in a and the
    integrand is a polynomial; the antiderivatives of w_n and w_n/(1-a) do
    the rest. Never divides by (1-a), so the a -> 1 endpoint is exact.
    Raises NonFiniteValue when the sum leaves the float range.
    """
    cc = _copy_count(nc)
    if cc.n == 1:
        return expectation(d)
    # the strata's ends 0 = F_0 <= F_1 <= ... <= F_m = 1: W and V once at each
    ends = np.concatenate(([0.0], d.cumulative))
    d_w, d_tail = map(np.diff, cc.weight_cdfs(ends))
    # F can round to 1 below the top atom while S keeps its mass, so one
    # stratum's dV can reach n and its tail product overflow
    with np.errstate(over="ignore"):
        try:
            value = _sum(d.values * d_w) + _sum(d.upper_tails * d_tail)
        except (OverflowError, ValueError):  # a partial sum past the float range
            value = math.nan
    if not math.isfinite(value):
        raise NonFiniteValue(f"the mixture-exact sum at n = {cc.n} leaves the float range")
    return value


def quadrature_breakpoints(d: EmpiricalDistribution) -> np.ndarray:
    """Cumulative probabilities strictly inside (0, 1); the mixture integrand
    is non-smooth exactly there."""
    # the levels are positive and ascend, so those below 1.0 are a prefix,
    # and a run of equal levels keeps its first entry
    interior = d.cumulative[:-1]
    inside = interior[: np.searchsorted(interior, 1.0)]
    first = np.ones(len(inside), dtype=bool)
    np.not_equal(inside[1:], inside[:-1], out=first[1:])
    return inside[first]


def suggest_rule(d: EmpiricalDistribution, points_per_panel: int = 16) -> QuadratureRule:
    """Fewest panels for ``d``, one per breakpoint gap; exact for
    n <= 2 * points_per_panel, so only for n <= 32 at the default 16 points."""
    return QuadratureRule(
        panels=len(quadrature_breakpoints(d)) + 1, points_per_panel=points_per_panel
    )


@lru_cache(maxsize=None)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes and weights on [-1, 1]; leggauss is an eigenvalue solve, so solve
    # once per point count (at most 63 counts) and share read-only arrays
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def maxvar_mixture_quad(d: EmpiricalDistribution, nc, q: QuadratureRule) -> float:
    """Composite Gauss-Legendre approximation of the CVaR mixture.

    Panel boundaries always include every cumulative-probability breakpoint
    of ``d``, so each panel's integrand is a polynomial of degree n - 1: the
    rule is exact for n <= 2 * points_per_panel, and a coarser one is an
    approximation. All nodes go in one pass, as
    n(n-1)a^(n-2) ((1-a) VaR_a + E(X - VaR_a)_+): no 1/(1-a).
    """
    cc = _copy_count(nc)
    if not isinstance(q, QuadratureRule):
        raise OutOfRange("q must be a QuadratureRule")
    if cc.n == 1:
        return expectation(d)
    breaks = quadrature_breakpoints(d)
    if q.panels < len(breaks) + 1:
        raise BudgetTooSmall(
            f"{q.panels} panels cannot snap to {len(breaks)} breakpoints; "
            f"need at least {len(breaks) + 1}"
        )
    bounds = np.concatenate(([0.0], breaks, [1.0]))
    while len(bounds) - 1 < q.panels:
        widest = int(np.argmax(np.diff(bounds)))  # leftmost widest: deterministic
        bounds = np.insert(bounds, widest + 1, 0.5 * (bounds[widest] + bounds[widest + 1]))
    nodes, gl_weights = _gauss_legendre(q.points_per_panel)
    lo, hi = bounds[:-1, None], bounds[1:, None]
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * nodes  # one row of nodes per panel
    k = _panel_var_index(d, x)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = cc.tail_weight(x) * ((1.0 - x) * d.values[k] + d.upper_tails[k])
        # every panel's row in one certified pass; a refused row's fsum can
        # raise, like the outer sum's
        try:
            value = _sum(half[:, 0] * _row_sums(gl_weights * integrand))
        except (OverflowError, ValueError):  # a partial sum past the float range
            value = math.nan
    if math.isfinite(value):
        return value
    return _RESCALE * maxvar_mixture_quad(affine(d, 1.0 / _RESCALE, 0.0), cc, q)


def _mean_and_error(x: np.ndarray) -> tuple[float, float]:
    # the sample mean and its standard error, inf where a sum or square overflows
    with np.errstate(over="ignore"):
        try:
            mean = _sum(x) / len(x)
        except OverflowError:
            mean = math.inf
        return mean, float(np.std(x, ddof=1)) / math.sqrt(len(x))


def _trial_maxima(
    cc: CopyCount, s: SeededSampler, buf: np.ndarray, maxima: np.ndarray
) -> np.ndarray:
    # the max of each trial's n uniforms into ``maxima``, in trial order:
    # whole runs drawn into ``buf``, which holds at least one, and reduced there
    n, trials = cc.n, len(maxima)
    runs = len(buf) // n
    for start in range(0, trials, runs):
        count = min(runs, trials - start)
        cc.run_maxima(s.fill(buf[: count * n]), out=maxima[start : start + count])
    return maxima


def maxvar_mc(
    d: EmpiricalDistribution, nc, trials: int, s: SeededSampler
) -> McEstimate:
    """Monte Carlo maxvar: average of the max of n fresh draws per trial.

    Each trial takes n uniforms from the sampler's stream. The inverse CDF is
    nondecreasing, so the max of a trial's n inverse-CDF draws is the inverse
    CDF of the max of its n uniforms (the inversion method; Devroye 1986,
    II.2): one lookup per trial instead of n, and the same bits as drawing
    all n values with :func:`maxvar.dist.sample` and taking each row's max.

    The uniforms are drawn as whole runs, about ``_MC_CHUNK`` at a time and
    at least one run, into one reused buffer and reduced to each trial's max
    there, so memory is O(trials + max(n, chunk)), not O(trials x n), and
    the stream's bits are those of one draw. The maxima find their atoms
    through ``dist._inverse_cdf_values``, a guide table over the cumulative
    probabilities, in O(m + trials), a chunk of keys at a time, and each
    atom's value is written over its maximum: the maxima and the values
    share one array of ``trials`` floats. A ``trials x n`` above
    ``_MC_MAX_DRAWS`` = 2^36, or a buffer or maxima array that cannot be
    allocated, raises ``OutOfRange`` before any draw.

    Deterministic for a given sampler state; the reported standard error is
    the sample standard deviation over trials divided by sqrt(trials). When
    every trial's maximum is the same value, that value is the estimate and
    ``std_error`` is 0.0: a standard error of 0 means the estimate is exact.
    """
    cc = _copy_count(nc)
    n = cc.n
    trials = _trial_count(trials)
    refusal = f"cannot draw trials x n = {trials} x {n} = {trials * n} uniforms"
    if trials * n > _MC_MAX_DRAWS:
        raise OutOfRange(refusal)
    runs = min(max(1, _MC_CHUNK // n), trials)
    try:
        buf, u = np.empty(runs * n), np.empty(trials)
    except MemoryError as exc:  # no room for one run or for the trials' maxima
        raise OutOfRange(refusal) from exc
    maxima = _inverse_cdf_values(d, _trial_maxima(cc, s, buf, u))
    if maxima.min() == maxima.max():
        estimate, std_error = float(maxima[0]), 0.0
    else:
        estimate, std_error = _mean_and_error(maxima)
        if not (math.isfinite(estimate) and math.isfinite(std_error)):
            scaled = _mean_and_error(maxima / _RESCALE)
            estimate, std_error = (_RESCALE * x for x in scaled)
    return McEstimate(estimate=estimate, std_error=std_error, trials=trials, seed=s.seed)


def minvar(d: EmpiricalDistribution, nc) -> float:
    """Expected minimum of n i.i.d. copies, via minvar_n(X) = -maxvar_n(-X)."""
    return -maxvar_choquet(affine(d, -1.0, 0.0), _copy_count(nc))
