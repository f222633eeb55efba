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
  h(x) = 1 - (1-x)^n.

Summation is correctly rounded, via ``dist._sum``, and runs over atoms in
ascending order, so cross-route comparisons have deterministic rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    EmpiricalDistribution,
    SeededSampler,
    _sum,
    _unit_interval,
    affine,
    expectation,
    sample,
)
from .errors import BudgetTooSmall, OutOfRange


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
    """Number of i.i.d. copies; an integer >= 1. Non-integers are rejected."""

    n: int

    def __post_init__(self) -> None:
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise OutOfRange(f"copy count must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "n", int(n))


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


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: ``panels`` subintervals of [0, 1] with
    ``points_per_panel`` nodes each."""

    panels: int
    points_per_panel: int = 16

    def __post_init__(self) -> None:
        if self.panels < 1:
            raise OutOfRange("panels must be >= 1")
        if not 2 <= self.points_per_panel <= 64:
            raise OutOfRange("points_per_panel must be in 2..64")


def _alpha_value(a) -> float:
    return a.alpha if isinstance(a, RiskLevel) else RiskLevel(a).alpha


def _copy_count(nc) -> int:
    return nc.n if isinstance(nc, CopyCount) else CopyCount(nc).n


def _mixture_copy_count(nc) -> int:
    # the w_n mixture has a weight density only for n >= 2
    n = _copy_count(nc)
    if n < 2:
        raise OutOfRange("the mixture weight needs n >= 2; n = 1 is a point mass at alpha = 0")
    return n


def _trial_count(trials) -> int:
    if int(trials) < 2:
        raise BudgetTooSmall("need at least 2 trials for a standard error")
    return int(trials)


def _var_index(d: EmpiricalDistribution, alpha):
    # the smallest k with surv[k] < 1 - alpha, for a level or an array of them
    # (surv descends, so search its negation); a level of 1.0 reads the top atom
    k = np.searchsorted(-d.survival, -(1.0 - alpha), side="right")
    return np.minimum(k, d.atom_count - 1)


def var(d: EmpiricalDistribution, a) -> float:
    """Value-at-Risk with the strict tail inequality (see module notes)."""
    return float(d.values[_var_index(d, _alpha_value(a))])


def cvar_min(d: EmpiricalDistribution, a) -> CvarResult:
    """CVaR as min over b of b + E(X - b)_+ / (1 - alpha), read in O(log m)
    at its minimizer b = VaR_alpha."""
    alpha = _alpha_value(a)
    k = _var_index(d, alpha)
    return CvarResult(float(d.values[k] + d.upper_tails[k] / (1.0 - alpha)), float(d.values[k]))


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
    n = _mixture_copy_count(nc)
    alpha = _unit_interval(alpha, "alpha")
    return n * (n - 1) * (1.0 - alpha) * alpha ** (n - 2)


def weight_cdf(nc, alpha: float) -> float:
    """Closed-form integral of w_n from 0 to alpha: n a^(n-1) - (n-1) a^n."""
    n = _mixture_copy_count(nc)
    alpha = _unit_interval(alpha, "alpha")
    return n * alpha ** (n - 1) - (n - 1) * alpha**n


def _weight_cdf_arr(n: int, a: np.ndarray) -> np.ndarray:
    return n * a ** (n - 1) - (n - 1) * a**n


def _weight_over_tail_arr(n: int, a: np.ndarray) -> np.ndarray:
    # integral of w_n(t)/(1-t) dt from 0 to a
    return n * a ** (n - 1)


def distortion_h(nc, x: float) -> float:
    """Distortion reproducing maxvar as a Choquet integral: h(x) = 1 - (1-x)^n."""
    n = _copy_count(nc)
    x = _unit_interval(x, "distortion argument")
    return 1.0 - (1.0 - x) ** n


def distortion_via_weights(nc, x: float) -> float:
    """The w_n-mixture of the CVaR distortions, integrated exactly.

    For fixed x the integrand g_alpha(x) w_n(alpha) switches branch at
    alpha = 1 - x; each branch integrates in closed form. Equals
    :func:`distortion_h` analytically; kept separate as the independent
    route for the identity check.
    """
    n = _mixture_copy_count(nc)
    x = _unit_interval(x, "distortion argument")
    ramp = x * n * (1.0 - x) ** (n - 1)  # integral of x w_n/(1-a) over [0, 1-x]
    clamped = 1.0 - weight_cdf(n, 1.0 - x)  # integral of w_n over [1-x, 1]
    return ramp + clamped


def _layers(d: EmpiricalDistribution, n: int) -> np.ndarray:
    """F_k^n - F_{k-1}^n per atom: the law of the max of n copies."""
    return np.diff(d.cumulative**n, prepend=0.0)


def maxvar_choquet(d: EmpiricalDistribution, nc) -> float:
    """Exact maxvar via the power CDF: sum_k v_k (F_k^n - F_{k-1}^n)."""
    return float(_sum(d.values * _layers(d, _copy_count(nc))))


def maxvar_spectral(d: EmpiricalDistribution, nc) -> float:
    """Maxvar through the quantile layer: integral of quantile(u) n u^(n-1) du,
    evaluated atom-wise.

    This is the :func:`maxvar_choquet` sum reindexed through the left quantile
    at each cumulative level. The reindex moves only atoms on tied cumulative
    levels, whose layer is exactly zero, so the two sums are identical term
    by term: the ``route-spectral`` check is not an independent cross-check.
    """
    cum = d.cumulative
    atoms = d.values[np.searchsorted(cum, cum, side="left")]
    return float(_sum(atoms * _layers(d, _copy_count(nc))))


def maxvar_mixture_exact(d: EmpiricalDistribution, nc) -> float:
    """Maxvar as the w_n-mixture of CVaR, integrated in closed form.

    On each level segment between consecutive cumulative probabilities the
    minimizer beta* is the same atom, so (1-a) CVaR_a is linear in a and the
    integrand is a polynomial; the antiderivatives of w_n and w_n/(1-a) do
    the rest. Never divides by (1-a), so the a -> 1 endpoint is exact.
    """
    n = _copy_count(nc)
    if n == 1:
        return expectation(d)
    hi = d.cumulative
    lo = np.concatenate(([0.0], hi[:-1]))
    d_w = _weight_cdf_arr(n, hi) - _weight_cdf_arr(n, lo)
    d_tail = _weight_over_tail_arr(n, hi) - _weight_over_tail_arr(n, lo)
    return float(_sum(d.values * d_w) + _sum(d.upper_tails * d_tail))


def quadrature_breakpoints(d: EmpiricalDistribution) -> np.ndarray:
    """Cumulative probabilities strictly inside (0, 1); the mixture integrand
    is non-smooth exactly there."""
    interior = d.cumulative[:-1]
    return np.unique(interior[(interior > 0.0) & (interior < 1.0)])


def suggest_rule(d: EmpiricalDistribution, points_per_panel: int = 16) -> QuadratureRule:
    """Smallest valid rule for ``d``: one panel per breakpoint gap."""
    return QuadratureRule(
        panels=len(quadrature_breakpoints(d)) + 1, points_per_panel=points_per_panel
    )


def maxvar_mixture_quad(d: EmpiricalDistribution, nc, q: QuadratureRule) -> float:
    """Composite Gauss-Legendre approximation of the CVaR mixture.

    Panel boundaries always include every cumulative-probability breakpoint
    of ``d``, so each panel's integrand is smooth (a low-degree polynomial);
    16 points per panel are exact far beyond the n <= 32 range. All nodes go
    in one pass, as n(n-1)a^(n-2) ((1-a) VaR_a + E(X - VaR_a)_+): no 1/(1-a).
    """
    n = _copy_count(nc)
    if not isinstance(q, QuadratureRule):
        raise OutOfRange("q must be a QuadratureRule")
    if n == 1:
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
    nodes, gl_weights = np.polynomial.legendre.leggauss(q.points_per_panel)
    lo, hi = bounds[:-1, None], bounds[1:, None]
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * nodes  # one row of nodes per panel
    k = _var_index(d, x)
    integrand = n * (n - 1) * x ** (n - 2) * ((1.0 - x) * d.values[k] + d.upper_tails[k])
    return _sum([h * _sum(row) for h, row in zip(half[:, 0], gl_weights * integrand)])


def maxvar_mc(
    d: EmpiricalDistribution, nc, trials: int, s: SeededSampler
) -> McEstimate:
    """Monte Carlo maxvar: average of the max of n fresh draws per trial.

    Deterministic for a given sampler state; the reported standard error is
    the sample standard deviation over trials divided by sqrt(trials). When
    every trial's maximum is the same value, that value is the estimate and
    ``std_error`` is 0.0: a standard error of 0 means the estimate is exact.
    """
    n = _copy_count(nc)
    trials = _trial_count(trials)
    draws = sample(d, s, trials * n).reshape(trials, n)
    maxima = draws.max(axis=1)
    if maxima.min() == maxima.max():
        estimate, std_error = float(maxima[0]), 0.0
    else:
        estimate = _sum(maxima) / trials
        std_error = float(np.std(maxima, ddof=1)) / math.sqrt(trials)
    return McEstimate(estimate=estimate, std_error=std_error, trials=trials, seed=s.seed)


def minvar(d: EmpiricalDistribution, nc) -> float:
    """Expected minimum of n i.i.d. copies, via minvar_n(X) = -maxvar_n(-X)."""
    n = _copy_count(nc)
    return -maxvar_choquet(affine(d, -1.0, 0.0), n)
