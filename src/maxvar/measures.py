"""VaR, CVaR (two routes), MAXVAR (four routes), MINVAR, and the CVaR-mixture
weight machinery.

Conventions, fixed once for the whole package:

* VaR_a(X) = inf{v : P(X > v) < 1 - a}, evaluated with the strict tail
  inequality. On atoms this is the "upper" convention: uniform{1,2,3,4} at
  a = 0.5 gives 3, not 2.
* CVaR_a(X) = min over b of b + E(X - b)_+ / (1 - a); the minimum is
  attained at b = VaR_a(X), and for finite laws the objective is piecewise
  linear so scanning atoms finds the exact minimum.
* maxvar_n(X) = E(max of n i.i.d. copies). Its CDF is F^n, so on a finite
  law it evaluates exactly as sum_k v_k (F_k^n - F_{k-1}^n).
* maxvar_n is also the w_n-weighted mixture of CVaR over levels, with
  w_n(a) = n(n-1)(1-a)a^(n-2) and 0^0 = 1; the induced distortion is
  h(x) = 1 - (1-x)^n.

Summation is compensated and runs over atoms in ascending order, so
cross-route comparisons have deterministic rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import EmpiricalDistribution, SeededSampler, affine, expectation, sample
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
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise OutOfRange(f"copy count must be an integer >= 1, got {self.n!r}")
        if self.n < 1:
            raise OutOfRange(f"copy count must be >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))


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
    kind: str = "composite-gauss-legendre"

    def __post_init__(self) -> None:
        if self.kind != "composite-gauss-legendre":
            raise OutOfRange(f"unsupported quadrature kind {self.kind!r}")
        if self.panels < 1:
            raise OutOfRange("panels must be >= 1")
        if not 2 <= self.points_per_panel <= 64:
            raise OutOfRange("points_per_panel must be in 2..64")


def _alpha_value(a) -> float:
    if isinstance(a, RiskLevel):
        return a.alpha
    return RiskLevel(a).alpha


def _copy_count(nc) -> int:
    if isinstance(nc, CopyCount):
        return nc.n
    return CopyCount(nc).n


def _var_index(d: EmpiricalDistribution, alpha: float) -> int:
    # smallest k with surv[k] < 1 - alpha; surv is descending, so search the
    # ascending negation. alpha < 1 guarantees the last atom qualifies.
    return int(np.searchsorted(-d.survival, -(1.0 - alpha), side="right"))


def _upper_tail_expectations(d: EmpiricalDistribution) -> np.ndarray:
    """E(X - v_k)_+ for every atom, built from the top atom down."""
    if d.atom_count == 1:
        return np.zeros(1)
    terms = np.diff(d.values) * d.survival[:-1]
    return np.append(np.cumsum(terms[::-1])[::-1], 0.0)


def var(d: EmpiricalDistribution, a) -> float:
    """Value-at-Risk with the strict tail inequality (see module notes)."""
    alpha = _alpha_value(a)
    return float(d.values[_var_index(d, alpha)])


def cvar_min(d: EmpiricalDistribution, a) -> CvarResult:
    """CVaR by exact minimization of b + E(X - b)_+ / (1 - alpha) over atoms."""
    alpha = _alpha_value(a)
    objective = d.values + _upper_tail_expectations(d) / (1.0 - alpha)
    return CvarResult(value=float(np.min(objective)), beta_star=var(d, alpha))


def cvar_choquet(d: EmpiricalDistribution, a) -> float:
    """CVaR as the distorted-survival integral, evaluated exactly as a finite
    sum over atom gaps: v_1 + sum_k (v_{k+1} - v_k) g_alpha(P(X > v_k))."""
    alpha = _alpha_value(a)
    if d.atom_count == 1:
        return float(d.values[0])
    gaps = np.diff(d.values)
    g = np.minimum(d.survival[:-1] / (1.0 - alpha), 1.0)
    return float(d.values[0] + math.fsum(gaps * g))


def _cvar_profile(d: EmpiricalDistribution, alphas: np.ndarray) -> np.ndarray:
    """CVaR at many levels at once; algebraically identical to
    :func:`cvar_choquet` (grouped as beta* + tail/(1-alpha))."""
    alphas = np.asarray(alphas, dtype=float)
    idx = np.searchsorted(d.cumulative, alphas, side="right")
    tails = _upper_tail_expectations(d)
    return d.values[idx] + tails[idx] / (1.0 - alphas)


def g_alpha(a, x: float) -> float:
    """Tail distortion for CVaR: x/(1-alpha) below 1-alpha, clamped to 1 above."""
    alpha = _alpha_value(a)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"distortion argument must be in [0, 1], got {x!r}")
    spread = 1.0 - alpha
    return x / spread if x < spread else 1.0


def weight(nc, alpha: float) -> float:
    """Mixture weight density w_n(alpha) = n(n-1)(1-alpha)alpha^(n-2), with
    0^0 = 1. Only defined for n >= 2; n = 1 has no density (the mixture
    degenerates to a point mass at alpha = 0, which the maxvar routes handle
    directly)."""
    n = _copy_count(nc)
    if n < 2:
        raise OutOfRange("weight density needs n >= 2; n = 1 is a point mass at alpha = 0")
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRange(f"alpha must be in [0, 1], got {alpha!r}")
    return n * (n - 1) * (1.0 - alpha) * alpha ** (n - 2)


def weight_cdf(nc, alpha: float) -> float:
    """Closed-form integral of w_n from 0 to alpha: n a^(n-1) - (n-1) a^n."""
    n = _copy_count(nc)
    if n < 2:
        raise OutOfRange("weight density needs n >= 2")
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRange(f"alpha must be in [0, 1], got {alpha!r}")
    return n * alpha ** (n - 1) - (n - 1) * alpha**n


def _weight_cdf_arr(n: int, a: np.ndarray) -> np.ndarray:
    return n * a ** (n - 1) - (n - 1) * a**n


def _weight_over_tail_arr(n: int, a: np.ndarray) -> np.ndarray:
    # integral of w_n(t)/(1-t) dt from 0 to a
    return n * a ** (n - 1)


def distortion_h(nc, x: float) -> float:
    """Distortion reproducing maxvar as a Choquet integral: h(x) = 1 - (1-x)^n."""
    n = _copy_count(nc)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"distortion argument must be in [0, 1], got {x!r}")
    return 1.0 - (1.0 - x) ** n


def distortion_via_weights(nc, x: float) -> float:
    """The w_n-mixture of the CVaR distortions, integrated exactly.

    For fixed x the integrand g_alpha(x) w_n(alpha) switches branch at
    alpha = 1 - x; each branch integrates in closed form. Equals
    :func:`distortion_h` analytically; kept separate as the independent
    route for the identity check.
    """
    n = _copy_count(nc)
    if n < 2:
        raise OutOfRange("mixture identity needs n >= 2")
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"distortion argument must be in [0, 1], got {x!r}")
    ramp = x * n * (1.0 - x) ** (n - 1)  # integral of x w_n/(1-a) over [0, 1-x]
    clamped = 1.0 - weight_cdf(n, 1.0 - x)  # integral of w_n over [1-x, 1]
    return ramp + clamped


def maxvar_choquet(d: EmpiricalDistribution, nc) -> float:
    """Exact maxvar via the power CDF: sum_k v_k (F_k^n - F_{k-1}^n)."""
    n = _copy_count(nc)
    powered = d.cumulative**n
    layers = np.diff(powered, prepend=0.0)
    return float(math.fsum(d.values * layers))


def maxvar_spectral(d: EmpiricalDistribution, nc) -> float:
    """Maxvar through the quantile layer: integral of quantile(u) n u^(n-1) du,
    evaluated atom-wise.

    This is the :func:`maxvar_choquet` sum reindexed through the left quantile
    at each cumulative level. The reindex moves only atoms on tied cumulative
    levels, whose layer is exactly zero, so the two sums are identical term
    by term: the ``route-spectral`` check is not an independent cross-check.
    """
    n = _copy_count(nc)
    cum = d.cumulative
    layers = np.diff(cum**n, prepend=0.0)
    atoms = d.values[np.searchsorted(cum, cum, side="left")]
    return float(math.fsum(atoms * layers))


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
    tails = _upper_tail_expectations(d)
    return float(math.fsum(d.values * d_w) + math.fsum(tails * d_tail))


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
    16 points per panel are exact far beyond the n <= 32 range.
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
        widths = np.diff(bounds)
        widest = int(np.argmax(widths))  # leftmost widest: deterministic
        mid = 0.5 * (bounds[widest] + bounds[widest + 1])
        bounds = np.insert(bounds, widest + 1, mid)
    nodes, gl_weights = np.polynomial.legendre.leggauss(q.points_per_panel)
    panel_sums = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * nodes
        integrand = _cvar_profile(d, x) * (n * (n - 1) * (1.0 - x) * x ** (n - 2))
        panel_sums.append(half * math.fsum(gl_weights * integrand))
    return math.fsum(panel_sums)


def maxvar_mc(
    d: EmpiricalDistribution, nc, trials: int, s: SeededSampler
) -> McEstimate:
    """Monte Carlo maxvar: average of the max of n fresh draws per trial.

    Deterministic for a given sampler state; the reported standard error is
    the sample standard deviation over trials divided by sqrt(trials).
    """
    n = _copy_count(nc)
    trials = int(trials)
    if trials < 2:
        raise BudgetTooSmall("need at least 2 trials for a standard error")
    draws = sample(d, s, trials * n).reshape(trials, n)
    maxima = draws.max(axis=1)
    estimate = math.fsum(maxima) / trials
    std_error = float(np.std(maxima, ddof=1)) / math.sqrt(trials)
    return McEstimate(estimate=estimate, std_error=std_error, trials=trials, seed=s.seed)


def minvar(d: EmpiricalDistribution, nc) -> float:
    """Expected minimum of n i.i.d. copies, via minvar_n(X) = -maxvar_n(-X)."""
    n = _copy_count(nc)
    return -maxvar_choquet(affine(d, -1.0, 0.0), n)
