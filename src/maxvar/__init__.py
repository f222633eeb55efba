"""Scenario-based coherent risk measures on finite empirical distributions.

VaR, CVaR (two routes), MAXVAR (three cross-checking routes, a spectral one
that reindexes the choquet sum, and Monte Carlo), MINVAR, the dual envelope
with membership/duality checks, and property tests of coherency and averseness.
"""

from .axioms import (
    CheckRecord,
    VerificationReport,
    check_averseness,
    check_constant,
    check_l2_continuity,
    check_monotonicity,
    check_positive_homogeneity,
    check_subadditivity,
    check_translation,
    random_distribution,
    random_paired,
    run_suite,
)
from .dist import (
    CdfValue,
    EmpiricalDistribution,
    PortfolioSpec,
    ScenarioTable,
    SeededSampler,
    abs_expectation,
    affine,
    cdf,
    expectation,
    from_samples,
    portfolio_law,
    quantile,
    sample,
)
from .envelope import (
    CoreCheckReport,
    CvarFeasibleFamily,
    DiscreteMixtureSpec,
    EnvelopeDensity,
    core_check,
    cvar_extremal_density,
    discrete_envelope_check,
    dual_gap,
    extremal_density,
    mixture_density,
)
from .errors import (
    AllZeroWeights,
    BudgetTooSmall,
    DimensionMismatch,
    EmptyInput,
    InfeasibleFamily,
    InfeasiblePart,
    MissingHeader,
    NegativeProb,
    NonFiniteValue,
    NotInEnvelope,
    OutOfRange,
    ParseError,
    PreconditionViolated,
    ProbSumMismatch,
    RiskError,
    UnknownColumn,
)
from .measures import (
    CopyCount,
    CvarResult,
    McEstimate,
    QuadratureRule,
    RiskLevel,
    cvar_choquet,
    cvar_min,
    distortion_h,
    distortion_via_weights,
    g_alpha,
    maxvar_choquet,
    maxvar_mc,
    maxvar_mixture_exact,
    maxvar_mixture_quad,
    maxvar_spectral,
    minvar,
    quadrature_breakpoints,
    suggest_rule,
    var,
    weight,
    weight_cdf,
)

__version__ = "0.1.0"


def __getattr__(name):
    # Two CLI helpers are still read from the package (``mv.load_csv``); they
    # load maxvar.cli on first use instead of on every library import.
    if name in ("emit_envelope", "load_csv"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
