"""Scenario-based coherent risk measures on finite empirical distributions.

VaR, CVaR (two routes), MAXVAR (four cross-checking routes), MINVAR, the
dual risk envelope of maxvar with membership/duality checks, and a
property-test battery for the coherency and averseness axioms.
"""

from .axioms import (
    CheckRecord,
    PairedScenarios,
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
    SeededSampler,
    abs_expectation,
    affine,
    cdf,
    expectation,
    from_samples,
    quantile,
    sample,
)
from .envelope import (
    CoreCheckReport,
    CvarFeasibleFamily,
    DiscreteMixtureSpec,
    EnvelopeDensity,
    FamilySegment,
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
    # Older callers read the CLI helpers from the package (``mv.load_csv``);
    # they load maxvar.cli on first use instead of on every library import.
    if name in ("PortfolioSpec", "RiskQuery", "ScenarioTable", "cmd_verify",
                "emit_curve", "emit_envelope", "emit_table", "load_csv",
                "portfolio_law", "run_query", "sample_data_path"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
