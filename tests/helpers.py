"""Shared test oracles, independent of the library's evaluation paths."""

import codecs
import csv
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from maxvar import (
    AllZeroWeights,
    BudgetTooSmall,
    CoreCheckReport,
    CvarFeasibleFamily,
    DimensionMismatch,
    EmptyInput,
    EmpiricalDistribution,
    EnvelopeDensity,
    InfeasibleFamily,
    McEstimate,
    MissingHeader,
    NegativeProb,
    NonFiniteValue,
    ParseError,
    PortfolioSpec,
    ProbSumMismatch,
    QuadratureRule,
    RiskError,
    ScenarioTable,
    SeededSampler,
    core_check,
    cvar_choquet,
    cvar_min,
    dual_gap,
    expectation,
    extremal_density,
    from_samples,
    maxvar_choquet,
    maxvar_mixture_exact,
    maxvar_spectral,
    mixture_density,
    portfolio_law,
)
from maxvar import axioms
from maxvar._serialize import format_rows
from maxvar.axioms import CheckRecord, VerificationReport
from maxvar.cli import PROB_COLUMN
from maxvar.envelope import _CORE_TOL
from maxvar.measures import _copy_count, _var_index


def d4() -> EmpiricalDistribution:
    return from_samples([(1, 1), (2, 1), (3, 1), (4, 1)])


def bernoulli_half() -> EmpiricalDistribution:
    return from_samples([(0, 1), (1, 1)])


def brute_force_maxvar(d: EmpiricalDistribution, n: int) -> float:
    """Exhaustive oracle: enumerate all m^n ordered outcome tuples of n
    independent draws and average the max."""
    atoms = list(zip(d.values.tolist(), d.probs.tolist()))
    terms = []
    for combo in itertools.product(atoms, repeat=n):
        prob = math.prod(p for _, p in combo)
        terms.append(max(v for v, _ in combo) * prob)
    return math.fsum(terms)


def exact_maxvar(d: EmpiricalDistribution, n: int) -> Fraction:
    """Exact sum_k v_k (F_k^n - F_{k-1}^n) in rational arithmetic, on the law
    as stored: every value and mass is read as the exact rational its float
    holds, and F_k is the exact prefix sum of the masses over their exact
    total, so F ends at exactly 1."""
    masses = [Fraction(p) for p in d.probs.tolist()]
    total = sum(masses)
    prefix = Fraction(0)
    value = Fraction(0)
    for v, p in zip(d.values.tolist(), masses):
        below = (prefix / total) ** n
        prefix += p
        value += Fraction(v) * ((prefix / total) ** n - below)
    return value


def brute_force_minvar(d: EmpiricalDistribution, n: int) -> float:
    atoms = list(zip(d.values.tolist(), d.probs.tolist()))
    terms = []
    for combo in itertools.product(atoms, repeat=n):
        prob = math.prod(p for _, p in combo)
        terms.append(min(v for v, _ in combo) * prob)
    return math.fsum(terms)


def brute_force_cvar(d: EmpiricalDistribution, alpha: float) -> float:
    """CVaR by dense scan of the piecewise-linear objective plus exact
    evaluation at the atoms (the kink locations)."""
    lo, hi = float(d.values[0]), float(d.values[-1])
    grid = np.unique(
        np.concatenate([d.values, np.linspace(lo - 1.0, hi + 1.0, 2001)])
    )
    best = math.inf
    for beta in grid:
        tail = math.fsum(np.maximum(d.values - beta, 0.0) * d.probs)
        best = min(best, beta + tail / (1.0 - alpha))
    return best


def inverse_cdf_index_by_search(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Frozen reference for the inverse-CDF lookups of ``maxvar.dist``
    (``_guided_index`` and ``_inverse_cdf_values``): the left
    binary search of the cumulative probabilities."""
    return np.searchsorted(cumulative, u, side="left")


def mc_draw_then_max(
    d: EmpiricalDistribution, n: int, trials: int, sampler: SeededSampler
) -> McEstimate:
    """Reference Monte Carlo maxvar that ``maxvar.maxvar_mc`` must match bit
    for bit: draw all trials x n uniforms at once, map each through the
    inverse CDF by binary search, take each row's max, then average and take
    the standard error in trial order. The sum uses ``math.fsum``, which the
    library's exact sum matches bit for bit.
    """
    u = sampler.uniforms(trials * n)
    draws = d.values[inverse_cdf_index_by_search(d.cumulative, u)]
    maxima = draws.reshape(trials, n).max(axis=1)
    if maxima.min() == maxima.max():
        estimate, std_error = float(maxima[0]), 0.0
    else:
        estimate = math.fsum(maxima.tolist()) / trials
        std_error = float(np.std(maxima, ddof=1)) / math.sqrt(trials)
    return McEstimate(estimate=estimate, std_error=std_error, trials=trials, seed=sampler.seed)


def from_samples_validated(raw) -> EmpiricalDistribution:
    """Reference that ``maxvar.from_samples`` must match bit for bit, and in
    the type and message of the error it raises: the same input checks and
    merge, with the law built by the validating constructor from
    ``merged / total``. Sums use ``math.fsum``, which the library's exact sum
    matches bit for bit; a total that overflows is outside its domain."""
    data = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw), dtype=float)
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
    total = math.fsum(merged.tolist())
    return EmpiricalDistribution(uniq, merged / total)


def portfolio_law_via_pairs(t: ScenarioTable, p: PortfolioSpec) -> EmpiricalDistribution:
    """Reference that ``maxvar.portfolio_law`` must match bit for bit: the
    portfolio value per scenario, stacked with the scenario probabilities
    into (value, weight) pairs and built by :func:`from_samples_validated`."""
    combo = np.zeros(t.rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for name, w in p.weights.items():
            combo = combo + w * t.column(name)
    return from_samples_validated(np.column_stack([combo, t.scenario_probs]))


def law_outcome(build, *args):
    """The law's value and probability bits with their read-only flags, or
    the type and message of the typed error that building it raised."""
    try:
        d = build(*args)
    except RiskError as exc:
        return type(exc), str(exc)
    arrays = (d.values, d.probs)
    return tuple((a.dtype.str, a.tobytes(), a.flags.writeable) for a in arrays)


def layers_by_diff(d: EmpiricalDistribution, n: int) -> np.ndarray:
    """Reference that ``CopyCount.layers`` must match bit for bit:
    F_k^n - F_{k-1}^n as ``np.diff`` with a prepended 0."""
    return np.diff(d.cumulative**n, prepend=0.0)


# Frozen copies of the expressions in n that ``CopyCount``'s methods must
# match bit for bit: each operation order is the one the golden outputs and
# benchmark digests were computed with. The references below read these,
# never the library's own.


def h_frozen(n: int, x):
    return 1.0 - (1.0 - x) ** n


def weight_frozen(n: int, a):  # w_n(a)
    return n * (n - 1) * (1.0 - a) * a ** (n - 2)


def tail_weight_frozen(n: int, a):  # w_n(a)/(1-a), in the quadrature's order
    return n * (n - 1) * a ** (n - 2)


def weight_cdf_frozen(n: int, a):  # W(a), the integral of w_n from 0
    return n * a ** (n - 1) - (n - 1) * a**n


def tail_weight_cdf_frozen(n: int, a):  # V(a), the integral of w_n/(1-t) from 0
    return n * a ** (n - 1)


def run_maxima_frozen(u: np.ndarray, n: int, trials: int) -> np.ndarray:
    # the max of each of ``trials`` runs of n uniforms
    return np.maximum.reduceat(u, np.arange(0, trials * n, n))


# Frozen copies of the per-law paths that ``affine``, ``_var_index``,
# ``maxvar_spectral`` and ``maxvar_mixture_exact`` must match bit for bit, in
# the full-length passes they used to make.


def affine_by_unique(d: EmpiricalDistribution, scale, shift) -> EmpiricalDistribution:
    """Reference for ``maxvar.affine``: the new values merged by ``np.unique``
    and each merged atom's weights summed in atom order by ``np.bincount``
    over its inverse, then built by the validating constructor.
    ``return_index`` makes ``np.unique`` sort stably, so a run that mixes
    0.0 and -0.0 keeps its first atom's value; its default sort keeps no
    order among equal keys, which under a negative scale left that sign to
    the sort."""
    scale = float(scale)
    shift = float(shift)
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise NonFiniteValue("scale and shift must be finite")
    if scale == 0.0:
        return EmpiricalDistribution(np.array([shift]), np.array([1.0]))
    with np.errstate(over="ignore"):
        new_values = d.values * scale + shift
    uniq, _, inverse = np.unique(new_values, return_index=True, return_inverse=True)
    merged = np.bincount(inverse, weights=d.probs, minlength=len(uniq))
    return EmpiricalDistribution(uniq, merged)


def minvar_on_mirrored_law(d: EmpiricalDistribution, n: int) -> float:
    """Reference that ``maxvar.minvar`` must match bit for bit:
    -maxvar_n(-X) with -X's law built by :func:`affine_by_unique` and its
    maxvar summed over :func:`layers_by_diff` in -X's atom order. Sums use
    ``math.fsum``, which the library's exact sum matches bit for bit."""
    mirror = affine_by_unique(d, -1.0, 0.0)
    return -math.fsum(mirror.values * layers_by_diff(mirror, n))


def var_index_by_negation(d: EmpiricalDistribution, alpha):
    # the smallest k with surv[k] < 1 - alpha, searched on the negated survival
    k = np.searchsorted(-d.survival, -(1.0 - alpha), side="right")
    return np.minimum(k, d.atom_count - 1)


def left_quantile_index_by_search(cum: np.ndarray) -> np.ndarray:
    # the first index whose level reaches each level
    return np.searchsorted(cum, cum, side="left")


def spectral_by_search(d: EmpiricalDistribution, n: int) -> float:
    """Reference that ``maxvar.maxvar_spectral`` must match bit for bit: the
    layers reindexed by a search of the cumulative levels for themselves.
    Sums use ``math.fsum``, which the library's exact sum matches bit for
    bit."""
    cum = d.cumulative
    atoms = d.values[left_quantile_index_by_search(cum)]
    return math.fsum(atoms * layers_by_diff(d, n))


def mixture_exact_at_both_ends(d: EmpiricalDistribution, n: int) -> float:
    """Reference that ``maxvar.maxvar_mixture_exact`` must match bit for bit,
    and in the type and message of the error it raises: W and V evaluated at
    each stratum's upper end and again at its lower end. Sums use
    ``math.fsum``, which the library's exact sum matches bit for bit."""
    if n == 1:
        return expectation(d)
    hi = d.cumulative
    lo = np.concatenate(([0.0], hi[:-1]))
    d_w = weight_cdf_frozen(n, hi) - weight_cdf_frozen(n, lo)
    d_tail = tail_weight_cdf_frozen(n, hi) - tail_weight_cdf_frozen(n, lo)
    with np.errstate(over="ignore"):
        try:
            value = math.fsum(d.values * d_w) + math.fsum(d.upper_tails * d_tail)
        except (OverflowError, ValueError):
            value = math.nan
    if not math.isfinite(value):
        raise NonFiniteValue(f"the mixture-exact sum at n = {n} leaves the float range")
    return value


def random_small_dist(rng: np.random.Generator, max_atoms: int = 6) -> EmpiricalDistribution:
    m = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(-100.0, 100.0, size=m)
    weights = rng.uniform(0.05, 1.0, size=m)
    return from_samples(np.column_stack([values, weights]))


def skewed_law() -> EmpiricalDistribution:
    """200 atoms, one of which carries about 1 - 1e-9 of the mass; the rest
    is dust."""
    rng = np.random.default_rng(98)
    values = rng.uniform(-10, 10, 200)
    weights = np.concatenate([[1e6], rng.uniform(1e-4, 1e-2, 199)])
    return from_samples(np.column_stack([values, weights]))


def load_csv_per_cell(path) -> ScenarioTable:
    """Reference scenario-CSV parser that ``maxvar.cli.load_csv`` must match:
    the whole table is tokenized first, then every cell goes through
    ``float()`` row by row and the first bad row or cell raises. Sums use
    ``math.fsum``, which the library's exact sum matches bit for bit.
    """
    raw = Path(path).read_bytes()
    body = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = len(raw) - len(body) + exc.start
        raise ParseError(f"{path}: not valid UTF-8 at byte {offset}") from None
    reader = csv.reader(text.splitlines())
    try:
        table = [row for row in reader if row]
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not table:
        raise MissingHeader(f"{path}: file is empty")
    header = [cell.strip() for cell in table[0]]
    if not header or any(not name for name in header):
        raise MissingHeader(f"{path}: blank column name in header")
    for name in header:
        try:
            is_data = math.isfinite(float(name))
        except ValueError:
            continue
        if is_data:
            raise MissingHeader(f"{path}: header cell {name!r} looks like data")
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: duplicate column names in header")
    if len(table) == 1:
        raise EmptyInput(f"{path}: no scenario rows after the header")
    parsed = np.empty((len(table) - 1, len(header)))
    for i, row in enumerate(table[1:], start=1):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i}, column {header[j]!r}: cannot parse {cell.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {i}, column {header[j]!r}: non-finite value"
                )
            parsed[i - 1, j] = value
    probs = None
    if PROB_COLUMN in header:
        j = header.index(PROB_COLUMN)
        probs = parsed[:, j]
        parsed = np.delete(parsed, j, axis=1)
        header = header[:j] + header[j + 1 :]
        if np.any(probs <= 0.0):
            raise NegativeProb(f"{path}: probabilities must be > 0")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ProbSumMismatch(f"{path}: probabilities sum to {total!r}, not 1")
        probs = probs / total
        if not header:
            raise EmptyInput(f"{path}: no outcome columns besides {PROB_COLUMN!r}")
    return ScenarioTable(columns=tuple(header), rows=parsed, probs=probs)


def emit_table(t: ScenarioTable) -> str:
    """Table back to CSV with 17-digit numbers (bit-exact round trip)."""
    columns = list(t.columns)
    data = list(t.rows.T)
    if t.probs is not None:
        columns.append(PROB_COLUMN)
        data.append(t.probs)
    return "\n".join([",".join(columns), *format_rows(*data)]) + "\n"


def cvar_extremal_segments(d: EmpiricalDistribution) -> list:
    """Reference for ``CvarFeasibleFamily.cvar_extremal``: one
    (lo, hi, flat, tail) tuple per stratum of positive width, built atom by
    atom."""
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
        segments.append((lo, hi, flat, tail))
    return segments


def mixture_density_per_segment(d: EmpiricalDistribution, n: int, segments) -> EnvelopeDensity:
    """Reference that ``maxvar.mixture_density`` must match bit for bit, and
    in the type of error it raises: each (lo, hi, flat, tail) segment is
    validated in turn, then integrated against w_n and added to a running
    total in partition order."""
    if not segments:
        raise InfeasibleFamily("family has no segments")
    m = d.atom_count
    tol = 1e-12
    expect_lo = 0.0
    for lo, hi, flat, tail in segments:
        if len(flat) != m or len(tail) != m:
            raise DimensionMismatch(f"segment density has {len(flat)} entries, not {m}")
        if lo != expect_lo:
            raise InfeasibleFamily(f"segments must partition [0, 1); gap at {expect_lo!r}")
        if not hi > lo:
            raise InfeasibleFamily("segment bounds must be increasing")
        for a in (lo, hi):
            scaled = flat * (1.0 - a) + tail
            if np.any(scaled < -tol) or np.any(scaled > 1.0 + tol):
                raise InfeasibleFamily(f"segment [{lo}, {hi}) breaks its bound at {a}")
        if abs(math.fsum(flat * d.probs) - 1.0) > tol:
            raise InfeasibleFamily(f"segment [{lo}, {hi}) mean is not 1")
        if abs(math.fsum(tail * d.probs)) > tol:
            raise InfeasibleFamily(f"segment [{lo}, {hi}) tail has nonzero mean")
        expect_lo = hi
    if expect_lo != 1.0:
        raise InfeasibleFamily(f"segments must end at 1, last ends at {expect_lo!r}")
    _, _, flat, tail = segments[0]
    if n == 1:
        return EnvelopeDensity(flat + tail)
    q = np.zeros(m)
    for lo, hi, flat, tail in segments:
        bounds = np.array([lo, hi])
        d_w = float(np.diff(weight_cdf_frozen(n, bounds))[0])
        d_v = float(np.diff(tail_weight_cdf_frozen(n, bounds))[0])
        q += flat * d_w + tail * d_v
    return EnvelopeDensity(q)


def random_feasible_family_per_segment(
    d: EmpiricalDistribution, gen: np.random.Generator
) -> CvarFeasibleFamily:
    """Frozen per-segment form of ``axioms._random_feasible_family``, which
    must match it bit for bit and leave ``gen`` in the same state: one draw
    per segment, normalized by its ``math.fsum`` mean, shrunk toward 1 by the
    least ratio over the entries above the segment's bound."""
    cuts = np.sort(gen.uniform(0.05, 0.95, size=axioms._FAMILY_SEGMENTS - 1))
    bounds = np.concatenate(([0.0], cuts, [1.0]))
    densities = []
    for lo in bounds[:-1]:
        raw = gen.uniform(0.0, 2.0, size=d.atom_count) + 1e-3
        q = raw / math.fsum((raw * d.probs).tolist())
        cap = 1.0 / (1.0 - lo)  # pointwise bound over the whole segment
        over = q > cap
        gamma = 1.0
        if over.any():
            gamma = float(np.min((cap - 1.0) / (q[over] - 1.0)))
        densities.append(1.0 + 0.999 * gamma * (q - 1.0))
    return CvarFeasibleFamily.from_constant_densities(bounds, densities)


def _exact_mean(terms: np.ndarray) -> float:
    # the sum of finite terms correctly rounded, inf when it rounds past the
    # float range (only its distance from 0 or 1 is read)
    exact = sum(Fraction(t) for t in terms.tolist())
    return float(exact) if abs(exact) < 2**1024 - 2**970 else math.inf


def validate_family_per_segment(d: EmpiricalDistribution, fam: CvarFeasibleFamily) -> None:
    """Frozen per-segment form of ``envelope._validate_family``, which must
    raise the same type of error with the same message: each segment checked
    in turn, its entries for finiteness, its bounds, then the density at its
    lo and at its hi, then its mean, then its tail's mean unless the tail is
    all zero. A mean is the exact rational sum of the products, rounded
    once: ``math.fsum``'s result where fsum returns one, and where its
    partial sums overflow, still the exact sum's rounding, or inf past the
    float range."""
    tol = 1e-12
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
    for i in range(shape[0]):
        lo, hi = float(fam.bounds[i]), float(fam.bounds[i + 1])
        flat, tail = fam.flat[i], fam.tail[i]
        if not (np.isfinite(flat).all() and np.isfinite(tail).all()):
            raise InfeasibleFamily(f"segment [{lo}, {hi}) has an entry that is not finite")
        if not hi > lo:
            raise InfeasibleFamily("segment bounds must be increasing")
        for a in (lo, hi):
            with np.errstate(over="ignore"):
                scaled = flat * (1.0 - a) + tail
            if np.any(scaled < -tol):
                raise InfeasibleFamily(f"segment [{lo}, {hi}) density goes negative at level {a}")
            if np.any(scaled > 1.0 + tol):
                raise InfeasibleFamily(f"segment [{lo}, {hi}) exceeds the CVaR bound at level {a}")
        if abs(_exact_mean(flat * d.probs) - 1.0) > tol:
            raise InfeasibleFamily(f"segment [{lo}, {hi}) mean is not 1")
        if tail.any() and abs(_exact_mean(tail * d.probs)) > tol:
            raise InfeasibleFamily(f"segment [{lo}, {hi}) tail component has nonzero mean")
    if fam.bounds[-1] != 1.0:
        raise InfeasibleFamily(f"segments must end at 1, last ends at {float(fam.bounds[-1])!r}")


def quadrature_breakpoints_unique(d: EmpiricalDistribution) -> np.ndarray:
    """Reference that ``maxvar.quadrature_breakpoints`` must match bit for
    bit: the interior cumulative levels, sorted and deduplicated by
    ``np.unique``."""
    interior = d.cumulative[:-1]
    return np.unique(interior[(interior > 0.0) & (interior < 1.0)])


def quad_nodes(d: EmpiricalDistribution, q: QuadratureRule) -> tuple:
    """The half-width of each panel of ``q`` on ``d``, the Gauss-Legendre
    weights, and the matrix whose row i holds panel i's nodes, ascending, as
    ``maxvar.maxvar_mixture_quad`` forms them. The nodes are solved afresh
    and the breakpoints come from :func:`quadrature_breakpoints_unique`."""
    breaks = quadrature_breakpoints_unique(d)
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
    return half[:, 0], gl_weights, 0.5 * (lo + hi) + half * nodes


def quad_panels(d: EmpiricalDistribution, n: int, q: QuadratureRule) -> tuple:
    """The half-width of each panel of ``q`` on ``d``, and the matrix whose
    row i holds panel i's Gauss-Legendre weights times the integrand at its
    nodes from :func:`quad_nodes`, as ``maxvar.maxvar_mixture_quad`` forms
    them before any rescaling, every node's VaR atom searched in full;
    entries past the float range are inf."""
    half, gl_weights, x = quad_nodes(d, q)
    k = _var_index(d, x)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = tail_weight_frozen(n, x) * ((1.0 - x) * d.values[k] + d.upper_tails[k])
        return half, gl_weights * integrand


def mixture_quad_per_panel(d: EmpiricalDistribution, n: int, q: QuadratureRule) -> float:
    """Reference that ``maxvar.maxvar_mixture_quad`` must match bit for bit
    on laws whose sums stay in the float range: each row of
    :func:`quad_panels` is summed on its own. Sums use ``math.fsum``, which
    the library's exact sum matches bit for bit."""
    if n == 1:
        return expectation(d)
    half, rows = quad_panels(d, n, q)
    return math.fsum([h * math.fsum(row) for h, row in zip(half, rows)])


def upper_set_violations_full_length(d: EmpiricalDistribution, n: int, q: np.ndarray) -> tuple:
    """Frozen full-length form of ``core_check``'s sweep: the signed
    violations E(Q 1_A) - h(P(A)) over the upper-level sets of q, the stable
    descending-q atom order and each set's prefix-end index, from one argsort
    and full-length prefix sums."""
    order = np.argsort(-q, kind="stable")
    sorted_q = q[order]
    ends = np.nonzero(np.append(sorted_q[:-1] > sorted_q[1:], True))[0]
    mass = np.minimum(np.cumsum(d.probs[order]), 1.0)[ends]
    charge = np.cumsum(sorted_q * d.probs[order])[ends]
    return charge - h_frozen(n, mass), order, ends


def core_check_full_length(
    d: EmpiricalDistribution, n: int, e: EnvelopeDensity, collect_sets: bool = False
) -> CoreCheckReport:
    """Reference that ``maxvar.core_check`` must match bit for bit in every
    field: the report read off :func:`upper_set_violations_full_length`.
    Sums use ``math.fsum``, which the library's exact sum matches bit for
    bit."""
    q = e.q
    violations, order, ends = upper_set_violations_full_length(d, n, q)
    tight = ()
    if collect_sets:
        entered = tuple(d.values[order].tolist())
        tight = tuple(entered[: j + 1] for j in ends[np.abs(violations) <= _CORE_TOL].tolist())
    mean_gap = math.fsum(q * d.probs) - 1.0
    max_violation = float(np.max(violations))
    return CoreCheckReport(
        max_violation=max_violation,
        mean_gap=mean_gap,
        max_equality_gap=float(np.max(np.abs(violations))),
        tight_sets=tight,
        tolerance=_CORE_TOL,
        passed=max_violation <= _CORE_TOL and abs(mean_gap) <= _CORE_TOL,
    )


def tight_sets_by_sort(d: EmpiricalDistribution, n: int, e: EnvelopeDensity) -> tuple:
    """Set-equality reference for ``maxvar.core_check(...).tight_sets``:
    gather each tight upper-level set from the descending-q order and sort
    its values."""
    violations, order, ends = upper_set_violations_full_length(d, n, e.q)
    tight = []
    for j in ends[np.abs(violations) <= _CORE_TOL]:
        members = np.sort(d.values[order[: j + 1]])
        tight.append(tuple(members.tolist()))
    return tuple(tight)


def tight_sets_in_entry_order(d: EmpiricalDistribution, n: int, e: EnvelopeDensity) -> tuple:
    """Reference for ``maxvar.core_check(...).tight_sets``, order included:
    the atoms stable-sorted by -q in plain Python (ties keep ascending value),
    and each tight set the first atoms of that order up to its end."""
    violations, _, ends = upper_set_violations_full_length(d, n, e.q)
    q = e.q.tolist()
    values = d.values.tolist()
    entered = [values[i] for i in sorted(range(len(q)), key=lambda i: -q[i])]
    tight = ends[np.abs(violations) <= _CORE_TOL].tolist()
    return tuple(tuple(entered[: j + 1]) for j in tight)


def run_suite_per_check(seed: int, trials: int) -> VerificationReport:
    """Frozen reference for ``maxvar.run_suite``: the same draws per trial,
    each record from its public ``check_*`` function or, for a check without
    one, from its record builder in ``maxvar.axioms`` with every number it
    reads evaluated afresh here, so every law and route value is evaluated
    anew for each check that reads it, and the random family from
    :func:`random_feasible_family_per_segment`; the worst signed violation
    per check name is kept."""
    worst = {}

    def consider(rec: CheckRecord) -> None:
        old = worst.get(rec.name)
        if old is None or rec.violation > old.violation:
            worst[rec.name] = rec

    for trial in range(trials):
        gen = SeededSampler(seed, stream_id=trial + 1).generator()
        d = axioms.random_distribution(gen)
        pair = axioms.random_paired(gen)
        n = int(gen.integers(2, 11))
        c = float(gen.uniform(-50.0, 50.0))
        lam = float(gen.uniform(0.01, 4.0))
        alpha = float(gen.uniform(0.0, 0.999))

        consider(axioms.check_constant(n, c))
        consider(axioms.check_subadditivity(pair, n))
        x, y = pair.column("x"), pair.column("y")
        mono = axioms._xy_table(x, x + np.abs(y) * 0.1, pair.probs)
        consider(axioms.check_monotonicity(mono, n))
        consider(axioms.check_positive_homogeneity(d, n, lam))
        consider(axioms.check_translation(d, n, c))
        if d.atom_count >= 2:
            averse_d = d
        else:
            averse_d = axioms.random_distribution(gen, 50, min_atoms=2)
        consider(axioms.check_averseness(averse_d, n))
        near = axioms._xy_table(x, x + gen.uniform(-0.5, 0.5, size=len(x)), pair.probs)
        consider(axioms.check_l2_continuity(near, n))
        cc = _copy_count(n)
        rx = maxvar_choquet(portfolio_law(pair, axioms.X), cc)
        ry = maxvar_choquet(portfolio_law(pair, axioms.Y), cc)
        mixed = [maxvar_choquet(portfolio_law(pair, mix), cc) for _, mix in axioms.MIXES]
        consider(axioms._convexity_record(pair, cc, rx, ry, mixed))
        consider(axioms._abs_bound_record(d, cc, maxvar_choquet(d, cc)))
        consider(
            axioms._n_monotone_record(d, cc, maxvar_choquet(d, cc), maxvar_choquet(d, n + 1))
        )
        consider(
            axioms._route_mixture_record(d, cc, maxvar_choquet(d, cc), maxvar_mixture_exact(d, cc))
        )
        consider(
            axioms._route_spectral_record(d, cc, maxvar_choquet(d, cc), maxvar_spectral(d, cc))
        )
        consider(
            axioms._cvar_routes_record(d, alpha, cvar_min(d, alpha).value, cvar_choquet(d, alpha))
        )
        consider(
            axioms._cvar_dominance_record(d, alpha, expectation(d), cvar_min(d, alpha).value)
        )
        consider(axioms._beta_star_record(d, alpha, cvar_min(d, alpha).beta_star))
        gap = dual_gap(d, cc, extremal_density(d, cc))
        consider(axioms._duality_strong_record(d, cc, gap))
        report = core_check(d, cc, extremal_density(d, cc), collect_sets=False)
        consider(axioms._core_tightness_record(d, cc, report))
        consider(axioms._envelope_bound_record(d, cc, extremal_density(d, cc).q))
        # the random family is drawn last, after every other draw of the trial
        q = mixture_density(d, cc, random_feasible_family_per_segment(d, gen))
        consider(axioms._duality_weak_record(d, cc, dual_gap(d, cc, q)))

    checks = tuple(worst[name] for name in sorted(worst))
    return VerificationReport(seed=int(seed), trials=int(trials), checks=checks)
