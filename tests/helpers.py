"""Shared test oracles, independent of the library's evaluation paths."""

import codecs
import csv
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from maxvar import (
    BudgetTooSmall,
    DimensionMismatch,
    EmptyInput,
    EmpiricalDistribution,
    EnvelopeDensity,
    InfeasibleFamily,
    McEstimate,
    MissingHeader,
    NegativeProb,
    ParseError,
    ProbSumMismatch,
    QuadratureRule,
    ScenarioTable,
    SeededSampler,
    expectation,
    from_samples,
    quadrature_breakpoints,
    sample,
)
from maxvar._serialize import format_rows
from maxvar.cli import PROB_COLUMN
from maxvar.envelope import _CORE_TOL, _upper_set_violations
from maxvar.measures import _copy_count, _var_index, _weight_cdf_arr, _weight_over_tail_arr


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


def mc_draw_then_max(
    d: EmpiricalDistribution, n: int, trials: int, sampler: SeededSampler
) -> McEstimate:
    """Reference Monte Carlo maxvar that ``maxvar.maxvar_mc`` must match bit
    for bit: draw all trials x n values through the inverse CDF, take each
    row's max, then average and take the standard error in trial order. The
    sum uses ``math.fsum``, which the library's exact sum matches bit for bit.
    """
    maxima = sample(d, sampler, trials * n).reshape(trials, n).max(axis=1)
    if maxima.min() == maxima.max():
        estimate, std_error = float(maxima[0]), 0.0
    else:
        estimate = math.fsum(maxima.tolist()) / trials
        std_error = float(np.std(maxima, ddof=1)) / math.sqrt(trials)
    return McEstimate(estimate=estimate, std_error=std_error, trials=trials, seed=sampler.seed)


def random_small_dist(rng: np.random.Generator, max_atoms: int = 6) -> EmpiricalDistribution:
    m = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(-100.0, 100.0, size=m)
    weights = rng.uniform(0.05, 1.0, size=m)
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
        d_w = float(np.diff(_weight_cdf_arr(n, bounds))[0])
        d_v = float(np.diff(_weight_over_tail_arr(n, bounds))[0])
        q += flat * d_w + tail * d_v
    return EnvelopeDensity(q)


def mixture_quad_per_panel(d: EmpiricalDistribution, nc, q: QuadratureRule) -> float:
    """Reference that ``maxvar.maxvar_mixture_quad`` must match bit for bit:
    the Gauss-Legendre nodes are solved afresh on every call and each panel's
    numpy row is summed as it is. Sums use ``math.fsum``, which the library's
    exact sum matches bit for bit."""
    n = _copy_count(nc)
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
    return math.fsum([h * math.fsum(row) for h, row in zip(half[:, 0], gl_weights * integrand)])


def tight_sets_by_sort(d: EmpiricalDistribution, n: int, e: EnvelopeDensity) -> tuple:
    """Reference for ``maxvar.core_check(...).tight_sets``: gather each tight
    upper-level set from the descending-q order and sort its values."""
    violations, order, ends = _upper_set_violations(d, n, e.q)
    tight = []
    for j in ends[np.abs(violations) <= _CORE_TOL]:
        members = np.sort(d.values[order[: j + 1]])
        tight.append(tuple(members.tolist()))
    return tuple(tight)
