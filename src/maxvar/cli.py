"""Scenario ingestion, portfolio aggregation, and the command-line interface.

Input is a single CSV format: UTF-8, comma separated, first row is the
header, every other cell a decimal real. A column literally named "prob"
carries scenario probabilities (equal weighting when absent). Output JSON
and CSV documents print numbers with 17 significant digits so identical
inputs produce byte-identical files on every platform.

Exit codes: 0 success, 1 usage error, 2 data/verification error.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import axioms
from ._serialize import format_number, format_rows, render_json
from .axioms import CheckRecord, VerificationReport, run_suite
from .dist import EmpiricalDistribution, SeededSampler, _check_probs, _sum, affine, from_samples
from .envelope import extremal_density
from .errors import (
    AllZeroWeights,
    EmptyInput,
    MissingHeader,
    NonFiniteValue,
    OutOfRange,
    ParseError,
    RiskError,
    UnknownColumn,
)
from .measures import (
    CopyCount,
    QuadratureRule,
    RiskLevel,
    _trial_count,
    cvar_min,
    maxvar_choquet,
    maxvar_mc,
    maxvar_mixture_exact,
    maxvar_mixture_quad,
    maxvar_spectral,
    suggest_rule,
    var,
)

MEASURES = ("var", "cvar", "maxvar", "minvar")


def _route_quad(law, q):
    rule = q.quadrature or suggest_rule(law)
    value = maxvar_mixture_quad(law, q.n, rule)
    return value, {"panels": rule.panels, "points": rule.points_per_panel}, {}


def _route_mc(law, q):
    est = maxvar_mc(law, q.n, q.trials, SeededSampler(q.seed))
    return est.estimate, {}, {"std_error": est.std_error}


# MAXVAR routes by --method: each maps (law, query) to (value, extra params,
# extra result fields). The maxvar_* names are looked up at call time, so a
# rebinding of this module's globals (as perfbench's tracer does) is seen.
ROUTES = {
    "choquet": lambda law, q: (maxvar_choquet(law, q.n), {}, {}),
    "mixture-exact": lambda law, q: (maxvar_mixture_exact(law, q.n), {}, {}),
    "mixture-quad": _route_quad,
    "mc": _route_mc,
    "spectral": lambda law, q: (maxvar_spectral(law, q.n), {}, {}),
}
METHODS = tuple(ROUTES)

PROB_COLUMN = "prob"
# Decimal CSV probabilities this close to summing to 1 are renormalized.
_CSV_PROB_SUM_TOL = 1e-9


def sample_data_path() -> Path:
    """Path of the bundled sample scenario CSV."""
    return Path(str(resources.files("maxvar").joinpath("data/sample_scenarios.csv")))


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """Named columns of per-scenario outcomes with optional probabilities."""

    columns: tuple[str, ...]
    rows: np.ndarray
    probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float).copy()
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ParseError("a table needs at least one scenario row")
        if rows.shape[1] != len(self.columns):
            raise ParseError("row width does not match the header")
        if not np.isfinite(rows).all():
            raise NonFiniteValue("scenario outcomes must be finite")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.probs is not None:
            probs = np.asarray(self.probs, dtype=float).copy()
            if len(probs) != rows.shape[0]:
                raise ParseError("probability column length does not match the rows")
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


@dataclass(frozen=True)
class RiskQuery:
    """A measure selection plus its parameters; invariants checked eagerly."""

    measure: str
    alpha: float | None = None
    n: int | None = None
    method: str | None = None
    trials: int | None = None
    seed: int | None = None
    quadrature: QuadratureRule | None = None

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise OutOfRange(f"measure must be one of {MEASURES}, got {self.measure!r}")
        tail_measure = self.measure in ("var", "cvar")
        if tail_measure != (self.alpha is not None):
            raise OutOfRange("alpha is required exactly for var/cvar queries")
        if (self.measure in ("maxvar", "minvar")) != (self.n is not None):
            raise OutOfRange("n is required exactly for maxvar/minvar queries")
        method = self.method
        if tail_measure:
            RiskLevel(self.alpha)
            if method is not None:
                raise OutOfRange("var/cvar queries take no method")
        else:
            CopyCount(self.n)
            method = method or "choquet"
            if method not in METHODS:
                raise OutOfRange(f"method must be one of {METHODS}, got {method!r}")
            object.__setattr__(self, "method", method)
        mc = method == "mc"
        if mc != (self.trials is not None) or mc != (self.seed is not None):
            raise OutOfRange("trials and seed are required exactly for method=mc")
        if mc:
            _trial_count(self.trials)
        if self.quadrature is not None and method != "mixture-quad":
            raise OutOfRange("a quadrature rule only applies to method=mixture-quad")


def _convert_cells(widths: list[int], cells: list[str], width: int) -> np.ndarray | None:
    """Every cell through ``float()`` in one pass, as a (rows, width) array;
    None if a row has the wrong width or a cell is not a finite number."""
    if set(widths) != {width}:
        return None
    try:
        parsed = np.fromiter(map(float, cells), float, count=len(cells))
    except ValueError:
        return None
    if not np.isfinite(parsed).all():
        return None
    return parsed.reshape(len(widths), width)


def _parse_cells(path, header: list[str], widths: list[int], cells: list[str]) -> np.ndarray:
    """Row-major cell by cell, raising ParseError at the first bad row or
    cell (a row's width is checked before its cells)."""
    parsed = np.empty((len(widths), len(header)))
    end = 0
    for i, width in enumerate(widths, start=1):
        if width != len(header):
            raise ParseError(f"{path}: row {i} has {width} cells, expected {len(header)}")
        start, end = end, end + width
        for j, cell in enumerate(cells[start:end]):
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
    return parsed


def load_csv(path) -> ScenarioTable:
    """Parse a scenario CSV (see module notes for the format).

    Fields are split and unquoted by the ``csv`` module, and a cell is
    accepted exactly when Python's ``float()`` reads it as a finite number
    (so ``1_000``, space-padded cells and full-width digits load, while
    ``nan``, ``inf`` and ``1e500`` are refused). Parse failures name
    the 1-based data row and the column. Probabilities off by more than 1e-9
    raise ProbSumMismatch; smaller drift is renormalized exactly.
    """
    raw = Path(path).read_bytes()
    body = raw.removeprefix(codecs.BOM_UTF8)  # spreadsheets prepend a BOM
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = len(raw) - len(body) + exc.start
        raise ParseError(f"{path}: not valid UTF-8 at byte {offset}") from None
    reader = csv.reader(text.splitlines())
    lines = filter(None, reader)  # blank lines are skipped
    # Data rows are kept as their widths and one flat list of cells. Each
    # row list is freed as soon as it is read, so the cyclic garbage
    # collector never runs here; keeping 10^4 row lists alive cost 3-7 ms
    # of collections per load on a 2-core Xeon (more with more live objects).
    widths: list[int] = []
    cells: list[str] = []
    try:
        first = next(lines, None)
        for row in lines:
            widths.append(len(row))
            cells += row
    except csv.Error as exc:  # e.g. a field above csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if first is None:
        raise MissingHeader(f"{path}: file is empty")
    header = [cell.strip() for cell in first]
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
    if not widths:
        raise EmptyInput(f"{path}: no scenario rows after the header")
    parsed = _convert_cells(widths, cells, len(header))
    if parsed is None:  # some row or cell is bad: find the first and name it
        parsed = _parse_cells(path, header, widths, cells)
    probs = None
    if PROB_COLUMN in header:
        j = header.index(PROB_COLUMN)
        probs = parsed[:, j]
        parsed = np.delete(parsed, j, axis=1)
        header = header[:j] + header[j + 1 :]
        total = _check_probs(probs, _CSV_PROB_SUM_TOL, what=f"{path}: probabilities")
        probs = probs / total
        if not header:
            raise EmptyInput(f"{path}: no outcome columns besides {PROB_COLUMN!r}")
    return ScenarioTable(columns=tuple(header), rows=parsed, probs=probs)


def portfolio_law(t: ScenarioTable, p: PortfolioSpec) -> EmpiricalDistribution:
    """Per scenario, value = sum of weight_c * outcome_c; then merge into a law."""
    combo = np.zeros(t.rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # from_samples rejects inf/nan
        for name, w in p.weights.items():
            combo = combo + w * t.column(name)
    return from_samples(np.column_stack([combo, t.scenario_probs]))


def run_query(t: ScenarioTable, p: PortfolioSpec, q: RiskQuery) -> dict:
    """Evaluate one query; returns the result document (insertion-ordered)."""
    law = portfolio_law(t, p)
    extra_params: dict = {}
    extra_fields: dict = {}
    if q.measure == "var":
        value = var(law, q.alpha)
    elif q.measure == "cvar":
        res = cvar_min(law, q.alpha)
        value, extra_fields = res.value, {"beta_star": res.beta_star}
    else:
        target = law if q.measure == "maxvar" else affine(law, -1.0, 0.0)
        value, extra_params, extra_fields = ROUTES[q.method](target, q)
        if q.measure == "minvar":  # minvar_n(X) = -maxvar_n(-X)
            value = -value
    fields = ("alpha", "n", "method", "trials", "seed")
    params = {f: v for f in fields if (v := getattr(q, f)) is not None}
    return {
        "measure": q.measure,
        "params": {**params, **extra_params},
        "value": value,
        **extra_fields,
        "atoms_used": law.atom_count,
    }


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def emit_table(t: ScenarioTable) -> str:
    """Table back to CSV with 17-digit numbers (bit-exact round trip)."""
    columns = list(t.columns)
    data = list(t.rows.T)
    if t.probs is not None:
        columns.append(PROB_COLUMN)
        data.append(t.probs)
    return _csv_lines(",".join(columns), format_rows(*data))


def emit_curve(t: ScenarioTable, p: PortfolioSpec, alphas=None, ns=None) -> str:
    """Sweep CVaR over an alpha grid or maxvar over an n range; CSV out."""
    if (alphas is None) == (ns is None):
        raise OutOfRange("provide exactly one of an alpha grid or an n range")
    law = portfolio_law(t, p)
    grid = list(ns if alphas is None else alphas)
    if not grid:
        raise OutOfRange("the alpha grid or n range is empty")
    if alphas is not None:
        rows = [f"{format_number(float(a))},{format_number(cvar_min(law, a).value)}" for a in grid]
    else:
        rows = [f"{int(n)},{format_number(maxvar_choquet(law, int(n)))}" for n in grid]
    return _csv_lines("param,value", rows)


def emit_envelope(t: ScenarioTable, p: PortfolioSpec, nc) -> str:
    """Extremal density as CSV rows (value, prob, q) plus an E[XQ] comment."""
    law = portfolio_law(t, p)
    q = extremal_density(law, nc).q
    attained = _sum(law.values * q * law.probs)
    rows = format_rows(law.values, law.probs, q)
    rows.append(f"# E[XQ]={format_number(attained)}")
    return _csv_lines("value,prob,q", rows)


def _column_checks(table: ScenarioTable, n: int) -> list[CheckRecord]:
    """The suite's route-mixture and strong-duality checks on each column."""
    records = []
    for name in table.columns:
        law = from_samples(
            np.column_stack([table.column(name), table.scenario_probs])
        )
        records += [
            replace(
                axioms._check_route_mixture(law, n),
                name=f"column-{name}-route-mixture",
                witness=f"column={name} n={n} atoms={law.atom_count}",
            ),
            replace(
                axioms._check_duality_strong(law, n),
                name=f"column-{name}-duality",
                witness=f"column={name} n={n}",
            ),
        ]
    return records


def cmd_verify(path, n: int, seed: int, trials: int) -> tuple[dict, int]:
    """Load the CSV, run the randomized suite plus per-column checks, and
    return (report document, exit code)."""
    table = load_csv(path)
    suite = run_suite(seed, trials)
    checks = sorted(
        [*suite.checks, *_column_checks(table, n)], key=lambda c: c.name
    )
    report = VerificationReport(seed=suite.seed, trials=suite.trials, checks=tuple(checks))
    return report.to_doc(), 0 if report.passed else 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, alpha=False, n=False, methods=False):
        sp.add_argument("--input", required=False, help="scenario CSV path")
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--column", help="single-column portfolio shorthand")
        group.add_argument("--weights", help='e.g. "a=0.5,b=0.5"')
        if alpha:
            sp.add_argument("--alpha", required=True, type=float)
        if n:
            sp.add_argument("--n", required=True, type=int)
        if methods:
            sp.add_argument("--method", default="choquet", choices=METHODS)
            sp.add_argument("--trials", type=int)
            sp.add_argument("--seed", type=int)
            sp.add_argument("--panels", type=int)
            sp.add_argument("--points", type=int)
        sp.add_argument("--output", help="write here instead of stdout")

    common(sub.add_parser("var", help="value-at-risk"), alpha=True)
    common(sub.add_parser("cvar", help="conditional value-at-risk"), alpha=True)
    common(sub.add_parser("maxvar", help="expected max of n i.i.d. copies"), n=True, methods=True)
    common(sub.add_parser("minvar", help="expected min of n i.i.d. copies"), n=True, methods=True)
    common(sub.add_parser("envelope", help="extremal dual density as CSV"), n=True)

    curve = sub.add_parser("curve", help="risk profile CSV over a parameter grid")
    common(curve)
    curve.add_argument("--alpha", help="comma-separated CVaR levels")
    curve.add_argument("--n", help="maxvar copy counts, e.g. 1:3 or 1,2,3")

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--input", help="scenario CSV (defaults to the bundled sample)")
    verify.add_argument("--n", type=int, default=2)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--output", help="write here instead of stdout")
    return parser


def _portfolio_from_args(args) -> PortfolioSpec:
    if getattr(args, "column", None):
        return PortfolioSpec({args.column: 1.0})
    weights = {}
    for piece in args.weights.split(","):
        name, _, raw = piece.partition("=")
        if not name or not raw:
            raise _UsageError(f"bad --weights entry {piece!r}; use name=value")
        try:
            weights[name.strip()] = float(raw)
        except ValueError:
            raise _UsageError(f"bad weight value in {piece!r}") from None
    return PortfolioSpec(weights)


def _parse_grid(raw: str, integral: bool):
    try:
        if ":" in raw and integral:
            lo, _, hi = raw.partition(":")
            return list(range(int(lo), int(hi) + 1))
        items = [piece for piece in raw.split(",") if piece.strip()]
        return [int(x) if integral else float(x) for x in items]
    except ValueError:
        raise _UsageError(f"cannot parse grid {raw!r}") from None


def _build_request(args):
    """Everything that can fail as a usage error happens here."""
    if args.command == "verify":
        CopyCount(args.n)
        return None
    portfolio = _portfolio_from_args(args)
    if args.command == "envelope":
        return portfolio, CopyCount(args.n).n
    if args.command == "curve":
        if (args.alpha is None) == (args.n is None):
            raise _UsageError("curve needs exactly one of --alpha or --n")
        if args.alpha is not None:
            grid = [RiskLevel(a).alpha for a in _parse_grid(args.alpha, integral=False)]
        else:
            grid = [CopyCount(n).n for n in _parse_grid(args.n, integral=True)]
        if not grid:
            raise _UsageError("the --alpha or --n grid is empty")
        return portfolio, grid
    if args.command in ("var", "cvar"):
        query = RiskQuery(measure=args.command, alpha=args.alpha)
    else:
        rule = None
        if args.panels is not None or args.points is not None:
            if args.panels is None:
                raise _UsageError("--points requires --panels")
            rule = QuadratureRule(
                panels=args.panels, points_per_panel=args.points or 16
            )
        query = RiskQuery(
            measure=args.command,
            n=args.n,
            method=args.method,
            trials=args.trials,
            seed=args.seed,
            quadrature=rule,
        )
    return portfolio, query


def _execute(args, request) -> tuple[str, int]:
    if args.command == "verify":
        path = args.input or sample_data_path()
        doc, code = cmd_verify(path, args.n, args.seed, args.trials)
        return render_json(doc), code
    table = load_csv(args.input or sample_data_path())
    portfolio, payload = request
    if args.command == "envelope":
        return emit_envelope(table, portfolio, payload), 0
    if args.command == "curve":
        if args.alpha is not None:
            return emit_curve(table, portfolio, alphas=payload), 0
        return emit_curve(table, portfolio, ns=payload), 0
    return render_json(run_query(table, portfolio, payload)), 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        request = _build_request(args)
    except (_UsageError, RiskError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        text, code = _execute(args, request)
        if getattr(args, "output", None):
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (RiskError, OSError) as exc:  # OSError: unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
