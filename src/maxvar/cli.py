"""Scenario CSV ingestion and the command-line interface.

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
from collections import namedtuple
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import axioms
from ._serialize import format_number, format_rows, render_json
from .axioms import CheckRecord, VerificationReport, run_suite
from .dist import (
    PortfolioSpec,
    ScenarioTable,
    SeededSampler,
    _check_probs,
    _sum,
    affine,
    from_samples,  # unused here; perfbench's tracer test reads maxvar.cli.from_samples
    portfolio_law,
)
from .envelope import extremal_density
from .errors import EmptyInput, MissingHeader, OutOfRange, ParseError, RiskError
from .measures import (
    CopyCount,
    QuadratureRule,
    RiskLevel,
    _alpha_value,
    _cvar_at,
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


def _route_quad(law, q):
    points = () if q.points is None else (q.points,)  # else QuadratureRule's default
    rule = suggest_rule(law) if q.panels is None else QuadratureRule(q.panels, *points)
    value = maxvar_mixture_quad(law, q.n, rule)
    return value, {"panels": rule.panels, "points": rule.points_per_panel}, {}


def _route_mc(law, q):
    est = maxvar_mc(law, q.n, q.trials, SeededSampler(q.seed))
    return est.estimate, {}, {"std_error": est.std_error}


# MAXVAR routes by --method: each maps (law, options) to (value, extra
# params, extra result fields). The maxvar_* names are looked up at call
# time, so a rebinding of this module's globals (as perfbench's tracer
# does) is seen; so are the names the MEASURES and COMMANDS tables call.
ROUTES = {
    "choquet": lambda law, q: (maxvar_choquet(law, q.n), {}, {}),
    "mixture-exact": lambda law, q: (maxvar_mixture_exact(law, q.n), {}, {}),
    "mixture-quad": _route_quad,
    "mc": _route_mc,
    "spectral": lambda law, q: (maxvar_spectral(law, q.n), {}, {}),
}


def _cvar(law, q):
    res = cvar_min(law, q.alpha)
    return res.value, {}, {"beta_star": res.beta_star}


def _minvar(law, q):  # minvar_n(X) = -maxvar_n(-X)
    value, params, fields = ROUTES[q.method](affine(law, -1.0, 0.0), q)
    return -value, params, fields


# The measure subcommands, in the same form as ROUTES.
MEASURES = {
    "var": lambda law, q: (var(law, q.alpha), {}, {}),
    "cvar": _cvar,
    "maxvar": lambda law, q: ROUTES[q.method](law, q),
    "minvar": _minvar,
}

PROB_COLUMN = "prob"
# Decimal CSV probabilities this close to summing to 1 are renormalized.
_CSV_PROB_SUM_TOL = 1e-9


def sample_data_path() -> Path:
    """Path of the bundled sample scenario CSV."""
    return Path(str(resources.files("maxvar").joinpath("data/sample_scenarios.csv")))


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


def _raise_bad_cell(path, header: list[str], widths: list[int], cells: list[str]) -> NoReturn:
    """Raise ParseError at the first bad row or cell, row-major (a row's width
    is checked before its cells); called once :func:`_convert_cells` has
    found that there is one."""
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
        _raise_bad_cell(path, header, widths, cells)
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


def run_query(t: ScenarioTable, p: PortfolioSpec, q) -> dict:
    """Evaluate one query; ``q`` holds a measure subcommand's parsed options,
    with ``q.command`` naming the measure. Returns the result document
    (insertion-ordered)."""
    law = portfolio_law(t, p)
    value, extra_params, extra_fields = MEASURES[q.command](law, q)
    fields = ("alpha", "n", "method", "trials", "seed")
    params = {f: v for f in fields if (v := getattr(q, f, None)) is not None}
    return {
        "measure": q.command,
        "params": {**params, **extra_params},
        "value": value,
        **extra_fields,
        "atoms_used": law.atom_count,
    }


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def emit_curve(t: ScenarioTable, p: PortfolioSpec, alphas=None, ns=None) -> str:
    """Sweep CVaR over an alpha grid or maxvar over an n range; CSV out."""
    if (alphas is None) == (ns is None):
        raise OutOfRange("provide exactly one of an alpha grid or an n range")
    law = portfolio_law(t, p)
    grid = list(ns if alphas is None else alphas)
    if not grid:
        raise OutOfRange("the alpha grid or n range is empty")
    if alphas is not None:
        levels = np.array([_alpha_value(a) for a in grid])
        cvars = _cvar_at(law, levels)[0].tolist()
        rows = [f"{format_number(a)},{format_number(c)}" for a, c in zip(levels.tolist(), cvars)]
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
        law = portfolio_law(table, PortfolioSpec({name: 1.0}))
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


def _option(parse, check):
    """A ``type=`` converter: ``check``, the library type that owns the rule,
    validates the value ``parse`` reads; its RiskError is a usage error."""

    def convert(text: str):
        return check(parse(text))

    convert.__name__ = parse.__name__  # for argparse's "invalid <parse> value"
    return convert


def _weights(text: str) -> dict[str, float]:
    """``a=0.5,b=0.5`` as {name: weight}; no name is blank or repeated."""
    weights = {}
    for piece in text.split(","):
        name, _, raw = piece.partition("=")
        name = name.strip()
        if not name or not raw:
            raise _UsageError(f"bad --weights entry {piece!r}; use name=value")
        if name in weights:
            raise _UsageError(f"column {name!r} repeated in --weights entry {piece!r}")
        try:
            weights[name] = float(raw)
        except ValueError:
            raise _UsageError(f"bad weight value in {piece!r}") from None
    return weights


_level = _option(float, lambda a: RiskLevel(a).alpha)
_count = _option(int, lambda n: CopyCount(n).n)


def _grid(text: str, integral: bool) -> list:
    """``curve``'s --alpha levels or --n copy counts, comma-separated (or
    lo:hi for n), each checked by RiskLevel or CopyCount. A range's list is
    allocated in one piece, so a range too long to hold fails at once."""
    lo, colon, hi = text.partition(":")
    try:
        if integral and colon:
            grid = list(range(_count(lo), _count(hi) + 1))
        else:
            grid = [(_count if integral else _level)(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"cannot parse grid {text!r}") from None
    except (MemoryError, OverflowError):
        raise OutOfRange(f"the n range {text} is too long to hold") from None
    if not grid:
        raise _UsageError("the --alpha or --n grid is empty")
    return grid


def _check_route(args) -> None:
    """The rules across the route options of maxvar and minvar."""
    mc = args.method == "mc"
    if mc != (args.trials is not None) or mc != (args.seed is not None):
        raise _UsageError("--trials and --seed are required exactly for --method mc")
    if args.points is not None and args.panels is None:
        raise _UsageError("--points requires --panels")
    if args.panels is not None and args.method != "mixture-quad":
        raise _UsageError("a quadrature rule only applies to --method mixture-quad")


def _opt(*flags, **kwargs):
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _one_of(*options):  # a required choice of exactly one of these options
    def add(parser):
        group = parser.add_mutually_exclusive_group(required=True)
        for option in options:
            option(group)
    return add


_PORTFOLIO = _one_of(  # either gives a PortfolioSpec, as args.portfolio
    _opt("--column", dest="portfolio", metavar="COLUMN", help="single-column portfolio shorthand",
         type=_option(str, lambda name: PortfolioSpec({name: 1.0}))),
    _opt("--weights", dest="portfolio", metavar="WEIGHTS", help='e.g. "a=0.5,b=0.5"',
         type=_option(_weights, PortfolioSpec)),
)
_N = _opt("--n", required=True, type=_count)
_TAIL_OPTIONS = (_PORTFOLIO, _opt("--alpha", required=True, type=_level))
_ROUTE_OPTIONS = (
    _PORTFOLIO, _N,
    _opt("--method", default="choquet", choices=tuple(ROUTES)),
    _opt("--trials", type=_option(int, _trial_count)),
    _opt("--seed", type=int),
    _opt("--panels", type=_option(int, lambda k: QuadratureRule(k).panels)),
    _opt("--points", type=_option(int, lambda k: QuadratureRule(1, k).points_per_panel)),
)


def _table(args) -> ScenarioTable:
    return load_csv(args.input or sample_data_path())


def _query(args) -> tuple[str, int]:
    return render_json(run_query(_table(args), args.portfolio, args)), 0


def _verify(args) -> tuple[str, int]:
    doc, code = cmd_verify(args.input or sample_data_path(), args.n, args.seed, args.trials)
    return render_json(doc), code


# A subcommand: its help, its options besides --input and --output (each
# adds itself to a parser), its runner, from parsed options to (output
# text, exit code), and the check across its options, run before any file
# is read.
Command = namedtuple("Command", "help options run check", defaults=(None,))


COMMANDS = {
    "var": Command("value-at-risk", _TAIL_OPTIONS, _query),
    "cvar": Command("conditional value-at-risk", _TAIL_OPTIONS, _query),
    "maxvar": Command("expected max of n i.i.d. copies", _ROUTE_OPTIONS, _query, _check_route),
    "minvar": Command("expected min of n i.i.d. copies", _ROUTE_OPTIONS, _query, _check_route),
    "envelope": Command(
        "extremal dual density as CSV", (_PORTFOLIO, _N),
        lambda args: (emit_envelope(_table(args), args.portfolio, args.n), 0),
    ),
    "curve": Command(
        "risk profile CSV over a parameter grid",
        (_PORTFOLIO, _one_of(
            _opt("--alpha", type=lambda text: _grid(text, False), help="comma-separated CVaR levels"),
            _opt("--n", type=lambda text: _grid(text, True), help="maxvar copy counts, e.g. 1:3 or 1,2,3"),
        )),
        lambda args: (emit_curve(_table(args), args.portfolio, args.alpha, args.n), 0),
    ),
    "verify": Command(
        "run the verification suite",
        (
            _opt("--n", type=_count, default=2),
            _opt("--seed", type=int, default=42),
            _opt("--trials", type=int, default=100),
        ),
        _verify,
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        subparser.add_argument("--input", help="scenario CSV (defaults to the bundled sample)")
        for add in command.options:
            add(subparser)
        subparser.add_argument("--output", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        if command.check is not None:
            command.check(args)
    except (_UsageError, RiskError) as exc:  # from a converter or check: no file read yet
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        text, code = command.run(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (RiskError, OSError) as exc:  # OSError: unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
