"""The error contract, fuzzed: a public call returns a finite value or raises
a ``RiskError``, and a CLI call exits 0, 1 or 2 with at most one line on
stderr. Warnings are errors here, so an overflow warning is a failure too.

Tier-1 runs a small budget; ``--hypothesis-profile=fuzz`` (tests/conftest.py)
runs many more examples without a deadline.
"""

import io
import json
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxvar import (
    CvarFeasibleFamily,
    RiskError,
    SeededSampler,
    affine,
    core_check,
    cvar_choquet,
    cvar_min,
    dual_gap,
    extremal_density,
    from_samples,
    maxvar_choquet,
    maxvar_mc,
    maxvar_mixture_exact,
    maxvar_mixture_quad,
    maxvar_spectral,
    minvar,
    mixture_density,
    suggest_rule,
    var,
)
from maxvar.cli import main

from conftest import tier1_budget

pytestmark = pytest.mark.fuzz

BUDGET = tier1_budget(40)

# Levels from 0 up to the largest double below 1.
LEVELS = st.one_of(
    st.sampled_from([0.0, 0.5, 0.99, 1 - 1e-12, 1 - 1e-16]),
    st.floats(0.0, 1 - 1e-16),
)


@st.composite
def extreme_laws(draw):
    """1-8 atoms with values of any sign at magnitudes of 1e-300 to 1e300,
    and weights from 1e-20 to 1."""
    m = draw(st.integers(1, 8))
    sign, digits, exponent = st.sampled_from([-1, 1]), st.floats(1, 9.99), st.integers(-300, 300)
    values = [draw(sign) * draw(digits) * 10.0 ** draw(exponent) for _ in range(m)]
    weights = [10.0 ** draw(st.floats(-20.0, 0.0)) for _ in range(m)]
    return from_samples(list(zip(values, weights)))


# the float fields of a Monte Carlo estimate and of a membership report
moments = attrgetter("estimate", "std_error")
gaps = attrgetter("max_violation", "mean_gap")


def _library_calls(d, n, alpha, scale):
    points = min(max(16, -(-n // 2)), 64)  # exact for the degree n - 1 integrand
    e = partial(extremal_density, d, n)  # inside each call: a count past the bound raises
    return {
        "var": lambda: var(d, alpha),
        "cvar_min": lambda: cvar_min(d, alpha).value,
        "cvar_choquet": lambda: cvar_choquet(d, alpha),
        "maxvar_choquet": lambda: maxvar_choquet(d, n),
        "maxvar_spectral": lambda: maxvar_spectral(d, n),
        "maxvar_mixture_exact": lambda: maxvar_mixture_exact(d, n),
        "maxvar_mixture_quad": lambda: maxvar_mixture_quad(d, n, suggest_rule(d, points)),
        "maxvar_mc": lambda: moments(maxvar_mc(d, n, 16, SeededSampler(7))),
        "minvar": lambda: minvar(d, n),
        "extremal_density": lambda: float(e().q.max()),
        "core_check": lambda: gaps(core_check(d, n, e(), collect_sets=True)),
        "dual_gap": lambda: dual_gap(d, n, e()),
        "mixture_density": lambda: float(
            mixture_density(d, n, CvarFeasibleFamily.cvar_extremal(d)).q.max()
        ),
        "affine": lambda: float(affine(d, scale, 0.0).values[-1]),
    }


# counts up to 64, past 2^53, at the bound 2^128 and past it
COPIES = st.one_of(st.integers(1, 64), st.sampled_from([2**53 + 1, 2**128, 10**400]))


@BUDGET
@given(extreme_laws(), COPIES, LEVELS, st.sampled_from([1e10, -1e10, 1e-10, 1e300, -1.0]))
@example(from_samples([(1e300, 1.0), (-1e300, 1.0), (3e299, 1.0)]), 3, 0.5, 1e10)
@example(from_samples([(1.0, 1.0), (4.0, 1.0)]), 10**400, 0.5, 1e10)
# F rounds to 1 below the top atom while S keeps its mass: a mixture-exact
# tail product past the float range
@example(from_samples([(-1.0, 1.0), (1e287, 5e-17)]), 2**128, 0.5, 1e10)
def test_library_raises_only_risk_errors(d, n, alpha, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in _library_calls(d, n, alpha, scale).items():
            try:
                value = call()
            except RiskError:
                continue
            assert np.isfinite(value).all(), name


# Cells: plain numbers, odd spellings float() reads, magnitudes near the
# ends of the float range, and cells no number parser takes.
CELLS = st.one_of(
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.17g}"),
    st.sampled_from([
        "1_000", " 2 ", "-0", "+3.", ".5e1", "1E3", "\u0663", "1e308", "-1e308",
        "1.7976931348623157e308", "-1.5e308", "1e-308", "5e-324", "x", "", "nan", "1e999",
    ]),
)
PROBS = st.sampled_from(["0.5", "1e-16", "0.9999999999999999", "1e-300", "0", "-0.1"])


@st.composite
def csv_texts(draw):
    """A scenario CSV with a "loss" and a "gain" column (and sometimes a
    "prob" column), quoted cells, blank lines, a byte-order mark and any
    line end."""
    with_prob = draw(st.booleans())
    rows = [["loss", "gain", "prob"] if with_prob else ["loss", "gain"]]
    for _ in range(draw(st.integers(1, 5))):
        row = [draw(CELLS), draw(CELLS)]
        if with_prob:
            row.append(draw(PROBS))
        if draw(st.integers(0, 4)) == 0:
            row[0] = f'"{row[0]}"'
        rows.append(row)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(1, len(rows))), [])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(",".join(row) for row in rows) + newline


BIG_N = "1" + "0" * 400  # past the copy-count bound and the float range
COUNTS = st.sampled_from(["1", "2", "3", "33", "64", "128", "129", "100000", "9007199254740993",
                          "100000000000000000000", "340282366920938463463374607431768211456",
                          BIG_N, "0", "2.5"])


@st.composite
def argvs(draw):
    """One call of any subcommand and route, with counts up to 1e400 and
    levels up to the largest double below 1."""
    portfolio = draw(st.sampled_from([["--column", "loss"], ["--weights", "loss=1,gain=-1"],
                                      ["--weights", "loss=1e10,gain=1e10"]]))
    n = ["--n", draw(COUNTS)]
    alpha = ["--alpha", draw(st.sampled_from(["0", "0.5", "0.9999999999999999", "1"]))]
    command = draw(st.sampled_from(["var", "cvar", "maxvar", "minvar", "envelope", "curve",
                                    "verify"]))
    if command in ("var", "cvar"):
        return [command, *portfolio, *alpha]
    if command == "envelope":
        return [command, *portfolio, *n]
    if command == "curve":
        grid = draw(st.sampled_from([["--n", "1:4"], ["--n", "2,100000000000000000000"],
                                     ["--n", f"2,{BIG_N}"],
                                     ["--alpha", "0,0.5,0.9999999999999999"]]))
        return [command, *portfolio, *grid]
    if command == "verify":
        return [command, "--n", draw(st.sampled_from(["2", "3", "100000", BIG_N])), "--trials", "1"]
    method = draw(st.sampled_from(["choquet", "mixture-exact", "mixture-quad", "spectral", "mc"]))
    extra = {"mc": ["--trials", "10", "--seed", "1"]}.get(method, [])
    return [command, *portfolio, *n, "--method", method, *extra]


@settings(BUDGET, suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts(), argvs())
@example("loss\n1_000\n1e308\n1\n", ["envelope", "--column", "loss", "--n", "3"])
@example("loss\n1\n2\n", ["maxvar", "--column", "loss", "--n", BIG_N])
@example("loss\n1e300\n-1e300\n3e299\n",
         ["maxvar", "--column", "loss", "--n", "3", "--method", "mc", "--trials", "10",
          "--seed", "1"])
@example("loss,prob\n-1,1\n1e305,5e-17\n",
         ["maxvar", "--column", "loss", "--n", "100000000000000000000",
          "--method", "mixture-exact"])
def test_cli_exits_with_one_line_or_a_document(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([argv[0], "--input", str(path), *argv[1:]])
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
    if out.getvalue().startswith("{"):
        json.loads(out.getvalue())
    assert not re.search(r"(^|[,=\s])-?(inf|nan)\b", out.getvalue()), out.getvalue()
