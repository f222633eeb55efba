import csv
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxvar import (
    AllZeroWeights,
    DimensionMismatch,
    DiscreteMixtureSpec,
    EmpiricalDistribution,
    EmptyInput,
    MissingHeader,
    NegativeProb,
    NonFiniteValue,
    OutOfRange,
    ParseError,
    PortfolioSpec,
    ProbSumMismatch,
    ScenarioTable,
    UnknownColumn,
    axioms,
    portfolio_law,
    quadrature_breakpoints,
)
import maxvar.cli
from maxvar.cli import (
    PROB_COLUMN,
    emit_curve,
    emit_envelope,
    load_csv,
    main,
    sample_data_path,
)

from conftest import tier1_budget
from helpers import emit_table, load_csv_per_cell

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def load_sample():
    return load_csv(sample_data_path())


class TestLoadCsv:
    def test_equal_weights_when_no_prob_column(self, tmp_path):
        t = load_csv(write(tmp_path, "loss\n1\n2\n3\n4\n"))
        assert t.columns == ("loss",)
        assert t.probs is None
        assert t.scenario_probs.tolist() == [0.25] * 4

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        t = load_csv(write(tmp_path, "\ufeffloss,prob\n1,0.5\n2,0.5\n"))
        assert t.columns == ("loss",)
        assert t.column("loss").tolist() == [1.0, 2.0]

    def test_prob_column_extracted(self, tmp_path):
        t = load_csv(write(tmp_path, "loss,prob\n1,0.1\n2,0.2\n3,0.3\n4,0.4\n"))
        assert t.columns == ("loss",)
        assert t.probs.tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_parse_error_names_row_and_column(self, tmp_path):
        with pytest.raises(ParseError, match=r"row 3, column 'loss'"):
            load_csv(write(tmp_path, "loss\n1\n2\nbad\n"))

    def test_missing_header_on_empty_file(self, tmp_path):
        with pytest.raises(MissingHeader):
            load_csv(write(tmp_path, ""))

    def test_missing_header_on_numeric_first_row(self, tmp_path):
        with pytest.raises(MissingHeader):
            load_csv(write(tmp_path, "1,2\n3,4\n"))

    def test_only_finite_numbers_look_like_data_in_the_header(self, tmp_path):
        t = load_csv(write(tmp_path, "inf,x,nan\n1,2,3\n"))
        assert t.columns == ("inf", "x", "nan")
        with pytest.raises(MissingHeader, match="'1.5' looks like data"):
            load_csv(write(tmp_path, "1.5,x\n1,2\n"))

    def test_negative_prob(self, tmp_path):
        with pytest.raises(NegativeProb):
            load_csv(write(tmp_path, "loss,prob\n1,-0.5\n2,1.5\n"))

    def test_prob_sum_mismatch(self):
        with pytest.raises(ProbSumMismatch):
            load_csv(DATA / "corrupt_prob.csv")

    def test_small_prob_drift_renormalized(self, tmp_path):
        t = load_csv(
            write(tmp_path, "loss,prob\n1,0.2500000001\n2,0.25\n3,0.25\n4,0.25\n")
        )
        assert abs(math.fsum(t.probs) - 1.0) <= 1e-12

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="row 2"):
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            load_csv(write(tmp_path, "loss\n"))

    def test_duplicate_columns_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "a,a\n1,2\n"))

    def test_field_over_the_csv_limit_is_refused_even_when_plain(self, tmp_path):
        # a finite cell of only digits, one byte over the field limit
        long_cell = write(tmp_path, "a,b\n1," + "0" * 140_000 + "1\n")
        with pytest.raises(ParseError, match=re.escape(
            "line 2: field larger than field limit (131072)"
        )):
            load_csv(long_cell)
        long_name = write(tmp_path, "a," + "b" * 140_000 + "\n1,2\n")
        with pytest.raises(ParseError, match=re.escape(
            "line 1: field larger than field limit (131072)"
        )):
            load_csv(long_name)

    def test_short_field_of_the_same_file_loads_without_the_cell_pass(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(maxvar.cli, "_convert_cells", _refuse_cell_pass)
        t = load_csv(write(tmp_path, "a,b\n1," + "0" * 100 + "1\n"))
        assert t.rows.tolist() == [[1.0, 1.0]]


def _refuse_cell_pass(*args):
    raise AssertionError("load_csv ran the cell-by-cell pass")


def _general_path(path):
    """load_csv's table as the csv-module path reads it, whatever the file."""
    raw = Path(path).read_bytes()
    return maxvar.cli._split_probs(path, *maxvar.cli._read_general(path, raw, raw))


class TestPlainFastPath:
    @staticmethod
    def plain_text(rows=200):
        rng = np.random.default_rng(7)
        values = rng.standard_t(3, size=(rows, 3)) * [1e-3, 1.0, 1e8]
        probs = rng.uniform(0.5, 1.0, rows)
        table = np.column_stack([values, probs / probs.sum()]).tolist()
        lines = ["a,b, c ,prob", *(",".join(map(repr, row)) for row in table)]
        return "\n".join(lines) + "\n"

    def test_plain_file_skips_the_cell_pass_and_matches_it(self, tmp_path, monkeypatch):
        p = write(tmp_path, self.plain_text())
        general = _general_path(p)
        monkeypatch.setattr(maxvar.cli, "_convert_cells", _refuse_cell_pass)
        t = load_csv(p)
        assert t.columns == general.columns == ("a", "b", "c")
        assert t.rows.shape == (200, 3)
        assert t.rows.tobytes() == general.rows.tobytes()
        assert t.probs.tobytes() == general.probs.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "crlf"])
    @pytest.mark.parametrize("prob", [True, False], ids=["prob", "equal"])
    def test_table_is_read_only_and_passes_the_constructor(self, tmp_path, newline, prob):
        # load_csv hands its checked arrays to the table without copies; the
        # public constructor accepts them and gives the same table
        text = self.plain_text()
        if not prob:
            text = "\n".join(line.rpartition(",")[0] for line in text.split("\n")) + "\n"
        t = load_csv(write(tmp_path, text.replace("\n", newline)))
        public = ScenarioTable(t.columns, t.rows, t.probs)
        assert public.columns == t.columns
        assert public.rows.tobytes() == t.rows.tobytes()
        assert not t.rows.flags.writeable
        if prob:
            assert public.probs.tobytes() == t.probs.tobytes()
            assert not t.probs.flags.writeable
        else:
            assert t.probs is None

    @pytest.mark.parametrize("over", [0, 1], ids=["at-limit", "one-over"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_line_at_the_field_limit(self, tmp_path, where, over):
        # a line of exactly csv.field_size_limit() bytes, LF excluded, keeps
        # a file plain; one byte more sends it to the csv-module path. Every
        # field stays below the limit, so both paths read the same table.
        length = csv.field_size_limit() + over
        if where == "first":
            text = "a," + "b" * (length - 2) + "\n1,2\n"
        else:
            text = "a,b\n3,4\n1," + "0" * (length - 3) + "1\n"
        assert max(map(len, text.split("\n"))) == length
        p = write(tmp_path, text)
        data = p.read_bytes()
        assert (maxvar.cli._read_plain(p, data) is None) == bool(over)
        t, general = load_csv(p), _general_path(p)
        assert t.columns == general.columns
        assert t.rows.tobytes() == general.rows.tobytes()
        assert t.probs is general.probs is None

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: "\n" + text,
        lambda text: text.replace("a,b", '"a",b', 1),
        lambda text: text.replace("a,b", "\u00e1,b", 1),
        lambda text: text.replace("\n", "\n ", 1),
        lambda text: text.replace("\n", "\n1_0,2,3,1\n", 1),
    ], ids=["crlf", "leading-blank-line", "quoted-name", "non-ascii-name",
            "padded-cell", "underscore"])
    def test_other_files_take_the_cell_pass(self, tmp_path, monkeypatch, edit):
        p = write(tmp_path, edit(self.plain_text()))
        monkeypatch.setattr(maxvar.cli, "_convert_cells", _refuse_cell_pass)
        with pytest.raises(AssertionError, match="cell-by-cell"):
            load_csv(p)


# Cells that float() reads in ways a number parser other than float() may
# not (underscores, padding, non-ASCII digits, subnormals, signed zero),
# non-finite and unparseable cells, and csv quoting: a quoted comma, a
# quoted line break and an unterminated quote.
ODD_CELLS = (
    "1_000", " 2 ", "\u3000-7\t", "\uff11\uff12.5", "\u0663", "-0", "1e-320", "0x10",
    "", "x", "1__0", '"3"', '" 4 "', '"1,5"', '"1\n2"', '"5',
)
NON_FINITE_CELLS = ("nan", "-NaN", "inf", "-Infinity", "1e500")
# The same kinds of cell spelled only with the bytes a plain file's body may
# hold (digits, signs, points, exponent letters): load_csv converts those
# files with np.loadtxt, and these must be refused or read as float() does.
PLAIN_ODD_CELLS = (
    "1e", "e5", "+-1", ".", "-", "1..2", "", "1e-320", "-0", "+1", "1.", ".5",
    "0001", "1E+5", "-.0e-0",
)
PLAIN_NON_FINITE_CELLS = ("1e500", "-1e309")


@st.composite
def scenario_files(draw):
    """Bytes of a scenario CSV: valid 17-digit cells, then a few defects
    (odd or non-finite cells, short or long rows, trailing commas, blank
    lines), in CRLF or LF, with or without a byte-order mark. Half are
    plain, LF with defects spelled only in digits, signs, points and
    exponents; some of those are made not plain by a blank line before the
    header or a quoted name over a line break. Some bodies are all blank."""
    plain = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["a", "b", "c", PROB_COLUMN, '"d\ne"', "f\fg"]),
                          min_size=1, max_size=3, unique=True))
    count = draw(st.integers(1, 6))
    number = st.floats(-1e12, 1e12, allow_nan=False).map(lambda x: f"{x:.17g}")
    rows = [
        [f"{1 / count:.17g}" if name == PROB_COLUMN else draw(number) for name in names]
        for _ in range(count)
    ]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        kind = draw(st.sampled_from(
            ["odd", "non-finite", "short", "long", "trailing-comma", "blank"]
        ))
        if kind == "blank":
            rows.insert(i, [])
        elif kind == "short":
            del row[-1:]
        elif kind == "long":
            row.append(draw(number))
        elif kind == "trailing-comma":
            row.append("")
        elif row:
            if plain:
                cells = PLAIN_ODD_CELLS if kind == "odd" else PLAIN_NON_FINITE_CELLS
            else:
                cells = ODD_CELLS if kind == "odd" else NON_FINITE_CELLS
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(cells))
    if draw(st.integers(0, 7)) == 0:
        rows = [[] for _ in rows]
    newline = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names), *(",".join(row) for row in rows)]
    if draw(st.integers(0, 7)) == 0:
        lines.insert(0, "")
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8")


def _load_outcome(load, path):
    try:
        t = load(path)
    except Exception as exc:  # the differential compares errors too
        return type(exc), str(exc)
    probs = None if t.probs is None else t.probs.tobytes()
    return t.columns, t.rows.shape, t.rows.tobytes(), probs


def _assert_same_outcome(path):
    with warnings.catch_warnings():  # loadtxt warns on a file without rows
        warnings.simplefilter("error")
        assert _load_outcome(load_csv, path) == _load_outcome(load_csv_per_cell, path)


class TestLoadCsvMatchesPerCellParser:
    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbfa,b\n1,2\n", b"a,b\r\n1,2\r\n", b'"a",b\n1,2\n', b'a,b\n"1",2\n',
        b"\xc3\xa1,b\n1,2\n", b"a,b\n1,\xef\xbc\x91\n", b"a,b\n1,\xff\n",
        b"a\x00,b\n1,2\n", b"a\x0cb,c\n1,2\n", b"a\tb\n1\n", b"a,b\n1,2\x00\n",
        b"\n\na,b\n\n1,2\n\n", b"a,b\n\n\n", b"a,b\n", b"a,b", b"", b"\n",
        b"a,b\n1,2,\n", b"a,b\n1\n", b"a,prob\n1,1e500\n", b"a,prob\n1,0.5\n2,0.5",
        b"1,2\n3,4\n", b"a,a\n1,2\n", b"a, \n1,2\n", b"prob\n1\n",
    ])
    def test_listed_files(self, tmp_path, data):
        p = tmp_path / "t.csv"
        p.write_bytes(data)
        _assert_same_outcome(p)

    @tier1_budget(300)
    @given(scenario_files())
    def test_same_table_or_same_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_bytes(data)
            _assert_same_outcome(p)


class TestRoundTrip:
    def test_sample_round_trips(self, tmp_path):
        t = load_sample()
        again = load_csv(write(tmp_path, emit_table(t)))
        assert again.columns == t.columns
        assert np.array_equal(again.rows, t.rows)
        assert np.array_equal(again.probs, t.probs)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
                st.floats(-1.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_bit_exact_values(self, pairs):
        rows = np.array(pairs, dtype=float)
        t = ScenarioTable(columns=("a", "b"), rows=rows)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_text(emit_table(t), encoding="utf-8")
            again = load_csv(p)
        assert np.array_equal(again.rows, t.rows)


class TestScenarioTable:
    def test_non_finite_outcome_rejected(self):
        with pytest.raises(NonFiniteValue):
            ScenarioTable(("a",), [[math.inf], [2.0]])

    def test_shape_errors_are_library_errors(self):
        # the library's shape errors, not ParseError: no CSV is involved
        with pytest.raises(DimensionMismatch):
            ScenarioTable(("a", "b"), [[1.0], [2.0]])  # row width
        with pytest.raises(DimensionMismatch):
            ScenarioTable(("a",), [1.0, 2.0])  # not 2-d
        with pytest.raises(DimensionMismatch):
            ScenarioTable(("a",), [[1.0], [2.0]], [1.0])  # one probability short
        with pytest.raises(EmptyInput):
            ScenarioTable(("a",), np.empty((0, 1)))

    def test_duplicate_column_names_rejected(self):
        # column("x") would read only the first of the two
        with pytest.raises(OutOfRange, match="distinct"):
            ScenarioTable(("x", "x"), [[1.0, 2.0]])
        with pytest.raises(OutOfRange):
            ScenarioTable(["a", "b", "a"], [[1.0, 2.0, 3.0]])

    def test_read_only_copies(self):
        rows, probs = np.array([[1.0], [2.0]]), np.array([0.25, 0.75])
        t = ScenarioTable(("a",), rows, probs)
        rows[0, 0], probs[0] = 9.0, 0.5
        assert t.rows.tolist() == [[1.0], [2.0]] and t.probs.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            t.rows[0, 0] = 9.0


def _csv_probs(tmp_path, probs):
    rows = "".join(f"{i},{p!r}\n" for i, p in enumerate(probs))
    return load_csv(write(tmp_path, "x,prob\n" + rows)).probs


# Each entry point that takes a probability vector, called on a two-entry one.
PROB_ENTRY_POINTS = {
    "EmpiricalDistribution": lambda tmp, p: EmpiricalDistribution([1.0, 2.0], p),
    "ScenarioTable": lambda tmp, p: ScenarioTable(("x",), [[1.0], [2.0]], p),
    "portfolio_law": lambda tmp, p: portfolio_law(
        ScenarioTable(("x", "y"), [[1.0, 2.0], [2.0, 1.0]], p), axioms.X_PLUS_Y
    ).probs,
    "DiscreteMixtureSpec": lambda tmp, p: DiscreteMixtureSpec(tuple((w, 0.5) for w in p)),
    "load_csv": _csv_probs,
}
# (vector, error for arrays, error for CSV text). A CSV cell must parse as a
# finite number, and a CSV's sum may miss 1 by up to 1e-9 (arrays: 1e-12).
BAD_PROBS = {
    "nan": ([math.nan, 1.0], NonFiniteValue, ParseError),
    "zero": ([0.0, 1.0], NegativeProb, NegativeProb),
    "negative": ([-0.1, 1.1], NegativeProb, NegativeProb),
    "sum-1+2e-12": ([0.5, 0.5 + 2e-12], ProbSumMismatch, None),
    "sum-1+5e-10": ([0.5, 0.5 + 5e-10], ProbSumMismatch, None),
    "sum-1+2e-9": ([0.5, 0.5 + 2e-9], ProbSumMismatch, ProbSumMismatch),
}


class TestProbabilityVectors:
    @pytest.mark.parametrize("entry", PROB_ENTRY_POINTS)
    @pytest.mark.parametrize("case", BAD_PROBS)
    def test_same_error_at_every_entry_point(self, tmp_path, entry, case):
        probs, array_error, csv_error = BAD_PROBS[case]
        error = csv_error if entry == "load_csv" else array_error
        if error is None:  # loads, renormalized to sum to 1
            assert abs(math.fsum(PROB_ENTRY_POINTS[entry](tmp_path, probs)) - 1.0) <= 1e-15
        else:
            with pytest.raises(error):
                PROB_ENTRY_POINTS[entry](tmp_path, probs)


class TestPortfolio:
    def test_single_column(self):
        law = portfolio_law(load_sample(), PortfolioSpec({"loss": 1.0}))
        assert law.values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_two_identical_columns_same_law(self, tmp_path):
        t = load_csv(write(tmp_path, "a,b\n1,1\n2,2\n"))
        law = portfolio_law(t, PortfolioSpec({"a": 0.5, "b": 0.5}))
        assert law.values.tolist() == [1.0, 2.0]

    def test_row_sums_then_merge(self, tmp_path):
        t = load_csv(write(tmp_path, "a,b\n1,3\n2,1\n"))
        law = portfolio_law(t, PortfolioSpec({"a": 1.0, "b": 1.0}))
        assert law.values.tolist() == [3.0, 4.0]
        assert law.probs.tolist() == [0.5, 0.5]

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            portfolio_law(load_sample(), PortfolioSpec({"nope": 1.0}))

    def test_all_zero_weights(self):
        with pytest.raises(AllZeroWeights):
            PortfolioSpec({"loss": 0.0})

    def test_empty_spec(self):
        with pytest.raises(EmptyInput):
            PortfolioSpec({})


def run_main(capsys, *args):
    """``main(args)`` in process: (exit code, stdout, stderr)."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def query(capsys, *args) -> dict:
    code, out, err = run_main(capsys, *args)
    assert code == 0, err
    return json.loads(out)


class TestRiskQuery:
    """Which options each measure subcommand takes, and how they combine."""

    def test_alpha_required_iff_tail_measure(self, capsys):
        assert run_main(capsys, "var", "--column", "loss")[0] == 1
        assert run_main(capsys, "maxvar", "--column", "loss", "--n", "2", "--alpha", "0.5")[0] == 1

    def test_n_required_iff_copy_measure(self, capsys):
        assert run_main(capsys, "maxvar", "--column", "loss")[0] == 1
        assert run_main(capsys, "cvar", "--column", "loss", "--alpha", "0.5", "--n", "2")[0] == 1

    def test_mc_needs_trials_and_seed(self, capsys):
        maxvar = ["maxvar", "--column", "loss", "--n", "2"]
        assert run_main(capsys, *maxvar, "--method", "mc")[0] == 1
        assert run_main(capsys, *maxvar, "--method", "mc", "--trials", "10")[0] == 1
        assert run_main(capsys, *maxvar, "--method", "choquet", "--trials", "10", "--seed", "1")[0] == 1
        assert run_main(capsys, *maxvar, "--seed", "1")[0] == 1

    def test_method_defaults_to_choquet(self, capsys):
        doc = query(capsys, "maxvar", "--column", "loss", "--n", "2")
        assert doc["params"]["method"] == "choquet"

    def test_unknown_measure_and_method(self, capsys):
        assert run_main(capsys, "expected-regret", "--column", "loss")[0] == 1
        assert run_main(capsys, "maxvar", "--column", "loss", "--n", "2", "--method", "bootstrap")[0] == 1

    def test_one_parser_serves_many_calls(self, capsys):
        # main reuses one parser per process; no option may leak from one
        # call into the next, including from a call that fails part-way
        calls = [
            ("maxvar", "--column", "loss", "--n", "3", "--method", "mixture-quad"),
            ("maxvar", "--column", "loss", "--n", "2", "--alpha", "0.5"),
            ("maxvar", "--column", "loss", "--n", "2"),
            ("minvar", "--column", "loss", "--n", "2", "--method", "mc", "--trials", "1"),
            ("minvar", "--column", "loss", "--n", "2", "--method", "mc",
             "--trials", "10", "--seed", "1"),
            ("minvar", "--column", "loss", "--n", "2"),
            ("curve", "--column", "loss", "--n", "1:3"),
            ("curve", "--column", "loss", "--alpha", "0.5"),
            ("envelope", "--column", "loss", "--n", "2"),
            ("var", "--column", "loss", "--alpha", "0.25"),
        ]
        maxvar.cli._build_parser.cache_clear()
        together = [run_main(capsys, *args) for args in calls]
        alone = []
        for args in calls:
            maxvar.cli._build_parser.cache_clear()
            alone.append(run_main(capsys, *args))
        assert [code for code, _, _ in together] == [0, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        assert together == alone


MC_OPTIONS = ["--column", "loss", "--n", "2", "--method", "mc", "--trials", "200000", "--seed", "9"]


class TestRunQuery:
    """The JSON document of each measure subcommand."""

    def test_maxvar_document(self, capsys):
        doc = query(capsys, "maxvar", "--column", "loss", "--n", "2")
        assert doc["value"] == 3.125
        assert doc["params"] == {"n": 2, "method": "choquet"}
        assert doc["atoms_used"] == 4

    def test_cvar_document(self, capsys):
        doc = query(capsys, "cvar", "--column", "loss", "--alpha", "0.5")
        assert doc["value"] == 3.5
        assert doc["beta_star"] == 3.0

    def test_var_document(self, capsys):
        assert query(capsys, "var", "--column", "loss", "--alpha", "0")["value"] == 1.0

    def test_every_method_agrees_on_sample(self, capsys):
        values = {
            method: query(capsys, "maxvar", "--column", "loss", "--n", "4", "--method", method)["value"]
            for method in ("choquet", "mixture-exact", "mixture-quad", "spectral")
        }
        base = values["choquet"]
        for method, value in values.items():
            assert value == pytest.approx(base, abs=1e-8), method

    def test_mc_method_reports_std_error(self, capsys):
        doc = query(capsys, "maxvar", *MC_OPTIONS)
        assert abs(doc["value"] - 3.125) <= 4 * doc["std_error"]

    def test_minvar_mc(self, capsys):
        doc = query(capsys, "minvar", *MC_OPTIONS)
        assert abs(doc["value"] - 1.875) <= 4 * doc["std_error"]


class TestEmitters:
    def test_curve_requires_exactly_one_grid(self):
        t = load_sample()
        p = PortfolioSpec({"loss": 1.0})
        with pytest.raises(OutOfRange):
            emit_curve(t, p)
        with pytest.raises(OutOfRange):
            emit_curve(t, p, alphas=[0.5], ns=[2])

    def test_curve_empty_grid(self):
        with pytest.raises(OutOfRange):
            emit_curve(load_sample(), PortfolioSpec({"loss": 1.0}), alphas=[])

    def test_curve_domain_errors(self):
        with pytest.raises(OutOfRange):
            emit_curve(load_sample(), PortfolioSpec({"loss": 1.0}), alphas=[1.0])
        for n in (0, 2.9, True, "3"):  # copy counts are checked, never truncated
            with pytest.raises(OutOfRange):
                emit_curve(load_sample(), PortfolioSpec({"loss": 1.0}), ns=[n])

    def test_envelope_constant_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x\n5\n5\n", encoding="utf-8")
        text = emit_envelope(load_csv(path), PortfolioSpec({"x": 1.0}), 3)
        assert text.splitlines()[1] == "5,1,1"

    def test_envelope_n1_density_is_one(self):
        text = emit_envelope(load_sample(), PortfolioSpec({"loss": 1.0}), 1)
        for line in text.splitlines()[1:-1]:
            assert line.endswith(",1")

    def test_envelope_comment_matches_value(self):
        text = emit_envelope(load_sample(), PortfolioSpec({"loss": 1.0}), 2)
        comment = text.splitlines()[-1]
        assert comment.startswith("# E[XQ]=")
        assert abs(float(comment.split("=")[1]) - 3.125) <= 1e-10


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "maxvar", *args],
        capture_output=True,
        text=True,
    )


class TestCliGolden:
    CASES = [
        ("var.json", ["var", "--column", "loss", "--alpha", "0.5"]),
        ("cvar.json", ["cvar", "--column", "loss", "--alpha", "0.5"]),
        ("maxvar.json", ["maxvar", "--column", "loss", "--n", "2"]),
        ("minvar.json", ["minvar", "--column", "loss", "--n", "2"]),
        (
            "maxvar_portfolio.json",
            ["maxvar", "--weights", "loss=1,gain=1", "--n", "3"],
        ),
        ("envelope.csv", ["envelope", "--column", "loss", "--n", "2"]),
        ("curve_maxvar.csv", ["curve", "--column", "loss", "--n", "1:3"]),
        ("curve_cvar.csv", ["curve", "--column", "loss", "--alpha", "0,0.5"]),
        ("verify.json", ["verify", "--n", "2", "--seed", "42", "--trials", "5"]),
    ]

    @pytest.mark.parametrize("golden,args", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical(self, golden, args):
        sample = str(sample_data_path())
        result = run_cli(args[0], "--input", sample, *args[1:])
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_repeated_runs_identical(self):
        args = ["maxvar", "--column", "loss", "--n", "2"]
        assert run_cli(*args).stdout == run_cli(*args).stdout


# Each is a usage error (exit 1). MAXVAR and MC prefix a maxvar query.
MAXVAR = ["maxvar", "--column", "loss", "--n", "2"]
MC = [*MAXVAR, "--method", "mc", "--seed", "1"]
BIG_N = "1" + "0" * 400
USAGE_ERRORS = {
    "missing-n": ["maxvar", "--column", "loss"],
    "unknown-subcommand": ["frobnicate"],
    "mc-without-trials-and-seed": [*MAXVAR, "--method", "mc"],
    "trials-and-seed-without-mc": [*MAXVAR, "--method", "choquet", "--trials", "10", "--seed", "1"],
    "unknown-method": [*MAXVAR, "--method", "bootstrap"],
    "curve-both-grids": ["curve", "--column", "loss", "--alpha", "0.5", "--n", "1:2"],
    "curve-no-grid": ["curve", "--column", "loss"],
    "n-not-a-number": ["maxvar", "--column", "loss", "--n", "junk"],
    "alpha-not-a-number": ["var", "--column", "loss", "--alpha", "junk"],
    "grid-not-a-number": ["curve", "--column", "loss", "--n", "1:junk"],
    # grid entries outside the domain of n or alpha
    "grid-n-0": ["curve", "--column", "loss", "--n", "0:3"],
    "grid-alpha-1": ["curve", "--column", "loss", "--alpha", "0.5,1"],
    "grid-alpha-negative": ["curve", "--column", "loss", "--alpha", "-0.1"],
    "grid-empty-range": ["curve", "--column", "loss", "--n", "5:1"],
    "grid-empty-list": ["curve", "--column", "loss", "--alpha", ","],
    # single values outside the domain of n or alpha
    "maxvar-n-0": ["maxvar", "--column", "loss", "--n", "0"],
    "minvar-n-negative": ["minvar", "--column", "loss", "--n", "-1"],
    "envelope-n-0": ["envelope", "--column", "loss", "--n", "0"],
    "var-alpha-1.5": ["var", "--column", "loss", "--alpha", "1.5"],
    "cvar-alpha-negative": ["cvar", "--column", "loss", "--alpha", "-0.1"],
    "verify-n-0": ["verify", "--n", "0"],  # before the suite runs
    # a copy count past the bound of CopyCount (the routes compute in floats)
    "maxvar-n-400-digits": ["maxvar", "--column", "loss", "--n", BIG_N],
    "curve-n-400-digits": ["curve", "--column", "loss", "--n", f"1,{BIG_N}"],
    "verify-n-400-digits": ["verify", "--n", BIG_N],
    # a suite trial count below 1
    "verify-trials-0": ["verify", "--trials", "0"],
    "verify-trials-negative": ["verify", "--trials", "-3"],
    # a Monte Carlo trial count too small for a standard error
    "mc-one-trial": [*MC, "--trials", "1"],
    # mixture-quad derives its rule from the law and n: there is no option
    "panels-option-removed": [*MAXVAR, "--method", "mixture-quad", "--panels", "5"],
    # no exact rule past 64 points per panel: n > 128
    "quad-default-points-n-129": ["maxvar", "--column", "loss", "--n", "129",
                                  "--method", "mixture-quad"],
    # --weights entries: malformed, blank or repeated names, bad or zero weights
    "weights-no-value": ["maxvar", "--weights", "loss", "--n", "2"],
    "weights-blank-name": ["maxvar", "--weights", " =1", "--n", "2"],
    "weights-repeated-name": ["maxvar", "--weights", "loss=1,loss=2", "--n", "2"],
    "weights-repeated-padded-name": ["maxvar", "--weights", "loss=1, loss =2", "--n", "2"],
    "weights-bad-value": ["maxvar", "--weights", "loss=x", "--n", "2"],
    "weights-all-zero": ["maxvar", "--weights", "loss=0", "--n", "2"],
    "column-and-weights": ["maxvar", "--column", "loss", "--weights", "loss=1", "--n", "2"],
}


class TestCliExitCodes:
    def test_verify_clean_exits_zero(self):
        assert run_cli("verify", "--trials", "3").returncode == 0

    def test_verify_corrupt_prob_exits_two(self):
        result = run_cli("verify", "--input", str(DATA / "corrupt_prob.csv"), "--trials", "3")
        assert result.returncode == 2
        assert "probabilities" in result.stderr

    def test_failed_verify_names_its_checks_on_one_line(self, monkeypatch, capsys):
        # the report is still written; stderr lists the checks that failed
        doc = {"passed": False, "checks": [
            {"name": "A1-constancy", "passed": True},
            {"name": "column-loss-duality", "passed": False},
            {"name": "route-spectral", "passed": False},
        ]}
        monkeypatch.setattr(maxvar.cli, "cmd_verify", lambda *args: doc)
        code, out, err = run_main(capsys, "verify", "--trials", "1")
        assert code == 2 and json.loads(out) == doc
        assert err == "error: verification failed: column-loss-duality, route-spectral\n"

    def test_verify_zero_trials_exits_one(self):
        result = run_cli("verify", "--trials", "0")
        assert result.returncode == 1
        assert result.stderr == "usage error: need at least 1 trial\n"

    def test_bad_cell_exits_two(self):
        result = run_cli(
            "maxvar", "--input", str(DATA / "bad_cell.csv"), "--column", "loss", "--n", "2"
        )
        assert result.returncode == 2
        assert "row 3" in result.stderr

    def test_usage_errors_exit_one(self, tmp_path):
        # the real exit path; USAGE_ERRORS below holds the cases, run in process
        absent = str(tmp_path / "absent.csv")
        result = run_cli("maxvar", "--column", "loss", "--n", "0", "--input", absent)
        assert result.returncode == 1
        assert result.stderr.startswith("usage error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error(self, capsys, tmp_path, args):
        # usage errors are found before --input is opened: it does not exist
        code, out, err = run_main(capsys, *args, "--input", str(tmp_path / "absent.csv"))
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err

    def test_oversized_curve_range_fails_at_once(self, capsys):
        # the range's list is refused in one allocation (8e15 bytes), never filled
        code, _, err = run_main(capsys, "curve", "--column", "loss", "--n", "1:1000000000000000")
        assert code == 1
        assert err == "usage error: the n range 1:1000000000000000 is too long to hold\n"

    @pytest.mark.parametrize(
        "n,points", [(n, min(max(16, math.ceil(n / 2)), 64)) for n in range(1, 129)]
    )
    def test_default_quadrature_is_exact_up_to_n_128(self, capsys, n, points):
        # the rule has one panel per breakpoint gap and ceil(n/2) points, at
        # least 16: exact for the degree n - 1 integrand, so it meets the
        # closed-form route
        maxvar = ["maxvar", "--column", "loss", "--n", str(n), "--method"]
        quad = query(capsys, *maxvar, "mixture-quad")
        exact = query(capsys, *maxvar, "mixture-exact")
        law = portfolio_law(load_sample(), PortfolioSpec({"loss": 1.0}))
        assert quad["params"]["points"] == points
        assert quad["params"]["panels"] == len(quadrature_breakpoints(law)) + 1
        assert quad["value"] == pytest.approx(exact["value"], rel=1e-14)

    def test_copy_count_bound_is_named(self, capsys):
        big = 2**128 + 1
        for args in (["maxvar", "--column", "loss", "--n", str(big)],
                     ["curve", "--column", "loss", "--n", f"1:{big}"],
                     ["envelope", "--column", "loss", "--n", str(big)]):
            code, out, err = run_main(capsys, *args)
            assert code == 1 and out == ""
            assert err == f"usage error: copy count must be an integer in 1..{2**128}, got {big}\n"
        assert run_main(capsys, "maxvar", "--column", "loss", "--n", str(2**128))[0] == 0

    def test_missing_input_exits_two(self, tmp_path):
        result = run_cli(
            "maxvar", "--input", str(tmp_path / "absent.csv"), "--column", "loss", "--n", "2"
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_unwritable_output_exits_two(self, tmp_path):
        out = tmp_path / "no-such-dir" / "result.json"
        result = run_cli("maxvar", "--column", "loss", "--n", "2", "--output", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_non_utf8_input_exits_two(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"loss\n1\n\xff2\n")
        result = run_cli("maxvar", "--input", str(bad), "--column", "loss", "--n", "2")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "byte 7" in result.stderr

    def test_mixture_exact_past_the_float_range_exits_two(self, tmp_path):
        # cumulative rounds to 1 below the top atom, so the tail product of
        # the first stratum overflows: one error line, no warning, no "inf"
        law = tmp_path / "dust.csv"
        law.write_text("loss,prob\n-1,1\n1e305,5e-17\n")
        result = run_cli("maxvar", "--input", str(law), "--column", "loss",
                         "--n", "100000000000000000000", "--method", "mixture-exact")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "error: the mixture-exact sum at n = 100000000000000000000 leaves the float range\n"
        )

    def test_oversized_field_exits_two(self, tmp_path):
        big = write(tmp_path, 'loss\n1\n"' + "9" * 140_000 + '"\n')
        result = run_cli("maxvar", "--input", str(big), "--column", "loss", "--n", "2")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_overflowing_weights_exit_two_with_one_line(self, tmp_path):
        big = write(tmp_path, "a,b\n1e10,1\n2e10,3\n")
        result = run_cli("maxvar", "--input", str(big), "--weights", "a=1e300,b=1", "--n", "2")
        assert result.returncode == 2
        assert result.stderr == "error: values and weights must be finite\n"

    def test_mixture_quad_on_dust_law(self, tmp_path):
        dust = write(tmp_path, "loss,prob\n0,0.9999999999999999\n1000000,1e-16\n")
        result = run_cli(
            "maxvar", "--input", str(dust), "--column", "loss", "--n", "2",
            "--method", "mixture-quad",
        )
        assert result.returncode == 0
        assert result.stderr == ""
        doc = json.loads(result.stdout)  # exactly one JSON document
        assert doc["params"]["method"] == "mixture-quad"

    def test_unallocatable_mc_draw_exits_two_with_one_line(self):
        # both counts are above maxvar_mc's draw limit, refused before any allocation
        mc = ["maxvar", "--column", "loss", "--method", "mc", "--seed", "1"]
        for trials, n in (("1000000000000000", "7"), ("2", "100000000000000000000")):
            result = run_cli(*mc, "--trials", trials, "--n", n)
            assert result.returncode == 2
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert f"trials x n = {trials} x {n}" in result.stderr

    def test_unknown_column_exits_two(self):
        result = run_cli("maxvar", "--column", "nope", "--n", "2")
        assert result.returncode == 2

    def test_output_flag_writes_file(self, tmp_path):
        out = tmp_path / "result.json"
        result = run_cli(
            "maxvar", "--column", "loss", "--n", "2", "--output", str(out)
        )
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_text(encoding="utf-8") == (GOLDEN / "maxvar.json").read_text(
            encoding="utf-8"
        )


# Each subcommand's options, as its --help lists them.
OPTIONS = {
    "var": {"--input", "--column", "--weights", "--alpha", "--output"},
    "cvar": {"--input", "--column", "--weights", "--alpha", "--output"},
    "maxvar": {"--input", "--column", "--weights", "--n", "--method", "--trials", "--seed",
               "--output"},
    "minvar": {"--input", "--column", "--weights", "--n", "--method", "--trials", "--seed",
               "--output"},
    "envelope": {"--input", "--column", "--weights", "--n", "--output"},
    "curve": {"--input", "--column", "--weights", "--output", "--alpha", "--n"},
    "verify": {"--input", "--n", "--seed", "--trials", "--output"},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_each_option(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    help_text = capsys.readouterr().out
    assert set(re.findall(r"^ +(--[a-z]+)", help_text, re.MULTILINE)) == OPTIONS[command]


def test_commands_call_module_globals(monkeypatch, capsys, tmp_path):
    # perfbench's tracer rebinds these maxvar.cli names; the command table
    # must reach each one through the module when it runs, not at import
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("load_csv", "run_query", "emit_envelope", "emit_curve", "cmd_verify"):
        monkeypatch.setattr(maxvar.cli, name, counted(name, getattr(maxvar.cli, name)))
    out = str(tmp_path / "out")
    for args, expected in (
        (["maxvar", "--column", "loss", "--n", "2"], ["load_csv", "run_query"]),
        (["envelope", "--column", "loss", "--n", "2"], ["load_csv", "emit_envelope"]),
        (["curve", "--column", "loss", "--n", "1:2"], ["load_csv", "emit_curve"]),
        (["verify", "--trials", "1"], ["cmd_verify", "load_csv"]),
    ):
        calls.clear()
        assert main([*args, "--output", out]) == 0
        assert calls == expected, args


def test_library_import_does_not_load_the_cli():
    code = (
        "import maxvar, sys; "
        "assert 'maxvar.cli' not in sys.modules and 'argparse' not in sys.modules; "
        "import maxvar.cli; assert maxvar.load_csv is maxvar.cli.load_csv"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_library_exports_scenario_tables_without_the_cli():
    # ScenarioTable, PortfolioSpec and portfolio_law are library names; only
    # load_csv and emit_envelope still resolve lazily through maxvar.cli
    code = (
        "import maxvar, sys; "
        "t = maxvar.ScenarioTable(('a',), [[1.0], [3.0]]); "
        "law = maxvar.portfolio_law(t, maxvar.PortfolioSpec({'a': 2.0})); "
        "assert law.values.tolist() == [2.0, 6.0]; "
        "dropped = ('RiskQuery', 'cmd_verify', 'emit_curve', 'emit_table', "
        "'run_query', 'sample_data_path'); "
        "assert not any(hasattr(maxvar, name) for name in dropped); "
        "assert 'maxvar.cli' not in sys.modules and 'argparse' not in sys.modules; "
        "import maxvar.cli as cli; "
        "assert maxvar.emit_envelope is cli.emit_envelope and maxvar.load_csv is cli.load_csv; "
        "assert cli.portfolio_law is maxvar.portfolio_law"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
