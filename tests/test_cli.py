"""End-to-end tests for the command-line interface."""

import decimal
import errno
import gzip
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from perturbreg import (
    DiscreteOperator,
    GridFunction,
    Stabilizer,
    cli,
    convergence_study,
    operators,
    regularized_derivative,
    run_experiment,
    stabilization_gap,
)
from perturbreg.cli import (
    CSV_BLOCK_ROWS,
    DEFAULT_SEED,
    SEED_ENV_VAR,
    _CsvError,
    _csv_text,
    _write_csv,
    fmt,
    main,
    read_csv_columns,
)
from perturbreg.errors import PerturbregError, SingularSystem
from perturbreg.solve import SqrtDelta, c_alpha_estimate, coordinate_alpha


def write_csv(path, t, y):
    lines = ["t,y"] + [f"{fmt(ti)},{fmt(yi)}" for ti, yi in zip(t, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def csv_by_value(header, columns):
    """CSV text with every value printed by ``fmt`` on its own."""
    return ",".join(header) + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in zip(*columns))


def text_lines(text):
    """``text`` cut after each line end: equal lists mean equal texts.

    Long CSV texts are compared this way, so a failed check names the first
    line that differs instead of diffing the two texts whole.
    """
    return text.splitlines(keepends=True)


def read_csv_by_lines(path):
    """Reference reader: each data line split and converted with float() in turn.

    Lines end at newlines only (read_text turns \\r and \\r\\n into \\n).
    """
    text = Path(path).read_text()
    numbered = [(num, line.strip()) for num, line in enumerate(text.split("\n"), start=1)
                if line.strip()]
    if len(numbered) < 2:
        raise _CsvError("need a header line and at least one data row")
    header = [field.strip() for field in numbered[0][1].split(",")]
    rows = []
    for num, line in numbered[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise _CsvError(f"line {num}: expected {len(header)} fields, got {len(fields)}")
        try:
            rows.append([float(field) for field in fields])
        except ValueError as exc:
            raise _CsvError(f"line {num}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise _CsvError(f"line {numbered[1 + int(np.argmin(finite))][0]}: non-finite value")
    return header, data


def csv_outcome(reader, path):
    """(header, shape, float bytes) of a read, or the error message."""
    try:
        header, data = reader(path)
    except _CsvError as exc:
        return str(exc)
    return header, data.shape, data.tobytes()


def linear_csv(tmp_path, n=33, slope=0.5, intercept=1.0):
    t = np.linspace(0.0, 2.0, n)
    return write_csv(tmp_path / "in.csv", t, intercept + slope * t)


def write_json(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def volterra_payload(n=33):
    t = np.linspace(0.0, 1.0, n)
    return {
        "operator": "volterra",
        "rhs": [0.0] * n,
        "stabilizer": {"scalar_alpha": {}},
        "delta": 0.01,
        "alpha": 0.1,
        "exact_solution": list(t),
    }


def package_env():
    """The environment with this checkout's package on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_interpreter(*args, check=True, cwd=None):
    """Run a new interpreter on ``args`` with this checkout's package on the path."""
    return subprocess.run([sys.executable, *args], env=package_env(), check=check, cwd=cwd,
                          capture_output=True, text=True)


def run_in_fresh_interpreter(code):
    """Run ``code`` in a new interpreter with this checkout's package on the path."""
    return fresh_interpreter("-c", code)


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    """The process umask, set to each value in turn and restored after the test."""
    before = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(before)


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestFloatFormat:
    def test_round_trips_exactly(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -0.0):
            assert float(fmt(x)) == x

    def test_short_values_stay_short(self):
        assert fmt(0.01) == "0.01"
        assert fmt(2.0) == "2.0"

    def test_csv_text_matches_per_value_format(self):
        values = [-0.0, 5e-324, 1e-300, 1e16, 0.1, 3.0]
        columns = [np.asarray(values), np.asarray(values[::-1]),
                   np.asarray(values, dtype=np.float32)]
        expected = "a,b,c\n" + "".join(
            ",".join(fmt(v) for v in row) + "\n" for row in zip(*columns))
        assert _csv_text(["a", "b", "c"], columns) == expected

    def test_csv_text_takes_a_formatted_column(self):
        values = [-0.0, 5e-324, 1e-300, 1e16, 0.1, 3.0]
        columns = [np.asarray(values), np.asarray(values[::-1])]
        assert _csv_text(["a", "b"], [list(map(fmt, values)), columns[1]]) == \
            csv_by_value(["a", "b"], columns)

    @pytest.mark.parametrize("n", [1, 7, CSV_BLOCK_ROWS + 1])
    def test_bytes_column_prints_as_its_list_of_str(self, n):
        # experiment prints its grid from an S array; the bytes are the same
        # (lines are compared, so that a failure is reported fast)
        values = np.random.default_rng(n).standard_normal(n)
        printed = list(map(str, range(n)))  # as floats they would print as '0.0', ...
        for header in (["t", "v"], None):
            assert _csv_text(header, [np.array(printed, dtype="S"), values]).splitlines() == \
                _csv_text(header, [printed, values]).splitlines()
        by_list, by_bytes = io.StringIO(), io.StringIO()
        _write_csv(by_list, ["t", "v"], [printed, values])
        _write_csv(by_bytes, ["t", "v"], [np.array(printed, dtype="S"), values])
        expected = ["t,v"] + [f"{p},{fmt(v)}" for p, v in zip(printed, values)]
        assert by_list.getvalue() == "\n".join(expected) + "\n"
        assert by_bytes.getvalue().splitlines() == expected

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7])
    def test_blocks_join_to_the_one_shot_text(self, n):
        rng = np.random.default_rng(n)
        columns = [list(map(str, range(n))), rng.standard_normal(n),
                   np.exp(50.0 * rng.standard_normal(n))]
        fh = io.StringIO()
        _write_csv(fh, ["i", "a", "b"], columns)
        assert text_lines(fh.getvalue()) == text_lines(_csv_text(["i", "a", "b"], columns))


# Fields the one-pass reader and float() may treat differently: underscores,
# non-ASCII digits and spaces, comment and quote characters, hex, partial
# exponents, complex literals, U+001C-U+001F, the line breaks of str.splitlines
# other than \n and \r, empty fields and non-finite spellings.
ODD_FIELDS = ["1_0", "\u0661\u0662", "#", "#1", "1#", "'1'", '"1"', "0x10", "4e", "+.5",
              "1.5j", "", " ", "nan", "NaN", "-inf", "inf", "infinity", "1e999", "-0",
              " 2.5 ", "\t3", "\u00a04", "\u30005", "1\x1f", "\x1f1", "5e-324", "1e-400",
              "1.", ".5", "1 2", "\u0662.5", "\x1c1", "1\x1d", "\x1e1", "\x0c2", "2\x0b",
              "\x852", "\u20282", "2\u2029"]
NUMBER_FORMATS = [repr, "{:.17g}".format, "{:.3e}".format, " {!r} ".format]


@st.composite
def csv_texts(draw):
    """Headed CSV texts, mostly well formed, with odd fields, ragged rows and blank lines."""
    width = draw(st.integers(1, 3))
    header = ",".join(["t", " y ", "z"][:width])
    odd_share = draw(st.sampled_from([0, 0, 10, 3]))  # one odd field in this many

    def field():
        if odd_share and draw(st.integers(1, odd_share)) == 1:
            return draw(st.sampled_from(ODD_FIELDS))
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        return draw(st.sampled_from(NUMBER_FORMATS))(value)

    lines = [header]
    for _ in range(draw(st.integers(1, 5))):
        count = width if draw(st.integers(0, 9)) else draw(st.integers(1, 4))
        pad = draw(st.sampled_from(["", " "]))
        lines.append(pad + ",".join(field() for _ in range(count)) + pad)
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "   ", " \t "]), max_size=2))
        out.append(line)
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join(out) + (sep if draw(st.booleans()) else "")


# Where np.longdouble is the x87 80-bit format the plain reader parses long
# doubles; elsewhere, and under the plain_branch fixture's "float64", float64.
X87 = cli._long_double_is_x87()


@pytest.fixture(params=["native", "float64"])
def plain_branch(request, monkeypatch):
    """Each parse of the plain reader in turn: this platform's, then numpy's float64 one."""
    if request.param == "float64":
        monkeypatch.setattr(cli, "_long_double_is_x87", lambda: False)
    return request.param


def record_plain_reads(monkeypatch):
    """A list that collects what every call of the plain reader returns."""
    results = []
    read_plain = cli._read_plain

    def recording(*args):
        results.append(read_plain(*args))
        return results[-1]

    monkeypatch.setattr(cli, "_read_plain", recording)
    return results


def reader_taken(monkeypatch, path):
    """The outcome of reading ``path``, and the reader that gave it: "plain" or "line loop"."""
    taken = []
    parse_rows = cli._parse_rows

    def recording(*args):
        taken.append("line loop")
        return parse_rows(*args)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_rows", recording)
        outcome = csv_outcome(read_csv_columns, path)
    return outcome, (taken or ["plain"])[0]


@pytest.fixture
def numpy_opens_no_file(monkeypatch):
    """numpy's own file readers fail the test: they decompress by suffix and fetch URLs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy file reader was called")
    for name in ("loadtxt", "genfromtxt", "fromfile", "load"):
        monkeypatch.setattr(np, name, refuse)


@st.composite
def plain_csv_texts(draw):
    """Headed CSV texts of random float64 columns in the forms the plain reader takes.

    Values include subnormals, signed zeros and exact midpoints between
    neighbouring floats, written with repr, with %.17g or as the midpoint's
    full decimal; rows end in \\n or \\r\\n, fields are joined by ',', ', '
    or ' ,\\t', rows may be padded with spaces and tabs, blank and
    whitespace-only lines may fall anywhere, and the last line end may be
    left off.
    """
    width = draw(st.integers(1, 3))
    subnormals = st.integers(1, 2**52 - 1).map(lambda m: math.ldexp(m, -1074))
    values = st.one_of(st.floats(min_value=-1e308, max_value=1e308),
                       st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308]),
                       subnormals, subnormals.map(float.__neg__))
    styles = st.sampled_from([repr, "%.17g".__mod__, lambda x: float64_midpoints([x])[0]])
    sep = draw(st.sampled_from([",", ", ", " ,\t"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "\t "]) if draw(st.booleans()) else st.just("")
    blank = st.lists(pad, max_size=2) if draw(st.booleans()) else st.just([])
    lines = [",".join("abc"[:width])]
    for _ in range(draw(st.integers(1, 12))):
        lines += draw(blank)
        row = sep.join(draw(styles)(draw(values)) for _ in range(width))
        lines.append(draw(pad) + row + draw(pad))
    text = end.join(lines)
    return text + (end if draw(st.booleans()) else "")


class TestCsvReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), native=st.booleans())
    def test_matches_line_loop(self, tmp_path, monkeypatch, text, native):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with monkeypatch.context() as patch:
            if not native:
                patch.setattr(cli, "_long_double_is_x87", lambda: False)
            assert csv_outcome(read_csv_columns, path) == csv_outcome(read_csv_by_lines, path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=plain_csv_texts(), native=st.booleans())
    def test_random_float64_columns_take_the_plain_reader(self, tmp_path, monkeypatch, text,
                                                         native):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        with monkeypatch.context() as patch:
            if not native:
                patch.setattr(cli, "_long_double_is_x87", lambda: False)
            assert reader_taken(patch, path) == (csv_outcome(read_csv_by_lines, path), "plain")

    @pytest.mark.parametrize("text", [
        "t,y\n0,1\n",  # one data row
        "t\n0\n1.5\n-2\n",  # one column
        "t,y\n 0 , 1 \n\t0.5\t,\t2\t\n",  # values padded with spaces
        "t,y\r\n0,1\r\n\r\n1,2\r\n",  # CRLF and a blank line
        "t,y\n0,1_0\n1,2\n",  # float() takes it, numpy does not
        "t,y\n0,\u0661\n1,2\n",
        "t,y\n0\x1f,1\n1,2\n",  # np.loadtxt strips it, float() does not
        "t,y\n0,#1\n", "t,y\n0,'1'\n", 't,y\n0,"1"\n', "t,y\n0,0x10\n",
        "t,y\n0,4e\n", "t,y\n0,+.5\n", "t,y\n0,1.5j\n",
        "t,y\n0,\n", "t,y\n0,1\n1\n", "t,y\n0,1,2\n1,2,3\n",
        "t,y\n0,nan\n", "t,y\n0,inf\n", "t,y\n0,infinity\n", "t,y\n0,1e999\n",
        "t,y\n0,1\n1,nan\n2,x\n",  # a bad value wins over non-finite
        "t,y\n", "\n\n",
        # str.splitlines breaks at these; float() strips them around a field
        "t,y\n0,1\n0.5,\x0c2\n1,3\n", "t,y\n0,1\n0.5,\x0b2\n1,3\n",
        "t,y\n0,1\n0.5,\x852\n1,3\n", "t,y\n0,1\n0.5,\u20282\n1,3\n",
        "t,y\n0,1\n0.5,\x1c2\n1,3\n",  # np.loadtxt strips it, float() does not
        # numpy's float64 reader takes a blank field as 0.0 or -1.0, float() not at all
        "t,y,z\n0,1,2\n1.0, ,2.0\n", "t,y\n0, \n", "t,y\n0,1\n, 1\n",
        "t,y\n0,1\r0.5,2\n",  # a lone \r ends a line in text mode
        "\rt,y\n0,1\n0.5,2\n", "t,y\r\r\n0,1\n0.5,2\n", "t,\ry\n0,1\n",  # and before the data
        "t,y\n0,  1\n0.5,2\n", "t,y\n\t0 ,\t 1 \n0.5,2\n",  # spaces float() strips
        "t,y\n0,1 2\n0.5,2\n", "t,y\n0,1\t2\n0.5,2\n",  # and ones it does not
        "t,y\n0,1 2\n0.5,\n",  # a split field and an empty one
    ])
    def test_matches_line_loop_on_named_cases(self, tmp_path, plain_branch, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert csv_outcome(read_csv_columns, path) == csv_outcome(read_csv_by_lines, path)

    @pytest.mark.parametrize("text, message", [
        ("t,y\n\n0,1\n1,x\n", "line 4: could not convert string to float: 'x'"),
        ("t,y\n\n0,1\n1,nan\n", "line 4: non-finite value"),
        ("t,y\n0,1\n  \t \n1,2,3\n", "line 4: expected 2 fields, got 3"),
        ("t,y\n0,1\n \n1,inf\n", "line 4: non-finite value"),
        ("t,y\r\n0,1\r\n\r\n1,x\r\n", "line 4: could not convert string to float: 'x'"),
        ("t,y\r\n0,1\r\n\r\n1,inf\r\n", "line 4: non-finite value"),
        ("t,y\n0,\x0c1\n\u2028\n1,x\n", "line 4: could not convert string to float: 'x'"),
        ("t,y,z\n0,1,2\n\n1.0, ,2.0\n", "line 4: could not convert string to float: ' '"),
    ])
    def test_errors_name_the_line_of_the_file(self, tmp_path, capsys, plain_branch, text,
                                              message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: malformed CSV: {message}\n"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("\n t , y \n\n0,1\n   \n0.5,2\n\n")
        header, data = read_csv_columns(path)
        assert header == ["t", "y"]
        assert data.tolist() == [[0.0, 1.0], [0.5, 2.0]]

    @pytest.fixture
    def no_line_loop(self, monkeypatch):
        def line_loop_not_wanted(lines, width):
            raise AssertionError("fell back to the line loop")
        monkeypatch.setattr(cli, "_parse_rows", line_loop_not_wanted)

    @pytest.mark.parametrize("text", [
        "\n\n  \nt,y\n0,1\n0.5,2\n",  # blank lines before the header
        "t,y\n0,1\n\n\n\n0.5,2\n\n",  # blank lines
        "t,y\n0,1\n  \n\t\n0.5,2\n \n",  # whitespace-only lines
        "t,y\r\n0,1\r\n\r\n0.5,2\r\n",  # CRLF
        "t,y\n0,1\n0.5,2",  # no final newline
        "t,y\n0, 1\n0.5, 2\n",  # ', '
        "t,y\n 0 ,\t1 \n0.5 ,  2\t\n",  # spaces and tabs around fields
        "x\n1\n\n2\n \n3\n",  # blank lines in a one-column file
        "\r\n \r\nt,y\r\n 0 , 1 \r\n\t\r\n0.5,2",  # all of them
    ])
    def test_file_fast_path_matches_line_loop(self, tmp_path, monkeypatch, plain_branch, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        expected = csv_outcome(read_csv_by_lines, path)
        assert reader_taken(monkeypatch, path) == (expected, "plain")

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"t,y\n0,1\n1,\xff\n")
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed CSV: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_benchmark_shaped_file_takes_the_plain_reader(self, tmp_path, plain_branch,
                                                          no_line_loop):
        t = np.linspace(0.0, 3.0, 2000)
        y = np.sin(t) + 1e-3 * np.random.default_rng(0).standard_normal(t.size)
        path = tmp_path / "in.csv"
        np.savetxt(path, np.column_stack([t, y]), fmt="%.17g", delimiter=",",
                   header="t,y", comments="")
        header, data = read_csv_columns(path)
        assert header == ["t", "y"]
        assert data.tobytes() == np.column_stack([t, y]).tobytes()

    @pytest.mark.parametrize("sep, reader", [("\n", "plain"), ("\r\n", "plain"),
                                             ("\r", "line loop")], ids=["lf", "crlf", "cr"])
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, monkeypatch,
                                                       plain_branch, sep, reader):
        path = tmp_path / "in.csv"
        path.write_bytes(sep.join(["", "  ", "\t", " t , y ", "0,1", "0.5,2", "1,3"]).encode())
        expected = csv_outcome(read_csv_by_lines, path)
        assert expected[:2] == (["t", "y"], (3, 2))
        assert reader_taken(monkeypatch, path) == (expected, reader)

    @pytest.mark.parametrize("name", ["in.csv.gz", "in.csv.bz2", "in.csv.xz", "in.CSV.LZMA"])
    def test_plain_text_with_a_compressed_suffix_reads_as_text(self, tmp_path,
                                                               numpy_opens_no_file, name):
        # numpy would decompress it by its suffix; it is read as the text it is
        path = tmp_path / name
        path.write_text("t,y\n0,1\n0.5,2\n")
        assert csv_outcome(read_csv_columns, path) == (["t", "y"], (2, 2),
                                                      np.array([[0, 1], [0.5, 2]]).tobytes())

    def test_gzip_file_cannot_be_read(self, tmp_path, capsys):
        path = tmp_path / "in.csv.gz"
        path.write_bytes(gzip.compress(b"t,y\n0,1\n0.5,2\n1,3\n", mtime=0))
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed CSV: cannot read {path}: ")
        assert err.count("\n") == 1

    # Plain and padded files take the plain reader, one with '1_0' the line
    # loop; each reads the file the path names to the OS.
    plain_or_padded = pytest.mark.parametrize(
        "rows, reader", [("0,{}\n0.5,{}\n", "plain"), (" 0 , {} \n 0.5 , {} \n", "plain"),
                         ("0,{}\n0.5,0_{}\n", "line loop")],
        ids=["plain", "padded", "underscore"])

    @plain_or_padded
    def test_url_like_relative_path_reads_from_disk(self, tmp_path, monkeypatch,
                                                    numpy_opens_no_file, rows, reader):
        # numpy would fetch "http://localhost/in.csv"; it is a file under
        # the directories "http:" and "localhost"
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        path = tmp_path / "http:" / "localhost" / "in.csv"
        path.write_text("t,y\n" + rows.format(1, 2))
        monkeypatch.chdir(tmp_path)
        assert reader_taken(monkeypatch, "http://localhost/in.csv") == \
            ((["t", "y"], (2, 2), np.array([[0, 1], [0.5, 2]]).tobytes()), reader)

    @plain_or_padded
    def test_dotdot_after_a_symlink_reads_the_opened_file(self, tmp_path, monkeypatch, rows,
                                                          reader):
        # "link/../in.csv" is real/in.csv to the OS; normalized it would be work/in.csv
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "work").mkdir()
        (tmp_path / "work" / "link").symlink_to(tmp_path / "real" / "sub")
        (tmp_path / "real" / "in.csv").write_text("t,y\n" + rows.format(1, 2))
        (tmp_path / "work" / "in.csv").write_text("t,y\n" + rows.format(7, 8))
        monkeypatch.chdir(tmp_path / "work")
        outcome, taken = reader_taken(monkeypatch, "link/../in.csv")
        assert outcome[2] == np.array([[0.0, 1.0], [0.5, 2.0]]).tobytes()
        assert taken == reader

    def test_undecodable_byte_past_the_first_chunk_exits_2(self, tmp_path, capsys):
        # the header decodes; the line loop's read meets the bad byte
        path = tmp_path / "in.csv"
        rows = "".join(f"{i},{i}\n" for i in range(20000))
        path.write_bytes(b"t,y\n" + rows.encode() + b"1,\xff\n")
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed CSV: cannot read {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, reader", [
        ("t,y\r\n0,1\r\n0.5,2\r\n", "plain"),
        ("t,y\n0, 1\n0.5,2\n", "plain"),
        ("t,y\n0,1\n\n0.5,2\n", "plain"),
        ("t,y\n0,1\n0.5,2", "plain"),
        ("t,y\n0,1\n  \n0.5,2\n", "plain"),
        ("t,y\n0,\t1\n0.5,2\n", "plain"),
        ("t,y\n0 ,1\n0.5,2\n", "plain"),
        ("t,y\n0,1 \n0.5,2\n", "plain"),
        ("t,y\n0,  1\n0.5,2\n", "plain"),
        ("x\n0\n\n1\n", "plain"),
        ("t,y\n0,1\n0.5,\x1c2\n", "line loop"),
        ("t,y\n0,1_0\n0.5,2\n", "line loop"),
        ("t,y\n0,1,2\n3\n", "line loop"),
        ("t,y\n0,1\r0.5,2\n", "line loop"),
        ("t,\ry\n0,1\n", "line loop"),
        ("t,y,z\n0,1,2\n1.0, ,2.0\n", "line loop"),
        ("t,y\n0,1 2\n0.5,2\n", "line loop"),
        ("t,y\n0,1 2\n0.5,\n", "line loop"),
    ], ids=["crlf", "comma-space", "blank-line", "no-final-newline", "whitespace-only-line",
            "tab", "space-before-comma", "space-at-line-end", "comma-two-spaces",
            "one-column-blank-line", "x1c", "underscore", "balanced-field-counts", "lone-cr",
            "cr-in-header", "blank-field", "split-field", "split-and-empty-field"])
    def test_each_file_takes_its_reader(self, tmp_path, monkeypatch, plain_branch, text,
                                        reader):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        plain = record_plain_reads(monkeypatch)
        assert reader_taken(monkeypatch, path) == (csv_outcome(read_csv_by_lines, path), reader)
        assert (plain[0][1] is not None) == (reader == "line loop")

    def test_balanced_field_counts_name_the_first_ragged_line(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("t,y\n0,1,2\n3\n")
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        assert capsys.readouterr().err == \
            "error: malformed CSV: line 2: expected 2 fields, got 3\n"


def float64_midpoints(values):
    """Decimal texts of the midpoint above each finite ``value``, and of its
    neighbours 1e-30 (relative) below and above."""
    texts = []
    with decimal.localcontext(prec=2000):
        for x in map(float, values):
            above = math.nextafter(x, math.inf)
            mid = (Decimal(x) + (Decimal(2) ** 1024 if math.isinf(above) else Decimal(above))) / 2
            texts += [str(mid * (1 + step)) for step in (0, Decimal("-1e-30"), Decimal("1e-30"))]
    return texts


def assert_reads_as_float(tmp_path, fields, width=1):
    """The plain reader reads ``fields``, laid out ``width`` to a line, as float() does."""
    fields = fields + ["0"] * (-len(fields) % width)
    path = tmp_path / "plain.csv"
    path.write_text(",".join("xyz"[:width]) + "\n" + "".join(
        ",".join(fields[i:i + width]) + "\n" for i in range(0, len(fields), width)))
    data, rest = cli._read_plain(path, 1, width)
    assert rest is None and data.shape == (len(fields) // width, width)
    expected = np.array([float(field) for field in fields])
    wrong = np.flatnonzero(data.ravel().view(np.uint64) != expected.view(np.uint64))
    assert [fields[i] for i in wrong] == []


@pytest.mark.usefixtures("plain_branch")
class TestPlainReader:
    """The plain reader gives what float() gives, bit for bit, on each branch."""

    SPECIAL = [5e-324, 2 * 5e-324, 2.2250738585072014e-308 - 5e-324, 2.2250738585072014e-308,
               1.0, 0.1, 1 / 3, 1e22, 1e23, 9007199254740992.0, 1.7976931348623157e308]

    def test_midpoints_and_their_neighbours(self, tmp_path):
        rng = np.random.default_rng(14)
        values = np.concatenate([self.SPECIAL, rng.standard_normal(300),
                                 np.ldexp(rng.random(300) + 1, rng.integers(-1074, 1024, 300))])
        values = np.concatenate([values, -values, np.nextafter(values, -np.inf)])
        fields = float64_midpoints(values)
        assert_reads_as_float(tmp_path, fields)

    @pytest.mark.skipif(not X87, reason="np.longdouble is not the x87 format")
    def test_midpoints_are_read_again(self, tmp_path):
        # a cast of the long double alone would round the exact midpoints to even
        fields = float64_midpoints([1.0, 3.0, 2.2250738585072014e-308 - 5e-324])
        longs = np.fromstring(",".join(fields).encode(), dtype=np.longdouble, sep=",")
        with np.errstate(over="ignore"):
            cast = longs.astype(float)
        assert (cast != [float(f) for f in fields]).any()
        assert_reads_as_float(tmp_path, fields)

    def test_long_mantissas(self, tmp_path):
        rng = np.random.default_rng(15)
        fields = ["".join(map(str, rng.integers(0, 10, rng.integers(20, 41))))
                  + f"e{rng.integers(-345, 310)}" for _ in range(2000)]
        fields = [("-" if i % 2 else "") + f[0] + "." + f[1:] for i, f in enumerate(fields)]
        assert_reads_as_float(tmp_path, fields)

    def test_subnormals_underflow_and_short_forms(self, tmp_path):
        rng = np.random.default_rng(16)
        subnormals = np.ldexp(rng.integers(1, 2 ** 52, 500).astype(float), -1074)
        subnormals = subnormals.tolist()
        fields = [repr(x) for x in subnormals] + ["%.25e" % x for x in subnormals] + [
            "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
            "-1e-400", "1e-5000", "2.2250738585072011e-308", "2.2250738585072012e-308",
            "-0", "0", "-0.0", ".5", "5.", "+5", "-.5e-3", "007", "1E5", "1e+05"]
        assert_reads_as_float(tmp_path, fields)

    def test_overflow_reads_as_inf(self, tmp_path):
        assert_reads_as_float(tmp_path, ["1e999", "-1e999", "1.7976931348623158e308",
                                         "1.7976931348623159e308", "1e5000"])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
           width=st.integers(1, 3))
    def test_any_float64_printed_three_ways(self, tmp_path, bits, width):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        fields = [style(float(x)) for x in values[np.isfinite(values)]
                  for style in (repr, "%.17g".__mod__, "%.25e".__mod__)]
        if fields:
            assert_reads_as_float(tmp_path, fields, width)

    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 4096])
    def test_any_block_size_reads_the_same(self, tmp_path, monkeypatch, block_bytes):
        # lines cut across blocks are carried over, and the array grows to fit
        values = np.random.default_rng(block_bytes).standard_normal(3000) * 1e5
        monkeypatch.setattr(cli, "_PLAIN_BLOCK_BYTES", block_bytes)
        assert_reads_as_float(tmp_path, list(map(repr, values.tolist())) + ["1", "22", "333"], 2)

    @pytest.mark.parametrize("end", ["", "\r"])
    def test_last_line_without_newline_is_read(self, tmp_path, end):
        path = tmp_path / "in.csv"
        path.write_bytes(b"t,y\n0,1\n0.5,2" + end.encode())
        data, rest = cli._read_plain(path, 1, 2)
        assert rest is None and data.tolist() == [[0.0, 1.0], [0.5, 2.0]]

    def test_non_finite_value_names_its_line(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "in.csv"
        path.write_text("t,y\n0,1\n0.5,2\n1,1e999\n1.5,3\n")
        plain = record_plain_reads(monkeypatch)
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        assert capsys.readouterr().err == "error: malformed CSV: line 4: non-finite value\n"
        assert np.isinf(plain[0][0][2, 1])

    def test_a_numpy_1_warning_falls_through_and_does_not_escape(self, tmp_path, monkeypatch):
        def warning_fromstring(*args, **kwargs):
            warnings.warn("string or file could not be read to its end due to unmatched "
                          "data; this will raise a ValueError in the future.",
                          DeprecationWarning, stacklevel=2)
            return np.zeros(1, dtype=np.longdouble)

        path = tmp_path / "in.csv"
        path.write_text("t,y\n0,1\n0.5,2\n")
        monkeypatch.setattr(np, "fromstring", warning_fromstring)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli._read_plain(path, 1, 2)[1] == 0
            assert reader_taken(monkeypatch, path) == \
                (csv_outcome(read_csv_by_lines, path), "line loop")
        assert caught == []


@pytest.fixture
def started_threads(monkeypatch):
    """A list of every threading.Thread made while the test runs."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return made


# A plain line of 23 bytes, and lines of the same length that are not
# plain as they are, with the reader that then takes the rest of the file.
PLAIN_LINE = "{:06d}.5,{:+.6e}\n"
ODD_LINES = {
    "underscore": ("{:06d}.5,+1_234567e-01\n", "line loop"),
    "spaced": ("{:06d}.5, +1.23456e-01\n", "plain"),
    "crlf": ("{:06d}.5,+1.234567e-1\r\n", "plain"),
    "lone-cr": ("{:06d}.5\r+1.234567e-01\n", "line loop"),
    "unconvertible": ("{:06d}.5,+1.2345e-0e-1\n", "line loop"),
    "non-finite": ("{:06d}.5,+1.23456e+999\n", "line loop"),
}
LINES_PER_BLOCK = 5


def blocked_csv(path, blocks, odd_block=None, odd="underscore"):
    """A t,y CSV of ``blocks`` blocks of LINES_PER_BLOCK 23-byte lines, with
    line 3 of block ``odd_block`` (counted from 0) an ODD_LINES line."""
    values = np.random.default_rng(blocks).standard_normal(blocks * LINES_PER_BLOCK)
    lines = [PLAIN_LINE.format(i, v) for i, v in enumerate(values)]
    if odd_block is not None:
        i = odd_block * LINES_PER_BLOCK + 2
        lines[i] = ODD_LINES[odd][0].format(i)
    assert {len(line) for line in lines} == {23}
    path.write_bytes(("t,y\n" + "".join(lines)).encode())
    return path


def line_loop_calls(monkeypatch):
    """A list of the (lines, first line number) of every _parse_rows call."""
    calls = []
    parse_rows = cli._parse_rows

    def recording(lines, width, first):
        calls.append((lines, first))
        return parse_rows(lines, width, first)

    monkeypatch.setattr(cli, "_parse_rows", recording)
    return calls


# The worker converts only strtold's blocks: numpy's float64 reader takes the
# GIL back for every value.
needs_worker = pytest.mark.skipif(not X87, reason="np.longdouble is not the x87 format")


class TestPlainReaderWorker:
    """From the second block on, a worker thread converts every other block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_PLAIN_BLOCK_BYTES", 23 * LINES_PER_BLOCK)

    @pytest.mark.parametrize("blocks, odd_block", [
        (1, None), (2, None), (3, None), (8, None), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2),
        (8, 0), (8, 5), (8, 6), (8, 7)])
    @pytest.mark.parametrize("odd", ODD_LINES)
    def test_each_block_reads_as_float_does(self, tmp_path, monkeypatch, plain_branch,
                                           started_threads, blocks, odd_block, odd):
        path = blocked_csv(tmp_path / "in.csv", blocks, odd_block, odd)
        expected = csv_outcome(read_csv_by_lines, path)
        reader = "plain" if odd_block is None else ODD_LINES[odd][1]
        filters, threads = list(warnings.filters), threading.active_count()
        calls = line_loop_calls(monkeypatch)
        assert reader_taken(monkeypatch, path) == (expected, reader)
        assert warnings.filters == filters and threading.active_count() == threads
        assert len(started_threads) == (blocks > 1 and X87 and plain_branch == "native")
        if reader == "line loop":
            # the line loop reads from the first line of the block that is
            # not plain, or the whole file for a value that is not finite
            first = 2 if odd == "non-finite" else 2 + odd_block * LINES_PER_BLOCK
            ((lines, start),) = calls
            assert start == first
            assert lines[0] == path.read_text().split("\n")[first - 1].strip()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_PLAIN_BLOCK_BYTES", 1 << 20)  # one block, read in turn
            assert csv_outcome(read_csv_columns, path) == expected

    @pytest.mark.parametrize("odd_block", [None, 1, 3])
    def test_one_column_blank_lines_on_either_side(self, tmp_path, monkeypatch, plain_branch,
                                                   started_threads, odd_block):
        # a blank line passes the one-column grammar, numpy rejects the
        # empty field, and the block's _unspaced form is read instead
        lines = [f"{i:08d}\n" for i in range(6 * 4)]
        if odd_block is not None:
            lines[odd_block * 4 + 1] = "0000005\n\n"
        monkeypatch.setattr(cli, "_PLAIN_BLOCK_BYTES", 9 * 4)
        path = tmp_path / "in.csv"
        path.write_text("x\n" + "".join(lines))
        assert reader_taken(monkeypatch, path) == (csv_outcome(read_csv_by_lines, path), "plain")
        assert len(started_threads) == (X87 and plain_branch == "native")

    def test_late_break_reads_only_the_lines_after_the_plain_blocks(self, tmp_path,
                                                                    monkeypatch):
        # a file whose last line alone is not plain is not parsed twice
        monkeypatch.setattr(cli, "_PLAIN_BLOCK_BYTES", 1 << 18)
        t = np.linspace(0.0, 3.0, 30000)
        path = tmp_path / "in.csv"
        np.savetxt(path, np.column_stack([t, np.sin(t)]), fmt="%.17g", delimiter=",",
                   header="t,y", comments="")
        with open(path, "a") as fh:
            fh.write("3,1_0\n")
        calls = line_loop_calls(monkeypatch)
        assert reader_taken(monkeypatch, path) == \
            (csv_outcome(read_csv_by_lines, path), "line loop")
        ((lines, first),) = calls
        assert first > 20000 and lines[-2:] == ["3,1_0", ""]

    @needs_worker
    def test_a_numpy_1_warning_on_the_worker_falls_through(self, tmp_path, monkeypatch):
        # numpy 1.x warns on the second block, the worker's, and on its retry
        fromstring, threads = np.fromstring, set()

        def warns_on_the_second_block(fields, *args, **kwargs):
            if b"000007.5," in fields:
                threads.add(threading.current_thread().name)
                warnings.warn("string or file could not be read to its end due to "
                              "unmatched data; this will raise a ValueError in the future.",
                              DeprecationWarning, stacklevel=2)
            return fromstring(fields, *args, **kwargs)

        path = blocked_csv(tmp_path / "in.csv", 4)
        monkeypatch.setattr(np, "fromstring", warns_on_the_second_block)
        calls = line_loop_calls(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert reader_taken(monkeypatch, path) == \
                (csv_outcome(read_csv_by_lines, path), "line loop")
        assert caught == []
        assert threads == {"csv-convert", threading.main_thread().name}
        assert calls[0][1] == 2 + LINES_PER_BLOCK

    @needs_worker
    def test_an_error_on_the_worker_is_raised_by_the_caller(self, tmp_path, monkeypatch,
                                                           capsys):
        fromstring = np.fromstring

        def fails_off_the_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("cannot allocate the values")
            return fromstring(*args, **kwargs)

        path = blocked_csv(tmp_path / "in.csv", 4)
        monkeypatch.setattr(np, "fromstring", fails_off_the_main_thread)
        threads = threading.active_count()
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        assert capsys.readouterr().err == "error: cannot allocate the values\n"
        assert threading.active_count() == threads

    @needs_worker
    def test_many_blocks_with_a_short_switch_interval(self, tmp_path, monkeypatch):
        # one line a block, and the threads switched as often as they can be
        monkeypatch.setattr(cli, "_PLAIN_BLOCK_BYTES", 23)
        path = blocked_csv(tmp_path / "in.csv", 80)
        expected = csv_outcome(read_csv_by_lines, path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = [csv_outcome(read_csv_columns, path) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert all(outcome == expected for outcome in outcomes)


class TestDifferentiate:
    def test_writes_derivative_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["differentiate", str(linear_csv(tmp_path)),
                     "--alpha", "0.1", "--out", str(out)])
        assert code == 0
        header, data = read_csv_columns(out)
        assert header == ["t", "dy", "x_alpha"]
        np.testing.assert_allclose(data[:, 1], 0.5, atol=1e-10)
        err = capsys.readouterr().err
        assert "alpha=0.1" in err and "q_proxy=" in err and "boundary_layer_width=" in err

    @pytest.mark.parametrize("width", [1e-300, 1e-170, 1e160])
    def test_linear_data_gives_its_slope_on_any_grid_width(self, tmp_path, width):
        # numpy's polyfit lost the baseline slope on these grids: at t = 0 the
        # derivative of y = t read -0.444, and the run still exited 0
        t = np.linspace(0.0, width, 16)
        out = tmp_path / "out.csv"
        assert main(["differentiate", str(write_csv(tmp_path / "in.csv", t, t)),
                     "--alpha", repr(0.3 * width), "--out", str(out)]) == 0
        _, data = read_csv_columns(out)
        np.testing.assert_allclose(data[:, 1], 1.0, rtol=0.0, atol=1e-12)

    def test_stdout_when_no_out_flag(self, tmp_path, capsys):
        code = main(["differentiate", str(linear_csv(tmp_path)), "--alpha", "0.1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "t,dy,x_alpha"

    def test_output_is_bit_stable(self, tmp_path):
        src = linear_csv(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["differentiate", str(src), "--alpha", "0.1", "--out", str(out1)]) == 0
        assert main(["differentiate", str(src), "--alpha", "0.1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_large_input_is_bit_stable(self, tmp_path):
        # 50 000 rows run the resolvent scan through two levels of blocks
        t = np.linspace(0.0, 3.0, 50_000)
        y = np.sin(t) + 0.01 * np.random.default_rng(9).standard_normal(t.size)
        src = write_csv(tmp_path / "big.csv", t, y)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["differentiate", str(src), "--delta", "0.01", "--out", str(out1)]) == 0
        assert main(["differentiate", str(src), "--delta", "0.01", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_large_output_matches_per_value_format(self, tmp_path):
        t = np.linspace(0.0, 3.0, 50_000)
        y = np.sin(t) + 0.01 * np.random.default_rng(9).standard_normal(t.size)
        src = write_csv(tmp_path / "big.csv", t, y)
        out = tmp_path / "d.csv"
        assert main(["differentiate", str(src), "--delta", "0.01", "--out", str(out)]) == 0
        result = regularized_derivative(GridFunction(t[0], t[-1], y),
                                        coordinate_alpha(0.01, SqrtDelta()))
        assert text_lines(out.read_text()) == text_lines(csv_by_value(
            ["t", "dy", "x_alpha"], [t, result.derivative.values, result.x_alpha.values]))

    @pytest.mark.parametrize("n", [2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7])
    def test_streamed_output_matches_one_shot_text(self, tmp_path, capsys, n):
        t = np.linspace(0.0, 3.0, n)
        y = np.cos(t) + 0.01 * np.random.default_rng(n).standard_normal(n)
        src = write_csv(tmp_path / "in.csv", t, y)
        alpha = 3.0  # not below the spacing of two samples
        result = regularized_derivative(GridFunction(t[0], t[-1], y), alpha)
        expected = text_lines(_csv_text(["t", "dy", "x_alpha"],
                                        [t, result.derivative.values, result.x_alpha.values]))
        out = tmp_path / "d.csv"
        assert main(["differentiate", str(src), "--alpha", repr(alpha), "--out", str(out)]) == 0
        assert text_lines(out.read_text()) == expected
        capsys.readouterr()
        assert main(["differentiate", str(src), "--alpha", repr(alpha)]) == 0
        assert text_lines(capsys.readouterr().out) == expected

    @pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
    def test_peak_memory_stays_a_small_multiple_of_the_input(self, tmp_path, capsys, padded):
        # The CSV is read a block of bytes at a time and written a block
        # of rows at a time, so no per-line strings of the whole file live at
        # once: the traced peak stays below 4x the input's size (one-shot
        # reading and formatting took 7.3x, the line loop on a padded file 9.3x).
        n = 200_000
        t = np.linspace(0.0, 3.0, n)
        y = np.sin(t) + 0.001 * np.random.default_rng(4).standard_normal(n)
        text = _csv_text(["t", "y"], [t, y])
        src = tmp_path / "big.csv"
        src.write_text(text.replace(",", " , ").replace("\n", " \n") if padded else text)
        tracemalloc.start()
        try:
            code = main(["differentiate", str(src), "--delta", "0.001",
                         "--out", str(tmp_path / "d.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * src.stat().st_size

    def test_out_file_has_the_mode_open_gives(self, tmp_path, umask):
        src, out = linear_csv(tmp_path), tmp_path / "out.csv"
        assert main(["differentiate", str(src), "--alpha", "0.1", "--out", str(out)]) == 0
        assert file_mode(out) == file_mode(src) == 0o666 & ~umask

    def test_no_stray_temp_files(self, tmp_path):
        out = tmp_path / "out.csv"
        main(["differentiate", str(linear_csv(tmp_path)), "--alpha", "0.1",
              "--out", str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv"]

    def test_rule_picks_alpha_from_delta(self, tmp_path, capsys):
        code = main(["differentiate", str(linear_csv(tmp_path)),
                     "--delta", "0.04", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert "alpha=0.2" in capsys.readouterr().err

    def test_explicit_baseline(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["differentiate", str(linear_csv(tmp_path)),
                     "--alpha", "0.1", "--baseline", "1.0,0.5", "--out", str(out)])
        assert code == 0
        _, data = read_csv_columns(out)
        np.testing.assert_allclose(data[:, 1], 0.5, atol=1e-12)

    def test_malformed_baseline(self, tmp_path):
        assert main(["differentiate", str(linear_csv(tmp_path)),
                     "--alpha", "0.1", "--baseline", "auto,0"]) == 2

    def test_missing_column_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n0.0,1.0\n0.5\n")
        assert main(["differentiate", str(bad), "--alpha", "0.1"]) == 2

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0.0,1.0\n0.5,2.0\n")
        assert main(["differentiate", str(bad), "--alpha", "0.1"]) == 2

    def test_nonuniform_grid_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n0.0,1.0\n0.4,2.0\n1.0,3.0\n")
        assert main(["differentiate", str(bad), "--alpha", "0.1"]) == 3

    def test_decreasing_grid_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n1.0,1.0\n0.5,2.0\n0.0,3.0\n")
        assert main(["differentiate", str(bad), "--alpha", "0.1"]) == 3

    def test_interval_wider_than_float64_range_exits_2(self, tmp_path, capsys):
        # h = inf would pass the spacing check, since inf > 1e-9 * inf is false
        wide = tmp_path / "wide.csv"
        wide.write_text("t,y\n-1e308,1\n0,2\n1e308,3\n")
        assert main(["differentiate", str(wide), "--alpha", "0.1"]) == 2
        assert capsys.readouterr() == (
            "", "error: t spans [-1e+308, 1e+308], wider than the float64 range\n")

    def test_step_below_the_float_spacing_at_t_last_is_read(self, tmp_path, capsys):
        # uniform steps of 2**-53 up to t = 1: floats are 2**-52 apart at 1,
        # but 2**-53 apart at every sample below it, so all four are distinct
        t = 1.0 - 2.0**-53 * np.arange(3.0, -1.0, -1.0)
        src = write_csv(tmp_path / "fine.csv", t, np.ones(4))
        assert main(["differentiate", str(src), "--alpha", "0.1"]) == 0
        _, data = read_csv_columns_from_text(capsys.readouterr().out)
        assert data[:, 0].tobytes() == t.tobytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edge=st.integers(-1074, 1023), sign=st.sampled_from([1.0, -1.0]),
           offset=st.integers(-8, 8), floats_per_step=st.integers(1, 4), n=st.integers(2, 12))
    def test_grids_the_t_checks_pass_are_never_rejected_as_too_fine(
            self, tmp_path, capsys, edge, sign, offset, floats_per_step, n):
        # distinct floats a few apart, near a power of two where the spacing halves
        t = [math.ldexp(sign, edge)]
        for steps in [offset] + [floats_per_step] * (n - 1):
            for _ in range(abs(steps)):
                t[-1] = math.nextafter(t[-1], math.copysign(math.inf, steps))
            t.append(t[-1])
        t = np.array(t[:-1])
        assume(np.all(np.isfinite(t)))
        src = write_csv(tmp_path / "edge.csv", t, np.ones(n))
        code = main(["differentiate", str(src), "--alpha", "0.1", "--out",
                     str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert "float64 spacing" not in err and "too coarsely" not in err
        assert code in (0, 2, 3)
        if code == 3:
            assert err == "error: t must be strictly increasing with uniform spacing\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,y\n0.0,1.0\n0.5,{value}\n1.0,3.0\n")
        assert main(["differentiate", str(bad), "--alpha", "0.1"]) == 2
        assert capsys.readouterr().err == "error: malformed CSV: line 3: non-finite value\n"

    def test_form_feed_inside_a_field_is_read(self, tmp_path, capsys):
        src = tmp_path / "ff.csv"
        src.write_text("t,y\n0,1\n0.5,\x0c2\n1,3\n")
        assert main(["differentiate", str(src), "--alpha", "0.1"]) == 0
        assert capsys.readouterr().out.startswith("t,dy,x_alpha\n0.0,")

    def test_samples_near_the_float64_limit_exit_2(self, tmp_path, capsys):
        # finite samples whose detrend overflows
        src = tmp_path / "big.csv"
        src.write_text("t,y\n0,1e308\n0.5,-1.7e308\n1,1.7e308\n1.5,-1.7e308\n")
        assert main(["differentiate", str(src), "--alpha", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the detrended samples left the float64 range\n"

    @pytest.mark.parametrize("flags", [["--alpha", "nan"],
                                       ["--alpha", "0.1", "--window", "0"],
                                       ["--alpha", "0.1", "--window", "-0.5"]])
    def test_nonpositive_alpha_or_window_exits_2(self, tmp_path, capsys, flags):
        assert main(["differentiate", str(linear_csv(tmp_path)), *flags]) == 2
        flag, value = flags[-2:]
        assert capsys.readouterr().err == f"error: {flag} must be positive, got {float(value)}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--delta", "nan"], "--delta must be a finite number >= 0, got nan"),
        (["--delta", "inf"], "--delta must be a finite number >= 0, got inf"),
        (["--delta", "-1", "--alpha", "0.5"], "--delta must be a finite number >= 0, got -1.0"),
        (["--alpha", "inf"], "--alpha must be finite, got inf"),
        (["--alpha", "0.1", "--window", "inf"], "--window must be finite, got inf"),
        (["--alpha", "0.1", "--baseline", "nan,0"],
         "--baseline anchors must be finite, got 'nan,0'"),
    ])
    def test_non_finite_or_negative_flags_exit_2(self, tmp_path, capsys, flags, message):
        assert main(["differentiate", str(linear_csv(tmp_path)), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_nonpositive_alpha_rejected(self, tmp_path):
        assert main(["differentiate", str(linear_csv(tmp_path)), "--alpha", "-1"]) == 2

    def test_zero_delta_cannot_drive_the_rule(self, tmp_path):
        # no --alpha and no usable delta: the coordination rule has no input
        assert main(["differentiate", str(linear_csv(tmp_path))]) == 2

    def test_strict_escalates_small_alpha(self, tmp_path, capsys):
        src = linear_csv(tmp_path)  # spacing 1/16
        assert main(["differentiate", str(src), "--alpha", "0.001", "--strict"]) == 4
        capsys.readouterr()
        code = main(["differentiate", str(src), "--alpha", "0.001",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert "warning:" in capsys.readouterr().err


    def test_stray_runtime_warning_is_not_swallowed(self, tmp_path, monkeypatch):
        # Only AlphaTooSmall is recorded for the stderr note; any other
        # warning reaches the caller's filters, so an error filter sees it.
        def warns(*args, **kwargs):
            warnings.warn("stray", RuntimeWarning)
        monkeypatch.setattr(cli, "regularized_derivative", warns)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="stray"):
                main(["differentiate", str(linear_csv(tmp_path)), "--alpha", "0.1"])


    @pytest.mark.parametrize("flags", [
        ["--delta", "nan"], ["--delta", "-1", "--alpha", "0.5"], ["--alpha", "0"],
        ["--alpha", "inf"], ["--alpha", "0.1", "--window", "-1"], ["--rule", "cube"],
        ["--delta", "0.01", "--rule", "power:x"], [], ["--alpha", "0.1", "--baseline", "x"],
        ["--alpha", "0.1", "--baseline", "nan,0"],
    ])
    def test_bad_flags_exit_2_before_the_file_is_read(self, tmp_path, monkeypatch, capsys,
                                                       flags):
        # [] leaves the rule with delta 0, which it cannot use
        def unread(path):
            raise AssertionError("the CSV was read")
        monkeypatch.setattr(cli, "read_csv_columns", unread)
        assert main(["differentiate", str(tmp_path / "missing.csv"), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_bad_flag_wins_over_a_bad_grid(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", np.array([0.0, 1.0, 3.0]), np.ones(3))
        assert main(["differentiate", str(src), "--alpha", "0.1"]) == 3
        capsys.readouterr()
        assert main(["differentiate", str(src), "--delta", "nan"]) == 2
        assert capsys.readouterr().err == \
            "error: --delta must be a finite number >= 0, got nan\n"


class TestSolve:
    def scalar_payload(self):
        return {
            "matrix": [[2.0, 0.0], [0.0, 1.0]],
            "rhs": [1.0, 1.0],
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.01,
            "alpha": 0.1,
        }

    def test_scalar_problem_report(self, tmp_path, capsys):
        path = write_json(tmp_path, self.scalar_payload())
        assert main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] == 0.1
        np.testing.assert_allclose(report["solution"], [1.0 / 2.1, 1.0 / 1.1], atol=1e-12)
        assert report["q_exceeded"] is False
        assert report["gap"] is None and report["bound"] is None

    def test_exact_problem_fills_bound(self, tmp_path, capsys):
        payload = self.scalar_payload()
        payload["exact_solution"] = [0.5, 1.0]
        payload["exact_matrix"] = [[2.0, 0.0], [0.0, 1.0]]
        path = write_json(tmp_path, payload)
        assert main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["observed_error"] is not None
        assert report["gap"] is not None
        assert report["bound"] is not None
        assert len(report["bound_components"]) == 3
        assert report["observed_error"] <= report["bound"]

    def test_finite_dim_problem_reports_selection(self, tmp_path, capsys):
        payload = {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0]],
                                          "psis": [[1.0, 0.0, 0.0]]}},
            "delta": 0.0,
        }
        path = write_json(tmp_path, payload)
        assert main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] is None
        np.testing.assert_allclose(report["solution"], [0.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(report["selection"], [0.0], atol=1e-10)

    def test_unnormalized_null_vectors_solve_without_warnings(self, tmp_path, capsys):
        payload = {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1e300, 0.0, 0.0]],
                                          "psis": [[1e300, 0.0, 0.0]]}},
            "delta": 0.0,
        }
        assert main(["solve", str(write_json(tmp_path, payload))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        np.testing.assert_allclose(json.loads(captured.out)["solution"], [0.0, 1.0, 0.5],
                                   atol=1e-12)

    def test_finite_dim_problem_reports_observed_error(self, tmp_path, capsys):
        payload = {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0]],
                                          "psis": [[1.0, 0.0, 0.0]]}},
            "delta": 0.0,
            "exact_solution": [0.0, 1.0, 0.25],
        }
        assert main(["solve", str(write_json(tmp_path, payload))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["observed_error"] == pytest.approx(0.25, abs=1e-12)
        assert report["gap"] is None and report["bound"] is None

    def test_report_keys_follow_the_solve_report(self, tmp_path, capsys):
        assert main(["solve", str(write_json(tmp_path, self.scalar_payload()))]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "alpha", "delta", "solution", "residual_norm", "c_alpha_est", "q_est",
            "q_exceeded", "c_sup", "q_sup", "gap", "bound", "bound_components",
            "observed_error", "delta_realized", "selection"]

    def test_exact_data_that_refutes_delta_claims_no_bound(self, tmp_path, capsys):
        path = write_json(tmp_path, {
            "matrix": [[1.0, 0.0], [0.0, 1.0]], "exact_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "rhs": [1.0, 1.0], "exact_solution": [0.0, 0.0], "delta": 1e-4, "rule": "sqrt",
            "stabilizer": {"scalar_alpha": {}}})
        assert main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta_realized"] == 1.0
        assert report["bound"] is None and report["bound_components"] is None
        assert report["observed_error"] == pytest.approx(0.990, rel=1e-3)

    def test_singular_exact_system_reports_null_gap_and_bound(self, tmp_path, capsys):
        # exact_matrix + I is singular, matrix + I is not: the solve succeeds
        path = write_json(tmp_path, {
            "matrix": [[1e-3, 1.0], [1.0, 0.0]], "exact_matrix": [[0.0, 1.0], [1.0, 0.0]],
            "rhs": [2.0, 1.0], "exact_solution": [1.0, 2.0], "delta": 1e-3, "alpha": 1.0,
            "stabilizer": {"scalar_alpha": {}}})
        assert main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["solution"], [1000.0, -999.0], rtol=1e-9)
        assert report["gap"] is None and report["bound"] is None
        assert report["bound_components"] is None
        assert report["delta_realized"] == 1e-3

    def test_output_file(self, tmp_path):
        path = write_json(tmp_path, self.scalar_payload())
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["alpha"] == 0.1

    def test_problem_errors_exit_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "missing.json")]) == 2
        bad = write_json(tmp_path, {"rhs": [1.0]}, name="bad.json")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("matrix, rhs", [
        ("[[2.0, 0.0], [NaN, 1.0]]", "[1.0, 1.0]"),
        ("[[2.0, 0.0], [0.0, 1.0]]", "[1e999, 1.0]"),
        ("[[2.0, 0.0], [0.0, 1.0]]", "[1.0, NaN]"),
        ("[[2.0, 0.0], [0.0, 1.0]]", "[1.0, 1" + "0" * 400 + "]"),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, matrix, rhs):
        path = tmp_path / "p.json"
        path.write_text(f'{{"matrix": {matrix}, "rhs": {rhs}, "delta": 0.01, '
                        f'"alpha": 0.1, "stabilizer": {{"scalar_alpha": {{}}}}}}')
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: schema violation at ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--alphas", "0.1"]])
    def test_interval_wider_than_float64_range_exits_2(self, tmp_path, capsys, command):
        path = write_json(tmp_path, dict(volterra_payload(n=3), interval=[-1e308, 1e308]))
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == (
            "", "error: interval [-1e+308, 1e+308] is wider than the float64 range\n")

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--alphas", "0.1"]])
    @pytest.mark.parametrize("key, value", [("alpha", 0.1), ("rule", "sqrt")])
    def test_finite_dim_with_alpha_or_rule_exits_2(self, tmp_path, capsys, command, key,
                                                   value):
        # documented as not accepted; ignoring them would print "alpha": null
        path = write_json(tmp_path, {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0], "delta": 0.0, "exact_solution": [0.0, 1.0, 0.5], key: value,
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0]], "psis": [[1.0, 0.0, 0.0]]}}})
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == (
            "", "error: the finite_dim stabilizer takes no 'alpha' or 'rule'\n")

    def test_singular_system_exit_5(self, tmp_path):
        payload = {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[0.0, 1.0, 0.0]],
                                          "psis": [[0.0, 1.0, 0.0]]}},
            "delta": 0.0,
        }
        assert main(["solve", str(write_json(tmp_path, payload))]) == 5

    def test_q_threshold_warns_but_succeeds(self, tmp_path, capsys):
        payload = {
            "operator": "volterra",
            "rhs": [0.0] * 33,
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.5,
            "alpha": 0.01,
        }
        assert main(["solve", str(write_json(tmp_path, payload))]) == 0
        captured = capsys.readouterr()
        assert "warning: q_est=" in captured.err
        assert json.loads(captured.out)["q_exceeded"] is True


class TestExperiment:
    def run_small(self, outdir, extra=()):
        return main(["experiment", "--example", "1", "--deltas", "0.01",
                     "--seeds", "2", "--seed", "5", "--n", "64",
                     "--out", str(outdir), *extra])

    def test_produces_expected_files(self, tmp_path, capsys):
        outdir = tmp_path / "runs"
        assert self.run_small(outdir) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "example1_delta0.01_seed5.csv",
            "example1_delta0.01_seed6.csv",
            "example1_plot.csv",
            "example1_table.csv",
        ]
        table_text = (outdir / "example1_table.csv").read_text()
        assert capsys.readouterr().out == table_text
        header, rows = read_csv_columns(outdir / "example1_table.csv")
        assert header == ["delta", "alpha", "seed_count",
                          "median_max_error_full", "median_max_error_interior"]
        assert rows.shape == (1, 5)
        assert rows[0, 0] == 0.01
        assert rows[0, 1] == 0.1
        assert rows[0, 2] == 2

    def test_files_have_the_mode_open_gives(self, tmp_path, capsys, umask):
        outdir = tmp_path / "runs"
        assert self.run_small(outdir) == 0
        assert {file_mode(path) for path in outdir.iterdir()} == {0o666 & ~umask}

    def test_plot_file_has_error_column(self, tmp_path):
        outdir = tmp_path / "runs"
        self.run_small(outdir)
        header, rows = read_csv_columns(outdir / "example1_plot.csv")
        assert header == ["t", "exact", "computed", "error"]
        np.testing.assert_allclose(rows[:, 3], np.abs(rows[:, 1] - rows[:, 2]),
                                   atol=1e-15)

    def test_files_match_per_value_format(self, tmp_path):
        # the run files and the plot print one shared grid, formatted once
        outdir = tmp_path / "runs"
        assert main(["experiment", "--example", "2", "--deltas", "0.01,0.1",
                     "--seeds", "2", "--seed", "3", "--n", "64", "--out", str(outdir)]) == 0
        for delta in (0.01, 0.1):
            for seed in (3, 4):
                rep = run_experiment(2, delta, seed, n=64)
                assert (outdir / f"example2_delta{fmt(delta)}_seed{seed}.csv").read_text() == \
                    csv_by_value(["t", "dy"], [rep.derivative.t, rep.derivative.values])
        rep = run_experiment(2, 0.1, 3, n=64)
        computed, exact = rep.derivative.values, rep.exact_derivative.values
        assert (outdir / "example2_plot.csv").read_text() == csv_by_value(
            ["t", "exact", "computed", "error"],
            [rep.derivative.t, exact, computed, np.abs(computed - exact)])

    def test_every_file_matches_per_value_format(self, tmp_path, capsys):
        outdir = tmp_path / "runs"
        assert main(["experiment", "--example", "1", "--deltas", "0.1,0.01", "--seeds", "2",
                     "--seed", "11", "--n", "40", "--out", str(outdir)]) == 0
        rows = convergence_study(1, [0.1, 0.01], [11, 12], n=40)
        expected = {}
        for row in rows:
            for rep in row.reports:
                expected[f"example1_delta{fmt(row.delta)}_seed{rep.seed}.csv"] = \
                    "t,dy\n" + "".join(f"{fmt(t)},{fmt(dy)}\n" for t, dy in
                                       zip(rep.derivative.t, rep.derivative.values))
        expected["example1_table.csv"] = \
            "delta,alpha,seed_count,median_max_error_full,median_max_error_interior\n" + \
            "".join(f"{fmt(row.delta)},{fmt(row.alpha)},{row.seed_count},"
                    f"{fmt(row.median_max_error_full)},{fmt(row.median_max_error_interior)}\n"
                    for row in rows)
        plot = rows[0].reports[0]  # the first run of the noisiest delta
        expected["example1_plot.csv"] = "t,exact,computed,error\n" + "".join(
            f"{fmt(t)},{fmt(exact)},{fmt(dy)},{fmt(abs(dy - exact))}\n" for t, exact, dy in
            zip(plot.derivative.t, plot.exact_derivative.values, plot.derivative.values))
        assert {path.name: path.read_text() for path in outdir.iterdir()} == expected
        assert capsys.readouterr().out == expected["example1_table.csv"]

    def test_run_files_longer_than_a_block_match_per_value_format(self, tmp_path):
        # each run's file is then printed on its own, not several to a text
        n = CSV_BLOCK_ROWS + 3
        outdir = tmp_path / "runs"
        assert main(["experiment", "--example", "1", "--deltas", "0.01", "--seeds", "2",
                     "--seed", "8", "--n", str(n), "--out", str(outdir)]) == 0
        for seed in (8, 9):
            rep = run_experiment(1, 0.01, seed, n=n)
            assert (outdir / f"example1_delta0.01_seed{seed}.csv").read_text() == \
                csv_by_value(["t", "dy"], [rep.derivative.t, rep.derivative.values])

    def test_runs_are_bit_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert self.run_small(d1) == 0
        assert self.run_small(d2) == 0
        for p1 in sorted(d1.iterdir()):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        outdir = tmp_path / "runs"
        code = main(["experiment", "--example", "1", "--deltas", "0.01",
                     "--seeds", "1", "--n", "64", "--out", str(outdir)])
        assert code == 0
        assert (outdir / "example1_delta0.01_seed7.csv").exists()

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        outdir = tmp_path / "runs"
        assert self.run_small(outdir) == 0
        assert (outdir / "example1_delta0.01_seed5.csv").exists()

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 42

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["experiment", "--example", "1", "--out", str(tmp_path)]) == 2

    def test_non_integer_env_seed_message(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        outdir = tmp_path / "runs"
        assert main(["experiment", "--example", "1", "--out", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {SEED_ENV_VAR} must be an integer\n"
        assert not outdir.exists()

    def test_default_seed_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        outdir = tmp_path / "runs"
        assert main(["experiment", "--example", "1", "--deltas", "0.01",
                     "--seeds", "1", "--n", "64", "--out", str(outdir)]) == 0
        assert (outdir / f"example1_delta0.01_seed{DEFAULT_SEED}.csv").exists()

    def test_explicit_seed_ignores_bad_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert self.run_small(tmp_path / "runs") == 0

    def test_negative_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        assert main(["experiment", "--example", "1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: --seed (or ${SEED_ENV_VAR}) must be >= 0, got -1\n"

    def test_negative_seed_flag(self, tmp_path, capsys):
        assert main(["experiment", "--example", "1", "--seed", "-1",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: --seed (or ${SEED_ENV_VAR}) must be >= 0, got -1\n"

    @pytest.mark.parametrize("deltas", ["nan", "0.1,inf"])
    def test_non_finite_deltas_exit_2(self, tmp_path, capsys, deltas):
        assert main(["experiment", "--example", "1", "--deltas", deltas,
                     "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr() == (
            "", "error: --deltas: every delta must be a positive finite number\n")
        assert not (tmp_path / "runs").exists()

    def test_noise_past_float64_range_exits_2(self, tmp_path, capsys):
        assert main(["experiment", "--example", "1", "--deltas", "1e308", "--n", "8",
                     "--seeds", "1", "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr() == (
            "", "error: the noisy samples left the float64 range\n")

    def test_stray_runtime_warning_is_not_swallowed(self, tmp_path, monkeypatch):
        def warns(*args, **kwargs):
            warnings.warn("stray", RuntimeWarning)
        monkeypatch.setattr(cli, "convergence_study", warns)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="stray"):
                main(["experiment", "--example", "1", "--deltas", "0.01",
                      "--out", str(tmp_path / "runs")])

    def test_cold_run_leaves_numpy_ma_out(self, tmp_path):
        # np.median imports numpy.ma on first use; the study's medians do not.
        # Nor does a baseline fit import numpy.polynomial, as polyfit did.
        src, out = linear_csv(tmp_path), tmp_path / "d.csv"
        code = ("import sys\nfrom perturbreg.cli import main\n"
                "assert main(['experiment', '--example', '1', '--deltas', '0.01,0.001', "
                f"'--seeds', '2', '--n', '64', '--out', {str(tmp_path / 'runs')!r}]) == 0\n"
                f"assert main(['differentiate', {str(src)!r}, '--alpha', '0.1', "
                f"'--out', {str(out)!r}]) == 0\n"
                "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)")
        assert run_in_fresh_interpreter(code).stdout.splitlines()[-1] == "False False"

    def test_bad_flags(self, tmp_path):
        out = str(tmp_path / "runs")
        assert main(["experiment", "--example", "1", "--deltas", "0.1,-0.5",
                     "--out", out]) == 2
        assert main(["experiment", "--example", "1", "--seeds", "0", "--out", out]) == 2
        assert main(["experiment", "--example", "1", "--n", "1", "--out", out]) == 2
        assert main(["experiment", "--example", "3", "--out", out]) == 2

    def test_alpha_far_below_grid_spacing_warns_and_exits_0(self, tmp_path, capsys):
        # alpha = sqrt(1e-300) = 1e-150, far below h = 3/127 on example 1: the
        # trapezoid solve stays finite (|r| < 1) but is barely stabilized, so
        # its errors are huge; the run says so in one warning line.
        outdir = tmp_path / "runs"
        code = main(["experiment", "--example", "1", "--deltas", "0.01,1e-300",
                     "--seeds", "2", "--n", "128", "--out", str(outdir)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: alpha=1e-150 is below the grid spacing h=0.023622\n"
        assert sorted(p.name for p in outdir.iterdir()) == [
            "example1_delta0.01_seed42.csv", "example1_delta0.01_seed43.csv",
            "example1_delta1e-300_seed42.csv", "example1_delta1e-300_seed43.csv",
            "example1_plot.csv", "example1_table.csv"]
        assert captured.out == (outdir / "example1_table.csv").read_text()
        _, rows = read_csv_columns(outdir / "example1_table.csv")
        assert rows[1, 1] == 1e-150 and rows[1, 3] > 1e140

    def test_alpha_check_uses_the_example_grid(self, tmp_path, capsys):
        # alpha = 8e-4 at n = 129 lies below h on example 1's [0, 3]
        # (h = 3/128) and on example 2's [0, 5] (h = 5/128)
        argv = ["--deltas", "6.4e-7", "--seeds", "1", "--n", "129"]
        for example, h in (("1", "0.0234375"), ("2", "0.0390625")):
            outdir = tmp_path / example
            assert main(["experiment", "--example", example, *argv,
                         "--out", str(outdir)]) == 0
            assert capsys.readouterr().err == \
                f"warning: alpha=0.0008 is below the grid spacing h={h}\n"
            assert len(list(outdir.iterdir())) == 3

    def test_alpha_check_threshold(self, tmp_path, capsys):
        # h/alpha = 37 and 36 both warn and run: no cut below the grid
        # spacing; alpha just above h does not warn
        h = 3.0 / 127
        argv = ["experiment", "--example", "1", "--seeds", "1", "--n", "128"]
        for ratio in (37, 36):
            outdir = tmp_path / str(ratio)
            assert main([*argv, "--deltas", repr((h / ratio) ** 2), "--out", str(outdir)]) == 0
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("warning: alpha=")
            assert err.endswith(" is below the grid spacing h=0.023622\n")
            assert len(list(outdir.iterdir())) == 3
        assert main([*argv, "--deltas", repr((1.01 * h) ** 2),
                     "--out", str(tmp_path / "above")]) == 0
        assert capsys.readouterr().err == ""

    def test_small_alpha_warning_lines(self, tmp_path):
        # A fresh interpreter, so Python's default warning printer would show
        # through: each distinct message is one `warning:` line instead.
        argv = ["experiment", "--example", "2", "--deltas", "0.1,0.01,0.001",
                "--n", "128", "--seeds", "2", "--out", str(tmp_path / "runs")]
        proc = run_in_fresh_interpreter(
            f"import sys; from perturbreg.cli import main; sys.exit(main({argv!r}))")
        assert proc.stderr == (
            "warning: alpha=0.0316228 is below the grid spacing h=0.0393701\n")
        assert proc.stdout == (tmp_path / "runs" / "example2_table.csv").read_text()


class TestRunFileWriter:
    """A study of more than one text writes its run files on a thread of its own."""

    DELTAS, SEEDS = (0.1, 0.01, 0.001), tuple(range(21, 28))  # 21 runs, 8 to a text at n = 512

    def argv(self, example, outdir):
        return ["experiment", "--example", str(example), "--n", "512",
                "--deltas", ",".join(map(repr, self.DELTAS)), "--seeds", str(len(self.SEEDS)),
                "--seed", str(self.SEEDS[0]), "--out", str(outdir)]

    def run_names(self, example):
        return [f"example{example}_delta{fmt(delta)}_seed{seed}.csv"
                for delta in self.DELTAS for seed in self.SEEDS]

    @pytest.mark.parametrize("example", [1, 2])
    def test_files_hold_what_the_text_layer_writes(self, tmp_path, capsys, started_threads,
                                                   example):
        outdir, reference = tmp_path / "runs", tmp_path / "reference.csv"
        threads = threading.active_count()
        assert main(self.argv(example, outdir)) == 0
        assert [t.name for t in started_threads] == ["run-files"]
        assert threading.active_count() == threads
        rows = convergence_study(example, list(self.DELTAS), list(self.SEEDS), n=512)
        reports = [rep for row in rows for rep in row.reports]
        for name, rep in zip(self.run_names(example), reports, strict=True):
            with open(reference, "w") as fh:
                fh.write(csv_by_value(["t", "dy"], [rep.derivative.t, rep.derivative.values]))
            assert (outdir / name).read_bytes() == reference.read_bytes()
        assert capsys.readouterr().out == (outdir / f"example{example}_table.csv").read_text()
        assert len(list(outdir.iterdir())) == len(reports) + 2

    @pytest.mark.parametrize("k", [1, 2, 8, 9, 16, 17, 21])
    def test_failed_rename_stops_the_writing(self, tmp_path, capsys, monkeypatch, k):
        # the k-th run file cannot be renamed into place: the runs before it
        # stay, none after it is written, not even those of a text already
        # waiting for the writer, and neither table nor plot is
        replace, calls = os.replace, []

        def fails_on_call_k(src, dst):
            calls.append(dst)
            if len(calls) == k:
                time.sleep(0.05)  # while the next text is made and waits
                raise OSError(errno.EACCES, os.strerror(errno.EACCES))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fails_on_call_k)
        outdir = tmp_path / "runs"
        threads = threading.active_count()
        assert main(self.argv(1, outdir)) == 2
        names = self.run_names(1)
        assert capsys.readouterr() == \
            ("", f"error: cannot write {outdir / names[k - 1]}: Permission denied\n")
        assert sorted(p.name for p in outdir.iterdir()) == sorted(names[:k - 1])
        assert [Path(dst).name for dst in calls] == names[:k]
        assert threading.active_count() == threads

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        write, calls = os.write, []

        def fails_on_the_third_file(fd, data):
            calls.append(fd)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data)

        monkeypatch.setattr(os, "write", fails_on_the_third_file)
        outdir = tmp_path / "runs"
        assert main(self.argv(2, outdir)) == 2
        names = self.run_names(2)
        assert capsys.readouterr() == \
            ("", f"error: cannot write {outdir / names[2]}: No space left on device\n")
        assert sorted(p.name for p in outdir.iterdir()) == sorted(names[:2])

    @pytest.mark.parametrize("argv", [
        ["--deltas", "0.01", "--seeds", "1", "--n", "512"],  # one run file
        ["--deltas", "0.1,0.01,0.001", "--seeds", "4", "--n", "64"],  # runs of one text
    ], ids=["one-run", "one-text"])
    def test_a_study_of_one_text_starts_no_thread(self, tmp_path, started_threads, argv):
        outdir = tmp_path / "runs"
        assert main(["experiment", "--example", "1", *argv, "--out", str(outdir)]) == 0
        assert started_threads == []


class TestSweep:
    def volterra_payload(self):
        return volterra_payload()

    def test_sweep_reports_gap_and_margin(self, tmp_path, capsys):
        path = write_json(tmp_path, self.volterra_payload())
        assert main(["sweep", str(path), "--alphas", "0.2,0.1"]) == 0
        header, rows = read_csv_columns_from_text(capsys.readouterr().out)
        assert header == ["alpha", "S", "c_alpha_est", "q_est"]
        np.testing.assert_allclose(rows[:, 0], [0.2, 0.1])
        np.testing.assert_allclose(rows[:, 2], [10.0, 20.0])  # 2 / alpha
        np.testing.assert_allclose(rows[:, 3], [0.1, 0.2])  # delta * c
        assert np.all(rows[:, 1] > 0.0)

    def test_exact_operator_preferred_when_present(self, tmp_path, capsys):
        # observed matrix is dense junk; the closed-form 2/alpha shows the
        # sweep rated the named exact integral operator instead
        n = 9
        payload = {
            "matrix": np.eye(n).tolist(),
            "rhs": [0.0] * n,
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "alpha": 0.1,
            "exact_solution": [0.0] * n,
            "exact_matrix": "volterra",
        }
        path = write_json(tmp_path, payload)
        assert main(["sweep", str(path), "--alphas", "0.1"]) == 0
        _, rows = read_csv_columns_from_text(capsys.readouterr().out)
        assert rows[0, 2] == 20.0

    def test_output_file_deterministic(self, tmp_path):
        path = write_json(tmp_path, self.volterra_payload())
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", str(path), "--alphas", "0.3,0.1,0.03",
                     "--out", str(o1)]) == 0
        assert main(["sweep", str(path), "--alphas", "0.3,0.1,0.03",
                     "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_dense_c_alpha_from_library_routine(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((6, 6))
        payload = {"matrix": m.tolist(), "rhs": [0.0] * 6, "stabilizer": {"scalar_alpha": {}},
                   "delta": 0.01, "alpha": 0.1, "exact_solution": [1.0] * 6}
        assert main(["sweep", str(write_json(tmp_path, payload)), "--alphas", "0.3,0.05"]) == 0
        _, rows = read_csv_columns_from_text(capsys.readouterr().out)
        op = DiscreteOperator.dense(m)
        assert list(rows[:, 2]) == [c_alpha_estimate(op, Stabilizer.scalar_alpha(), a)[0]
                                    for a in (0.3, 0.05)]

    def test_dense_output_matches_per_value_format(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((8, 8))
        x = rng.standard_normal(8)
        payload = {"matrix": m.tolist(), "rhs": (m @ x).tolist(),
                   "stabilizer": {"scalar_alpha": {}}, "delta": 0.01, "alpha": 0.1,
                   "exact_solution": x.tolist()}
        alphas = [0.3, 0.05, 1e-3]
        assert main(["sweep", str(write_json(tmp_path, payload)),
                     "--alphas", ",".join(map(fmt, alphas))]) == 0
        op, stab = DiscreteOperator.dense(m), Stabilizer.scalar_alpha()
        c_est = [c_alpha_estimate(op, stab, a)[0] for a in alphas]
        assert capsys.readouterr().out == csv_by_value(
            ["alpha", "S", "c_alpha_est", "q_est"],
            [alphas, [stabilization_gap(op, stab, a, x) for a in alphas], c_est,
             [0.01 * c for c in c_est]])

    def test_finite_rank_stabilizer_factors_once(self, tmp_path, capsys, monkeypatch):
        # the e_0 stabilizer does not depend on alpha: one LU solve gives the
        # gap and one inverse c_alpha_est, for every row
        e0 = [1.0, 0.0, 0.0, 0.0]
        payload = {"matrix": np.diag([0.0, 1.0, 2.0, 3.0]).tolist(), "rhs": [0.0, 1.0, 2.0, 3.0],
                   "delta": 0.01, "stabilizer": {"finite_dim": {"phis": [e0], "psis": [e0]}},
                   "exact_solution": [1.0] * 4}
        path = write_json(tmp_path, payload)
        calls = {"solve": 0, "inv": 0}
        for name in calls:
            def counted(matrix, *args, _real=getattr(np.linalg, name), _name=name):
                # building the stabilizer solves a 1 x 1 Gram system; count 4 x 4 only
                calls[_name] += np.shape(matrix) == (4, 4)
                return _real(matrix, *args)
            monkeypatch.setattr(np.linalg, name, counted)
        assert main(["sweep", str(path), "--alphas", "0.3,0.1,0.01"]) == 0
        assert calls == {"solve": 1, "inv": 1}
        _, rows = read_csv_columns_from_text(capsys.readouterr().out)
        assert list(rows[:, 1]) == [1.0, 1.0, 1.0]
        assert list(rows[:, 2]) == [1.0, 1.0, 1.0]

    def test_volterra_never_builds_the_matrix(self, tmp_path, monkeypatch):
        def refuse(n, h):
            raise AssertionError("the running-integral matrix was built")
        monkeypatch.setattr(operators, "cumulative_trapezoid_matrix", refuse)
        path = write_json(tmp_path, volterra_payload(n=4097))
        assert main(["sweep", str(path), "--alphas", "0.3,0.1,0.001",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 0

    def test_needs_exact_solution(self, tmp_path):
        payload = self.volterra_payload()
        del payload["exact_solution"]
        path = write_json(tmp_path, payload)
        assert main(["sweep", str(path), "--alphas", "0.1"]) == 2

    @pytest.mark.parametrize("alphas", ["inf", "nan", "0.1,inf"])
    def test_non_finite_alphas_exit_2(self, tmp_path, capsys, alphas):
        path = write_json(tmp_path, self.volterra_payload())
        assert main(["sweep", str(path), "--alphas", alphas]) == 2
        assert capsys.readouterr() == (
            "", "error: --alphas needs a nonempty list of positive finite numbers\n")

    def test_rejects_bad_alphas(self, tmp_path):
        path = write_json(tmp_path, self.volterra_payload())
        assert main(["sweep", str(path), "--alphas", "0.1,-0.2"]) == 2
        assert main(["sweep", str(path), "--alphas", ""]) == 2
        assert main(["sweep", str(path), "--alphas", "0.1,zebra"]) == 2


EXIT_CODES = {0, 2, 3, 4, 5}
ODD_NUMBERS = [0.0, -1.0, 1e-300, 1e300, 1.7e308, float("nan"), float("inf"), 0.1]
OVERFLOW_CSV = "t,y\n0,1e308\n0.5,-1.7e308\n1,1.7e308\n1.5,-1.7e308\n"
FORM_FEED_CSV = "t,y\n0,1\n0.5,\x0c2\n1,3\n"


def cli_numbers():
    return st.one_of(st.floats(1e-3, 10.0), st.sampled_from(ODD_NUMBERS), st.floats())


@st.composite
def uniform_csv_texts(draw):
    """t,y CSVs on a uniform grid, so differentiate gets past its input checks."""
    n = draw(st.integers(2, 40))
    a = draw(st.sampled_from([0.0, -1e308, 1e300, -5.0]))
    b = a + draw(st.sampled_from([1.0, 1e-300, 1e308, 3.0]))
    values = draw(st.lists(cli_numbers().filter(np.isfinite), min_size=n, max_size=n))
    return "t,y\n" + "".join(f"{t!r},{y!r}\n"
                               for t, y in zip(np.linspace(a, b, n).tolist(), values))


@st.composite
def differentiate_flags(draw):
    """Flags of differentiate, well or badly formed; --alpha and --rule may clash."""
    def number(flag):
        return f"{flag}={draw(cli_numbers())!r}"

    flags = []
    if draw(st.booleans()):
        flags.append(number("--delta"))
    choice = draw(st.sampled_from(["alpha", "alpha", "rule", "both", "neither"]))
    if choice in ("alpha", "both"):
        flags.append(number("--alpha"))
    if choice in ("rule", "both"):
        flags.append("--rule=" + draw(st.sampled_from(
            ["sqrt", "power:0.5", "power:2", "power:x", "cube"])))
    if draw(st.booleans()):
        flags.append("--baseline=" + draw(st.sampled_from(
            ["auto", "0,0", "1,-2", "1e308,-1e308", "nan,inf", "x", "1,2,3"])))
    if draw(st.booleans()):
        flags.append(number("--window"))
    if draw(st.booleans()):
        flags.append("--strict")
    return flags


def _scaled(value, factor):
    """``value`` with every number in it multiplied by ``factor``."""
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _scaled(v, factor) for k, v in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) * factor
    return value


def _base_problems():
    n = 5
    m = (np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) / n**2).tolist()
    x = np.linspace(0.0, 1.0, n).tolist()
    singular = np.diag([0.0, 1.0, 2.0, 3.0, 4.0]).tolist()
    e0 = [1.0, 0.0, 0.0, 0.0, 0.0]
    return [
        {"matrix": m, "rhs": x, "stabilizer": {"scalar_alpha": {}}, "delta": 0.01,
         "alpha": 0.1, "exact_solution": x, "exact_matrix": m},
        {**volterra_payload(n=9), "rule": "sqrt"},
        {"matrix": singular, "rhs": [0.0, 1.0, 1.0, 1.0, 1.0],
         "stabilizer": {"finite_dim": {"phis": [e0], "psis": [e0]}}, "delta": 0.001,
         "exact_solution": [0.0, 1.0, 0.5, 1 / 3, 0.25]},
    ]


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)


@st.composite
def problem_texts(draw):
    """A valid problem file with up to three keys dropped, replaced or rescaled."""
    payload = draw(st.sampled_from(_base_problems()))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(payload) + ["exact_matrix", "q_max", "rule",
                                                      "interval", "operator"]))
        action = draw(st.sampled_from(["drop", "replace", "scale"]))
        if action == "drop":
            payload.pop(key, None)
        elif action == "replace":
            payload[key] = draw(JSON_VALUES)
        elif key in payload:
            payload[key] = _scaled(payload[key], draw(cli_numbers()))
    return json.dumps(payload)


class TestExitCodes:
    """Any input ends in a documented exit code, never in an exception."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(csv_texts(), uniform_csv_texts()), flags=differentiate_flags())
    @example(text=OVERFLOW_CSV, flags=["--alpha=0.1"])
    @example(text=FORM_FEED_CSV, flags=["--alpha=0.1"])
    @example(text="t,y\n0.0,1.0\n1e+308,1.0\n", flags=["--alpha=1.0"])  # 2h overflows
    def test_differentiate(self, tmp_path, text, flags):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert main(["differentiate", str(path), *flags,
                     "--out", str(tmp_path / "out.csv")]) in EXIT_CODES

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=problem_texts(), command=st.sampled_from(["solve", "sweep"]),
           alphas=st.sampled_from(["0.1", "0.5,0.01", "1e-300", "1e300", "nan", "inf", "x"]))
    def test_solve_and_sweep(self, tmp_path, text, command, alphas):
        path = tmp_path / "problem.json"
        path.write_text(text)
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv.append("--alphas=" + alphas)
        assert main(argv) in EXIT_CODES


def command_argv(tmp_path, command):
    """A ``command`` call that succeeds once an ``--out`` is added."""
    if command == "differentiate":
        return ["differentiate", str(linear_csv(tmp_path)), "--alpha", "0.1"]
    if command == "experiment":
        return ["experiment", "--example", "1", "--deltas", "0.1", "--seeds", "1",
                "--n", "16"]
    problem = str(write_json(tmp_path, volterra_payload()))
    return ["solve", problem] if command == "solve" else ["sweep", problem, "--alphas", "0.1"]


COMMANDS = ["differentiate", "solve", "experiment", "sweep"]
# The library call each command makes that a test replaces by a failing one.
LIBRARY_CALL = {"differentiate": "regularized_derivative", "solve": "solve_perturbed",
                "experiment": "convergence_study", "sweep": "stabilization_sweep"}


@pytest.mark.parametrize("command", COMMANDS)
def test_out_files_take_the_umask_without_setting_it(tmp_path, monkeypatch, umask, command):
    # the kernel applies the umask to each new temp file; the process umask
    # is never set, not even for a moment, so another thread's files keep it
    def refuse(mask):
        raise AssertionError("the process umask was set")
    out = tmp_path / "out"
    argv = command_argv(tmp_path, command) + ["--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(os, "umask", refuse)
        assert main(argv) == 0
    files = list(out.iterdir()) if out.is_dir() else [out]
    assert {file_mode(path) for path in files} == {0o666 & ~umask}


class TestErrorMap:
    """``main`` turns a library error from any command into one line and its code."""

    def fail_with(self, monkeypatch, command, error):
        def failing(*args, **kwargs):
            raise error("the library failed")
        monkeypatch.setattr(cli, LIBRARY_CALL[command], failing)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_library_error_exits_2(self, tmp_path, monkeypatch, capsys, command):
        self.fail_with(monkeypatch, command, PerturbregError)
        argv = command_argv(tmp_path, command)
        if command == "experiment":
            argv += ["--out", str(tmp_path / "results")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: the library failed\n")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 745. GiB for an array"),
         "Unable to allocate 745. GiB for an array"),
        (MemoryError(), "out of memory")], ids=["numpy", "bare"])
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys, command, error,
                                  message):
        self.fail_with(monkeypatch, command, lambda _: error)
        argv = command_argv(tmp_path, command)
        if command == "experiment":
            argv += ["--out", str(tmp_path / "results")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_singular_system_exits_5(self, tmp_path, monkeypatch, capsys, command):
        self.fail_with(monkeypatch, command, SingularSystem)
        assert main(command_argv(tmp_path, command)) == 5
        assert capsys.readouterr() == ("", "error: the library failed\n")

    def unwritable(self, tmp_path, command, out, capsys):
        """Run ``command --out out``: it exits 2, names ``out`` and leaves no file."""
        argv = command_argv(tmp_path, command) + ["--out", str(out)]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.splitlines()[-1].startswith(f"error: cannot write {out}: ")
        assert err.count("error:") == 1
        assert sorted(tmp_path.rglob("*")) == before  # no temp file left behind

    @pytest.mark.parametrize("command", ["differentiate", "solve", "sweep"])
    def test_out_in_a_missing_directory_exits_2(self, tmp_path, capsys, command):
        self.unwritable(tmp_path, command, tmp_path / "missing" / "out", capsys)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        self.unwritable(tmp_path, command, tmp_path / "file" / "out", capsys)

    @pytest.mark.parametrize("command", ["differentiate", "solve", "sweep"])
    def test_out_that_is_a_directory_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "dir").mkdir()
        self.unwritable(tmp_path, command, tmp_path / "dir", capsys)

    def test_experiment_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "results").write_text("")
        self.unwritable(tmp_path, "experiment", tmp_path / "results", capsys)

    def test_experiment_directory_where_a_file_goes_exits_2(self, tmp_path, capsys):
        table = tmp_path / "results" / "example1_table.csv"
        table.mkdir(parents=True)
        assert main(command_argv(tmp_path, "experiment")
                    + ["--out", str(tmp_path / "results")]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {table}: Is a directory\n")
        assert not list(table.parent.glob("example1_table.csv.*"))

    @pytest.mark.parametrize("name", ["example1_table.csv", "example1_plot.csv",
                                      "example1_delta0.1_seed43.csv"])
    def test_experiment_writes_nothing_when_a_directory_stands_in_the_way(
            self, tmp_path, capsys, name):
        results = tmp_path / "results"
        (results / name).mkdir(parents=True)
        assert main(["experiment", "--example", "1", "--deltas", "0.1", "--seeds", "2",
                     "--n", "16", "--out", str(results)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {results / name}: "
                                           "Is a directory\n")
        assert [p.name for p in results.iterdir()] == [name]

    def test_closed_stdout_exits_2_with_one_line(self, tmp_path):
        t = np.linspace(0.0, 1.0, 20000)
        path = write_csv(tmp_path / "in.csv", t, np.sin(t))
        proc = subprocess.Popen([sys.executable, "-m", "perturbreg.cli", "differentiate",
                                 str(path), "--alpha", "0.1"], env=package_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
        finally:
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            proc.wait(timeout=120)
        assert first == "t,dy,x_alpha\n"
        assert proc.returncode == 2
        assert err.splitlines()[1:] == ["error: cannot write stdout: Broken pipe"]

    def test_failed_experiment_leaves_no_new_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir"
        assert main(["experiment", "--example", "1", "--deltas", "1e308", "--seeds", "2",
                     "--n", "64", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: the noisy samples left the float64 range\n")
        assert list(tmp_path.iterdir()) == []

    def test_experiment_creates_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "results"
        assert main(command_argv(tmp_path, "experiment") + ["--out", str(out)]) == 0
        assert (out / "example1_table.csv").is_file()

    def test_unwritable_out_shows_no_traceback(self, tmp_path):
        proc = fresh_interpreter("-m", "perturbreg.cli",
                                 *command_argv(tmp_path, "differentiate"),
                                 "--out", str(tmp_path / "missing" / "d.csv"), check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f"error: cannot write {tmp_path / 'missing' / 'd.csv'}: No such file or directory")


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # built once per process; no flag of one call reaches the next
        path = linear_csv(tmp_path)
        assert cli._parser() is cli._parser()
        assert main(["differentiate", str(path), "--alpha", "0.5"]) == 0
        assert main(["differentiate", str(path), "--delta", "0.04", "--rule", "sqrt"]) == 0
        assert main(["differentiate", str(path), "--delta", "0.04"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in err] == ["alpha=0.5", "alpha=0.2", "alpha=0.2"]

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["differentiate", "nope.csv", "--frobnicate"]) == 2

    @pytest.mark.parametrize("argv, fault", [
        (["--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ])
    def test_top_level_usage_error_names_the_fault(self, capsys, argv, fault):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert [ln for ln in err.splitlines() if "error:" in ln] == [f"perturbreg: error: {fault}"]

    def test_cli_import_leaves_jsonschema_out(self):
        # Problem files are validated without jsonschema; importing it would
        # add its start-up time to every command.
        code = "import sys, perturbreg.cli; print('jsonschema' in sys.modules)"
        assert run_in_fresh_interpreter(code).stdout == "False\n"

    def test_cli_import_leaves_scipy_out(self):
        # The running integral and its shifted inverse are numpy only; scipy
        # is a test-time reference and would add its start-up time.
        code = ("import sys, perturbreg.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_in_fresh_interpreter(code).stdout == "[]\n"

    def test_cli_import_builds_no_format_table_and_loads_no_new_module(self):
        # The formatter's tables are built on first use, so a cold start that
        # prints nothing does not pay for them; and it imports nothing beyond
        # numpy and the standard modules the package used before it.
        code = ("import sys\n"
                "import __future__, argparse, contextlib, dataclasses, functools, json, math\n"
                "import os, pathlib, re, tempfile, typing, warnings\n"
                "import numpy\n"
                "before = set(sys.modules)\n"
                "import perturbreg.cli\n"
                "from perturbreg import _floatfmt\n"
                "print(sorted(m for m in set(sys.modules) - before\n"
                "             if m.split('.')[0] != 'perturbreg'))\n"
                "print(_floatfmt._QUAD_TABLES is None, int(_floatfmt._G_BUILT.sum()))\n"
                "_floatfmt.cells([numpy.array([1.5, 2.5e10])])\n"
                "print(int(_floatfmt._G_BUILT.sum()))\n")
        assert run_in_fresh_interpreter(code).stdout == "[]\nTrue 0\n2\n"

    def test_module_runs_the_cli(self, tmp_path):
        proc = fresh_interpreter("-m", "perturbreg.cli", "--bogus", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len([ln for ln in proc.stderr.splitlines() if "error:" in ln]) == 1
        assert "Traceback" not in proc.stderr
        src = linear_csv(tmp_path)
        proc = fresh_interpreter("-m", "perturbreg.cli", "differentiate", str(src),
                                 "--alpha", "0.1", "--out", "d.csv", cwd=tmp_path)
        assert proc.stdout == ""
        assert main(["differentiate", str(src), "--alpha", "0.1",
                     "--out", str(tmp_path / "ref.csv")]) == 0
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_seed_env_ignored_outside_experiment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        problem = write_json(tmp_path, volterra_payload())
        assert main(["solve", str(problem), "--out", str(tmp_path / "r.json")]) == 0
        assert main(["sweep", str(problem), "--alphas", "0.1",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["differentiate", str(linear_csv(tmp_path)), "--alpha", "0.1",
                     "--out", str(tmp_path / "d.csv")]) == 0


def read_csv_columns_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = np.asarray([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows
