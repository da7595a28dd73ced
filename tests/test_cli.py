"""End-to-end tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from perturbreg import (
    DiscreteOperator,
    GridFunction,
    Stabilizer,
    cli,
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
from perturbreg.solve import SqrtDelta, c_alpha_estimate, coordinate_alpha


def write_csv(path, t, y):
    lines = ["t,y"] + [f"{fmt(ti)},{fmt(yi)}" for ti, yi in zip(t, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def csv_by_value(header, columns):
    """CSV text with every value printed by ``fmt`` on its own."""
    return ",".join(header) + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in zip(*columns))


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


def fresh_interpreter(*args, check=True, cwd=None):
    """Run a new interpreter on ``args`` with this checkout's package on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, check=check, cwd=cwd,
                          capture_output=True, text=True)


def run_in_fresh_interpreter(code):
    """Run ``code`` in a new interpreter with this checkout's package on the path."""
    return fresh_interpreter("-c", code)


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

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7])
    def test_blocks_join_to_the_one_shot_text(self, n):
        rng = np.random.default_rng(n)
        columns = [list(map(str, range(n))), rng.standard_normal(n),
                   np.exp(50.0 * rng.standard_normal(n))]
        fh = io.StringIO()
        _write_csv(fh, ["i", "a", "b"], columns)
        assert fh.getvalue() == _csv_text(["i", "a", "b"], columns)


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


class TestCsvReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_matches_line_loop(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert csv_outcome(read_csv_columns, path) == csv_outcome(read_csv_by_lines, path)

    @pytest.mark.parametrize("text", [
        "t,y\n0,1\n",  # one data row
        "t\n0\n1.5\n-2\n",  # one column
        "t,y\n 0 , 1 \n\t0.5\t,\t2\t\n",  # values padded with spaces
        "t,y\r\n0,1\r\n\r\n1,2\r\n",  # CRLF and a blank line
        "t,y\n0,1_0\n1,2\n",  # float() takes it, numpy does not
        "t,y\n0,\u0661\n1,2\n",
        "t,y\n0\x1f,1\n1,2\n",  # numpy takes it, float() does not
        "t,y\n0,#1\n", "t,y\n0,'1'\n", 't,y\n0,"1"\n', "t,y\n0,0x10\n",
        "t,y\n0,4e\n", "t,y\n0,+.5\n", "t,y\n0,1.5j\n",
        "t,y\n0,\n", "t,y\n0,1\n1\n", "t,y\n0,1,2\n1,2,3\n",
        "t,y\n0,nan\n", "t,y\n0,inf\n", "t,y\n0,infinity\n", "t,y\n0,1e999\n",
        "t,y\n0,1\n1,nan\n2,x\n",  # a bad value wins over non-finite
        "t,y\n", "\n\n",
        # str.splitlines breaks at these; float() strips them around a field
        "t,y\n0,1\n0.5,\x0c2\n1,3\n", "t,y\n0,1\n0.5,\x0b2\n1,3\n",
        "t,y\n0,1\n0.5,\x852\n1,3\n", "t,y\n0,1\n0.5,\u20282\n1,3\n",
        "t,y\n0,1\n0.5,\x1c2\n1,3\n",  # numpy strips it, float() does not
    ])
    def test_matches_line_loop_on_named_cases(self, tmp_path, text):
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
    ])
    def test_errors_name_the_line_of_the_file(self, tmp_path, capsys, text, message):
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

    @pytest.mark.parametrize("text", [
        "\n\n  \nt,y\n0,1\n0.5,2\n",  # blank lines before the header
        "t,y\n0,1\n  \n\t\n0.5,2\n \n",  # whitespace-only lines
        "t,y\r\n0,1\r\n\r\n0.5,2\r\n",  # CRLF
        "t,y\n0,1\n0.5,2",  # no final newline
        "\r\n \r\nt,y\r\n 0 , 1 \r\n\t\r\n0.5,2",  # all of them
    ])
    def test_file_fast_path_matches_line_loop(self, tmp_path, monkeypatch, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        expected = csv_outcome(read_csv_by_lines, path)

        def line_loop_not_wanted(lines, width):
            raise AssertionError("fell back to the line loop")

        monkeypatch.setattr(cli, "_parse_rows", line_loop_not_wanted)
        assert csv_outcome(read_csv_columns, path) == expected

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"t,y\n0,1\n1,\xff\n")
        assert main(["differentiate", str(path), "--alpha", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed CSV: cannot read {path}: ")
        assert err.count("\n") == 1


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
        assert out.read_text() == csv_by_value(
            ["t", "dy", "x_alpha"], [t, result.derivative.values, result.x_alpha.values])

    @pytest.mark.parametrize("n", [2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7])
    def test_streamed_output_matches_one_shot_text(self, tmp_path, capsys, n):
        t = np.linspace(0.0, 3.0, n)
        y = np.cos(t) + 0.01 * np.random.default_rng(n).standard_normal(n)
        src = write_csv(tmp_path / "in.csv", t, y)
        alpha = 3.0  # not below the spacing of two samples
        result = regularized_derivative(GridFunction(t[0], t[-1], y), alpha)
        expected = _csv_text(["t", "dy", "x_alpha"],
                             [t, result.derivative.values, result.x_alpha.values])
        out = tmp_path / "d.csv"
        assert main(["differentiate", str(src), "--alpha", repr(alpha), "--out", str(out)]) == 0
        assert out.read_text() == expected
        capsys.readouterr()
        assert main(["differentiate", str(src), "--alpha", repr(alpha)]) == 0
        assert capsys.readouterr().out == expected

    def test_peak_memory_stays_a_small_multiple_of_the_input(self, tmp_path, capsys):
        # The CSV is read by loadtxt from the open file and written a block
        # of rows at a time, so no per-line strings of the whole file live at
        # once: the traced peak stays below 4x the input's size (one-shot
        # reading and formatting took 7.3x).
        n = 200_000
        t = np.linspace(0.0, 3.0, n)
        y = np.sin(t) + 0.001 * np.random.default_rng(4).standard_normal(n)
        src = tmp_path / "big.csv"
        src.write_text(_csv_text(["t", "y"], [t, y]))
        tracemalloc.start()
        try:
            code = main(["differentiate", str(src), "--delta", "0.001",
                         "--out", str(tmp_path / "d.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * src.stat().st_size

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
            "q_exceeded", "gap", "bound", "bound_components", "observed_error", "selection"]

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
        # np.median imports numpy.ma on first use; the study's medians do not
        code = ("import sys\nfrom perturbreg.cli import main\n"
                "assert main(['experiment', '--example', '1', '--deltas', '0.01,0.001', "
                f"'--seeds', '2', '--n', '64', '--out', {str(tmp_path)!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)")
        assert run_in_fresh_interpreter(code).stdout.splitlines()[-1] == "False"

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
        assert list(rows[:, 2]) == [c_alpha_estimate(op, Stabilizer.scalar_alpha(), a)
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
        c_est = [c_alpha_estimate(op, stab, a) for a in alphas]
        assert capsys.readouterr().out == csv_by_value(
            ["alpha", "S", "c_alpha_est", "q_est"],
            [alphas, [stabilization_gap(op, stab, a, x) for a in alphas], c_est,
             [0.01 * c for c in c_est]])

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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

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
