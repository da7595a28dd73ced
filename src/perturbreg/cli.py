"""Command-line interface: differentiate, solve, experiment, sweep.

Exit codes: 0 success, 2 malformed input (flags, CSV, problem file, an
interval wider than the float64 range), 3 non-uniform sample grid, 4 alpha
below grid spacing (differentiate --strict only; else a warning line),
5 singular stabilized system. differentiate checks its flags before it
reads the CSV, so a bad flag exits 2 whatever the file holds. All file
output is written atomically (temp file in the target directory, then
rename) and floats are printed as ``repr(float(x))`` prints them, the
shortest decimal that round-trips, so re-reading a produced CSV recovers
the exact binary values. CSV floats get those bytes from the vectorized
formatter in ``_floatfmt``, a block of rows at a time, not from one
``repr`` call per value.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import _floatfmt
from .differentiate import Baseline, regularized_derivative
from .errors import AlphaTooSmall, PerturbregError, SingularSystem
from .experiments import convergence_study
from .fredholm import solve_fredholm_regularized
from .grid import GridFunction
from .operators import Stabilizer
from .problems import Problem, load_problem, parse_rule
from .solve import (
    RegConfig,
    SolveReport,
    c_alpha_estimate,
    coordinate_alpha,
    solve_perturbed,
    stabilization_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GRID = 3
EXIT_ALPHA_SMALL = 4
EXIT_SINGULAR = 5

DEFAULT_SEED = 42
SEED_ENV_VAR = "PERTURBREG_SEED"

# Rows formatted per write when differentiate streams its CSV.
CSV_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(x))


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A text file for writing at ``path``; it appears, whole, when the block ends.

    Temp file in the destination directory, then rename: readers never see a
    half-written file, and two identical runs leave identical bytes. On an
    error the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _output(out: str | None):
    """stdout, or an atomically written file at ``out``, for writing in pieces."""
    if out is None:
        yield sys.stdout
    else:
        with _atomic_open(Path(out)) as fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _csv_text(header: list[str] | None, columns: list) -> str:
    # Each value prints as ``fmt`` prints it. A column that is a list holds
    # its strings already: a grid printed once for many files, or integers.
    # With header None only the rows are printed, as a block of a longer CSV.
    # The rows are laid out as one NUL-padded byte matrix, each cell followed
    # by ',' or '\n', and dropping the NULs leaves the text.
    rows = min(map(len, columns), default=0)
    if not rows:
        return ("" if header is None else ",".join(header)) + "\n"
    m = _csv_matrix(columns, rows)
    text = m[m != 0].tobytes().decode("ascii")
    return text if header is None else ",".join(header) + "\n" + text


def _csv_matrix(columns: list, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``columns`` as NUL-padded cells and separators."""
    numeric = [np.asarray(col, dtype=float)[:rows] for col in columns
               if not isinstance(col, list)]
    formatted = _floatfmt.cells(numeric)
    cells = []  # (rows, width) strings, or (WIDTH, rows) slots of floats and those used
    for col in columns:
        if isinstance(col, list):
            cells.append((np.array(col[:rows], dtype="S").view(np.uint8).reshape(rows, -1),
                          None))
        else:
            slots = formatted[:, :rows]
            formatted = formatted[:, rows:]
            cells.append((slots, slots.any(axis=1)))  # a slot no value fills is left out
    widths = [cell.shape[1] if used is None else int(used.sum()) for cell, used in cells]
    m = np.zeros((rows, sum(widths) + len(widths)), np.uint8)
    end = 0
    for (cell, used), width in zip(cells, widths):
        m[:, end:end + width] = cell if used is None else cell[used].T
        end += width + 1
        m[:, end - 1] = ord(",")
    m[:, -1] = ord("\n")
    return m


def _cut_rows(text: str, rows: int) -> list[str]:
    """The ASCII CSV ``text`` cut into pieces of ``rows`` lines."""
    ends = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord("\n"))
    ends = (ends[rows - 1::rows] + 1).tolist()
    return [text[start:end] for start, end in zip([0, *ends], ends)]


def _write_csv(fh, header: list[str], columns: list) -> None:
    """Write what ``_csv_text(header, columns)`` returns, CSV_BLOCK_ROWS rows at a time.

    Only one block's strings are alive at once, so the memory a write takes
    does not grow with the row count.
    """
    for start in range(0, max(len(columns[0]), 1), CSV_BLOCK_ROWS):
        fh.write(_csv_text(header if start == 0 else None,
                           [col[start:start + CSV_BLOCK_ROWS] for col in columns]))


class _CsvError(Exception):
    pass


# loadtxt strips these around a field as whitespace; float() rejects them.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_SCAN_CHARS = 1 << 20


def read_csv_columns(path) -> tuple[list[str], np.ndarray]:
    """Read a headed numeric CSV as (header, rows); raises _CsvError on junk.

    Blank lines are skipped; error messages number the lines of the file,
    blank ones included. Lines end at newlines only: reading in text mode
    makes \\r and \\r\\n into \\n, and the other breaks str.splitlines
    knows (form feed, U+2028, ...) stay inside a field, where float() strips
    them.
    """
    try:
        with open(path) as fh:
            return _read_csv(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CsvError(f"cannot read {path}: {exc}") from exc


def _next_filled_line(fh) -> tuple[int, str]:
    """The position and stripped text of the next nonblank line; text '' at the end."""
    while True:
        position = fh.tell()
        line = fh.readline()
        if not line or line.strip():
            return position, line.strip()


def _read_csv(fh) -> tuple[list[str], np.ndarray]:
    _, header_line = _next_filled_line(fh)
    start, first_row = _next_filled_line(fh)
    if not first_row:
        raise _CsvError("need a header line and at least one data row")
    header = [field.strip() for field in header_line.split(",")]
    # One numpy pass over the open file for well-formed input. loadtxt
    # converts each field with the interpreter's own PyOS_string_to_double,
    # and strips the whitespace str.strip does around it, so the values it
    # accepts are the ones float() gives. The lines are stripped as they are
    # read, so a whitespace-only line is empty and skipped, as a blank one
    # is. What loadtxt rejects (also '1_0' or non-ASCII digits, which
    # float() takes) goes through the line loop, and so does a file that
    # holds a character of _LOADTXT_ONLY_SPACE.
    data = None
    fh.seek(start)
    chunks = iter(lambda: fh.read(_SCAN_CHARS), "")
    if not any(char in chunk for chunk in chunks for char in _LOADTXT_ONLY_SPACE):
        fh.seek(start)
        try:
            data = np.loadtxt(map(str.strip, fh), delimiter=",", comments=None,
                              dtype=float, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        fh.seek(0)
        data = _parse_rows(list(map(str.strip, fh.read().split("\n"))), len(header))
    return header, data


def _parse_rows(lines: list[str], width: int) -> np.ndarray:
    """The data rows of the stripped file ``lines`` converted one by one with float()."""
    numbered = [(num, line) for num, line in enumerate(lines, start=1) if line][1:]
    rows = []
    for num, line in numbered:
        fields = line.split(",")
        if len(fields) != width:
            raise _CsvError(f"line {num}: expected {width} fields, got {len(fields)}")
        try:
            rows.append([float(field) for field in fields])
        except ValueError as exc:
            raise _CsvError(f"line {num}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise _CsvError(f"line {numbered[int(np.argmin(finite))][0]}: non-finite value")
    return data


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_differentiate(args) -> int:
    # The flags need nothing from the file: check them before reading it.
    if not 0.0 <= args.delta < math.inf:
        return _fail(f"--delta must be a finite number >= 0, got {args.delta}", EXIT_USAGE)
    for flag, value in (("--alpha", args.alpha), ("--window", args.window)):
        if value is not None and not 0.0 < value < math.inf:
            return _fail(f"{flag} must be {'finite' if value > 0.0 else 'positive'}, "
                         f"got {value}", EXIT_USAGE)
    try:
        alpha = args.alpha if args.alpha is not None \
            else coordinate_alpha(args.delta, parse_rule(args.rule or "sqrt"))
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)

    baseline = None
    if args.baseline != "auto":
        try:
            c_str, d_str = args.baseline.split(",")
            baseline = Baseline(c=float(c_str), d=float(d_str))
        except ValueError:
            return _fail(f"--baseline must be 'auto' or 'c,d', got {args.baseline!r}",
                         EXIT_USAGE)
        if not (math.isfinite(baseline.c) and math.isfinite(baseline.d)):
            return _fail(f"--baseline anchors must be finite, got {args.baseline!r}",
                         EXIT_USAGE)

    try:
        header, data = read_csv_columns(args.input)
    except _CsvError as exc:
        return _fail(f"malformed CSV: {exc}", EXIT_USAGE)
    if header != ["t", "y"]:
        return _fail(f"expected header 't,y', got {','.join(header)!r}", EXIT_USAGE)
    if data.shape[0] < 2:
        return _fail("need at least two samples", EXIT_USAGE)
    t, y = data[:, 0], data[:, 1]
    span = float(t[-1]) - float(t[0])  # a Python float: inf, not a warning, on overflow
    if not math.isfinite(span):
        return _fail(f"t spans [{fmt(t[0])}, {fmt(t[-1])}], wider than the float64 range",
                     EXIT_USAGE)
    h = span / (t.size - 1)
    spacing = np.diff(t)
    if h <= 0.0 or np.any(spacing <= 0.0) or np.max(np.abs(spacing - h)) > 1e-9 * h:
        return _fail("t must be strictly increasing with uniform spacing", EXIT_GRID)

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AlphaTooSmall)
            result = regularized_derivative(GridFunction(t[0], t[-1], y), alpha,
                                            baseline=baseline, window=args.window)
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)
    alpha_warnings = [w for w in caught if isinstance(w.message, AlphaTooSmall)]
    for w in alpha_warnings:
        print(f"warning: {w.message}", file=sys.stderr)
    if alpha_warnings and args.strict:
        return _fail("alpha below grid spacing rejected by --strict", EXIT_ALPHA_SMALL)

    print(f"alpha={fmt(alpha)} q_proxy={fmt(2.0 * args.delta / alpha)} "
          f"boundary_layer_width={fmt(result.boundary_layer_width)}", file=sys.stderr)
    with _output(args.out) as fh:
        _write_csv(fh, ["t", "dy", "x_alpha"],
                   [t, result.derivative.values, result.x_alpha.values])
    return EXIT_OK


def _solve_problem(problem: Problem):
    """Run the solve a problem file describes; returns (alpha_used, report)."""
    if problem.basis is None:
        alpha = problem.alpha if problem.alpha is not None \
            else coordinate_alpha(problem.delta, problem.rule)
        config = RegConfig(delta=problem.delta, alpha=alpha, q_max=problem.q_max)
        report = solve_perturbed(problem.operator, Stabilizer.scalar_alpha(), alpha,
                                 problem.rhs, config, x_star=problem.exact_solution,
                                 A_exact=problem.exact_operator)
        return alpha, report
    report = solve_fredholm_regularized(problem.operator, problem.basis, problem.rhs,
                                        delta=problem.delta, q_max=problem.q_max,
                                        x_star=problem.exact_solution)
    return None, report


def _json_value(value):
    """A report field as JSON: null, a bool, a float or a list of floats."""
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if np.ndim(value):
        return [float(v) for v in value]
    return float(value)


def _report_payload(alpha, delta: float, report: SolveReport) -> dict:
    payload = {"alpha": alpha, "delta": delta}
    payload.update((f.name, getattr(report, f.name)) for f in dataclasses.fields(SolveReport))
    return {key: _json_value(value) for key, value in payload.items()}


def _cmd_solve(args) -> int:
    try:
        problem = load_problem(args.problem)
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        alpha, report = _solve_problem(problem)
    except SingularSystem as exc:
        return _fail(str(exc), EXIT_SINGULAR)
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if report.q_exceeded:
        print(f"warning: q_est={fmt(report.q_est)} is at or above "
              f"q_max={fmt(problem.q_max)}; solution returned anyway", file=sys.stderr)
    _emit(json.dumps(_report_payload(alpha, problem.delta, report), indent=2) + "\n",
          args.out)
    return EXIT_OK


def _parse_deltas(text: str) -> list[float]:
    deltas = [float(field) for field in text.split(",") if field.strip()]
    if not deltas or not all(0.0 < d < math.inf for d in deltas):
        raise ValueError("every delta must be a positive finite number")
    return deltas


def _cmd_experiment(args) -> int:
    try:
        deltas = _parse_deltas(args.deltas)
    except ValueError as exc:
        return _fail(f"--deltas: {exc}", EXIT_USAGE)
    if args.seeds < 1:
        return _fail(f"--seeds must be >= 1, got {args.seeds}", EXIT_USAGE)
    if args.n < 2:
        return _fail(f"--n must be >= 2, got {args.n}", EXIT_USAGE)
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            seed = int(raw)
        except ValueError:
            return _fail(f"{SEED_ENV_VAR} must be an integer", EXIT_USAGE)
    if seed < 0:
        return _fail(f"--seed (or ${SEED_ENV_VAR}) must be >= 0, got {seed}", EXIT_USAGE)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AlphaTooSmall)
            rows = convergence_study(args.example, deltas,
                                     [seed + i for i in range(args.seeds)], n=args.n)
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)
    # AlphaTooSmall comes once per run; say each distinct message once.
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)

    # Every run and the plot share the example's grid: print it once. Each
    # text has a fixed formatting cost, so the runs' rows are printed about
    # CSV_BLOCK_ROWS at a time, several runs to one text cut into their files.
    grid = list(map(repr, rows[0].reports[0].derivative.t.tolist()))
    runs = [(row.delta, rep) for row in rows for rep in row.reports]
    per_text = max(1, CSV_BLOCK_ROWS // len(grid))
    for start in range(0, len(runs), per_text):
        batch = runs[start:start + per_text]
        text = _csv_text(None, [grid * len(batch),
                                np.concatenate([rep.derivative.values for _, rep in batch])])
        for (delta, rep), part in zip(batch, _cut_rows(text, len(grid))):
            name = f"example{args.example}_delta{fmt(delta)}_seed{rep.seed}.csv"
            _atomic_write(outdir / name, "t,dy\n" + part)

    header = ["delta", "alpha", "seed_count",
              "median_max_error_full", "median_max_error_interior"]
    columns = [np.array([getattr(row, name) for row in rows]) for name in header]
    columns[2] = list(map(str, columns[2].tolist()))  # seed counts print as integers
    table_text = _csv_text(header, columns)
    _atomic_write(outdir / f"example{args.example}_table.csv", table_text)
    sys.stdout.write(table_text)

    # the first run of the first noisiest delta
    plot_report = max(rows, key=lambda row: row.delta).reports[0]
    err = np.abs(plot_report.derivative.values - plot_report.exact_derivative.values)
    _atomic_write(outdir / f"example{args.example}_plot.csv",
                  _csv_text(["t", "exact", "computed", "error"],
                            [grid,
                             plot_report.exact_derivative.values,
                             plot_report.derivative.values,
                             err]))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        problem = load_problem(args.problem)
    except PerturbregError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if problem.exact_solution is None:
        return _fail("sweep needs 'exact_solution' in the problem file", EXIT_USAGE)
    try:
        alphas = [float(field) for field in args.alphas.split(",") if field.strip()]
    except ValueError as exc:
        return _fail(f"--alphas: {exc}", EXIT_USAGE)
    if not alphas or not all(0.0 < a < math.inf for a in alphas):
        return _fail("--alphas needs a nonempty list of positive finite numbers", EXIT_USAGE)

    # The sweep plans a parameter choice, so it rates the operator it is
    # given: the exact one when the file carries it, the observed otherwise.
    op = problem.exact_operator if problem.exact_operator is not None else problem.operator
    stab = Stabilizer.scalar_alpha() if problem.basis is None else problem.basis.stabilizer

    try:
        gaps = [gap for _, gap in stabilization_sweep(op, stab, alphas, problem.exact_solution)]
    except SingularSystem as exc:
        return _fail(str(exc), EXIT_SINGULAR)
    c_est = [c_alpha_estimate(op, stab, alpha) for alpha in alphas]
    _emit(_csv_text(["alpha", "S", "c_alpha_est", "q_est"],
                    [np.asarray(alphas), np.asarray(gaps), np.asarray(c_est),
                     np.asarray([problem.delta * c for c in c_est])]), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbreg",
        description="Stabilized solves and stable differentiation for noisy "
                    "first-kind operator equations.")
    # Not required: argparse would then report a missing command before an
    # unknown flag, and `perturbreg --bogus` would never name --bogus.
    sub = parser.add_subparsers(dest="command")

    d = sub.add_parser("differentiate",
                       help="differentiate a t,y CSV of noisy uniform samples")
    d.add_argument("input", help="CSV file with header t,y")
    d.add_argument("--delta", type=float, default=0.0,
                   help="noise level (default 0)")
    alpha_group = d.add_mutually_exclusive_group()
    alpha_group.add_argument("--alpha", type=float, help="explicit smoothing parameter")
    alpha_group.add_argument("--rule", help="coordination rule: sqrt or power:p "
                                            "(default sqrt, needs --delta > 0)")
    d.add_argument("--baseline", default="auto",
                   help="'auto' or explicit 'c,d' left-endpoint anchors")
    d.add_argument("--window", type=float,
                   help="fit window width for the automatic baseline")
    d.add_argument("--out", help="output CSV path (default stdout)")
    d.add_argument("--strict", action="store_true",
                   help="fail (exit 4) when alpha is below the grid spacing")
    d.set_defaults(func=_cmd_differentiate)

    s = sub.add_parser("solve", help="run the stabilized solve a problem file describes")
    s.add_argument("problem", help="JSON problem file")
    s.add_argument("--out", help="output JSON path (default stdout)")
    s.set_defaults(func=_cmd_solve)

    e = sub.add_parser("experiment", help="noisy differentiation benchmark runs")
    e.add_argument("--example", type=int, choices=(1, 2), required=True)
    e.add_argument("--deltas", default="0.1,0.01,0.001",
                   help="comma-separated noise levels (default 0.1,0.01,0.001)")
    e.add_argument("--seeds", type=int, default=21,
                   help="number of consecutive seeds per noise level (default 21)")
    e.add_argument("--seed", type=int,
                   help=f"base seed (default 42, or ${SEED_ENV_VAR})")
    e.add_argument("--n", type=int, default=512, help="grid size (default 512)")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=_cmd_experiment)

    w = sub.add_parser("sweep", help="stabilization gap and margin across alphas")
    w.add_argument("problem", help="JSON problem file with exact_solution")
    w.add_argument("--alphas", required=True, help="comma-separated alphas")
    w.add_argument("--out", help="output CSV path (default stdout)")
    w.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
