"""Command-line interface: differentiate, solve, experiment, sweep.

Exit codes: 0 success, 2 malformed input (flags, CSV, problem file),
3 non-uniform sample grid, 4 alpha below grid spacing (differentiate under
--strict; experiment when exp(-h/alpha) is below double precision),
5 singular stabilized system. All file output is written atomically
(temp file in the target directory, then rename) and floats are printed
with shortest round-trip precision, so re-reading a produced CSV recovers
the exact binary values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .differentiate import Baseline, regularized_derivative
from .errors import (
    AlphaTooSmall,
    PerturbregError,
    ProblemFormatError,
    SingularSystem,
)
from .experiments import example_interval, run_experiment
from .fredholm import solve_fredholm_regularized
from .grid import GridFunction
from .operators import Stabilizer
from .problems import Problem, load_problem, parse_rule
from .solve import (
    RegConfig,
    SqrtDelta,
    c_alpha_estimate,
    coordinate_alpha,
    solve_perturbed,
    stabilization_gap,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GRID = 3
EXIT_ALPHA_SMALL = 4
EXIT_SINGULAR = 5

DEFAULT_SEED = 42
SEED_ENV_VAR = "PERTURBREG_SEED"


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(x))


def _atomic_write(path: Path, text: str) -> None:
    # Temp file in the destination directory, then rename: readers never see
    # a half-written file, and two identical runs leave identical bytes.
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(Path(out), text)


def _csv_text(header: list[str], columns: list) -> str:
    # repr of a Python float is what ``fmt`` prints; tolist() makes the
    # floats in one C loop instead of one numpy scalar per value. A column
    # that is a list holds such strings already, printed once for many files.
    cells = [col if isinstance(col, list) else map(repr, np.asarray(col, dtype=float).tolist())
             for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


class _CsvError(Exception):
    pass


def read_csv_columns(path) -> tuple[list[str], np.ndarray]:
    """Read a headed numeric CSV as (header, rows); raises _CsvError on junk.

    Blank lines are skipped; error messages number the lines of the file,
    blank ones included.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CsvError(f"cannot read {path}: {exc}") from exc
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if len(lines) < 2:
        raise _CsvError("need a header line and at least one data row")
    header = [field.strip() for field in lines[0].split(",")]
    # One numpy pass for well-formed input. loadtxt converts each field with
    # the interpreter's own PyOS_string_to_double, so the values it accepts
    # are the ones float() gives. What it rejects (also '1_0' or non-ASCII
    # digits, which float() takes) goes through the line loop. The one
    # character loadtxt takes and float() does not is U+001F, which loadtxt
    # strips around a field as whitespace.
    data = None
    if "\x1f" not in text:
        try:
            data = np.loadtxt(lines[1:], delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        data = _parse_rows(text, len(header))
    return header, data


def _parse_rows(text: str, width: int) -> np.ndarray:
    """The data rows of ``text`` converted line by line with float()."""
    numbered = [(num, line) for num, line in
                enumerate(map(str.strip, text.splitlines()), start=1) if line]
    rows = []
    for num, line in numbered[1:]:
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
        raise _CsvError(f"line {numbered[1 + int(np.argmin(finite))][0]}: non-finite value")
    return data


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_differentiate(args) -> int:
    try:
        header, data = read_csv_columns(args.input)
    except _CsvError as exc:
        return _fail(f"malformed CSV: {exc}", EXIT_USAGE)
    if header != ["t", "y"]:
        return _fail(f"expected header 't,y', got {','.join(header)!r}", EXIT_USAGE)
    if data.shape[0] < 2:
        return _fail("need at least two samples", EXIT_USAGE)
    t, y = data[:, 0], data[:, 1]
    n = t.size
    h = (t[-1] - t[0]) / (n - 1)
    spacing = np.diff(t)
    if h <= 0.0 or np.any(spacing <= 0.0) or np.max(np.abs(spacing - h)) > 1e-9 * h:
        return _fail("t must be strictly increasing with uniform spacing", EXIT_GRID)

    try:
        if args.alpha is not None:
            if args.alpha <= 0.0:
                return _fail(f"--alpha must be positive, got {args.alpha}", EXIT_USAGE)
            alpha = args.alpha
        else:
            alpha = coordinate_alpha(args.delta, parse_rule(args.rule or "sqrt"))
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

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
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
    _emit(_csv_text(["t", "dy", "x_alpha"],
                    [t, result.derivative.values, result.x_alpha.values]), args.out)
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
                                        delta=problem.delta, q_max=problem.q_max)
    if problem.exact_solution is not None:
        observed = float(np.max(np.abs(report.solution - problem.exact_solution)))
        report = replace(report, observed_error=observed)
    return None, report


def _report_payload(alpha, delta: float, report) -> dict:
    return {
        "alpha": None if alpha is None else float(alpha),
        "delta": float(delta),
        "solution": [float(v) for v in report.solution],
        "residual_norm": float(report.residual_norm),
        "c_alpha_est": float(report.c_alpha_est),
        "q_est": float(report.q_est),
        "q_exceeded": bool(report.q_exceeded),
        "gap": None if report.gap is None else float(report.gap),
        "bound": None if report.bound is None else float(report.bound),
        "bound_components": None if report.bound_components is None
        else [float(v) for v in report.bound_components],
        "observed_error": None if report.observed_error is None
        else float(report.observed_error),
        "selection": None if report.selection is None
        else [float(v) for v in report.selection],
    }


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
    if not deltas or any(d <= 0.0 for d in deltas):
        raise ValueError("every delta must be a positive number")
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
    # run_experiment takes alpha = sqrt(delta). Once the resolvent's decay
    # per grid panel, exp(-h/alpha), is below double precision, no sample
    # carries into the next: the run only scales the data by about
    # h/(2 alpha^2), and its errors measure nothing.
    a, b = example_interval(args.example)
    h = (b - a) / (args.n - 1)
    for delta in deltas:
        alpha = coordinate_alpha(delta, SqrtDelta())
        if math.exp(-h / alpha) < sys.float_info.epsilon:
            return _fail(f"--deltas: delta={fmt(delta)} gives alpha={fmt(alpha)}, too far "
                         f"below the grid spacing h={fmt(h)}: exp(-h/alpha) is below "
                         "double precision", EXIT_ALPHA_SMALL)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seeds = [seed + i for i in range(args.seeds)]

    table_rows = []
    plot_report = None
    grid = None
    caught = []
    for delta in deltas:
        with warnings.catch_warnings(record=True) as batch:
            warnings.simplefilter("always")
            reports = [run_experiment(args.example, delta, seed, n=args.n) for seed in seeds]
        caught += batch
        if grid is None:
            # every run and the plot share the example's grid: print it once
            grid = list(map(repr, reports[0].derivative.t.tolist()))
        for rep in reports:
            name = f"example{args.example}_delta{fmt(delta)}_seed{rep.seed}.csv"
            _atomic_write(outdir / name, _csv_text(["t", "dy"], [grid, rep.derivative.values]))
        table_rows.append((
            delta,
            reports[0].alpha,
            len(seeds),
            float(np.median([r.max_error_full for r in reports])),
            float(np.median([r.max_error_interior for r in reports])),
        ))
        if plot_report is None or delta > plot_report.delta:
            plot_report = reports[0]
    # AlphaTooSmall comes once per run; say each distinct message once.
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)

    header = ["delta", "alpha", "seed_count",
              "median_max_error_full", "median_max_error_interior"]
    lines = [",".join(header)]
    for delta, alpha, count, med_full, med_interior in table_rows:
        lines.append(",".join([fmt(delta), fmt(alpha), str(count),
                               fmt(med_full), fmt(med_interior)]))
    table_text = "\n".join(lines) + "\n"
    _atomic_write(outdir / f"example{args.example}_table.csv", table_text)
    sys.stdout.write(table_text)

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
    if not alphas or any(a <= 0.0 for a in alphas):
        return _fail("--alphas needs a nonempty list of positive numbers", EXIT_USAGE)

    # The sweep plans a parameter choice, so it rates the operator it is
    # given: the exact one when the file carries it, the observed otherwise.
    op = problem.exact_operator if problem.exact_operator is not None else problem.operator
    stab = Stabilizer.scalar_alpha() if problem.basis is None else problem.basis.stabilizer

    rows = [[], [], [], []]
    for alpha in alphas:
        try:
            gap = stabilization_gap(op, stab, alpha, problem.exact_solution)
        except SingularSystem as exc:
            return _fail(str(exc), EXIT_SINGULAR)
        c_est = c_alpha_estimate(op, stab, alpha)
        rows[0].append(alpha)
        rows[1].append(gap)
        rows[2].append(c_est)
        rows[3].append(problem.delta * c_est)

    _emit(_csv_text(["alpha", "S", "c_alpha_est", "q_est"],
                    [np.asarray(r) for r in rows]), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbreg",
        description="Stabilized solves and stable differentiation for noisy "
                    "first-kind operator equations.")
    sub = parser.add_subparsers(dest="command", required=True)

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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


def run() -> None:
    sys.exit(main())
