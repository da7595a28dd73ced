"""The benchmark workloads: seeded inputs, the calls of one pass, and checks.

Every workload is a closed loop with one caller: a call starts only after the
previous one has returned. CLI workloads call ``perturbreg.cli.main(argv)`` in
process; the library workload calls the public functions. Functions are looked
up on their module at call time, so wrappers the traced run installs apply.

Inputs come only from the seed. The exact answers used by the checks (the
benchmark functions' derivatives, exact solutions) are written out here rather
than taken from the package, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


@dataclass(frozen=True)
class Sizes:
    diff_rows: int
    exp_seeds: int
    exp_n: int
    lib_n: int
    lib_volterra_n: int
    cli_n: int
    cli_volterra_n: int


FULL = Sizes(diff_rows=50_000, exp_seeds=21, exp_n=512, lib_n=512, lib_volterra_n=1024,
             cli_n=128, cli_volterra_n=1024)
TOY = Sizes(diff_rows=2_000, exp_seeds=2, exp_n=200, lib_n=48, lib_volterra_n=96,
            cli_n=12, cli_volterra_n=96)


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


# Benchmark functions of the package's two examples, with exact derivatives.
def _ex1(t):
    den = t**3 + 1.0
    y = np.sin(np.pi * t / 4.0) / den
    dy = (np.pi / 4.0) * np.cos(np.pi * t / 4.0) / den \
        - 3.0 * t**2 * np.sin(np.pi * t / 4.0) / den**2
    return y, dy


def _ex2(t):
    e = np.exp(-(t**2))
    y = np.cos(np.pi * t / 8.0) * e
    dy = -e * ((np.pi / 8.0) * np.sin(np.pi * t / 8.0) + 2.0 * t * np.cos(np.pi * t / 8.0))
    return y, dy


EXAMPLES = {1: (0.0, 3.0, _ex1), 2: (0.0, 5.0, _ex2)}


def cli_call(argv: list[str]) -> str:
    """Run one CLI command in process; returns its stdout, raises on nonzero exit."""
    from perturbreg import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"perturbreg {argv[0]} exited {code}: {err.getvalue()[-300:]}")
    return out.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


def _write_csv(path: Path, t: np.ndarray, y: np.ndarray) -> None:
    # %.17g round-trips every float64, so the program reads the exact samples.
    np.savetxt(path, np.column_stack([t, y]), fmt="%.17g", delimiter=",",
               header="t,y", comments="")


def _residual_ok(residual: float, scale: float) -> bool:
    return math.isfinite(residual) and residual <= 1e-9 * max(scale, 1.0)


class Workload:
    kinds: dict[str, int] = {}

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.stats: dict[str, list] = {}
        self.work: Path | None = None
        self._outputs = 0

    def output(self, name: str) -> Path:
        """A new output path for one call; its check removes it again.

        Each call writes where nothing exists yet, as a fresh study or export
        would. Replacing a file by rename makes ext4 start writing the new
        data back at once, and that disk traffic moved call times by a fifth
        from run to run on the shared test machine.
        """
        self._outputs += 1
        return self.work / f"{self._outputs}-{name}"

    def prepare(self, work: Path, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        """The calls of one pass, in order."""
        raise NotImplementedError

    def cold_start_code(self, work: Path, rng: np.random.Generator) -> str:
        """Python source a fresh interpreter runs: import, one tiny call per kind."""
        return ("import sys\nimport perturbreg.cli\n"
                "code = max(perturbreg.cli.main(a) for a in "
                f"{self.cold_argvs(work, rng)!r})\n"
                "if code:\n    sys.exit(code)\n")

    def cold_argvs(self, work: Path, rng: np.random.Generator) -> list[list[str]]:
        """CLI argument lists of the tiny cold-start calls, for CLI workloads."""
        raise NotImplementedError

    def reset_stats(self) -> None:
        self.stats = {}

    def record(self, key: str, value) -> None:
        self.stats.setdefault(key, []).append(value)

    def report(self, typical: dict[str, float]) -> dict[str, tuple]:
        """Workload-specific metrics from the typical call seconds per kind:
        name -> (value, unit, better, base or None)."""
        return {}


# --------------------------------------------------------------------------
# Differentiation workloads


class CsvDifferentiation(Workload):
    """CLI differentiate on four large noisy t,y CSVs (part of differentiate_cli)."""

    kinds = {"differentiate": 4}
    DELTAS = (1e-2, 1e-3)

    def prepare(self, work, rng):
        self.work = work
        self.inputs = []
        for ex in (1, 2):
            a, b, fn = EXAMPLES[ex]
            t = np.linspace(a, b, self.sizes.diff_rows)
            y, dy = fn(t)
            for delta in self.DELTAS:
                noisy = y + delta * rng.standard_normal(t.size)
                src = work / f"ex{ex}_delta{delta:g}.csv"
                _write_csv(src, t, noisy)
                self.inputs.append({"src": src, "delta": delta, "t": t, "dy": dy, "a": a,
                                    "digest": None})

    def _run(self, item):
        out = self.output(item["src"].stem + ".out.csv")
        cli_call(["differentiate", str(item["src"]), "--delta", repr(item["delta"]),
                  "--out", str(out)])
        return item, out

    def _check(self, result):
        item, out = result
        try:
            self._verify(item, out)
        finally:
            out.unlink(missing_ok=True)

    def _verify(self, item, out):
        if item["digest"] is not None:
            # Output is deterministic: bytes equal to the verified first output.
            if _digest(out) != item["digest"]:
                raise CheckFailed(f"{out.name} differs from the verified output")
            self.record("deriv_err_interior", item["err"])
            return
        with open(out) as fh:
            header = fh.readline().strip()
        if header != "t,dy,x_alpha":
            raise CheckFailed(f"unexpected header {header!r}")
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        if data.shape != (item["t"].size, 3):
            raise CheckFailed(f"expected {item['t'].size} rows, got {data.shape}")
        if not np.array_equal(data[:, 0].view(np.int64), item["t"].view(np.int64)):
            raise CheckFailed("t column differs from the input")
        alpha = math.sqrt(item["delta"])
        interior = item["t"] > item["a"] + 3.0 * alpha
        err = float(np.max(np.abs(data[interior, 1] - item["dy"][interior])))
        # Noise passes through the resolvent as delta/alpha = sqrt(delta) per
        # sample; 10*sqrt(delta) is far above that and far below a broken solve.
        if not err < 10.0 * alpha:
            raise CheckFailed(f"interior derivative error {err:g} >= {10 * alpha:g}")
        item["err"] = err
        item["digest"] = _digest(out)
        self.record("deriv_err_interior", err)

    def calls(self):
        return [Call("differentiate", lambda it=it: self._run(it), self._check)
                for it in self.inputs]

    def cold_argvs(self, work, rng):
        t = np.linspace(0.0, 3.0, 16)
        src = work / "cold.csv"
        _write_csv(src, t, _ex1(t)[0] + 1e-3 * rng.standard_normal(t.size))
        return [["differentiate", str(src), "--delta", "0.001", "--out",
                 str(work / "cold.out.csv")]]

    def report(self, typical):
        errs = self.stats.get("deriv_err_interior", [])
        return {
            "differentiate_samples_per_s":
                (self.sizes.diff_rows / typical["differentiate"], "samples/s", "higher", None),
            "deriv_err_interior": (float(np.median(errs)) if errs else float("nan"),
                                   "1", "lower", None),
        }


class ExperimentStudies(Workload):
    """CLI experiment, 63 small differentiations per call (part of differentiate_cli)."""

    kinds = {"experiment_ex1": 1, "experiment_ex2": 1}
    DELTAS = (0.1, 0.01, 0.001)

    def prepare(self, work, rng):
        self.base_seed = int(rng.integers(0, 1_000_000))
        self.work = work
        self.expected = {}

    def _argv(self, ex):
        return ["experiment", "--example", str(ex),
                "--deltas", ",".join(repr(d) for d in self.DELTAS),
                "--seeds", str(self.sizes.exp_seeds), "--n", str(self.sizes.exp_n),
                "--seed", str(self.base_seed), "--out", str(self.output(f"exp{ex}"))]

    def _expected_rows(self, ex):
        # The reference is the library's own study for the same arguments.
        if ex not in self.expected:
            from perturbreg.experiments import convergence_study
            seeds = [self.base_seed + i for i in range(self.sizes.exp_seeds)]
            self.expected[ex] = [
                (r.delta, r.alpha, r.seed_count, r.median_max_error_full,
                 r.median_max_error_interior)
                for r in convergence_study(ex, self.DELTAS, seeds, n=self.sizes.exp_n)]
        return self.expected[ex]

    def _run(self, ex):
        argv = self._argv(ex)
        return ex, Path(argv[-1]), cli_call(argv)

    def _check(self, result):
        ex, outdir, table = result
        try:
            self._verify(ex, outdir, table)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _verify(self, ex, outdir, table):
        lines = table.strip().splitlines()
        if lines[0] != "delta,alpha,seed_count,median_max_error_full,median_max_error_interior":
            raise CheckFailed(f"unexpected table header {lines[0]!r}")
        rows = [tuple(int(f) if i == 2 else float(f) for i, f in enumerate(ln.split(",")))
                for ln in lines[1:]]
        if rows != self._expected_rows(ex):
            raise CheckFailed(f"example {ex} table differs from convergence_study")
        files = os.listdir(outdir)
        expected_files = len(self.DELTAS) * self.sizes.exp_seeds + 2
        if len(files) != expected_files:
            raise CheckFailed(f"{outdir.name} holds {len(files)} files, "
                              f"expected {expected_files}")
        if (outdir / f"example{ex}_table.csv").read_text() != table:
            raise CheckFailed("table file differs from the printed table")
        for row in rows:
            self.record("experiment_err_interior", row[4])

    def calls(self):
        return [Call(f"experiment_ex{ex}", lambda ex=ex: self._run(ex), self._check)
                for ex in (1, 2)]

    def cold_argvs(self, work, rng):
        return [["experiment", "--example", "1", "--deltas", "0.01", "--seeds", "1",
                 "--n", "16", "--seed", "1", "--out", str(work / "cold")]]

    def report(self, typical):
        runs = len(self.DELTAS) * self.sizes.exp_seeds
        errs = self.stats.get("experiment_err_interior", [])
        return {
            "experiment_runs_per_s":
                (2 * runs / (typical["experiment_ex1"] + typical["experiment_ex2"]),
                 "1/s", "higher", None),
            "experiment_err_interior": (float(np.median(errs)) if errs else float("nan"),
                                        "1", "lower", None),
        }


class Composite(Workload):
    """One workload made of the calls of several parts, each kind timed on its own.

    A part's call kinds and report metrics get its prefix, so two parts may
    use the same kind names.
    """

    def __init__(self, parts: list[tuple[str, Workload]]):
        super().__init__(parts[0][1].sizes)
        self.parts = parts
        self.kinds = {prefix + k: n for prefix, part in parts for k, n in part.kinds.items()}

    def prepare(self, work, rng):
        for _, part in self.parts:
            part.prepare(work, rng)

    def calls(self):
        return [Call(prefix + call.kind, call.run, call.check)
                for prefix, part in self.parts for call in part.calls()]

    def cold_start_code(self, work, rng):
        return "".join(part.cold_start_code(work, rng) for _, part in self.parts)

    def reset_stats(self):
        for _, part in self.parts:
            part.reset_stats()

    def report(self, typical):
        out = {}
        for prefix, part in self.parts:
            mine = {k[len(prefix):]: v for k, v in typical.items() if k.startswith(prefix)}
            out.update({prefix + k: v for k, v in part.report(mine).items()})
        return out


# --------------------------------------------------------------------------
# Solve workloads: shared problem generators


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@dataclass
class DenseProblem:
    """A_exact = U diag(s) V^T, its noisy observation, exact solution and data."""

    a_exact: np.ndarray
    a_tilde: np.ndarray
    x_star: np.ndarray
    f: np.ndarray
    delta: float
    phi: np.ndarray | None = None
    psi: np.ndarray | None = None


def dense_problem(rng, n, delta, deficient=False, u=None, v=None) -> DenseProblem:
    """Ill-conditioned dense problem A = U diag(s) V^T, s from 1 down to 1e-3.

    Without ``deficient`` the operator is symmetric (U = V), so A + alpha I
    has no singular value below alpha and the margin q = delta / alpha stays
    small. With ``deficient`` the last singular value is 0.

    Noise in the operator and the data is bounded by delta in the sup-norm.
    In the deficient case the operator is left exact (the finite-rank
    stabilizer is built from its null vectors) and x* is orthogonal to the
    null vector, so the exact problem is solvable and x* is its normal solution.
    """
    v = _orthogonal(rng, n) if v is None else v
    if not deficient:
        u = v
    elif u is None:
        u = _orthogonal(rng, n)
    s = np.geomspace(1.0, 1e-3, n)
    if deficient:
        s[-1] = 0.0
    a_exact = (u * s) @ v.T
    t = np.linspace(0.0, 1.0, n)
    x_star = np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi)) + 0.5 * t
    phi = psi = None
    if deficient:
        phi, psi = v[:, -1].copy(), u[:, -1].copy()
        x_star = x_star - (x_star @ phi) * phi
        a_tilde = a_exact
    else:
        a_tilde = a_exact + delta * rng.uniform(-1.0, 1.0, (n, n)) / n
    f = a_exact @ x_star + delta * rng.uniform(-1.0, 1.0, n)
    return DenseProblem(a_exact, a_tilde, x_star, f, delta, phi, psi)


def _running_integral(x):
    """Trapezoid running integral on n uniform points of [0, 1]; the first value is 0."""
    h = 1.0 / (x.size - 1)
    return np.concatenate([[0.0], np.cumsum(0.5 * h * (x[1:] + x[:-1]))])


def volterra_problem(rng, n, delta):
    """Running integral on [0, 1]: x* with x*(0) = 0, f = trapezoid integral + noise."""
    t = np.linspace(0.0, 1.0, n)
    x_star = t * np.cos(rng.uniform(2.0, 4.0) * t)
    return x_star, _running_integral(x_star) + delta * rng.uniform(-1.0, 1.0, n)


def counterexample():
    """The dense-path certificate counterexample: the bound is not a sup-norm bound.

    n = 64, A^-1 = I with row 0 set to 0.375, x* = 0, alpha = 1e-8 and
    f = 1e-3 * sign(row 0 of (A + alpha I)^-1). The reported bound is about
    3.3e-3 and the observed error about 2.5e-2.
    """
    n, alpha, delta = 64, 1e-8, 1e-3
    a_inv = np.eye(n)
    a_inv[0, :] = 0.375
    a = np.linalg.inv(a_inv)
    m_inv = np.linalg.inv(a + alpha * np.eye(n))
    f = delta * np.sign(m_inv[0])
    return a, np.zeros(n), f, alpha, delta


def check_scalar_residual(a, x, alpha, f, what) -> None:
    """|(A + alpha I) x - f| at rounding level; ``a`` None is the running integral."""
    if a is None:
        res = float(np.max(np.abs(_running_integral(x) + alpha * x - f)))
        scale = np.max(np.abs(x))
    else:
        res = float(np.max(np.abs(a @ x + alpha * x - f)))
        scale = np.max(np.abs(a).sum(1) + alpha) * np.max(np.abs(x))
    if not _residual_ok(res, scale):
        raise CheckFailed(f"{what} residual {res:g}")


def check_finite_rank_residual(a, phi, psi, x, f, what) -> None:
    """|(A + psi phi^T) x - (f - psi <psi, f>)| at rounding level.

    That is the system the finite-rank stabilizer solves for one unit null
    vector pair, with the default gammas = phis and zs = psis.
    """
    res = float(np.max(np.abs(a @ x + psi * (phi @ x) - (f - psi * (psi @ f)))))
    if not _residual_ok(res, np.max(np.abs(a).sum(1) + 1.0) * np.max(np.abs(x))):
        raise CheckFailed(f"{what} residual {res:g}")


class SolveLibDense(Workload):
    """Library solves, no JSON (the ``lib_`` part of the solve workload)."""

    kinds = {"solve_dense": 1, "solve_volterra": 1, "solve_fredholm": 1, "sweep": 1,
             "counterexample": 1}
    ALPHAS = tuple(float(a) for a in np.geomspace(1e-1, 1e-3, 8))
    DELTA = 1e-4

    def prepare(self, work, rng):
        n = self.sizes.lib_n
        u, v = _orthogonal(rng, n), _orthogonal(rng, n)
        self.dense = dense_problem(rng, n, self.DELTA, u=u, v=v)
        self.deficient = dense_problem(rng, n, self.DELTA, deficient=True, u=u, v=v)
        self.vx, self.vf = volterra_problem(rng, self.sizes.lib_volterra_n, self.DELTA)
        self.cx = counterexample()
        self.sweep_ref = None

    def _certified(self, report, what):
        if report.bound is None:
            raise CheckFailed(f"certified {what} solve reported no bound")
        self.record("bound_solves", 1)
        self.record("violations", int(report.observed_error > report.bound))

    def _solve_dense(self):
        from perturbreg import operators, solve
        p = self.dense
        alpha = math.sqrt(p.delta)
        return solve.solve_perturbed(
            operators.DiscreteOperator.dense(p.a_tilde), operators.Stabilizer.scalar_alpha(),
            alpha, p.f, solve.RegConfig(delta=p.delta, alpha=alpha), x_star=p.x_star,
            A_exact=operators.DiscreteOperator.dense(p.a_exact))

    def _check_dense(self, report):
        p = self.dense
        check_scalar_residual(p.a_tilde, report.solution, math.sqrt(p.delta), p.f, "dense")
        self._certified(report, "dense")

    def _solve_volterra(self):
        from perturbreg import operators, solve
        op = operators.DiscreteOperator.volterra(0.0, 1.0, self.vx.size)
        alpha = math.sqrt(self.DELTA)
        return solve.solve_perturbed(op, operators.Stabilizer.scalar_alpha(), alpha, self.vf,
                                     solve.RegConfig(delta=self.DELTA, alpha=alpha),
                                     x_star=self.vx, A_exact=op)

    def _check_volterra(self, report):
        check_scalar_residual(None, report.solution, math.sqrt(self.DELTA), self.vf, "volterra")
        self._certified(report, "volterra")

    def _solve_fredholm(self):
        from perturbreg import fredholm, operators
        p = self.deficient
        basis = fredholm.build_stabilizer([p.phi], [p.psi])
        return fredholm.solve_fredholm_regularized(
            operators.DiscreteOperator.dense(p.a_tilde), basis, p.f, delta=p.delta)

    def _check_fredholm(self, report):
        p = self.deficient
        check_finite_rank_residual(p.a_tilde, p.phi, p.psi, report.solution, p.f, "fredholm")
        if not abs(float(report.selection[0])) < 1e-6:
            raise CheckFailed(f"selection <x, phi> = {report.selection[0]:g}")

    def _sweep(self):
        from perturbreg import operators, solve
        p = self.dense
        return solve.stabilization_sweep(operators.DiscreteOperator.dense(p.a_exact),
                                         operators.Stabilizer.scalar_alpha(), self.ALPHAS,
                                         p.x_star)

    def _check_sweep(self, rows):
        if [a for a, _ in rows] != list(self.ALPHAS):
            raise CheckFailed("sweep rows do not match the alphas")
        gaps = [g for _, g in rows]
        if not all(math.isfinite(g) and g >= 0.0 for g in gaps):
            raise CheckFailed(f"sweep gaps not finite and nonnegative: {gaps}")
        if self.sweep_ref is None:
            self.sweep_ref = gaps
        elif gaps != self.sweep_ref:
            raise CheckFailed("sweep gaps changed between identical calls")

    def _counterexample(self):
        from perturbreg import operators, solve
        a, x_star, f, alpha, delta = self.cx
        op = operators.DiscreteOperator.dense(a)
        return solve.solve_perturbed(op, operators.Stabilizer.scalar_alpha(), alpha, f,
                                     solve.RegConfig(delta=delta, alpha=alpha),
                                     x_star=x_star, A_exact=op)

    def _check_counterexample(self, report):
        a, _x_star, f, alpha, _delta = self.cx
        check_scalar_residual(a, report.solution, alpha, f, "counterexample")
        self._certified(report, "counterexample")

    def calls(self):
        return [Call("solve_dense", self._solve_dense, self._check_dense),
                Call("solve_volterra", self._solve_volterra, self._check_volterra),
                Call("solve_fredholm", self._solve_fredholm, self._check_fredholm),
                Call("sweep", self._sweep, self._check_sweep),
                Call("counterexample", self._counterexample, self._check_counterexample)]

    def cold_start_code(self, work, rng):
        return (
            "import numpy as np\n"
            "import perturbreg as p\n"
            "n = 8\n"
            "a = np.eye(n) + np.tril(np.ones((n, n))) / n\n"
            "x = np.linspace(0.0, 1.0, n)\n"
            "s = p.Stabilizer.scalar_alpha()\n"
            "d = p.DiscreteOperator.dense(a)\n"
            "p.solve_perturbed(d, s, 0.1, a @ x, p.RegConfig(delta=0.01, alpha=0.1),"
            " x_star=x, A_exact=d)\n"
            "v = p.DiscreteOperator.volterra(0.0, 1.0, n)\n"
            "p.solve_perturbed(v, s, 0.1, v.apply(x), p.RegConfig(delta=0.01, alpha=0.1),"
            " x_star=x, A_exact=v)\n"
            "e = np.zeros(n); e[0] = 1.0\n"
            "a0 = a.copy(); a0[:, 0] = 0.0; a0[0, :] = 0.0\n"
            "b = p.build_stabilizer([e], [e])\n"
            "p.solve_fredholm_regularized(p.DiscreteOperator.dense(a0), b, a0 @ x)\n"
            "p.stabilization_sweep(d, s, [0.1, 0.01], x)\n")

    def report(self, typical):
        return _solve_report(self, typical)


def _solve_report(workload, typical):
    violations = sum(workload.stats.get("violations", []))
    base = len(workload.stats.get("bound_solves", []))
    return {
        "solve_dense_s": (typical["solve_dense"], "s", "lower", None),
        "solve_volterra_s": (typical["solve_volterra"], "s", "lower", None),
        "solve_fredholm_s": (typical["solve_fredholm"], "s", "lower", None),
        "sweep_s": (typical["sweep"], "s", "lower", None),
        "certificate_violation_ratio":
            (violations / base if base else float("nan"), "ratio", "lower", base),
    }


class SolveCliFiles(Workload):
    """CLI solve and sweep on JSON problem files (the ``cli_`` part of the solve workload)."""

    kinds = {"solve_dense": 1, "solve_fredholm": 1, "solve_volterra": 1, "sweep": 1}
    ALPHAS = SolveLibDense.ALPHAS

    def prepare(self, work, rng):
        self.work = work
        self.files = _write_problem_files(work, rng, self.sizes.cli_n,
                                          self.sizes.cli_volterra_n, "")
        from perturbreg import operators, problems, solve
        decoded = {kind: problems.load_problem(path) for kind, path in self.files.items()}
        self.refs = {kind: self._reference(decoded[kind], self.files[kind])
                     for kind in self.files}
        dense = decoded["solve_dense"]
        self.sweep_ref = solve.stabilization_sweep(dense.exact_operator,
                                                   operators.Stabilizer.scalar_alpha(),
                                                   self.ALPHAS, dense.exact_solution)

    @staticmethod
    def _reference(prob, path):
        """Library solve of the decoded problem, with an independent residual check."""
        from perturbreg import fredholm, operators, solve
        raw = json.loads(Path(path).read_text())
        a = np.asarray(raw["matrix"]) if "matrix" in raw else None
        if prob.basis is None:
            alpha = math.sqrt(prob.delta)
            report = solve.solve_perturbed(
                prob.operator, operators.Stabilizer.scalar_alpha(), alpha, prob.rhs,
                solve.RegConfig(delta=prob.delta, alpha=alpha), x_star=prob.exact_solution,
                A_exact=prob.exact_operator)
            check_scalar_residual(a, report.solution, alpha, prob.rhs, Path(path).name)
        else:
            report = fredholm.solve_fredholm_regularized(prob.operator, prob.basis, prob.rhs,
                                                         delta=prob.delta, q_max=prob.q_max)
            spec = raw["stabilizer"]["finite_dim"]
            check_finite_rank_residual(a, np.asarray(spec["phis"][0]),
                                       np.asarray(spec["psis"][0]), report.solution, prob.rhs,
                                       Path(path).name)
        return report

    def _solve(self, kind):
        out = self.output(f"{kind}.out.json")
        cli_call(["solve", str(self.files[kind]), "--out", str(out)])
        return kind, out

    def _check_solve(self, result):
        kind, out = result
        payload = json.loads(out.read_text())
        out.unlink()
        ref = self.refs[kind]
        if not np.array_equal(np.asarray(payload["solution"]), ref.solution):
            raise CheckFailed(f"{kind}: CLI solution differs from the library solve")
        if payload["residual_norm"] != ref.residual_norm:
            raise CheckFailed(f"{kind}: residual {payload['residual_norm']} "
                              f"!= {ref.residual_norm}")
        if payload["bound"] is not None:
            self.record("bound_solves", 1)
            self.record("violations", int(payload["observed_error"] > payload["bound"]))

    def _sweep(self):
        out = self.output("sweep.out.csv")
        cli_call(["sweep", str(self.files["solve_dense"]),
                  "--alphas", ",".join(repr(a) for a in self.ALPHAS), "--out", str(out)])
        return out

    def _check_sweep(self, out):
        lines = out.read_text().strip().splitlines()
        out.unlink()
        if lines[0] != "alpha,S,c_alpha_est,q_est" or len(lines) != len(self.ALPHAS) + 1:
            raise CheckFailed(f"sweep output has {len(lines) - 1} rows, "
                              f"expected {len(self.ALPHAS)}")
        rows = [[float(f) for f in ln.split(",")] for ln in lines[1:]]
        if [(r[0], r[1]) for r in rows] != self.sweep_ref:
            raise CheckFailed("sweep gaps differ from stabilization_sweep")
        if not all(math.isfinite(r[2]) and r[2] > 0.0 for r in rows):
            raise CheckFailed("sweep c_alpha_est not finite and positive")

    def calls(self):
        return [Call("solve_dense", lambda: self._solve("solve_dense"), self._check_solve),
                Call("solve_fredholm", lambda: self._solve("solve_fredholm"), self._check_solve),
                Call("solve_volterra", lambda: self._solve("solve_volterra"), self._check_solve),
                Call("sweep", self._sweep, self._check_sweep)]

    def cold_argvs(self, work, rng):
        files = _write_problem_files(work, rng, 8, 8, "cold_")
        argvs = [["solve", str(p), "--out", str(work / f"cold_{k}.out.json")]
                 for k, p in files.items()]
        argvs.append(["sweep", str(files["solve_dense"]), "--alphas", "0.1,0.01",
                      "--out", str(work / "cold_sweep.out.csv")])
        return argvs

    def report(self, typical):
        return _solve_report(self, typical)


def _write_problem_files(work, rng, n, n_volterra, prefix) -> dict[str, Path]:
    delta = 1e-4
    dense = dense_problem(rng, n, delta)
    deficient = dense_problem(rng, n, delta, deficient=True)
    vx, vf = volterra_problem(rng, n_volterra, delta)
    problems = {
        "solve_dense": {
            "matrix": dense.a_tilde.tolist(), "rhs": dense.f.tolist(), "delta": delta,
            "rule": "sqrt", "stabilizer": {"scalar_alpha": {}},
            "exact_solution": dense.x_star.tolist(), "exact_matrix": dense.a_exact.tolist()},
        "solve_fredholm": {
            "matrix": deficient.a_tilde.tolist(), "rhs": deficient.f.tolist(), "delta": delta,
            "stabilizer": {"finite_dim": {"phis": [deficient.phi.tolist()],
                                          "psis": [deficient.psi.tolist()]}},
            "exact_solution": deficient.x_star.tolist()},
        "solve_volterra": {
            "operator": "volterra", "interval": [0.0, 1.0], "rhs": vf.tolist(),
            "delta": delta, "rule": "sqrt", "stabilizer": {"scalar_alpha": {}},
            "exact_solution": vx.tolist(), "exact_matrix": "volterra"},
    }
    paths = {}
    for kind, body in problems.items():
        paths[kind] = work / f"{prefix}{kind}.json"
        paths[kind].write_text(json.dumps(body))
    return paths


def differentiate_cli(sizes: Sizes) -> Workload:
    """Four large CSV differentiations and two experiment studies per pass."""
    return Composite([("", CsvDifferentiation(sizes)), ("", ExperimentStudies(sizes))])


def solve(sizes: Sizes) -> Workload:
    """The library solves and the CLI solves on problem files, in one pass."""
    return Composite([("lib_", SolveLibDense(sizes)), ("cli_", SolveCliFiles(sizes))])


WORKLOADS = {"differentiate_cli": differentiate_cli, "solve": solve}
