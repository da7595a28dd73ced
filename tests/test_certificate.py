"""The error certificate under worst-case noise, on every solve path.

Random noise rarely finds a broken bound; the worst case does. With the exact
operator observed and ``||e||_inf <= delta``, the largest error right-hand-side
noise can cause is ``delta * ||M^-1||_inf`` for the stabilized matrix M, and
``e = delta * sign(row i of M^-1)``, with i the row of largest absolute sum,
attains it. Every claimed bound must hold against that noise.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbreg import (
    DiscreteOperator,
    RegConfig,
    Stabilizer,
    build_stabilizer,
    nullspace_basis,
    solve_fredholm_regularized,
    solve_perturbed,
)
from perturbreg.cli import main

# ||M^-1 e||_inf against delta * c_sup on a dense inverse: both are sums of
# the same row, so they differ by the rounding of two inversions of M.
ROUNDING = 1e-9


def worst_case_noise(matrix: np.ndarray, delta: float) -> np.ndarray:
    """delta * sign(row i of matrix^-1), with i the row of largest absolute sum."""
    inverse = np.linalg.inv(matrix)
    i = int(np.argmax(np.abs(inverse).sum(axis=1)))
    return delta * np.sign(inverse[i])


def amplified(matrix: np.ndarray, noise: np.ndarray) -> float:
    """||matrix^-1 noise||_inf, solved densely."""
    return float(np.max(np.abs(np.linalg.solve(matrix, noise))))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _dense_operator(family: str, n: int, rng) -> np.ndarray:
    if family == "rank_one_inverse":
        # A^-1 = I + u v^T: the family on which the 2-norm bound broke
        u, v = rng.uniform(-1.0, 1.0, (2, n))
        return np.linalg.inv(np.eye(n) + np.outer(u, v))
    m = rng.standard_normal((n, n))
    return m @ m.T / n  # symmetric positive semidefinite, as in acceptance criterion 4


@st.composite
def systems(draw, n_max: int, alpha_exponents: tuple[float, float],
            delta_exponents: tuple[float, float] = (-6.0, -2.0)):
    n = draw(st.integers(2, n_max))
    alpha = 10.0 ** draw(st.floats(*alpha_exponents))
    delta = 10.0 ** draw(st.floats(*delta_exponents))
    # x* from 1e-9 to 2 in size: a small x* leaves the noise term alone in the bound
    scale = 10.0 ** draw(st.floats(-9.0, 0.3))
    x_star = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, alpha, delta, x_star, np.random.default_rng(seed)


class TestWorstCaseNoise:
    @settings(max_examples=150, deadline=None)
    @given(system=systems(40, (-8.0, 0.0)),
           family=st.sampled_from(["rank_one_inverse", "psd"]))
    def test_dense(self, system, family):
        n, alpha, delta, x_star, rng = system
        a = _dense_operator(family, n, rng)
        m = a + alpha * np.eye(n)
        e = worst_case_noise(m, delta)
        op = DiscreteOperator.dense(a)
        rep = solve_perturbed(op, Stabilizer.scalar_alpha(), alpha, a @ x_star + e,
                              RegConfig(delta=delta, alpha=alpha), x_star=x_star, A_exact=op)
        assert amplified(m, e) == pytest.approx(rep.q_sup, rel=ROUNDING)
        if rep.bound is not None:
            assert rep.observed_error <= rep.bound

    @settings(max_examples=150, deadline=None)
    @given(system=systems(200, (-4.0, 0.0)))
    def test_volterra(self, system):
        n, alpha, delta, x_star, _ = system
        op = DiscreteOperator.volterra(0.0, 1.0, n)
        m = op.as_matrix() + alpha * np.eye(n)
        e = worst_case_noise(m, delta)
        rep = solve_perturbed(op, Stabilizer.scalar_alpha(), alpha, op.apply(x_star) + e,
                              RegConfig(delta=delta, alpha=alpha), x_star=x_star, A_exact=op)
        # c_sup is the closed form 2/alpha, an upper bound on ||M^-1||_inf
        assert amplified(m, e) <= rep.q_sup
        if rep.bound is not None:
            assert rep.observed_error <= rep.bound

    @settings(max_examples=150, deadline=None)
    @given(system=systems(40, (-6.0, 0.0)))
    def test_finite_rank(self, system):
        # A = U diag(s) V^T with s from 1 down to 1e-3 and a zero last; the
        # stabilizer alpha * psi phi^T shifts the null direction to alpha
        n, alpha, delta, x_star, rng = system
        u, v = _orthogonal(rng, n), _orthogonal(rng, n)
        s = np.geomspace(1.0, 1e-3, n)
        s[-1] = 0.0
        a = (u * s) @ v.T
        phi, psi = v[:, -1], u[:, -1]
        basis = build_stabilizer([phi], [psi], gammas=[alpha * phi])
        m = a + basis.stabilizer.materialize(1.0, n)
        e = worst_case_noise(m, delta)
        op = DiscreteOperator.dense(a)
        f = a @ x_star + e
        rep = solve_perturbed(op, basis.stabilizer, 1.0, f, RegConfig(delta=delta, alpha=1.0),
                              x_star=x_star, A_exact=op)
        assert amplified(m, e) == pytest.approx(rep.q_sup, rel=ROUNDING)
        if rep.bound is not None:
            assert rep.observed_error <= rep.bound
        projected = solve_fredholm_regularized(op, basis, f, delta=delta)
        assert projected.c_sup == rep.c_sup and projected.q_sup == rep.q_sup


def worst_case_operator_noise(m: np.ndarray, y: np.ndarray, delta: float):
    """(E, e) against the exact stabilized matrix m and its solution y.

    e = delta * s and E = -delta * s e_j^T sign(y_j), with s = sign(row i of
    m^-1), i the row of largest absolute sum and j the largest entry of y.
    Each row of E holds one entry, so ||E||_inf = delta, and -E y =
    delta |y_j| s adds to e: the error M~^-1 (e - E y) nears
    delta ||M~^-1||_inf (1 + ||y||_inf).
    """
    e = worst_case_noise(m, delta)
    j = int(np.argmax(np.abs(y)))
    E = np.zeros(m.shape)
    E[:, j] = -np.sign(y[j]) * e
    return E, e


class TestWorstCaseOperatorNoise:
    """Operator and data noise both at delta, and q_sup past 1 allowed: every
    report with a gap and noise within delta claims its bound, and it holds."""

    @staticmethod
    def solve(a, noise, B, alpha, x_star, e, delta):
        return solve_perturbed(DiscreteOperator.dense(a + noise), B, alpha, a @ x_star + e,
                               RegConfig(delta=delta, alpha=alpha), x_star=x_star,
                               A_exact=DiscreteOperator.dense(a))

    @settings(max_examples=100, deadline=None)
    @given(system=systems(40, (-8.0, 0.0), (-6.0, -0.5)),
           family=st.sampled_from(["rank_one_inverse", "psd"]))
    def test_dense(self, system, family):
        n, alpha, delta, x_star, rng = system
        a = _dense_operator(family, n, rng)
        m = a + alpha * np.eye(n)
        noise, e = worst_case_operator_noise(m, np.linalg.solve(m, a @ x_star), delta)
        rep = self.solve(a, noise, Stabilizer.scalar_alpha(), alpha, x_star, e, delta)
        assert rep.bound is not None
        assert rep.observed_error <= rep.bound

    @settings(max_examples=100, deadline=None)
    @given(system=systems(200, (-4.0, 0.0), (-6.0, -0.5)), stretch=st.sampled_from([1.0, -1.0]))
    def test_volterra(self, system, stretch):
        # the observed grid is stretched or shrunk, so that (n - 1) |h~ - h| = delta
        n, alpha, delta, x_star, _ = system
        exact = DiscreteOperator.volterra(0.0, 1.0, n)
        observed = DiscreteOperator.volterra(0.0, 1.0 + stretch * delta, n)
        e = worst_case_noise(observed.as_matrix() + alpha * np.eye(n), delta)
        rep = solve_perturbed(observed, Stabilizer.scalar_alpha(), alpha, exact.apply(x_star) + e,
                              RegConfig(delta=delta, alpha=alpha), x_star=x_star, A_exact=exact)
        assert rep.bound is not None
        assert rep.observed_error <= rep.bound

    @settings(max_examples=100, deadline=None)
    @given(system=systems(40, (-6.0, 0.0), (-6.0, -0.5)))
    def test_finite_rank(self, system):
        # A and the stabilizer as in TestWorstCaseNoise.test_finite_rank
        n, alpha, delta, x_star, rng = system
        u, v = _orthogonal(rng, n), _orthogonal(rng, n)
        s = np.geomspace(1.0, 1e-3, n)
        s[-1] = 0.0
        a = (u * s) @ v.T
        B = build_stabilizer([v[:, -1]], [u[:, -1]], gammas=[alpha * v[:, -1]]).stabilizer
        m = a + B.materialize(1.0, n)
        noise, e = worst_case_operator_noise(m, np.linalg.solve(m, a @ x_star), delta)
        rep = self.solve(a, noise, B, 1.0, x_star, e, delta)
        assert rep.bound is not None
        assert rep.observed_error <= rep.bound


def counterexample():
    """n = 64, A^-1 = I with row 0 set to 0.375, x* = 0, alpha = 1e-8, worst-case f."""
    n, alpha, delta = 64, 1e-8, 1e-3
    a_inv = np.eye(n)
    a_inv[0, :] = 0.375
    a = np.linalg.inv(a_inv)
    return a, worst_case_noise(a + alpha * np.eye(n), delta), alpha, delta


class TestCounterexample:
    """||A^-1||_inf = 64 * 0.375 = 24 while ||A^-1||_2 is about 3.16: a bound
    built from the 2-norm reported 3.2e-3 against an observed error of 2.4e-2."""

    def check(self, c_alpha_est, c_sup, q_sup, bound, observed_error):
        assert bound is not None
        assert c_sup == pytest.approx(24.0, rel=1e-6)
        assert q_sup == pytest.approx(0.024, rel=1e-6)
        assert observed_error == pytest.approx(2.40e-2, rel=1e-6)
        assert observed_error <= bound
        assert c_alpha_est < 4.0  # the 2-norm margin stays the 2-norm

    def test_library(self):
        a, f, alpha, delta = counterexample()
        op = DiscreteOperator.dense(a)
        rep = solve_perturbed(op, Stabilizer.scalar_alpha(), alpha, f,
                              RegConfig(delta=delta, alpha=alpha),
                              x_star=np.zeros(a.shape[0]), A_exact=op)
        self.check(rep.c_alpha_est, rep.c_sup, rep.q_sup, rep.bound, rep.observed_error)

    def test_cli_solve(self, tmp_path):
        a, f, alpha, delta = counterexample()
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps({
            "matrix": a.tolist(), "rhs": f.tolist(), "delta": delta, "alpha": alpha,
            "stabilizer": {"scalar_alpha": {}}, "exact_solution": [0.0] * a.shape[0],
            "exact_matrix": a.tolist()}))
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        self.check(report["c_alpha_est"], report["c_sup"], report["q_sup"], report["bound"],
                   report["observed_error"])

    def test_bound_holds_once_q_sup_reaches_one(self):
        # delta = 0.05: q_sup = 1.2 while the 2-norm margin q_est is about 0.16;
        # the bound rests on the observed inverse, so it needs no q_sup < 1
        a, f, alpha, _ = counterexample()
        op = DiscreteOperator.dense(a)
        rep = solve_perturbed(op, Stabilizer.scalar_alpha(), alpha, 50.0 * f,
                              RegConfig(delta=0.05, alpha=alpha),
                              x_star=np.zeros(a.shape[0]), A_exact=op)
        assert rep.q_est < 0.5 <= 1.0 <= rep.q_sup
        assert rep.bound is not None and rep.observed_error <= rep.bound
        assert rep.gap == 0.0


class TestNoSingularValueDecomposition:
    """Dense solves and sweeps take both norms from one inverse, never an SVD."""

    @pytest.fixture
    def no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")
        monkeypatch.setattr(np.linalg, "svd", refuse)

    @staticmethod
    def deficient(n=6):
        a = np.diag(np.arange(n, dtype=float))  # null direction e_0
        e0 = np.eye(n)[0]
        return a, e0

    def test_library_solvers(self, no_svd):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 8))
        x = rng.standard_normal(8)
        op = DiscreteOperator.dense(m)
        rep = solve_perturbed(op, Stabilizer.scalar_alpha(), 0.1, m @ x,
                              RegConfig(delta=1e-3, alpha=0.1), x_star=x, A_exact=op)
        assert math.isfinite(rep.c_sup) and rep.bound is not None
        a, e0 = self.deficient()
        rep = solve_fredholm_regularized(DiscreteOperator.dense(a), build_stabilizer([e0], [e0]),
                                         a @ np.ones(6), delta=1e-3)
        assert rep.c_sup == 1.0 and rep.c_alpha_est == pytest.approx(1.0)

    def test_cli_solve_and_sweep(self, no_svd, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8))
        x = rng.standard_normal(8)
        dense = tmp_path / "dense.json"
        dense.write_text(json.dumps({
            "matrix": m.tolist(), "rhs": (m @ x).tolist(), "delta": 1e-3, "alpha": 0.1,
            "stabilizer": {"scalar_alpha": {}}, "exact_solution": x.tolist(),
            "exact_matrix": m.tolist()}))
        a, e0 = self.deficient()
        finite = tmp_path / "finite.json"
        finite.write_text(json.dumps({
            "matrix": a.tolist(), "rhs": (a @ np.ones(6)).tolist(), "delta": 1e-3,
            "stabilizer": {"finite_dim": {"phis": [e0.tolist()], "psis": [e0.tolist()]}},
            "exact_solution": np.ones(6).tolist()}))
        assert main(["solve", str(dense), "--out", str(tmp_path / "d.json")]) == 0
        assert main(["solve", str(finite), "--out", str(tmp_path / "f.json")]) == 0
        for path in (dense, finite):
            assert main(["sweep", str(path), "--alphas", "0.3,0.01",
                         "--out", str(tmp_path / f"{path.stem}.csv")]) == 0

    def test_nullspace_basis_keeps_its_svd(self, no_svd):
        with pytest.raises(AssertionError, match="svd"):
            nullspace_basis(np.eye(3))
