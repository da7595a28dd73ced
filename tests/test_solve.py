"""Tests for stabilized solves, margins, and the error certificate."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perturbreg import (
    DegenerateDelta,
    DiscreteOperator,
    GridFunction,
    RegConfig,
    SingularSystem,
    Stabilizer,
    build_stabilizer,
    operators,
    regularized_derivative,
    resolvent_apply,
    solve,
    solve_fredholm_regularized,
    solve_perturbed,
    stabilization_gap,
    stabilization_sweep,
)
from perturbreg.fredholm import project_rhs
from perturbreg.solve import (
    PowerDelta,
    _assemble,
    SqrtDelta,
    c_alpha_estimate,
    coordinate_alpha,
)

SHIFTED_SIZES = [2, 64, 1024]
SHIFTED_ALPHAS = {"0.1": lambda h: 0.1, "h": lambda h: h, "h/4": lambda h: h / 4,
                  "1e-6": lambda h: 1e-6}


def dense_shifted(n, h, alpha):
    return operators.cumulative_trapezoid_matrix(n, h) + alpha * np.eye(n)


@pytest.fixture
def no_densify(monkeypatch):
    """Make building the running-integral matrix fail."""
    def refuse(n, h):
        raise AssertionError("the running-integral matrix was built")
    monkeypatch.setattr(operators, "cumulative_trapezoid_matrix", refuse)


class TestCoordinateAlpha:
    def test_sqrt_rule(self):
        assert coordinate_alpha(0.04, SqrtDelta()) == pytest.approx(0.2)

    def test_sqrt_rule_accepts_bare_class(self):
        assert coordinate_alpha(0.25, SqrtDelta) == pytest.approx(0.5)

    def test_power_rule(self):
        assert coordinate_alpha(0.001, PowerDelta(1.0 / 3.0)) == pytest.approx(0.1)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(DegenerateDelta):
            coordinate_alpha(0.0, SqrtDelta())
        with pytest.raises(DegenerateDelta):
            coordinate_alpha(-1.0, SqrtDelta())

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(DegenerateDelta):
            coordinate_alpha(delta, SqrtDelta())

    def test_power_exponent_validated(self):
        with pytest.raises(ValueError):
            PowerDelta(1.0)
        with pytest.raises(ValueError):
            PowerDelta(0.0)


class TestRegConfig:
    def test_fields_are_delta_alpha_and_q_max(self):
        assert [f.name for f in dataclasses.fields(RegConfig)] == ["delta", "alpha", "q_max"]
        with pytest.raises(TypeError):
            RegConfig(delta=0.1, rule=SqrtDelta())

    def test_unset_alpha_is_the_solve_alpha(self):
        A = DiscreteOperator.dense(2.0 * np.eye(4))
        f = np.array([1.0, 2.0, 3.0, 4.0])
        for alpha in (0.1, 0.5):
            unset = solve_perturbed(A, Stabilizer.scalar_alpha(), alpha, f, RegConfig(delta=0.1))
            pinned = solve_perturbed(A, Stabilizer.scalar_alpha(), alpha, f,
                                     RegConfig(delta=0.1, alpha=alpha))
            assert unset.solution.tobytes() == pinned.solution.tobytes()

    def test_bad_q_max(self):
        with pytest.raises(ValueError):
            RegConfig(delta=0.1, alpha=0.1, q_max=1.0)

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            RegConfig(delta=-0.1, alpha=0.1)

    @pytest.mark.parametrize("delta, alpha", [(float("nan"), 0.1), (float("inf"), 0.1),
                                              (0.1, float("nan")), (0.1, float("inf"))])
    def test_non_finite_delta_or_alpha(self, delta, alpha):
        with pytest.raises(ValueError, match="finite"):
            RegConfig(delta=delta, alpha=alpha)


# Every entry point that takes alpha, as a call on a four-point operator; the
# sites that take an operator run on a dense one and on the running integral.
ALPHA_SITES = {
    "solve_shifted": lambda A, alpha: A.solve_shifted(alpha, np.ones(4)),
    "shifted_inverse_norm": lambda A, alpha: A.shifted_inverse_norm(alpha),
    "resolvent_apply": lambda A, alpha: resolvent_apply(GridFunction(0.0, 1.0, np.ones(4)),
                                                        alpha),
    "regularized_derivative": lambda A, alpha: regularized_derivative(
        GridFunction(0.0, 1.0, np.ones(4)), alpha),
    "RegConfig": lambda A, alpha: RegConfig(delta=0.01, alpha=alpha),
    "stabilization_gap": lambda A, alpha: stabilization_gap(A, Stabilizer.scalar_alpha(), alpha,
                                                            np.ones(4)),
    "solve_perturbed": lambda A, alpha: solve_perturbed(
        A, Stabilizer.scalar_alpha(), alpha, np.ones(4), RegConfig(delta=0.01)),
    "stabilization_sweep": lambda A, alpha: stabilization_sweep(
        A, Stabilizer.scalar_alpha(), [0.1, alpha], np.ones(4)),
    "c_alpha_estimate": lambda A, alpha: c_alpha_estimate(A, Stabilizer.scalar_alpha(), alpha),
}
ALPHA_SITES_ON_BOTH = ["stabilization_gap", "solve_perturbed", "stabilization_sweep",
                       "c_alpha_estimate"]


class TestAlphaRule:
    """alpha must be positive and finite, at every entry point, in one wording."""

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("site, operator", [
        *((name, "volterra") for name in ALPHA_SITES),
        *((name, "dense") for name in ALPHA_SITES_ON_BOTH),
    ])
    def test_bad_alpha_raises_one_error(self, site, operator, alpha):
        A = DiscreteOperator.volterra(0.0, 1.0, 4) if operator == "volterra" \
            else DiscreteOperator.dense(2.0 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                ALPHA_SITES[site](A, alpha)
        assert str(raised.value) == f"alpha must be positive and finite, got {alpha}"


# Every entry point that takes a vector, as a call given that vector on a
# four-point operator and stabilizer; each entry holds the call, the name the
# message gives the vector and the size it must match.
_ONES = np.ones(4)
_E0 = np.eye(4)[0]
VECTOR_SITES = {
    "solve_perturbed f_tilde": (lambda A, B, v: solve_perturbed(
        A, B, 0.1, v, RegConfig(delta=0.01)), "f_tilde", "operator"),
    "solve_perturbed x_star": (lambda A, B, v: solve_perturbed(
        A, B, 0.1, _ONES, RegConfig(delta=0.01), x_star=v), "x_star", "rhs"),
    "stabilization_gap": (lambda A, B, v: stabilization_gap(A, B, 0.1, v), "x_star", "operator"),
    "stabilization_sweep": (lambda A, B, v: stabilization_sweep(A, B, [0.1, 0.2], v),
                            "x_star", "operator"),
    "solve_fredholm_regularized f_tilde": (lambda A, B, v: solve_fredholm_regularized(
        A, build_stabilizer([_E0], [_E0]), v), "f_tilde", "operator"),
    "solve_fredholm_regularized x_star": (lambda A, B, v: solve_fredholm_regularized(
        A, build_stabilizer([_E0], [_E0]), _ONES, x_star=v), "x_star", "rhs"),
    "project_rhs": (lambda A, B, v: project_rhs(v, build_stabilizer([_E0], [_E0])), "f", "basis"),
    "apply": (lambda A, B, v: A.apply(v), "operand", "operator"),
}
# The sites that take a stabilizer run with alpha * I and a finite-rank one.
VECTOR_SITES_WITH_B = ["solve_perturbed f_tilde", "solve_perturbed x_star",
                       "stabilization_gap", "stabilization_sweep"]


def _grid_stabilizer():
    ones = GridFunction(0.0, 1.0, _ONES)
    return Stabilizer.finite_dim([ones], [ones])


class TestVectorRule:
    """Every vector must be one-dimensional and of its operator's size, at
    every entry point, in one wording; a column would broadcast."""

    @pytest.mark.parametrize("operator", ["dense", "volterra"])
    @pytest.mark.parametrize("site, stabilizer", [
        *((name, "scalar") for name in VECTOR_SITES),
        *((name, "finite_rank") for name in VECTOR_SITES_WITH_B),
    ])
    @pytest.mark.parametrize("shape", ["column", "short"])
    def test_bad_vector_raises_one_error(self, site, stabilizer, operator, shape):
        A = DiscreteOperator.volterra(0.0, 1.0, 4) if operator == "volterra" \
            else DiscreteOperator.dense(2.0 * np.eye(4))
        B = _grid_stabilizer() if stabilizer == "finite_rank" else Stabilizer.scalar_alpha()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        call, name, against = VECTOR_SITES[site]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                call(A, B, x[:, None] if shape == "column" else x[:3])
        assert str(raised.value) == (
            f"{name} must be one-dimensional, got shape (4, 1)" if shape == "column"
            else f"{name} size 3 does not match {against} size 4")

    def test_grid_gap_of_a_vector(self):
        # the plain sum pairs x* with the ones: (2 I + 1 1^T) y = 10 * ones gives 5/3
        A = DiscreteOperator.dense(2.0 * np.eye(4))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        gap = stabilization_gap(A, _grid_stabilizer(), 0.1, x)
        assert gap == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert stabilization_sweep(A, _grid_stabilizer(), [0.1, 0.2], x) == [(0.1, gap),
                                                                              (0.2, gap)]
        assert stabilization_gap(A, _grid_stabilizer(), 0.1,
                                 GridFunction(0.0, 1.0, x)) == gap


# Every entry point that pairs a stabilizer with an operator, as a call on
# that pair.
SIZE_SITES = {
    "stabilization_gap": lambda A, B: stabilization_gap(A, B, 0.1, np.ones(A.size)),
    "stabilization_sweep": lambda A, B: stabilization_sweep(A, B, [0.1, 0.2], np.ones(A.size)),
    "solve_perturbed": lambda A, B: solve_perturbed(A, B, 0.1, np.ones(A.size),
                                                    RegConfig(delta=0.01)),
    "solve_perturbed exact": lambda A, B: solve_perturbed(
        A, B, 0.1, np.ones(A.size), RegConfig(delta=0.01), x_star=np.ones(A.size), A_exact=A),
    "c_alpha_estimate": lambda A, B: c_alpha_estimate(A, B, 0.1),
    "apply": lambda A, B: B.apply(0.1, np.ones(A.size)),
    "materialize": lambda A, B: B.materialize(0.1, A.size),
}


class TestStabilizerSizeRule:
    """A finite-rank stabilizer must match its operator's size, at every entry
    point, in one wording, before any product."""

    @pytest.mark.parametrize("operator", ["dense", "volterra"])
    @pytest.mark.parametrize("site", SIZE_SITES)
    def test_wrong_size_raises_one_error(self, site, operator):
        A = DiscreteOperator.volterra(0.0, 1.0, 3) if operator == "volterra" \
            else DiscreteOperator.dense(2.0 * np.eye(3))
        B = Stabilizer.finite_dim([np.ones(4)], [np.ones(4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                SIZE_SITES[site](A, B)
        assert str(raised.value) == "stabilizer built for size 4, asked for 3"


class TestSolvePerturbed:
    def test_identity_with_scalar_stabilizer(self):
        A = DiscreteOperator.dense(np.eye(2))
        cfg = RegConfig(delta=0.0, alpha=0.1)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(2), cfg)
        np.testing.assert_allclose(rep.solution, np.full(2, 1.0 / 1.1), atol=1e-14)
        assert rep.q_est == 0.0
        assert not rep.q_exceeded
        assert rep.residual_norm <= 1e-12

    def test_singular_diagonal_regularized(self):
        A = DiscreteOperator.dense(np.diag([0.0, 1.0]))
        cfg = RegConfig(delta=0.0, alpha=0.01)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.01, np.array([0.0, 1.0]), cfg)
        np.testing.assert_allclose(rep.solution, [0.0, 1.0 / 1.01], atol=1e-14)

    def test_volterra_against_dense_inverse(self):
        # oracle: materialize the matrix and invert it directly
        n, alpha = 129, 0.1
        A = DiscreteOperator.volterra(0.0, 3.0, n)
        t = np.linspace(0.0, 3.0, n)
        f = 1.0 - np.cos(t)
        cfg = RegConfig(delta=0.0, alpha=alpha)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), alpha, f, cfg)
        expect = np.linalg.solve(A.as_matrix() + alpha * np.eye(n), f)
        np.testing.assert_allclose(rep.solution, expect, atol=1e-12)

    def test_volterra_scalar_uses_closed_form_norm(self):
        A = DiscreteOperator.volterra(0.0, 3.0, 65)
        cfg = RegConfig(delta=0.0, alpha=0.1)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.zeros(65), cfg)
        assert rep.c_alpha_est == pytest.approx(20.0)

    def test_grid_function_rhs(self):
        A = DiscreteOperator.dense(np.eye(3))
        f = GridFunction(0.0, 1.0, np.array([1.0, 2.0, 3.0]))
        cfg = RegConfig(delta=0.0, alpha=0.5)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.5, f, cfg)
        np.testing.assert_allclose(rep.solution, f.values / 1.5, atol=1e-14)

    def test_q_threshold_flags_but_does_not_raise(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 33)
        cfg = RegConfig(delta=0.1, alpha=0.001)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.001, np.zeros(33), cfg)
        assert rep.q_est == pytest.approx(200.0)
        assert rep.q_exceeded
        assert rep.bound is None

    def test_diagnostics_need_exact_problem(self):
        A = DiscreteOperator.dense(np.eye(2))
        cfg = RegConfig(delta=0.01, alpha=0.1)
        x_star = np.ones(2)

        bare = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(2), cfg)
        assert bare.gap is None and bare.bound is None and bare.observed_error is None

        with_x = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(2), cfg,
                                 x_star=x_star)
        assert with_x.observed_error == pytest.approx(1.0 - 1.0 / 1.1)
        assert with_x.gap is None

        full = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(2), cfg,
                               x_star=x_star, A_exact=A)
        assert full.gap == pytest.approx(
            stabilization_gap(A, Stabilizer.scalar_alpha(), 0.1, x_star))
        assert full.q_sup == cfg.delta * full.c_sup
        gap, amp, x_norm = full.bound_components
        assert (gap, amp, x_norm) == (full.gap, full.q_sup, 1.0)
        # the a-posteriori bound with its rounding allowance rho = 16 n eps cond(M~),
        # for n = 2 and ||M~||_inf = 1.1
        rho = 16 * 2 * np.finfo(float).eps * 1.1 * full.c_sup
        assert full.bound == (gap + amp * (1.0 + x_norm + gap) + full.c_sup * full.residual_norm) \
            * (1.0 + rho) + 2.0 * rho * np.max(np.abs(full.solution))
        # by hand: gap 0.1 / 1.1, amplification 0.01 / 1.1, no residual to speak of
        assert full.bound == pytest.approx(0.1 / 1.1 + 0.01 / 1.1 * (2.0 + 0.1 / 1.1), rel=1e-12)

    def test_singular_exact_system_leaves_no_gap_and_no_bound(self):
        # A + I is singular while A~ + I is not: the observed system is still
        # solved, and with no gap to compare against no bound is claimed
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        a_tilde = np.array([[1e-3, 1.0], [1.0, 0.0]])
        x_star = np.array([1.0, 2.0])
        rep = solve_perturbed(DiscreteOperator.dense(a_tilde), Stabilizer.scalar_alpha(), 1.0,
                              a @ x_star, RegConfig(delta=1e-3, alpha=1.0), x_star=x_star,
                              A_exact=DiscreteOperator.dense(a))
        np.testing.assert_allclose(rep.solution, np.linalg.solve(a_tilde + np.eye(2), a @ x_star))
        assert rep.gap is None and rep.bound is None and rep.bound_components is None
        assert rep.delta_realized == 1e-3
        assert rep.observed_error == pytest.approx(1001.0)

    def test_singular_assembly_raises(self):
        A = DiscreteOperator.dense(np.zeros((2, 2)))
        B = Stabilizer.finite_dim([np.array([1.0, 0.0])], [np.array([1.0, 0.0])])
        cfg = RegConfig(delta=0.0, alpha=1.0)
        with pytest.raises(SingularSystem):
            solve_perturbed(A, B, 1.0, np.ones(2), cfg)

    def test_size_mismatch(self):
        A = DiscreteOperator.dense(np.eye(2))
        cfg = RegConfig(delta=0.0, alpha=0.1)
        with pytest.raises(ValueError):
            solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(3), cfg)

    @pytest.mark.parametrize("x_star", [[0.5], [0.5, 0.5, 0.5]])
    def test_x_star_size_mismatch(self, x_star):
        # numpy would broadcast a length-1 x* into an observed error
        A = DiscreteOperator.dense(2.0 * np.eye(4))
        cfg = RegConfig(delta=0.0, alpha=0.1)
        with pytest.raises(ValueError, match=f"x_star size {len(x_star)} does not match "
                                             "rhs size 4"):
            solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(4), cfg, x_star=x_star)

    def test_exact_operator_size_mismatch(self):
        A = DiscreteOperator.dense(2.0 * np.eye(4))
        cfg = RegConfig(delta=0.0, alpha=0.1)
        with pytest.raises(ValueError, match="exact operator size 3 does not match rhs size 4"):
            solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, np.ones(4), cfg,
                            x_star=np.ones(4), A_exact=DiscreteOperator.dense(np.eye(3)))

    @pytest.mark.parametrize("name", ["f_tilde", "x_star"])
    def test_column_vector_rejected(self, name):
        # a (4, 1) x* would broadcast against the (4,) solution into an
        # observed error of 1.4286 where the solution is exact
        A = DiscreteOperator.dense(2.0 * np.eye(4))
        f = np.array([1.0, 2.0, 3.0, 4.0])
        vectors = {"f_tilde": f, "x_star": f / 2.1}
        vectors[name] = vectors[name][:, None]
        message = rf"^{name} must be one-dimensional, got shape \(4, 1\)$"
        with pytest.raises(ValueError, match=message):
            solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, vectors["f_tilde"],
                            RegConfig(delta=1e-3, alpha=0.1), x_star=vectors["x_star"])

    def test_config_alpha_must_match(self):
        A = DiscreteOperator.dense(2.0 * np.eye(4))
        f = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match=r"^config.alpha 0.5 differs from alpha 0.1$"):
            solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, f, RegConfig(delta=1e-3, alpha=0.5))
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 0.1, f,
                              RegConfig(delta=1e-3, alpha=0.1), x_star=f / 2.1)
        np.testing.assert_allclose(rep.solution, f / 2.1, rtol=1e-15)
        assert rep.observed_error < 1e-15

    def test_nonpositive_alpha(self):
        A = DiscreteOperator.dense(np.eye(2))
        cfg = RegConfig(delta=0.0, alpha=0.1)
        with pytest.raises(ValueError):
            solve_perturbed(A, Stabilizer.scalar_alpha(), 0.0, np.ones(2), cfg)

    def test_perturbed_inverse_norm_chain(self):
        # Weyl direction: 1/sigma_min(perturbed) <= c / (1 - q) whenever the
        # perturbation is below delta and q = delta * c < 1
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(4, 33))
            m = rng.standard_normal((n, n))
            A = m @ m.T / n
            alpha = float(rng.uniform(0.1, 0.5))
            assembled = A + alpha * np.eye(n)
            c = 1.0 / np.linalg.svd(assembled, compute_uv=False)[-1]
            delta = 0.2 * alpha
            q = delta * c
            assert q < 1.0
            e = rng.standard_normal((n, n))
            e *= delta / np.linalg.svd(e, compute_uv=False)[0]
            sigma_tilde = np.linalg.svd(assembled + e, compute_uv=False)[-1]
            assert 1.0 / sigma_tilde <= c / (1.0 - q) + 1e-12


class TestVolterraWithoutMatrix:
    # Oracle: the dense trapezoid matrix plus alpha * I, solved by LAPACK.
    @pytest.mark.parametrize("n", SHIFTED_SIZES)
    @pytest.mark.parametrize("alpha_of_h", SHIFTED_ALPHAS.values(), ids=SHIFTED_ALPHAS.keys())
    def test_solve_matches_dense_solve(self, n, alpha_of_h):
        A = DiscreteOperator.volterra(0.0, 1.0, n)
        alpha = alpha_of_h(A.h)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n)
        x_star = rng.standard_normal(n)
        m = dense_shifted(n, A.h, alpha)
        expect = np.linalg.solve(m, f)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), alpha, f,
                              RegConfig(delta=0.0, alpha=alpha), x_star=x_star, A_exact=A)
        np.testing.assert_allclose(rep.solution, expect, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expect)))
        assert rep.residual_norm == float(np.max(np.abs(A.apply(rep.solution)
                                                        + alpha * rep.solution - f)))
        eps = np.finfo(float).eps
        assert rep.residual_norm <= n * eps * (np.max(np.abs(m).sum(1))
                                               * np.max(np.abs(rep.solution)) + np.max(np.abs(f)))
        assert rep.c_alpha_est == 2.0 / alpha
        gap = np.max(np.abs(np.linalg.solve(m, alpha * x_star)))
        assert rep.gap == pytest.approx(gap, rel=1e-12)

    @pytest.mark.parametrize("n", SHIFTED_SIZES)
    @pytest.mark.parametrize("alpha_of_h", SHIFTED_ALPHAS.values(), ids=SHIFTED_ALPHAS.keys())
    def test_gap_matches_dense_solve(self, n, alpha_of_h):
        A = DiscreteOperator.volterra(0.0, 2.0, n)
        alpha = alpha_of_h(A.h)
        x_star = np.sin(3.0 * np.linspace(0.0, 2.0, n)) + 0.25
        expect = np.max(np.abs(np.linalg.solve(dense_shifted(n, A.h, alpha), alpha * x_star)))
        gap = stabilization_gap(A, Stabilizer.scalar_alpha(), alpha, x_star)
        assert gap == pytest.approx(expect, rel=1e-12)

    def test_solve_and_gap_never_build_the_matrix(self, no_densify):
        n, alpha = 2049, 0.01
        A = DiscreteOperator.volterra(0.0, 1.0, n)
        t = np.linspace(0.0, 1.0, n)
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), alpha, A.apply(t),
                              RegConfig(delta=1e-4, alpha=alpha), x_star=t, A_exact=A)
        assert rep.bound is not None
        stabilization_gap(A, Stabilizer.scalar_alpha(), alpha, t)
        stabilization_sweep(A, Stabilizer.scalar_alpha(), [0.1, 0.01], t)
        c_est, c_sup = c_alpha_estimate(A, Stabilizer.scalar_alpha(), alpha)
        assert c_est == 2.0 / alpha
        assert c_sup == pytest.approx(A.shifted_inverse_norm(alpha), rel=1e-11)

    def test_non_finite_solution_is_singular(self):
        # f_0 / alpha overflows: reported as a singular system, as a failed
        # factorization would be, without a numpy overflow warning
        A = DiscreteOperator.volterra(0.0, 1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem):
                solve_perturbed(A, Stabilizer.scalar_alpha(), 1e-310, np.ones(16),
                                RegConfig(delta=0.0, alpha=1e-310))

    def test_volterra_with_finite_rank_stabilizer_stays_dense(self):
        # only the scalar stabilizer has the recurrence; other pairs assemble
        n = 33
        A = DiscreteOperator.volterra(0.0, 1.0, n)
        e0 = np.zeros(n)
        e0[0] = 1.0
        B = Stabilizer.finite_dim([e0], [e0])
        f = np.linspace(0.0, 1.0, n)
        rep = solve_perturbed(A, B, 1.0, f, RegConfig(delta=0.0, alpha=1.0))
        expect = np.linalg.solve(A.as_matrix() + B.materialize(1.0, n), f)
        np.testing.assert_array_equal(rep.solution, expect)


class TestRealizedNoise:
    """The bound is claimed only while the exact problem shows noise within delta."""

    def test_exact_data_that_refutes_delta_claims_no_bound(self):
        # f - A x* = [1, 1] against delta = 1e-4: a bound of 9.90e-5 would
        # face an observed error of 0.990
        A = DiscreteOperator.dense(np.eye(2))
        alpha = coordinate_alpha(1e-4, SqrtDelta())
        rep = solve_perturbed(A, Stabilizer.scalar_alpha(), alpha, np.ones(2),
                              RegConfig(delta=1e-4, alpha=alpha), x_star=np.zeros(2),
                              A_exact=A)
        assert rep.delta_realized == 1.0
        assert rep.observed_error == pytest.approx(0.990, rel=1e-3)
        assert rep.bound is None and rep.bound_components is None
        assert rep.gap == 0.0

    @pytest.mark.parametrize("op_noise, data_noise, claimed", [
        (0.5e-3, 0.25e-3, True), (0.25e-3, 1e-3, True), (2e-3, 0.5e-3, False),
        (0.5e-3, 2e-3, False)])
    def test_realized_noise_is_the_larger_norm(self, op_noise, data_noise, claimed):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = a @ a.T / 6
        e = np.zeros((6, 6))
        e[2, :3] = op_noise / 3  # one row sums to op_noise
        x_star = rng.standard_normal(6)
        f = a @ x_star
        f[4] += data_noise
        rep = solve_perturbed(DiscreteOperator.dense(a + e), Stabilizer.scalar_alpha(), 0.5, f,
                              RegConfig(delta=1e-3, alpha=0.5), x_star=x_star,
                              A_exact=DiscreteOperator.dense(a))
        assert rep.delta_realized == pytest.approx(max(op_noise, data_noise), rel=1e-9)
        assert (rep.bound is not None) == claimed

    def test_running_integrals_on_one_grid_differ_by_zero(self, no_densify):
        n, alpha = 513, 0.01
        t = np.linspace(0.0, 1.0, n)
        observed = DiscreteOperator.volterra(0.0, 1.0, n)
        f = observed.apply(t)
        f[7] += 1e-4
        rep = solve_perturbed(observed, Stabilizer.scalar_alpha(), alpha, f,
                              RegConfig(delta=1e-4, alpha=alpha), x_star=t,
                              A_exact=DiscreteOperator.volterra(0.0, 1.0, n))
        assert rep.delta_realized == pytest.approx(1e-4, rel=1e-9)
        assert rep.bound is not None

    def test_operators_of_two_kinds_are_compared_densely(self):
        n, alpha = 33, 0.1
        t = np.linspace(0.0, 1.0, n)
        exact = DiscreteOperator.volterra(0.0, 1.0, n)
        config = RegConfig(delta=1e-3, alpha=alpha)
        same = solve_perturbed(DiscreteOperator.dense(exact.as_matrix()),
                               Stabilizer.scalar_alpha(), alpha, exact.apply(t), config,
                               x_star=t, A_exact=exact)
        assert same.delta_realized == 0.0 and same.bound is not None
        wider = exact.as_matrix() * 1.5
        other = solve_perturbed(DiscreteOperator.dense(wider), Stabilizer.scalar_alpha(), alpha,
                                exact.apply(t), config, x_star=t, A_exact=exact)
        assert other.delta_realized == pytest.approx(0.5)
        assert other.bound is None

    @pytest.mark.parametrize("a, b, claimed", [(2.0, 3.0, True), (0.0, 1.0 + 1e-3, False),
                                               (0.0, 1.0 + 1e-6, True)])
    def test_running_integrals_on_two_grids_differ_by_their_steps(self, no_densify, a, b,
                                                                  claimed):
        # (n - 1) |h~ - h| without an n x n matrix: 0 for a shifted grid
        n, alpha = 4097, 0.1
        t = np.linspace(0.0, 1.0, n)
        exact = DiscreteOperator.volterra(0.0, 1.0, n)
        rep = solve_perturbed(DiscreteOperator.volterra(a, b, n), Stabilizer.scalar_alpha(),
                              alpha, exact.apply(t), RegConfig(delta=1e-4, alpha=alpha),
                              x_star=t, A_exact=exact)
        assert rep.delta_realized == pytest.approx((b - a) - 1.0, abs=1e-15)
        assert (rep.bound is not None) == claimed

    def test_exact_data_past_the_float64_range_claims_no_bound(self):
        # A x* overflows: the noise it would show is not a float64
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        x_star = np.array([1.5e308, 1.5e308])
        rep = solve_perturbed(DiscreteOperator.dense(a), Stabilizer.scalar_alpha(), 0.5,
                              np.ones(2), RegConfig(delta=1e-3, alpha=0.5), x_star=x_star,
                              A_exact=DiscreteOperator.dense(a))
        assert rep.delta_realized == math.inf
        assert rep.bound is None

    def test_closed_form_matches_the_dense_norm(self):
        n = 65
        wide = DiscreteOperator.volterra(0.0, 1.3, n)
        narrow = DiscreteOperator.volterra(0.5, 1.5, n)
        dense = np.abs(wide.as_matrix() - narrow.as_matrix()).sum(axis=1).max()
        noise, _ = solve._realized_noise(wide, narrow, np.zeros(n), np.zeros(n), 1.0)
        assert noise == pytest.approx(dense, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           log_delta=st.floats(-8.0, -2.0))
    def test_noise_of_exactly_delta_keeps_the_bound(self, n, seed, log_delta):
        # f - A x* computed in floating point can land a few ulps above delta;
        # the rounding allowance keeps the bound
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        delta = 10.0 ** log_delta
        x_star = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        f = a @ x_star + delta * rng.choice([-1.0, 1.0], n)
        op = DiscreteOperator.dense(a)
        alpha = 10.0 * np.abs(a).sum(axis=1).max()  # q_sup well below 1
        rep = solve_perturbed(op, Stabilizer.scalar_alpha(), alpha, f,
                              RegConfig(delta=delta, alpha=alpha), x_star=x_star, A_exact=op)
        assert rep.delta_realized == pytest.approx(delta, rel=1e-6)
        assert rep.bound is not None


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _conditioned(rng, n, cond):
    """U diag(s) V^T with s from 1 down to 1/cond: 2-norm condition number cond."""
    return (_orthogonal(rng, n) * np.geomspace(1.0, 1.0 / cond, n)) @ _orthogonal(rng, n).T


def _lu_level(m, x):
    return m.shape[0] * np.finfo(float).eps * np.max(np.abs(m).sum(axis=1)) * np.max(np.abs(x))


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record the matrix of every np.linalg.inv and np.linalg.solve call."""
    calls = {"inv": [], "solve": []}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(matrix, *args, _real=real, _name=name):
            calls[_name].append(np.array(matrix))
            return _real(matrix, *args)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneInverse:
    """A certified dense solve takes x, its residual and both norms from one inverse."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 40), log_cond=st.floats(2.0, 15.0), seed=st.integers(0, 2**32 - 1))
    def test_residual_at_lu_level_at_any_condition(self, n, log_cond, seed):
        # f = M x_true is the hard case for an explicit inverse: ||x|| is far
        # below ||M^-1|| ||f||, so its residual can lie far above LU's
        rng = np.random.default_rng(seed)
        cond = 10.0**log_cond
        a = _conditioned(rng, n, cond)
        alpha = 1e-20
        m = a + alpha * np.eye(n)
        f = m @ rng.standard_normal(n)
        with mock.patch.object(solve, "_solve_linear", wraps=solve._solve_linear) as lu:
            rep = solve_perturbed(DiscreteOperator.dense(a), Stabilizer.scalar_alpha(), alpha, f,
                                  RegConfig(delta=0.0, alpha=alpha))
        x = rep.solution
        assert rep.residual_norm <= _lu_level(m, x)
        assert np.max(np.abs(m @ x - f)) <= _lu_level(m, x)
        x_lu = np.linalg.solve(m, f)
        eps = np.finfo(float).eps
        assert np.max(np.abs(x - x_lu)) <= 2.0 * n * cond * eps * np.max(np.abs(x_lu))
        # measured over 500 systems at each of n = 2, 3, 4, 8, 20 and 40: at
        # cond 1e14 the refined residual is at least 11 times LU level, so x
        # comes from LU
        if cond >= 1e14:
            assert lu.call_count == 1

    def test_well_conditioned_solve_inverts_once(self, lapack_calls):
        rng = np.random.default_rng(3)
        n, alpha = 30, 0.1
        a_exact = _conditioned(rng, n, 10.0)
        a_tilde = a_exact + 1e-4 * rng.uniform(-1.0, 1.0, (n, n)) / n
        x_star = rng.standard_normal(n)
        rep = solve_perturbed(DiscreteOperator.dense(a_tilde), Stabilizer.scalar_alpha(), alpha,
                              a_exact @ x_star, RegConfig(delta=1e-4, alpha=alpha),
                              x_star=x_star, A_exact=DiscreteOperator.dense(a_exact))
        assert rep.bound is not None
        assert len(lapack_calls["inv"]) == 1
        np.testing.assert_array_equal(lapack_calls["inv"][0], a_tilde + alpha * np.eye(n))
        # the stabilization gap comes from the same inverse, by refinement
        assert len(lapack_calls["solve"]) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_refinement_keeps_a_moderately_conditioned_solve_off_lu(self, seed, lapack_calls):
        # at cond 1e8 the unrefined residual lies up to 2e4 times above LU
        # level (n = 30); one refinement step brings it below 0.01 times
        rng = np.random.default_rng(seed)
        a = _conditioned(rng, 30, 1e8)
        f = a @ rng.standard_normal(30)
        rep = solve_perturbed(DiscreteOperator.dense(a), Stabilizer.scalar_alpha(), 1e-20, f,
                              RegConfig(delta=0.0, alpha=1e-20))
        assert (len(lapack_calls["inv"]), len(lapack_calls["solve"])) == (1, 0)
        assert rep.residual_norm <= 0.1 * _lu_level(a + 1e-20 * np.eye(30), rep.solution)

    def test_norms_are_c_alpha_estimates_bit_for_bit(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((40, 40))
        A, B = DiscreteOperator.dense(a), Stabilizer.scalar_alpha()
        rep = solve_perturbed(A, B, 0.3, rng.standard_normal(40), RegConfig(delta=1e-3, alpha=0.3))
        assert (rep.c_alpha_est, rep.c_sup) == c_alpha_estimate(A, B, 0.3)

    def test_non_finite_inverse_falls_back_to_lu(self):
        # a subnormal pivot: the inverse overflows, LU still solves
        A = DiscreteOperator.dense(np.diag([1e-320, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 1e-320, np.array([1e-320, 2.0]),
                                  RegConfig(delta=0.0, alpha=1e-320))
        np.testing.assert_array_equal(rep.solution, [0.5, 2.0])
        assert (rep.c_alpha_est, rep.c_sup) == (math.inf, math.inf)

    def test_non_finite_c_sup_claims_no_bound(self):
        # c_sup = inf makes the bound NaN at delta = 0 and infinite above it
        A = DiscreteOperator.dense(np.diag([1e-320, 1.0]))
        for delta in (0.0, 1e-3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = solve_perturbed(A, Stabilizer.scalar_alpha(), 1e-320,
                                      np.array([1e-320, 2.0]),
                                      RegConfig(delta=delta, alpha=1e-320),
                                      x_star=np.array([0.5, 2.0]), A_exact=A)
            assert rep.c_sup == math.inf and rep.gap is not None
            assert rep.bound is None and rep.bound_components is None


class TestRefinedGap:
    """With exact data a certified dense solve takes the gap from its own inverse."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), log_cond=st.floats(0.0, 8.0), log_noise=st.floats(-12.0, -1.0),
           log_alpha=st.floats(-6.0, 0.0), seed=st.integers(0, 2**32 - 1))
    def test_refined_gap_is_the_lu_gap_to_lu_level(self, n, log_cond, log_noise, log_alpha,
                                                   seed):
        rng = np.random.default_rng(seed)
        a_exact = _conditioned(rng, n, 10.0**log_cond)
        noise, alpha = 10.0**log_noise, 10.0**log_alpha
        # ||A~ - A||_inf <= noise
        a_tilde = a_exact + noise * rng.uniform(-1.0, 1.0, (n, n)) / n
        x_star = rng.standard_normal(n)
        A_exact, B = DiscreteOperator.dense(a_exact), Stabilizer.scalar_alpha()
        k = a_exact + alpha * np.eye(n)
        try:
            k_inverse = np.linalg.inv(k)
        except np.linalg.LinAlgError:
            # at cond = 1 an orthogonal draw can hold -alpha in its spectrum:
            # K = A + alpha I is singular, and the reference gap undefined
            assume(False)
        with mock.patch.object(solve, "stabilization_gap", wraps=stabilization_gap) as lu_gap:
            rep = solve_perturbed(DiscreteOperator.dense(a_tilde), B, alpha, a_exact @ x_star,
                                  RegConfig(delta=noise, alpha=alpha), x_star=x_star,
                                  A_exact=A_exact)
        expect = stabilization_gap(A_exact, B, alpha, x_star)
        # both solves leave a residual at LU level, n * eps * ||K||_inf * ||y||_inf
        # for K; their solutions differ by ||K^-1||_inf times that
        cond = np.abs(k).sum(axis=1).max() * np.abs(k_inverse).sum(axis=1).max()
        assert abs(rep.gap - expect) <= 4.0 * n * np.finfo(float).eps * cond * expect
        if lu_gap.call_count:
            assert rep.gap == expect
        if rep.q_sup < 0.01 and cond < 1e6:
            # each step shrinks the error at least 100-fold: no LU solve
            assert lu_gap.call_count == 0

    def test_refinement_that_cannot_converge_falls_back_to_one_lu_solve(self, lapack_calls):
        rng = np.random.default_rng(9)
        n, alpha = 20, 0.1
        a_exact = _conditioned(rng, n, 10.0)
        a_tilde = a_exact + rng.standard_normal((n, n))
        x_star = rng.standard_normal(n)
        A_exact, B = DiscreteOperator.dense(a_exact), Stabilizer.scalar_alpha()
        rep = solve_perturbed(DiscreteOperator.dense(a_tilde), B, alpha, a_exact @ x_star,
                              RegConfig(delta=1e-3, alpha=alpha), x_star=x_star, A_exact=A_exact)
        assert len(lapack_calls["solve"]) == 1
        np.testing.assert_array_equal(lapack_calls["solve"][0], a_exact + alpha * np.eye(n))
        assert rep.gap == stabilization_gap(A_exact, B, alpha, x_star)
        # the refinement's contraction ||M~^-1 (A~ - A)||_inf lies above 1
        contraction = np.linalg.inv(a_tilde + alpha * np.eye(n)) @ (a_tilde - a_exact)
        assert np.abs(contraction).sum(axis=1).max() > 1.0

    def test_running_integral_exact_operator_needs_no_lu_solve(self):
        # dense A~ beside the exact running integral: the refinement applies
        # the integral by its running sum
        n, alpha = 33, 0.05
        A_exact = DiscreteOperator.volterra(0.0, 1.0, n)
        a_tilde = A_exact.as_matrix().copy()
        a_tilde[5, 3] += 1e-6
        t = np.linspace(0.0, 1.0, n)
        with mock.patch.object(solve, "stabilization_gap", wraps=stabilization_gap) as lu_gap:
            rep = solve_perturbed(DiscreteOperator.dense(a_tilde), Stabilizer.scalar_alpha(),
                                  alpha, A_exact.apply(t), RegConfig(delta=1e-5, alpha=alpha),
                                  x_star=t, A_exact=A_exact)
        assert lu_gap.call_count == 0
        assert rep.gap == pytest.approx(
            stabilization_gap(A_exact, Stabilizer.scalar_alpha(), alpha, t), rel=1e-12)


class TestAssemble:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_the_sum_with_an_identity(self, order):
        a = np.asarray(np.random.default_rng(6).standard_normal((17, 17)), order=order)
        a[3, 5] = -0.0
        before = a.copy()
        m = _assemble(DiscreteOperator.dense(a), Stabilizer.scalar_alpha(), 0.37)
        np.testing.assert_array_equal(m, a + 0.37 * np.eye(17))
        np.testing.assert_array_equal(a, before)
        assert not np.shares_memory(m, a)

    def test_running_integral_matrix(self):
        A = DiscreteOperator.volterra(0.0, 2.0, 9)
        np.testing.assert_array_equal(_assemble(A, Stabilizer.scalar_alpha(), 1e-3),
                                      A.as_matrix() + 1e-3 * np.eye(9))


class TestCAlphaEstimate:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_c_sup_is_the_largest_absolute_row_sum_of_the_inverse(self, n, alpha, seed):
        m = np.random.default_rng(seed).standard_normal((n, n))
        _, c_sup = c_alpha_estimate(DiscreteOperator.dense(m), Stabilizer.scalar_alpha(), alpha)
        assert c_sup == np.max(np.abs(np.linalg.inv(m + alpha * np.eye(n))).sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), alpha=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_estimate_never_exceeds_inverse_smallest_singular_value(self, n, alpha, seed):
        # singular values alpha + [0, 1): a nonsymmetric matrix with condition <= 1/alpha + 1
        rng = np.random.default_rng(seed)
        s = alpha + rng.uniform(0.0, 1.0, n)
        m = (_orthogonal(rng, n) * s) @ _orthogonal(rng, n).T
        # the zero stabilizer leaves m itself, at any valid alpha
        zero = Stabilizer.finite_dim([np.zeros(n)], [np.zeros(n)])
        c_est, _ = c_alpha_estimate(DiscreteOperator.dense(m), zero, 1.0)
        sigma_min = np.linalg.svd(m, compute_uv=False)[-1]
        assert c_est <= (1.0 / sigma_min) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("seed", range(5))
    def test_estimate_on_a_spectrum_clustered_at_its_top(self, n, seed):
        # the benchmark's symmetric operator, s from 1 down to 1e-3, plus
        # 0.01 I: the largest singular values of the inverse lie close
        # together, the slow case for power steps. Measured over n = 64-512
        # and these seeds: 0.968-0.993 of the exact value.
        v = _orthogonal(np.random.default_rng(seed), n)
        a = (v * np.geomspace(1.0, 1e-3, n)) @ v.T
        c_est, _ = c_alpha_estimate(DiscreteOperator.dense(a), Stabilizer.scalar_alpha(), 0.01)
        exact = 1.0 / np.linalg.svd(a + 0.01 * np.eye(n), compute_uv=False)[-1]
        assert 0.96 * exact <= c_est <= exact * (1.0 + 1e-12)

    def test_norms_of_a_two_by_two_inverse(self):
        # inverse [[0.25, -0.125], [0, 0.125]]: largest absolute row sum 0.375
        A = DiscreteOperator.dense(np.array([[3.5, 4.0], [0.0, 7.5]]))
        assembled = np.array([[4.0, 4.0], [0.0, 8.0]])
        c_est, c_sup = c_alpha_estimate(A, Stabilizer.scalar_alpha(), 0.5)
        assert c_sup == 0.375
        assert c_est == pytest.approx(1.0 / np.linalg.svd(assembled, compute_uv=False)[-1],
                                      rel=1e-12)

    def test_singular_gives_infinity(self):
        A = DiscreteOperator.dense(np.zeros((2, 2)))
        B = Stabilizer.finite_dim([np.array([1.0, 0.0])], [np.array([1.0, 0.0])])
        assert c_alpha_estimate(A, B, 1.0) == (math.inf, math.inf)

    def test_non_finite_inverse_gives_infinity(self):
        # a subnormal pivot: the inverse overflows without a singular pivot
        A = DiscreteOperator.dense(np.diag([1e-320, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c_alpha_estimate(A, Stabilizer.scalar_alpha(), 1e-320) == (math.inf, math.inf)

    def test_inverse_near_the_float_range_keeps_both_norms(self):
        # entries of 5e299: their squares overflow, the norms themselves do not
        A = DiscreteOperator.dense(np.diag([1e-300, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_est, c_sup = c_alpha_estimate(A, Stabilizer.scalar_alpha(), 1e-300)
        assert c_sup == 1.0 / 2e-300
        assert c_est == pytest.approx(c_sup, rel=1e-15)


class TestStabilizationGap:
    def test_linear_solution_analytic_decay(self):
        # for x*(t) = t - a the bias has the closed form alpha*(1 - exp(-(b-a)/alpha))
        a, b, n = 0.0, 1.0, 513
        A = DiscreteOperator.volterra(a, b, n)
        B = Stabilizer.scalar_alpha()
        t = np.linspace(a, b, n)
        h = t[1] - t[0]
        for alpha in (0.1, 0.05):
            gap = stabilization_gap(A, B, alpha, t - a)
            analytic = alpha * (1.0 - math.exp(-(b - a) / alpha))
            assert abs(gap - analytic) <= 2.0 * h**2 / alpha

    def test_constant_solution_gap_is_one(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 257)
        gap = stabilization_gap(A, Stabilizer.scalar_alpha(), 0.05, np.ones(257))
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_in_solution(self):
        rng = np.random.default_rng(5)
        A = DiscreteOperator.volterra(0.0, 2.0, 65)
        B = Stabilizer.scalar_alpha()
        x = rng.standard_normal(65)
        g1 = stabilization_gap(A, B, 0.07, x)
        g2 = stabilization_gap(A, B, 0.07, -3.7 * x)
        assert g2 == pytest.approx(3.7 * g1, rel=1e-12)

    def test_vanishes_when_stabilizer_annihilates_solution(self):
        A = DiscreteOperator.dense(np.eye(2))
        B = Stabilizer.finite_dim([np.array([1.0, 0.0])], [np.array([1.0, 0.0])])
        assert stabilization_gap(A, B, 1.0, np.array([0.0, 1.0])) == 0.0

    def test_accepts_grid_function(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 33)
        x = GridFunction(0.0, 1.0, np.ones(33))
        gap = stabilization_gap(A, Stabilizer.scalar_alpha(), 0.1, x)
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_alpha(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 33)
        with pytest.raises(ValueError):
            stabilization_gap(A, Stabilizer.scalar_alpha(), -0.1, np.ones(33))

    def test_sweep_matches_pointwise_calls(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 65)
        B = Stabilizer.scalar_alpha()
        t = np.linspace(0.0, 1.0, 65)
        alphas = [0.3, 0.1, 0.03]
        sweep = stabilization_sweep(A, B, alphas, t)
        assert [a for a, _ in sweep] == alphas
        for a, gap in sweep:
            assert gap == stabilization_gap(A, B, a, t)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_dense_sweep_gaps_are_lone_solves_bit_for_bit(self, layout):
        rng = np.random.default_rng(8)
        n = 48
        a = _conditioned(rng, n, 1e3)
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)[::2, ::2]
        x = rng.standard_normal(n)
        alphas = list(np.geomspace(1e-1, 1e-9, 9))
        sweep = stabilization_sweep(DiscreteOperator.dense(a), Stabilizer.scalar_alpha(), alphas, x)
        for a_i, gap in sweep:
            expect = float(np.max(np.abs(np.linalg.solve(a + a_i * np.eye(n), a_i * x))))
            assert gap == expect

    def test_sweep_with_a_finite_rank_stabilizer_solves_once(self, lapack_calls):
        A = DiscreteOperator.dense(np.diag([0.0, 1.0, 2.0, 3.0]))
        e0 = np.eye(4)[0]
        B = Stabilizer.finite_dim([e0], [e0])
        alphas = [0.3, 0.1, 0.01]
        rows = stabilization_sweep(A, B, alphas, np.ones(4))
        assert len(lapack_calls["solve"]) == 1
        assert rows == [(a, 1.0) for a in alphas]
        assert rows == [(a, stabilization_gap(A, B, a, np.ones(4))) for a in alphas]

    def test_sweep_rejects_nonpositive_alpha(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 33)
        with pytest.raises(ValueError):
            stabilization_sweep(A, Stabilizer.scalar_alpha(), [0.1, 0.0], np.ones(33))
