"""Tests for stabilized solves, margins, and the error certificate."""

import math
import warnings

import numpy as np
import pytest

from perturbreg import (
    DegenerateDelta,
    DiscreteOperator,
    GridFunction,
    QOutOfRange,
    RegConfig,
    SingularSystem,
    Stabilizer,
    operators,
    solve_perturbed,
    stabilization_gap,
    stabilization_sweep,
)
from perturbreg.solve import (
    PowerDelta,
    SqrtDelta,
    c_alpha_estimate,
    coordinate_alpha,
    error_bound,
    invertibility_margin,
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
    def test_explicit_alpha(self):
        cfg = RegConfig(delta=0.01, alpha=0.3)
        assert cfg.resolve_alpha() == 0.3

    def test_rule_resolution(self):
        cfg = RegConfig(delta=0.04, rule=SqrtDelta())
        assert cfg.resolve_alpha() == pytest.approx(0.2)

    def test_alpha_and_rule_are_exclusive(self):
        with pytest.raises(ValueError):
            RegConfig(delta=0.1, alpha=0.1, rule=SqrtDelta())
        with pytest.raises(ValueError):
            RegConfig(delta=0.1)

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


class TestMarginAndBound:
    def test_margin_is_product(self):
        assert invertibility_margin(0.1, 20.0) == pytest.approx(2.0)

    def test_margin_rejects_negative(self):
        with pytest.raises(ValueError):
            invertibility_margin(-0.1, 1.0)

    def test_bound_frozen_value(self):
        # 0.1 + (0.01 * 20 / 0.8) * (1 + 1 + 0.1) = 0.625, by hand
        assert error_bound(0.1, 0.01, 20.0, 0.2, 1.0) == pytest.approx(0.625, abs=1e-15)

    def test_bound_at_zero_q(self):
        assert error_bound(0.0, 0.1, 2.0, 0.0, 1.0) == pytest.approx(0.4)

    def test_bound_grows_with_q(self):
        b1 = error_bound(0.1, 0.01, 20.0, 0.1, 1.0)
        b2 = error_bound(0.1, 0.01, 20.0, 0.9, 1.0)
        assert b2 > b1

    def test_q_out_of_range(self):
        with pytest.raises(QOutOfRange):
            error_bound(0.1, 0.01, 20.0, 1.0, 1.0)
        with pytest.raises(QOutOfRange):
            error_bound(0.1, 0.01, 20.0, -0.1, 1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            error_bound(-0.1, 0.01, 20.0, 0.2, 1.0)


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
        assert full.bound == pytest.approx(
            error_bound(full.gap, cfg.delta, full.c_alpha_est, full.q_est, 1.0))
        gap, amp, x_norm = full.bound_components
        assert full.bound == pytest.approx(gap + amp * (1.0 + x_norm + gap))

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
        assert c_alpha_estimate(A, Stabilizer.scalar_alpha(), alpha) == 2.0 / alpha

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


class TestCAlphaEstimate:
    def test_dense_is_inverse_smallest_singular_value(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12))
        A = DiscreteOperator.dense(m)
        sigma = np.linalg.svd(m + 0.2 * np.eye(12), compute_uv=False)[-1]
        assert c_alpha_estimate(A, Stabilizer.scalar_alpha(), 0.2) == 1.0 / sigma

    def test_assembled_matrix_reused(self):
        A = DiscreteOperator.dense(np.diag([1.0, 2.0]))
        assembled = np.diag([4.0, 8.0])
        assert c_alpha_estimate(A, Stabilizer.scalar_alpha(), 0.5, assembled) == 0.25

    def test_singular_gives_infinity(self):
        A = DiscreteOperator.dense(np.zeros((2, 2)))
        B = Stabilizer.finite_dim([np.array([1.0, 0.0])], [np.array([1.0, 0.0])])
        assert c_alpha_estimate(A, B, 1.0) == math.inf


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

    def test_sweep_rejects_nonpositive_alpha(self):
        A = DiscreteOperator.volterra(0.0, 1.0, 33)
        with pytest.raises(ValueError):
            stabilization_sweep(A, Stabilizer.scalar_alpha(), [0.1, 0.0], np.ones(33))
