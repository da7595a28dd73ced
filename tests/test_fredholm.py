"""Tests for null-space stabilizers and the projected solve."""

import warnings

import numpy as np
import pytest

from perturbreg import (
    BiorthogonalityFailed,
    DegenerateGram,
    DiscreteOperator,
    GridFunction,
    SingularSystem,
    build_stabilizer,
    nullspace_basis,
    solve_fredholm_regularized,
)
from perturbreg.fredholm import project_rhs
from perturbreg.solve import c_alpha_estimate


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestNullspaceBasis:
    def test_single_defect_direction(self):
        phis, psis = nullspace_basis(np.diag([0.0, 1.0, 2.0]))
        assert phis.shape == psis.shape == (1, 3)
        assert abs(phis[0, 0]) == pytest.approx(1.0)
        assert abs(psis[0, 0]) == pytest.approx(1.0)

    def test_full_rank_matrix_has_empty_basis(self):
        phis, psis = nullspace_basis(np.diag([3.0, 1.0, 2.0]))
        assert phis.shape == (0, 3)
        assert psis.shape == (0, 3)

    def test_two_defect_directions(self):
        phis, psis = nullspace_basis(np.diag([0.0, 0.0, 1.0]))
        assert phis.shape == (2, 3)
        np.testing.assert_allclose(phis @ phis.T, np.eye(2), atol=1e-12)

    def test_left_and_right_spaces_differ(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        phis, psis = nullspace_basis(m)
        np.testing.assert_allclose(np.abs(phis), [[1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(psis), [[0.0, 1.0]], atol=1e-12)

    def test_annihilation(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        m[:, 2] = m[:, 0] + m[:, 1]  # force a rank defect
        phis, psis = nullspace_basis(m)
        assert phis.shape[0] == 1
        np.testing.assert_allclose(m @ phis[0], np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(m.T @ psis[0], np.zeros(5), atol=1e-12)

    def test_relative_threshold(self):
        phis, _ = nullspace_basis(np.diag([1e-14, 1.0]))
        assert phis.shape[0] == 1


class TestBuildStabilizer:
    def test_defaults_from_null_vectors(self):
        basis = build_stabilizer([e(0, 3)], [e(0, 3)])
        np.testing.assert_array_equal(basis.gammas, basis.phis)
        np.testing.assert_allclose(basis.zs, [e(0, 3)], atol=1e-14)
        assert basis.rank == 1
        assert basis.stabilizer.rank == 1

    def test_default_zs_are_biorthogonal(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        psis = [q[:, 0], q[:, 1]]
        basis = build_stabilizer([e(0, 6), e(1, 6)], psis)
        np.testing.assert_allclose(basis.zs @ basis.psis.T, np.eye(2), atol=1e-12)

    def test_default_zs_handle_unnormalized_psis(self):
        basis = build_stabilizer([e(0, 4)], [2.0 * e(0, 4)])
        np.testing.assert_allclose(basis.zs, [0.5 * e(0, 4)], atol=1e-14)

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(DegenerateGram):
            build_stabilizer([e(0, 3)], [e(0, 3)], gammas=[e(1, 3)])

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_pairing_check_ignores_the_scale_of_the_rows(self, scale):
        phis = [scale * e(0, 3) + 1e-3 * scale * e(2, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = build_stabilizer(phis, [e(0, 3)])
        # the stored rows are the ones given
        np.testing.assert_array_equal(basis.gammas, phis)
        np.testing.assert_array_equal(basis.zs, [e(0, 3)])

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 3.0])
    def test_default_zs_at_any_scale_of_the_psis(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = build_stabilizer([e(0, 3)], [scale * e(0, 3)])
        np.testing.assert_allclose(basis.zs, [e(0, 3) / scale], rtol=1e-15)

    def test_default_zs_out_of_range_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BiorthogonalityFailed, match="too small"):
                build_stabilizer([e(0, 3)], [5e-324 * e(0, 3)])

    @pytest.mark.parametrize("gammas", [[1e300 * e(1, 3)], [np.zeros(3)]])
    def test_degenerate_pairing_rejected_at_any_scale(self, gammas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGram):
                build_stabilizer([1e300 * e(0, 3)], [e(0, 3)], gammas=gammas)

    def test_supplied_zs_must_be_biorthogonal(self):
        with pytest.raises(BiorthogonalityFailed):
            build_stabilizer([e(0, 3)], [e(0, 3)], zs=[e(1, 3)])

    def test_dependent_psis_rejected(self):
        with pytest.raises(BiorthogonalityFailed):
            build_stabilizer([e(0, 3), e(1, 3)], [e(0, 3), e(0, 3)])

    @pytest.mark.parametrize("name", ["phis", "psis", "gammas", "zs"])
    def test_non_finite_vectors_rejected(self, name):
        vectors = {"phis": [e(0, 3)], "psis": [e(0, 3)], "gammas": [e(0, 3)], "zs": [e(0, 3)]}
        vectors[name] = [np.array([1.0, np.nan, 0.0])]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            build_stabilizer(**vectors)

    def test_grid_functions_and_column_vectors_accepted(self):
        basis = build_stabilizer([e(0, 3)], [e(2, 3)], gammas=[e(0, 3) + e(1, 3)])
        as_grid = build_stabilizer([GridFunction(0.0, 1.0, e(0, 3))], [e(2, 3).reshape(3, 1)],
                                   gammas=[GridFunction(0.0, 1.0, e(0, 3) + e(1, 3))])
        for field in ("phis", "psis", "gammas", "zs"):
            np.testing.assert_array_equal(getattr(as_grid, field), getattr(basis, field))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            build_stabilizer([e(0, 3)], [e(0, 4)])
        with pytest.raises(ValueError):
            build_stabilizer([e(0, 3)], [e(0, 3)], gammas=[e(0, 3), e(1, 3)])


class TestProjectRhs:
    def test_removes_cokernel_component(self):
        basis = build_stabilizer([e(0, 2)], [e(0, 2)])
        np.testing.assert_allclose(project_rhs(np.array([3.0, 4.0]), basis), [0.0, 4.0])

    def test_projected_vector_pairs_to_zero(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        basis = build_stabilizer([e(0, 7), e(1, 7)], [q[:, 0], q[:, 1]])
        f = rng.standard_normal(7)
        np.testing.assert_allclose(basis.psis @ project_rhs(f, basis),
                                   np.zeros(2), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        basis = build_stabilizer([e(0, 5)], [q[:, 0]])
        f = rng.standard_normal(5)
        once = project_rhs(f, basis)
        np.testing.assert_allclose(project_rhs(once, basis), once, atol=1e-13)


class TestSolveFredholmRegularized:
    def setup_method(self):
        self.A = DiscreteOperator.dense(np.diag([0.0, 1.0, 2.0]))
        phis, psis = nullspace_basis(self.A.as_matrix())
        self.basis = build_stabilizer(phis, psis)

    def test_rank_deficient_diagonal(self):
        rep = solve_fredholm_regularized(self.A, self.basis, np.array([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(rep.solution, [0.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(rep.selection, [0.0], atol=1e-10)
        assert rep.residual_norm <= 1e-12

    def test_cokernel_noise_fully_rejected(self):
        clean = solve_fredholm_regularized(self.A, self.basis, np.array([0.0, 1.0, 1.0]))
        noisy = solve_fredholm_regularized(self.A, self.basis, np.array([0.3, 1.0, 1.0]))
        np.testing.assert_allclose(noisy.solution, clean.solution, atol=1e-14)

    def test_error_decays_linearly_with_noise(self):
        rng = np.random.default_rng(21)
        e_dir = rng.standard_normal((3, 3))
        e_dir /= np.linalg.norm(e_dir, 2)
        f_dir = rng.standard_normal(3)
        f_dir /= np.linalg.norm(f_dir)
        exact = np.array([0.0, 1.0, 0.5])
        rates = []
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            A_t = DiscreteOperator.dense(self.A.as_matrix() + delta * e_dir)
            rep = solve_fredholm_regularized(
                A_t, self.basis, np.array([0.0, 1.0, 1.0]) + delta * f_dir, delta=delta)
            err = np.max(np.abs(rep.solution - exact))
            rates.append(err / delta)
            assert np.max(np.abs(rep.selection)) <= 5.0 * delta
        assert max(rates) <= 1.5 * min(rates)

    def test_margin_scales_with_delta(self):
        rep = solve_fredholm_regularized(self.A, self.basis,
                                         np.array([0.0, 1.0, 1.0]), delta=0.1)
        assert rep.c_alpha_est > 0.0
        assert rep.q_est == pytest.approx(0.1 * rep.c_alpha_est)

    def test_c_alpha_is_the_shared_estimate(self):
        rep = solve_fredholm_regularized(self.A, self.basis, np.array([0.0, 1.0, 1.0]))
        assert rep.c_alpha_est == c_alpha_estimate(self.A, self.basis.stabilizer, 1.0)

    def test_observed_error_needs_x_star(self):
        f = np.array([0.0, 1.0, 1.0])
        assert solve_fredholm_regularized(self.A, self.basis, f).observed_error is None
        x_star = np.array([0.0, 1.0, 0.4])
        rep = solve_fredholm_regularized(self.A, self.basis, f, x_star=x_star)
        assert rep.observed_error == np.max(np.abs(rep.solution - x_star))
        assert rep.gap is None and rep.bound is None

    def test_unshifted_defect_raises(self):
        # stabilizer built for the wrong direction leaves the system singular
        wrong = build_stabilizer([e(1, 3)], [e(1, 3)])
        with pytest.raises(SingularSystem):
            solve_fredholm_regularized(self.A, wrong, np.array([0.0, 1.0, 1.0]))
