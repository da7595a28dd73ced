"""Tests for the discrete integration operator and stabilizers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from perturbreg import (DiscreteOperator, GridFunction, Stabilizer, build_stabilizer,
                        nullspace_basis)
from perturbreg.operators import (
    cumulative_trapezoid_matrix,
    first_order_scan,
    running_trapezoid,
)


def loop_scan(u, r):
    """Reference: the recurrence w_i = r * w_{i-1} + u_i, one sample at a time."""
    w = np.empty(len(u))
    acc = 0.0
    for i, value in enumerate(u):
        acc = r * acc + value
        w[i] = acc
    return w


class TestCumulativeMatrix:
    def test_first_row_vanishes(self):
        m = cumulative_trapezoid_matrix(6, 0.2)
        np.testing.assert_array_equal(m[0], np.zeros(6))

    def test_matches_scipy_on_random_data(self):
        # independent oracle: scipy's running trapezoid rule
        rng = np.random.default_rng(7)
        x = rng.standard_normal(33)
        h = 3.0 / 32
        m = cumulative_trapezoid_matrix(33, h)
        expect = cumulative_trapezoid(x, dx=h, initial=0.0)
        np.testing.assert_allclose(m @ x, expect, rtol=0, atol=1e-14)

    def test_exact_on_constants(self):
        # trapezoid rule integrates constants exactly: integral of 1 is t - a
        n, h = 9, 0.5
        m = cumulative_trapezoid_matrix(n, h)
        np.testing.assert_allclose(m @ np.ones(n), h * np.arange(n), atol=1e-14)

    def test_exact_on_linear_integrand(self):
        a, b, n = 1.0, 3.0, 21
        t = np.linspace(a, b, n)
        m = cumulative_trapezoid_matrix(n, t[1] - t[0])
        np.testing.assert_allclose(m @ t, (t**2 - a**2) / 2, atol=1e-13)


class TestRunningTrapezoid:
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 1000, 100_001])
    def test_bit_identical_to_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        h = 2.7 / (n - 1)
        expect = cumulative_trapezoid(y, dx=h, initial=0.0)
        got = running_trapezoid(y, h)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), expect.view(np.int64))

    def test_volterra_apply_is_the_helper(self):
        op = DiscreteOperator.volterra(0.0, 2.0, 513)
        x = np.random.default_rng(4).standard_normal(513)
        np.testing.assert_array_equal(op.apply(x), running_trapezoid(x, op.h))


class TestFirstOrderScan:
    # Sizes cross the 64-sample block boundary and the first recursion level
    # (64 blocks of 64); r covers the endpoints of (-1, 1] the kernel serves.
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.999999, -0.3, -0.999])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 64 * 64, 64 * 64 + 1])
    def test_matches_python_loop(self, r, n):
        u = np.random.default_rng(n).standard_normal(n)
        expect = loop_scan(u, r)
        got = first_order_scan(u, r)
        assert got.shape == (n,)
        scale = np.max(np.abs(expect))
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13 * scale)

    def test_r_one_is_cumulative_sum(self):
        u = np.random.default_rng(2).standard_normal(5000)
        expect = np.cumsum(u)
        np.testing.assert_allclose(first_order_scan(u, 1.0), expect, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expect)))

    def test_empty_input(self):
        assert first_order_scan(np.zeros(0), 0.5).shape == (0,)

    # Sizes cover the block edges and the carry recursion (4097 > 64 * 64).
    # The shifted running-integral solve scans a stack through this kernel,
    # so its rows must keep their lone bits too (it needs n >= 2).
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4097])
    @pytest.mark.parametrize("rows", [1, 2, 21, 63])
    def test_stack_rows_keep_their_lone_bits(self, rows, n):
        u = np.random.default_rng(rows * n).standard_normal((rows, n))
        for r in (0.3, 0.999999, -0.7):
            got = first_order_scan(u, r)
            assert got.shape == (rows, n)
            lone = np.array([first_order_scan(row, r) for row in u])
            np.testing.assert_array_equal(got.view(np.uint64), lone.view(np.uint64))
        if n < 2:
            return
        op = DiscreteOperator.volterra(-1.0, 2.0, n)
        for alpha in (0.1, op.h, op.h / 4, 1e-6):
            got = op.solve_shifted(alpha, u)
            assert got.shape == (rows, n)
            lone = np.array([op.solve_shifted(alpha, row) for row in u])
            np.testing.assert_array_equal(got.view(np.uint64), lone.view(np.uint64))


class TestSolveShifted:
    @pytest.mark.parametrize("n", [2, 64, 1024])
    @pytest.mark.parametrize("alpha_of_h", [lambda h: 0.1, lambda h: h, lambda h: h / 4,
                                            lambda h: 1e-6],
                             ids=["0.1", "h", "h/4", "1e-6"])
    def test_matches_dense_solve(self, n, alpha_of_h):
        op = DiscreteOperator.volterra(0.0, 1.0, n)
        alpha = alpha_of_h(op.h)
        f = np.random.default_rng(n).standard_normal(n)
        m = cumulative_trapezoid_matrix(n, op.h) + alpha * np.eye(n)
        expect = np.linalg.solve(m, f)
        x = op.solve_shifted(alpha, f)
        np.testing.assert_allclose(x, expect, rtol=0, atol=1e-12 * np.max(np.abs(expect)))
        # backward stable: the residual sits at rounding level of ||M|| ||x||
        eps = np.finfo(float).eps
        scale = np.max(np.abs(m).sum(1)) * np.max(np.abs(x)) + np.max(np.abs(f))
        assert np.max(np.abs(m @ x - f)) <= n * eps * scale

    def test_inverts_shifted_apply(self):
        op = DiscreteOperator.volterra(-1.0, 2.0, 777)
        x = np.random.default_rng(8).standard_normal(777)
        alpha = 0.03
        back = op.solve_shifted(alpha, op.apply(x) + alpha * x)
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-12)

    def test_needs_volterra_operator(self):
        with pytest.raises(ValueError):
            DiscreteOperator.dense(np.eye(3)).solve_shifted(0.1, np.ones(3))

    def test_validates_alpha_and_size(self):
        op = DiscreteOperator.volterra(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            op.solve_shifted(0.0, np.ones(8))
        with pytest.raises(ValueError):
            op.solve_shifted(0.1, np.ones(9))


class TestShiftedInverseNorm:
    """The closed-form sup norm of (V + alpha I)^-1 against the dense inverse."""

    @staticmethod
    def row_sums(op, alpha):
        m = cumulative_trapezoid_matrix(op.n, op.h) + alpha * np.eye(op.n)
        return np.abs(np.linalg.inv(m)).sum(axis=1)

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([2, 3, 16, 257]) | st.integers(2, 300),
           length=st.sampled_from([1.0, 3.0]), log2_alpha_of_h=st.floats(-8.0, 10.0))
    def test_matches_the_dense_inverse(self, n, length, log2_alpha_of_h):
        op = DiscreteOperator.volterra(0.0, length, n)
        alpha = op.h * 2.0**log2_alpha_of_h
        rows = self.row_sums(op, alpha)
        assert op.shifted_inverse_norm(alpha) == pytest.approx(rows.max(), rel=1e-12)
        # the row sums the closed form rests on: all 1/alpha up to h/2, and
        # growing with the row above it
        if alpha <= 0.5 * op.h:
            np.testing.assert_allclose(rows, 1.0 / alpha, rtol=1e-12)
        else:
            assert rows[0] == pytest.approx(1.0 / alpha, rel=1e-12)
            assert np.all(np.diff(rows) >= -1e-12 * rows[1:])

    @pytest.mark.parametrize("alpha_of_h, scaled", [(0.25, 1.0), (0.5, 1.0), (4.0, 16 / 9)])
    def test_scaled_norm_lies_between_one_and_two(self, alpha_of_h, scaled):
        # alpha * norm is 1 up to alpha = h/2, and 2 alpha / (alpha + h/2) far
        # from the left end: 16/9 at alpha = 4h
        op = DiscreteOperator.volterra(0.0, 1.0, 4097)
        alpha = alpha_of_h * op.h
        assert alpha * op.shifted_inverse_norm(alpha) == pytest.approx(scaled, rel=1e-12)

    def test_needs_volterra_operator_and_positive_alpha(self):
        with pytest.raises(ValueError):
            DiscreteOperator.dense(np.eye(2)).shifted_inverse_norm(0.1)
        with pytest.raises(ValueError):
            DiscreteOperator.volterra(0.0, 1.0, 5).shifted_inverse_norm(0.0)


class TestDiscreteOperator:
    def test_volterra_apply_matches_materialized_matrix(self):
        op = DiscreteOperator.volterra(0.0, 2.0, 17)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(17)
        np.testing.assert_allclose(op.apply(x), op.as_matrix() @ x, atol=1e-14)

    def test_volterra_properties(self):
        op = DiscreteOperator.volterra(0.0, 2.0, 5)
        assert op.is_volterra
        assert op.size == 5
        assert op.h == pytest.approx(0.5)

    def test_dense_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            DiscreteOperator.dense(np.zeros((2, 3)))

    def test_dense_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiscreteOperator.dense(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_dense_has_no_grid_spacing(self):
        op = DiscreteOperator.dense(np.eye(2))
        with pytest.raises(AttributeError):
            op.h

    def test_volterra_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            DiscreteOperator.volterra(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            DiscreteOperator.volterra(1.0, 1.0, 8)

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))])
    def test_volterra_rejects_interval_wider_than_float64_range(self, a, b):
        # its shifted solve once returned [10, nan, nan] for a vector of ones
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wider than the float64 range"):
                DiscreteOperator.volterra(a, b, 3).solve_shifted(0.1, np.ones(3))

    @pytest.mark.parametrize("a, b", [(0, 10**400), (-(10**400), 0.0)], ids=["b", "a"])
    def test_volterra_rejects_python_int_endpoint_beyond_float64_range(self, a, b):
        with pytest.raises(ValueError, match="wider than the float64 range"):
            DiscreteOperator.volterra(a, b, 3)

    def test_volterra_rejects_step_below_the_float_spacing(self):
        with pytest.raises(ValueError, match="below the float64 spacing"):
            DiscreteOperator.volterra(1e16, 1e16 + 8, 1000)
        with pytest.raises(ValueError, match="below the float64 spacing"):
            DiscreteOperator.volterra(0.5, 1.0, 2**52 + 2)

    def test_volterra_accepts_step_at_the_float_spacing(self):
        # the check reads only a, b and n: no samples are made. Floats lie
        # 2**-53 apart below 1, so a step just under 2**-52 is two of them
        assert DiscreteOperator.volterra(0.5, 1.0, 2**51 + 1).h == 2.0**-52
        assert DiscreteOperator.volterra(0.5, 1.0, 2**51 + 2).h < 2.0**-52
        assert DiscreteOperator.volterra(0.5, 1.0, 2**52 + 1).h == 2.0**-53

    def test_apply_checks_operand_size(self):
        op = DiscreteOperator.dense(np.eye(3))
        with pytest.raises(ValueError):
            op.apply(np.zeros(4))


class TestScalarStabilizer:
    def test_apply_scales_identity(self):
        s = Stabilizer.scalar_alpha()
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(s.apply(0.25, x), 0.25 * x)

    def test_materialize(self):
        s = Stabilizer.scalar_alpha()
        np.testing.assert_allclose(s.materialize(0.1, 3), 0.1 * np.eye(3))

    def test_shape_flags(self):
        s = Stabilizer.scalar_alpha()
        assert s.is_scalar
        assert s.rank == 0


class TestFiniteDimStabilizer:
    def test_apply_matches_materialized(self):
        rng = np.random.default_rng(11)
        gammas = [rng.standard_normal(6) for _ in range(2)]
        zs = [rng.standard_normal(6) for _ in range(2)]
        s = Stabilizer.finite_dim(gammas, zs)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(s.apply(1.0, x), s.materialize(1.0, 6) @ x, atol=1e-13)

    def test_alpha_plays_no_role(self):
        rng = np.random.default_rng(12)
        s = Stabilizer.finite_dim([rng.standard_normal(4)], [rng.standard_normal(4)])
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(s.apply(0.5, x), s.apply(100.0, x))

    def test_rank_one_action_is_outer_product(self):
        gamma = np.array([1.0, 0.0, 2.0])
        z = np.array([0.0, 1.0, 0.0])
        s = Stabilizer.finite_dim([gamma], [z])
        x = np.array([3.0, 5.0, 7.0])
        # <x, gamma> = 3 + 14 = 17, landed on z
        np.testing.assert_allclose(s.apply(1.0, x), np.array([0.0, 17.0, 0.0]))
        assert s.rank == 1
        assert not s.is_scalar

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Stabilizer.finite_dim([np.ones(3)], [np.ones(3), np.ones(3)])

    def test_non_finite_vectors_rejected(self):
        bad = np.array([1.0, np.inf, 0.0])
        with pytest.raises(ValueError, match="^gammas must be finite$"):
            Stabilizer.finite_dim([bad], [np.ones(3)])
        with pytest.raises(ValueError, match="^zs must be finite$"):
            Stabilizer.finite_dim([np.ones(3)], [bad])

    def test_column_vectors_are_rejected(self):
        gamma, z = np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=r"^gammas\[0\] must be one-dimensional"):
            Stabilizer.finite_dim([gamma.reshape(3, 1)], [z])
        with pytest.raises(ValueError, match=r"^zs\[0\] must be one-dimensional"):
            Stabilizer.finite_dim([gamma], [z.reshape(3, 1)])


# Every list of stabilizer vectors, as a call given that list beside valid
# lists of length-3 vectors.
_E0 = np.eye(3)[0]
STACK_SITES = {
    **{f"build_stabilizer {name}": (name, lambda vs, name=name: build_stabilizer(
        **{"phis": [_E0], "psis": [_E0], "gammas": [_E0], "zs": [_E0], name: vs}))
       for name in ("phis", "psis", "gammas", "zs")},
    **{f"finite_dim {name}": (name, lambda vs, name=name: Stabilizer.finite_dim(
        **{"gammas": [_E0], "zs": [_E0], name: vs}))
       for name in ("gammas", "zs")},
}


class TestStackRule:
    """Every list of stabilizer vectors holds at least one, each by the vector
    rule and of the size of the first, in one wording; none is raveled."""

    @pytest.mark.parametrize("site", STACK_SITES)
    @pytest.mark.parametrize("vectors, message", [
        ([], "{} must hold at least one vector"),
        ([np.ones(3), np.ones(4)], "{}[1] size 4 does not match {}[0] size 3"),
        ([np.ones((3, 1))], "{}[0] must be one-dimensional, got shape (3, 1)"),
        ([np.ones((2, 2))], "{}[0] must be one-dimensional, got shape (2, 2)"),
        (np.ones(3), "{}[0] must be one-dimensional, got shape ()"),
    ], ids=["empty", "ragged", "column", "matrix", "bare vector"])
    def test_bad_stack_raises_one_error(self, site, vectors, message):
        name, call = STACK_SITES[site]
        with pytest.raises(ValueError) as raised:
            call(vectors)
        assert str(raised.value) == message.format(name, name)


class TestMatrixRule:
    """A matrix must be square, nonempty and finite, in one wording, for an
    operator and for its null spaces."""

    @pytest.mark.parametrize("build", [DiscreteOperator.dense, nullspace_basis],
                             ids=["dense", "nullspace_basis"])
    @pytest.mark.parametrize("matrix, message", [
        (np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
        (np.ones(3), "matrix must be square, got shape (3,)"),
        (np.zeros((0, 0)), "matrix must not be empty, got shape (0, 0)"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix entries must be finite"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "matrix entries must be finite"),
    ], ids=["wide", "vector", "empty", "nan", "inf"])
    def test_bad_matrix_raises_one_error(self, build, matrix, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                build(matrix)
        assert str(raised.value) == message

    def test_materialize_checks_size(self):
        s = Stabilizer.finite_dim([np.ones(4)], [np.ones(4)])
        with pytest.raises(ValueError):
            s.materialize(1.0, 7)
