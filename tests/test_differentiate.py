"""Tests for resolvent smoothing and the derivative estimator."""

import math
import warnings

import numpy as np
import pytest

from perturbreg import (
    AlphaTooSmall,
    DiscreteOperator,
    GridFunction,
    NoiseSpec,
    SampleOverflow,
    WindowTooNarrow,
    add_noise,
    regularized_derivative,
    resolvent_apply,
    volterra_apply,
)
from perturbreg.differentiate import Baseline, estimate_baseline
from perturbreg.experiments import example_function, example_interval


def direct_resolvent(g: GridFunction, alpha: float) -> np.ndarray:
    """O(n^2) reference: trapezoid sum with the explicit exponential kernel."""
    t = g.t
    h = g.h
    n = g.n
    out = np.empty(n)
    for i in range(n):
        kernel = np.exp(-(t[i] - t[: i + 1]) / alpha) * g.values[: i + 1]
        if i == 0:
            conv = 0.0
        else:
            conv = h * (kernel.sum() - 0.5 * kernel[0] - 0.5 * kernel[i])
        out[i] = g.values[i] / alpha - conv / alpha**2
    return out


def loop_resolvent(g: GridFunction, alpha: float) -> np.ndarray:
    """Reference: the panel recurrence of resolvent_apply, one sample at a time."""
    vals, h = g.values, g.h
    r = math.exp(-h / alpha)
    conv = np.empty_like(vals)
    conv[0] = 0.0
    for i in range(1, vals.size):
        conv[i] = r * conv[i - 1] + 0.5 * h * (vals[i] + r * vals[i - 1])
    return vals / alpha - conv / alpha**2


class TestVolterraApply:
    def test_starts_at_zero(self):
        g = GridFunction.sample(np.cos, 0.0, 2.0, 101)
        assert volterra_apply(g).values[0] == 0.0

    def test_integrates_cosine(self):
        g = GridFunction.sample(np.cos, 0.0, 2.0, 401)
        integral = volterra_apply(g)
        np.testing.assert_allclose(integral.values, np.sin(integral.t), atol=1e-5)


class TestResolventApply:
    def test_matches_direct_kernel_sum(self):
        # the O(n) recurrence must agree with the explicit quadratic-cost sum
        rng = np.random.default_rng(17)
        g = GridFunction(0.0, 2.0, rng.standard_normal(129))
        for alpha in (0.5, 0.1, 0.05):
            fast = resolvent_apply(g, alpha).values
            slow = direct_resolvent(g, alpha)
            scale = np.max(np.abs(slow))
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * max(scale, 1.0))

    @pytest.mark.parametrize("n", [2, 65, 4097, 50_000])
    def test_matches_python_loop(self, n):
        # the blocked scan sums in another order than the loop: equal up to
        # rounding, relative to the largest output value
        rng = np.random.default_rng(n)
        g = GridFunction(0.0, 3.0, rng.standard_normal(n))
        for alpha in (1.0, 0.05, 10.0 * g.h, g.h, g.h / 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AlphaTooSmall)
                fast = resolvent_apply(g, alpha).values
            slow = loop_resolvent(g, alpha)
            np.testing.assert_allclose(fast, slow, rtol=0,
                                       atol=1e-13 * np.max(np.abs(slow)))

    def test_same_input_same_bits(self):
        rng = np.random.default_rng(50_000)
        g = GridFunction(0.0, 3.0, rng.standard_normal(50_000))
        first = resolvent_apply(g, 0.1).values
        for _ in range(3):
            assert resolvent_apply(g, 0.1).values.tobytes() == first.tobytes()

    def test_constant_input_analytic(self):
        # g = k: output is (k/alpha) * exp(-(t-a)/alpha)
        a, b, n = 0.0, 1.0, 513
        alpha, k = 0.1, 3.0
        g = GridFunction(a, b, np.full(n, k))
        out = resolvent_apply(g, alpha)
        h = g.h
        exact = (k / alpha) * np.exp(-(out.t - a) / alpha)
        assert np.max(np.abs(out.values - exact)) <= 10.0 * h**2 / alpha**2

    def test_roundtrip_inverts_shifted_integration(self):
        # (integration + alpha*I) then resolvent is the identity up to O(h^2)
        alpha = 0.1
        x = GridFunction.sample(np.sin, 0.0, 3.0, 257)
        shifted = volterra_apply(x).values + alpha * x.values
        back = resolvent_apply(x.with_values(shifted), alpha)
        assert np.max(np.abs(back.values - x.values)) <= 400.0 * x.h**2

    def test_roundtrip_is_second_order(self):
        alpha = 0.1
        errs = []
        for n in (257, 513):
            x = GridFunction.sample(np.sin, 0.0, 3.0, n)
            shifted = volterra_apply(x).values + alpha * x.values
            back = resolvent_apply(x.with_values(shifted), alpha)
            errs.append(np.max(np.abs(back.values - x.values)))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_linear_in_input(self):
        rng = np.random.default_rng(23)
        u = GridFunction(0.0, 1.0, rng.standard_normal(65))
        v = GridFunction(0.0, 1.0, rng.standard_normal(65))
        alpha = 0.2
        lhs = resolvent_apply(u.with_values(2.0 * u.values - 3.0 * v.values), alpha).values
        rhs = 2.0 * resolvent_apply(u, alpha).values - 3.0 * resolvent_apply(v, alpha).values
        scale = max(np.max(np.abs(rhs)), 1.0)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)

    def test_warns_when_alpha_under_resolves_grid(self):
        g = GridFunction(0.0, 1.0, np.ones(11))
        with pytest.warns(AlphaTooSmall):
            resolvent_apply(g, 0.01)

    def test_no_warning_when_alpha_resolved(self):
        g = GridFunction(0.0, 1.0, np.ones(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolvent_apply(g, 0.5)

    def test_rejects_nonpositive_alpha(self):
        g = GridFunction(0.0, 1.0, np.ones(11))
        with pytest.raises(ValueError):
            resolvent_apply(g, 0.0)


class TestResolventNormBound:
    def test_dominates_observed_gain(self):
        # unit-sup inputs: discrete output sup stays under the continuous
        # sup-norm bound, up to one grid panel of quadrature slack
        rng = np.random.default_rng(31)
        a, b, n, alpha = 0.0, 3.0, 257, 0.1
        bound = (2.0 - math.exp(-(b - a) / alpha)) / alpha
        h = (b - a) / (n - 1)
        for _ in range(50):
            g = GridFunction(a, b, rng.choice([-1.0, 1.0], n))
            assert resolvent_apply(g, alpha).sup_norm() <= bound * (1.0 + h / alpha)


class TestEstimateBaseline:
    def test_recovers_exact_line(self):
        t = np.linspace(0.0, 1.0, 101)
        y = GridFunction(0.0, 1.0, 2.5 - 0.75 * t)
        base = estimate_baseline(y, 0.2)
        assert base.c == pytest.approx(2.5, abs=1e-12)
        assert base.d == pytest.approx(-0.75, abs=1e-12)
        assert base.source == "auto"
        assert base.window_width == pytest.approx(0.2)

    def test_smooth_data_anchors(self):
        # y(0) = 0 and y'(0) = pi/4 for this benchmark-style signal
        t = np.linspace(0.0, 3.0, 512)
        y = GridFunction(0.0, 3.0, np.sin(np.pi * t / 4.0) / (t**3 + 1.0))
        base = estimate_baseline(y, 0.1)
        assert base.c == pytest.approx(0.0, abs=1e-3)
        assert base.d == pytest.approx(math.pi / 4.0, abs=0.01)

    def test_window_must_hold_two_samples(self):
        y = GridFunction(0.0, 1.0, np.zeros(11))
        with pytest.raises(WindowTooNarrow):
            estimate_baseline(y, 0.05)

    def test_window_exactly_one_spacing_is_enough(self):
        y = GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 11))
        base = estimate_baseline(y, 0.1)
        assert base.d == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_window(self):
        y = GridFunction(0.0, 1.0, np.zeros(11))
        with pytest.raises(ValueError):
            estimate_baseline(y, 0.0)

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            Baseline(0.0, 0.0, source="auto")
        with pytest.raises(ValueError):
            Baseline(0.0, 0.0, source="guessed")


class TestRegularizedDerivative:
    def test_linear_data_gives_exact_constant(self):
        t = np.linspace(0.0, 2.0, 201)
        y = GridFunction(0.0, 2.0, 1.0 + 0.5 * t)
        for alpha in (0.3, 0.1, 0.01):
            res = regularized_derivative(y, alpha)
            np.testing.assert_allclose(res.derivative.values, 0.5, atol=1e-10)

    def test_quadratic_data_closed_form(self):
        # with zero anchors the estimate is t - alpha*(1 - exp(-t/alpha))
        n, alpha = 513, 0.05
        t = np.linspace(0.0, 1.0, n)
        y = GridFunction(0.0, 1.0, t**2 / 2.0)
        res = regularized_derivative(y, alpha, baseline=Baseline(0.0, 0.0))
        exact = t - alpha * (1.0 - np.exp(-t / alpha))
        h = t[1] - t[0]
        assert np.max(np.abs(res.derivative.values - exact)) <= 2.0 * h**2 / alpha**2

    def test_noise_free_bias_is_order_alpha(self):
        # quadratic case: sup bias = alpha * (1 - exp(-(b-a)/alpha)) <= alpha,
        # plus the O(h^2/alpha^2) quadrature term
        n = 513
        t = np.linspace(0.0, 1.0, n)
        h = t[1] - t[0]
        y = GridFunction(0.0, 1.0, t**2 / 2.0)
        for alpha in (0.2, 0.1, 0.05):
            res = regularized_derivative(y, alpha, baseline=Baseline(0.0, 0.0))
            sup_bias = np.max(np.abs(res.derivative.values - t))
            assert sup_bias <= alpha + 2.0 * h**2 / alpha**2

    def test_fixed_zero_baseline_is_linear(self):
        rng = np.random.default_rng(41)
        zero = Baseline(0.0, 0.0)
        u = GridFunction(0.0, 1.0, rng.standard_normal(65))
        v = GridFunction(0.0, 1.0, rng.standard_normal(65))
        du = regularized_derivative(u, 0.1, baseline=zero).derivative.values
        dv = regularized_derivative(v, 0.1, baseline=zero).derivative.values
        mixed = u.with_values(2.0 * u.values + 3.0 * v.values)
        dm = regularized_derivative(mixed, 0.1, baseline=zero).derivative.values
        scale = max(np.max(np.abs(dm)), 1.0)
        np.testing.assert_allclose(dm, 2.0 * du + 3.0 * dv, rtol=0, atol=1e-12 * scale)

    def test_constant_shift_absorbed_by_auto_baseline(self):
        rng = np.random.default_rng(43)
        y = GridFunction(0.0, 1.0, np.sin(np.linspace(0.0, 1.0, 129)) + 0.01 * rng.standard_normal(129))
        d0 = regularized_derivative(y, 0.1).derivative.values
        d1 = regularized_derivative(y.with_values(y.values + 5.0), 0.1).derivative.values
        np.testing.assert_allclose(d1, d0, rtol=0, atol=1e-10)

    def test_linear_trend_shifts_derivative_exactly(self):
        rng = np.random.default_rng(47)
        t = np.linspace(0.0, 1.0, 129)
        y = GridFunction(0.0, 1.0, np.cos(t) + 0.01 * rng.standard_normal(129))
        m = 1.75
        d0 = regularized_derivative(y, 0.1).derivative.values
        d1 = regularized_derivative(y.with_values(y.values + m * t), 0.1).derivative.values
        np.testing.assert_allclose(d1, d0 + m, rtol=0, atol=1e-10)

    def test_derivative_is_smoothed_part_plus_slope(self):
        t = np.linspace(0.0, 2.0, 101)
        y = GridFunction(0.0, 2.0, np.sin(t))
        res = regularized_derivative(y, 0.2)
        np.testing.assert_allclose(
            res.derivative.values, res.x_alpha.values + res.baseline.d, atol=1e-14)

    def test_reports_boundary_layer_and_alpha(self):
        y = GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 33))
        res = regularized_derivative(y, 0.2)
        assert res.alpha == 0.2
        assert res.boundary_layer_width == pytest.approx(0.6)

    def test_explicit_baseline_passes_through(self):
        y = GridFunction(0.0, 1.0, np.linspace(1.0, 2.0, 33))
        base = Baseline(1.0, 1.0)
        res = regularized_derivative(y, 0.1, baseline=base)
        assert res.baseline is base

    def test_window_argument_controls_auto_fit(self):
        t = np.linspace(0.0, 1.0, 101)
        y = GridFunction(0.0, 1.0, t)
        res = regularized_derivative(y, 0.3, window=0.05)
        assert res.baseline.window_width == pytest.approx(0.05)

    def test_rejects_nonpositive_alpha(self):
        y = GridFunction(0.0, 1.0, np.zeros(11))
        with pytest.raises(ValueError):
            regularized_derivative(y, -0.1)

    # One kernel: x_alpha is the running integral's shifted solve, bit for bit.
    @pytest.mark.filterwarnings("ignore::perturbreg.AlphaTooSmall")
    @pytest.mark.parametrize("alpha_of_h", [lambda h: h / 4, lambda h: h, lambda h: 0.1],
                             ids=["h/4", "h", "0.1"])
    @pytest.mark.parametrize("n", [16, 65, 512])
    @pytest.mark.parametrize("example_id", [1, 2])
    def test_x_alpha_is_the_shifted_running_integral_solve(self, example_id, n, alpha_of_h):
        a, b = example_interval(example_id)
        clean = GridFunction.sample(lambda t: example_function(example_id, t)[0], a, b, n)
        y = add_noise(clean, NoiseSpec(0.01, seed=n, distribution="uniform_bounded"))
        alpha = alpha_of_h(y.h)
        res = regularized_derivative(y, alpha)
        detrended = y.values - res.baseline.c - res.baseline.d * (y.t - a)
        expect = DiscreteOperator.volterra(a, b, n).solve_shifted(alpha, detrended)
        assert res.x_alpha.values.tobytes() == expect.tobytes()


class TestFloat64Range:
    def test_interval_wider_than_float64_range_rejected(self):
        # once LAPACK printed DLASCL lines and raised LinAlgError here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wider than the float64 range"):
                regularized_derivative(GridFunction(-1e308, 1e308, [1.0, 2.0, 3.0]), 0.1)

    def test_detrend_overflow_raises(self):
        y = GridFunction(0.0, 1.5, np.array([1e308, -1.7e308, 1.7e308, -1.7e308]))
        with pytest.raises(SampleOverflow, match="^the detrended samples left the float64"):
            regularized_derivative(y, 0.1)

    def test_resolvent_overflow_raises(self):
        g = GridFunction(0.0, 1.0, np.full(5, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlphaTooSmall)
            with pytest.raises(SampleOverflow, match="^the resolvent output left"):
                resolvent_apply(g, 1e-10)

    def test_alpha_whose_square_overflows(self):
        # alpha**2 of a Python float raises OverflowError above ~1.3e154
        g = GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 9))
        assert np.all(np.isfinite(resolvent_apply(g, 1e200).values))
