"""Tests for the benchmark functions, noise model, and study runner."""

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
    UnknownExample,
    add_noise,
    convergence_study,
    run_experiment,
)
from perturbreg import experiments
from perturbreg.differentiate import estimate_baseline
from perturbreg.experiments import _median, example_function, example_interval


class TestExampleFunctions:
    def test_first_example_left_endpoint(self):
        y, dy = example_function(1, 0.0)
        assert y == pytest.approx(0.0, abs=1e-15)
        assert dy == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_second_example_left_endpoint(self):
        y, dy = example_function(2, 0.0)
        assert y == pytest.approx(1.0, abs=1e-15)
        assert dy == pytest.approx(0.0, abs=1e-15)

    def test_first_example_interior_point(self):
        # at t = 2: y = sin(pi/2)/9 = 1/9, dy = 0 - 12/81 = -4/27
        y, dy = example_function(1, 2.0)
        assert y == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert dy == pytest.approx(-4.0 / 27.0, abs=1e-15)

    def test_second_example_interior_point(self):
        # frozen from the closed forms, checked against central differences
        y, dy = example_function(2, 2.0)
        assert y == pytest.approx(0.01295111245998798, abs=1e-15)
        assert dy == pytest.approx(-0.056890339809966106, abs=1e-15)

    def test_derivative_consistent_with_finite_differences(self):
        for ex_id in (1, 2):
            a, b = example_interval(ex_id)
            t = np.linspace(a + 0.1, b - 0.1, 17)
            eps = 1e-6
            y_plus, _ = example_function(ex_id, t + eps)
            y_minus, _ = example_function(ex_id, t - eps)
            _, dy = example_function(ex_id, t)
            np.testing.assert_allclose((y_plus - y_minus) / (2 * eps), dy, atol=1e-8)

    def test_intervals(self):
        assert example_interval(1) == (0.0, 3.0)
        assert example_interval(2) == (0.0, 5.0)

    def test_unknown_id(self):
        with pytest.raises(UnknownExample):
            example_function(3, 0.0)
        with pytest.raises(UnknownExample):
            example_interval(0)


class TestNoise:
    def test_zero_delta_is_identity(self):
        y = GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 50))
        out = add_noise(y, NoiseSpec(delta=0.0, seed=1))
        np.testing.assert_array_equal(out.values, y.values)

    def test_same_seed_same_draw(self):
        y = GridFunction(0.0, 1.0, np.zeros(100))
        a = add_noise(y, NoiseSpec(delta=0.1, seed=7))
        b = add_noise(y, NoiseSpec(delta=0.1, seed=7))
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        y = GridFunction(0.0, 1.0, np.zeros(100))
        a = add_noise(y, NoiseSpec(delta=0.1, seed=7))
        b = add_noise(y, NoiseSpec(delta=0.1, seed=8))
        assert np.max(np.abs(a.values - b.values)) > 0.0

    def test_delta_only_scales_the_fixed_pattern(self):
        y = GridFunction(0.0, 1.0, np.zeros(64))
        big = add_noise(y, NoiseSpec(delta=0.1, seed=5))
        small = add_noise(y, NoiseSpec(delta=0.01, seed=5))
        np.testing.assert_allclose(small.values, 0.1 * big.values, rtol=1e-15, atol=0)

    def test_sample_statistics(self):
        # n = 1e5 unit draws scaled by 0.1: mean within +-0.002, std within 0.1 +- 0.002
        y = GridFunction(0.0, 1.0, np.zeros(100_000))
        out = add_noise(y, NoiseSpec(delta=0.1, seed=123))
        assert abs(out.values.mean()) <= 0.002
        assert abs(out.values.std() - 0.1) <= 0.002

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(delta=-0.1, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(delta=0.1, seed=-1)
        with pytest.raises(ValueError):
            NoiseSpec(delta=0.1, seed=0, distribution="uniform")

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(delta=delta, seed=0)

    def test_bounded_draw_meets_sup_norm_hypothesis(self):
        # n = 1e5 uniform draws on [-delta, delta): sup norm <= delta and
        # reached to within 0.1%, std within delta/sqrt(3) +- 1%
        y = GridFunction(0.0, 1.0, np.zeros(100_000))
        out = add_noise(y, NoiseSpec(delta=0.1, seed=123, distribution="uniform_bounded"))
        sup = np.max(np.abs(out.values))
        assert 0.0999 <= sup <= 0.1
        assert abs(out.values.std() - 0.1 / math.sqrt(3.0)) <= 0.01 * 0.1 / math.sqrt(3.0)

    def test_bounded_delta_only_scales_the_fixed_pattern(self):
        y = GridFunction(0.0, 1.0, np.zeros(64))
        big = add_noise(y, NoiseSpec(delta=0.1, seed=5, distribution="uniform_bounded"))
        small = add_noise(y, NoiseSpec(delta=0.01, seed=5, distribution="uniform_bounded"))
        zero = add_noise(y, NoiseSpec(delta=0.0, seed=5, distribution="uniform_bounded"))
        np.testing.assert_allclose(small.values, 0.1 * big.values, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(zero.values, y.values)

    def test_bounded_same_seed_same_draw(self):
        y = GridFunction(0.0, 1.0, np.zeros(100))
        spec = NoiseSpec(delta=0.1, seed=7, distribution="uniform_bounded")
        a, b = add_noise(y, spec), add_noise(y, spec)
        np.testing.assert_array_equal(a.values, b.values)
        gauss = add_noise(y, NoiseSpec(delta=0.1, seed=7))
        assert np.max(np.abs(a.values - gauss.values)) > 0.0


class TestRunExperiment:
    def test_near_exact_data_leaves_only_smoothing_bias(self):
        # noise level driven to zero at a grid-resolvable alpha: what remains
        # is the O(alpha * max|y''|) bias, about 0.09 here
        rep = run_experiment(1, delta=1e-9, seed=0, alpha=0.05)
        assert rep.max_error_interior <= 0.1

    def test_default_alpha_can_under_resolve_grid(self):
        # sqrt(1e-9) is far below the 512-point spacing; the run proceeds
        # but flags that the smoothing kernel is unresolved
        with pytest.warns(AlphaTooSmall):
            run_experiment(1, delta=1e-9, seed=0)

    def test_alpha_defaults_to_sqrt_delta(self):
        rep = run_experiment(1, delta=0.01, seed=3, n=128)
        assert rep.alpha == pytest.approx(0.1)

    def test_explicit_alpha_respected(self):
        rep = run_experiment(1, delta=0.01, seed=3, n=128, alpha=0.25)
        assert rep.alpha == 0.25

    def test_default_distribution_is_gaussian_unit(self):
        r1 = run_experiment(1, delta=0.01, seed=42, n=256)
        r2 = run_experiment(1, delta=0.01, seed=42, n=256, distribution="gaussian_unit")
        assert r1.max_error_full == r2.max_error_full
        np.testing.assert_array_equal(r1.derivative.values, r2.derivative.values)

    def test_distribution_reaches_the_noise(self):
        gauss = run_experiment(1, delta=0.01, seed=42, n=256)
        bounded = run_experiment(1, delta=0.01, seed=42, n=256,
                                 distribution="uniform_bounded")
        assert gauss.max_error_full != bounded.max_error_full
        with pytest.raises(ValueError):
            run_experiment(1, delta=0.01, seed=42, n=256, distribution="uniform")

    def test_interior_error_never_exceeds_full(self):
        rep = run_experiment(2, delta=0.01, seed=11)
        assert rep.max_error_interior <= rep.max_error_full

    def test_deterministic(self):
        r1 = run_experiment(1, delta=0.01, seed=42, n=256)
        r2 = run_experiment(1, delta=0.01, seed=42, n=256)
        assert r1.max_error_full == r2.max_error_full
        np.testing.assert_array_equal(r1.derivative.values, r2.derivative.values)

    def test_report_records_inputs(self):
        rep = run_experiment(2, delta=0.01, seed=9, n=200)
        assert (rep.example_id, rep.n, rep.delta, rep.seed) == (2, 200, 0.01, 9)
        assert rep.derivative.n == 200
        assert rep.exact_derivative.n == 200

    def test_error_against_recomputation(self):
        rep = run_experiment(1, delta=0.01, seed=4, n=256)
        err = np.abs(rep.derivative.values - rep.exact_derivative.values)
        assert rep.max_error_full == pytest.approx(np.max(err))


class TestConvergenceStudy:
    def test_single_cell_matches_run_experiment(self):
        rows = convergence_study(1, [0.01], [5], n=128)
        rep = run_experiment(1, 0.01, 5, n=128)
        assert len(rows) == 1
        assert rows[0].median_max_error_full == pytest.approx(rep.max_error_full)
        assert rows[0].median_max_error_interior == pytest.approx(rep.max_error_interior)
        assert rows[0].seed_count == 1

    def test_medians_over_seeds(self):
        seeds = [1, 2, 3]
        rows = convergence_study(2, [0.1], seeds, n=128)
        fulls = [run_experiment(2, 0.1, s, n=128).max_error_full for s in seeds]
        assert rows[0].median_max_error_full == pytest.approx(np.median(fulls))

    def test_row_per_delta(self):
        rows = convergence_study(1, [0.1, 0.01], [1], n=64)
        assert [r.delta for r in rows] == [0.1, 0.01]
        assert rows[0].alpha == pytest.approx(math.sqrt(0.1))
        assert rows[1].alpha == pytest.approx(0.1)

    def test_rows_keep_each_run_report(self):
        deltas, seeds = [0.1, 0.01], [4, 9, 2]
        rows = convergence_study(2, deltas, seeds, n=64)
        for row, delta in zip(rows, deltas):
            assert [rep.seed for rep in row.reports] == seeds
            for rep, seed in zip(row.reports, seeds):
                ref = run_experiment(2, delta, seed, n=64)
                assert (rep.delta, rep.alpha, rep.max_error_full, rep.max_error_interior) == \
                    (ref.delta, ref.alpha, ref.max_error_full, ref.max_error_interior)
                np.testing.assert_array_equal(rep.derivative.values, ref.derivative.values)
                np.testing.assert_array_equal(rep.exact_derivative.values,
                                              ref.exact_derivative.values)

    @pytest.mark.filterwarnings("ignore::perturbreg.AlphaTooSmall")  # at n = 65
    @pytest.mark.parametrize("example_id", [1, 2])
    @pytest.mark.parametrize("n", [65, 512])
    def test_every_run_matches_run_experiment_bit_for_bit(self, example_id, n):
        deltas, seeds = [0.1, 0.01, 0.001], list(range(30, 51))
        rows = convergence_study(example_id, deltas, seeds, n=n)
        for row, delta in zip(rows, deltas):
            refs = [run_experiment(example_id, delta, seed, n=n) for seed in seeds]
            assert [_bits(r.max_error_full) for r in row.reports] == \
                [_bits(r.max_error_full) for r in refs]
            assert [_bits(r.max_error_interior) for r in row.reports] == \
                [_bits(r.max_error_interior) for r in refs]
            assert _bits(row.median_max_error_full) == \
                _bits(_median([r.max_error_full for r in refs]))
            assert _bits(row.median_max_error_interior) == \
                _bits(_median([r.max_error_interior for r in refs]))
            for rep, ref in zip(row.reports, refs):
                assert (rep.seed, rep.n, rep.delta, rep.alpha) == \
                    (ref.seed, ref.n, ref.delta, ref.alpha)
                assert rep.derivative.values.tobytes() == ref.derivative.values.tobytes()
                assert rep.exact_derivative.values.tobytes() == \
                    ref.exact_derivative.values.tobytes()

    # One kernel: every run is the running integral's shifted solve plus the
    # baseline slope, bit for bit; alpha is h/4, h and 0.1.
    @pytest.mark.filterwarnings("ignore::perturbreg.AlphaTooSmall")
    @pytest.mark.parametrize("n", [16, 65, 512])
    @pytest.mark.parametrize("example_id", [1, 2])
    def test_every_run_is_the_shifted_running_integral_solve(self, example_id, n):
        a, b = example_interval(example_id)
        h = (b - a) / (n - 1)
        clean = GridFunction.sample(lambda t: example_function(example_id, t)[0], a, b, n)
        op = DiscreteOperator.volterra(a, b, n)
        for row in convergence_study(example_id, [(h / 4) ** 2, h**2, 0.01], [3, 4, 5], n=n):
            for rep in row.reports:
                y = add_noise(clean, NoiseSpec(row.delta, rep.seed))
                bl = estimate_baseline(y, max(2.0 * h, row.alpha))
                detrended = y.values - bl.c - bl.d * (y.t - a)
                expect = op.solve_shifted(row.alpha, detrended) + bl.d
                assert rep.derivative.values.tobytes() == expect.tobytes()

    def test_alpha_too_small_once_per_run(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            convergence_study(1, [0.01, 0.001], [1, 2, 3], n=16)  # alpha < h = 0.2
        assert [type(w.message) for w in caught] == [AlphaTooSmall] * 6

    @pytest.mark.parametrize("deltas, seeds, n, error", [
        ([0.2, 5e307], list(range(12)), 3, SampleOverflow),  # overflows after detrending
        ([0.2, 1e308], list(range(12)), 4, SampleOverflow),
        ([1e308], [0, 1], 512, SampleOverflow),  # the noisy samples overflow at once
        ([1e308], [0, -1], 512, ValueError),  # the bad seed is caught before any run
        ([0.01, 1e308], [0, -1], 16, ValueError),  # alpha < h would warn if it ran
    ])
    def test_failing_study_checks_seeds_first_and_raises_on_overflow(
            self, monkeypatch, deltas, seeds, n, error):
        passes = []
        rows = experiments._derivative_rows
        monkeypatch.setattr(experiments, "_derivative_rows",
                            lambda *args: passes.append(1) or rows(*args))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match="left the float64 range|nonnegative integer"):
                convergence_study(1, deltas, seeds, n=n)
        if error is ValueError:
            assert passes == [] and caught == []

    def test_reports_take_no_part_in_row_equality(self):
        assert convergence_study(1, [0.1], [1], n=64) == convergence_study(1, [0.1], [1], n=64)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(1, [], [1])
        with pytest.raises(ValueError):
            convergence_study(1, [0.1], [])


def _bits(x):
    return np.float64(x).tobytes()


class TestMedian:
    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [1.0, 5.0, 2.0], [0.1, 0.7, 0.2, 0.3],
        [1e308, 1.7e308], [-1e308, -1.7e308, 5.0, 6.0], [float("inf"), float("-inf")],
        [-0.0, 0.0], [0.0, -0.0, 1.0], [-0.0], [-0.0, -0.0], [5e-324, 5e-324], [0.1, 0.2],
    ])
    def test_equals_np_median_bit_for_bit(self, values):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are the point
            expected = np.median(values)
        assert _bits(_median(values)) == _bits(expected)

    def test_equals_np_median_on_random_counts(self):
        rng = np.random.default_rng(11)
        for size in range(1, 40):
            values = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)).tolist()
            assert _bits(_median(values)) == _bits(np.median(values))

    @pytest.mark.parametrize("values", [
        [float("nan")], [1.0, float("nan")], [float("nan"), 2.0, 1.0],
        [float("inf"), float("nan"), float("-inf"), 0.0],
    ])
    def test_nan_propagates_like_np_median(self, values):
        assert math.isnan(np.median(values))
        assert math.isnan(_median(values))
