"""Tests for uniform-grid function containers."""

import warnings

import numpy as np
import pytest

from perturbreg import GridFunction


def test_sample_matches_callable():
    g = GridFunction.sample(np.sin, 0.0, 3.0, 7)
    assert g.n == 7
    assert g.a == 0.0 and g.b == 3.0
    np.testing.assert_allclose(g.values, np.sin(np.linspace(0.0, 3.0, 7)), rtol=0, atol=0)


def test_grid_spacing_and_nodes():
    g = GridFunction(0.0, 1.0, np.zeros(5))
    assert g.h == pytest.approx(0.25)
    np.testing.assert_allclose(g.t, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sup_norm():
    g = GridFunction(0.0, 1.0, np.array([1.0, -3.0, 2.0]))
    assert g.sup_norm() == 3.0


def test_with_values_keeps_interval():
    g = GridFunction(1.0, 2.0, np.zeros(4))
    g2 = g.with_values(np.ones(4))
    assert g2.a == 1.0 and g2.b == 2.0
    assert g2.values[0] == 1.0


def test_rejects_short_arrays():
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, np.array([1.0]))


def test_rejects_reversed_interval():
    with pytest.raises(ValueError):
        GridFunction(1.0, 0.0, np.zeros(3))


@pytest.mark.parametrize("a, b", [
    (-1e308, 1e308),
    (np.float64(-1e308), np.float64(1e308)),  # numpy scalars would warn on b - a
    (0.0, np.inf),
])
def test_rejects_interval_wider_than_float64_range(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="wider than the float64 range"):
            GridFunction(a, b, np.zeros(3))


def test_widest_finite_interval_accepted():
    g = GridFunction(-8e307, 8e307, np.zeros(3))
    assert g.h == 8e307


def test_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, np.array([0.0, np.nan, 1.0]))


def test_rejects_matrix_input():
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, np.zeros((2, 2)))


def test_integer_input_coerced_to_float():
    g = GridFunction(0.0, 1.0, np.array([1, 2, 3]))
    assert g.values.dtype == np.float64
