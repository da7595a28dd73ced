"""Tests for uniform-grid function containers."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perturbreg import DiscreteOperator, GridFunction, ProblemFormatError
from perturbreg.problems import load_problem


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


@pytest.mark.parametrize("a, b", [(0, 10**400), (-(10**400), 0.0), (-(10**400), 10**400)],
                         ids=["b", "a", "both"])
def test_rejects_python_int_endpoint_beyond_float64_range(a, b):
    # float() of such an int raises OverflowError; the interval is still too wide
    with pytest.raises(ValueError, match="wider than the float64 range"):
        GridFunction(a, b, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("a, b, n", [
    (1e16, 1e16 + 8, 1000),  # step 0.008 where floats are 2 apart
    (1.0, 1.0 + 2.0**-52, 3),  # t_1 = 1 + 2**-53 rounds onto a = 1
    (-1e16 - 8, -1e16, 10),
])
def test_rejects_step_below_the_float_spacing(a, b, n):
    with pytest.raises(ValueError, match="below the float64 spacing"):
        GridFunction(a, b, np.zeros(n))


@pytest.mark.parametrize("a, b, n", [
    (1e16, 1e16 + 8, 5), (0.0, 1e-320, 3), (1.0 - 3 * 2.0**-52, 1.0, 4),
    # steps of 2**-53 up to b = 1: below the spacing at b, at the spacing inside
    (1.0 - 3 * 2.0**-53, 1.0, 4), (1.0 - 2.0**-53, 1.0, 2),
])
def test_step_at_the_float_spacing_accepted(a, b, n):
    g = GridFunction(a, b, np.zeros(n))
    assert g.n == n
    assert np.all(np.diff(g.t) > 0)


def test_rejects_subnormal_step_that_runs_past_b():
    # 31 least subnormals over 12 steps: h rounds to 3 of them, and 11 * h passes b
    a = 2.2250738585072014e-308
    with pytest.raises(ValueError, match="too coarsely in float64: its samples run past"):
        GridFunction(a, a + 31 * 5e-324, np.zeros(13))


def _nudged(x, steps):
    """The float ``steps`` floats above ``x`` (below it for negative steps)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def grids(draw):
    """(a, b, n), mostly a few floats apart near a power of two, where the spacing changes."""
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        edge = math.ldexp(draw(st.sampled_from([1.0, -1.0])), draw(st.integers(-1074, 1023)))
        a = _nudged(edge, draw(st.integers(-3 * n, 3 * n)))
        b = _nudged(a, draw(st.integers(1, 4 * n)))
    else:
        a, b = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2,
                                    unique=True)))
    assume(math.isfinite(b) and b > a)
    return a, b, n


@settings(max_examples=1000, deadline=None)
@given(grid=grids())
def test_every_accepted_grid_has_strictly_increasing_samples(grid):
    a, b, n = grid
    try:
        g = GridFunction(a, b, np.zeros(n))
    except ValueError as exc:
        assert "below the float64 spacing" in str(exc) or "too coarsely" in str(exc)
        return
    assert np.all(np.diff(g.t) > 0)


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


def _load_integral_problem(tmp_path, a, b, n):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "operator": "volterra", "exact_matrix": "volterra", "interval": [a, b],
        "rhs": [0.0] * n, "stabilizer": {"scalar_alpha": {}}, "delta": 0.0, "alpha": 0.1,
    }))
    return load_problem(path)


# Every entry point that takes a grid; a problem file reports the grid rule
# as a ProblemFormatError.
GRID_SITES = {
    "GridFunction": (lambda tmp_path, a, b, n: GridFunction(a, b, np.zeros(n)), ValueError),
    "volterra": (lambda tmp_path, a, b, n: DiscreteOperator.volterra(a, b, n), ValueError),
    "load_problem": (_load_integral_problem, ProblemFormatError),
}


@pytest.mark.parametrize("site", GRID_SITES)
@pytest.mark.parametrize("a, b, n, message", [
    (1.0, 1.0, 3, "empty interval [1.0, 1.0]"),
    (1.0, 0.0, 3, "empty interval [1.0, 0.0]"),
    (-1e308, 1e308, 3, "interval [-1e+308, 1e+308] is wider than the float64 range"),
    (0.0, 1.0, 1, "need at least two grid points, got 1"),
    (1e16, 1e16 + 8, 1000, "grid step 0.00800801 on [1e+16, 1.0000000000000008e+16] is below "
                           "the float64 spacing 2 there: its samples cannot be told apart"),
], ids=["empty", "reversed", "too wide", "one point", "step below spacing"])
def test_bad_grid_raises_one_error(tmp_path, site, a, b, n, message):
    build, error = GRID_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            build(tmp_path, a, b, n)
    assert str(raised.value) == message
