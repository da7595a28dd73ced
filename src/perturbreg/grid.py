"""Uniformly sampled functions on a closed interval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _float_width(a, b) -> float:
    """b - a as Python floats: inf past the float64 range.

    Never a numpy warning, nor an OverflowError for an int beyond that range.
    """
    try:
        return float(b) - float(a)
    except OverflowError:
        return math.inf


def _check_grid(a, b, n: int) -> None:
    """ValueError unless n points on [a, b] make a grid that float64 can hold.

    The interval must be nonempty with a width inside the float64 range, and
    n at least 2.

    The samples are those of np.linspace(a, b, n), t_i = i*h + a. Below the
    float spacing at the interior sample of largest magnitude, t_1 or
    t_(n-2), neighbouring samples round onto the same float, and a
    derivative or a fit over them divides by zero. The endpoints need no
    check of their own: the float next to a on the side of t_1 lies no
    farther off than the spacing at t_1, and likewise at b. With n = 2 there
    is no interior sample, and a < b is enough. A subnormal step is rounded
    to a multiple of the least subnormal, so i*h can reach b before i does;
    t_(n-2) must stay below b.
    """
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    if not math.isfinite(_float_width(a, b)):
        raise ValueError(f"interval [{a}, {b}] is wider than the float64 range")
    if n < 2:
        raise ValueError(f"need at least two grid points, got {n}")
    if n == 2:
        return
    start, stop = float(a), float(b)
    h = (stop - start) / (n - 1)
    last = (n - 2) * h + start
    spacing = math.ulp(max(abs(h + start), abs(last)))
    if h < spacing:
        raise ValueError(f"grid step {h:g} on [{a}, {b}] is below the float64 spacing "
                         f"{spacing:g} there: its samples cannot be told apart")
    if last >= stop:
        raise ValueError(f"grid step {h:g} on [{a}, {b}] is rounded too coarsely in float64: "
                         f"its samples run past {b}")


@dataclass(frozen=True)
class GridFunction:
    """A real function sampled at t_i = a + i*h, h = (b - a)/(n - 1).

    The discrete sup-norm (max over the samples) stands in for the continuous
    max-norm everywhere in this package, so refining the grid can only reveal
    a larger norm, never shrink it.
    """

    a: float
    b: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"need a 1-d array of samples, got shape {vals.shape}")
        _check_grid(self.a, self.b, vals.size)
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(cls, f: Callable, a: float, b: float, n: int) -> "GridFunction":
        """Sample a vectorized callable at n uniform points of [a, b]."""
        t = np.linspace(a, b, n)
        return cls(a, b, np.asarray(f(t), dtype=float))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same grid, new samples."""
        return GridFunction(self.a, self.b, values)
