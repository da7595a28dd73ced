"""Uniformly sampled functions on a closed interval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


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
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-d array of at least two samples")
        if not self.b > self.a:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")
        if not math.isfinite(float(self.b) - float(self.a)):  # floats: inf, not a warning
            raise ValueError(f"interval [{self.a}, {self.b}] is wider than the float64 range")
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
