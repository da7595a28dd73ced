"""Benchmark functions, seeded noise, and convergence studies.

Two smooth benchmark functions with known derivatives drive the end-to-end
checks: differentiate noisy samples, compare against the exact derivative,
and watch the error fall as the noise level does. Errors are reported both
over the full interval and with the startup layer [a, a + 3*alpha] excluded,
because the boundary bias and the noise response scale differently.

A convergence study checks every seed and noise level, samples once, draws
each seed's unit noise once, and runs each noise level as one array pass
over its seeds: each run has the bits, error and warning of a lone
``run_experiment``, and the first stack that leaves the float64 range raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .differentiate import _derivative_rows, _finite
from .errors import UnknownExample
from .grid import GridFunction
from .solve import SqrtDelta, coordinate_alpha


_UNIT_DRAWS = {
    "gaussian_unit": lambda rng, n: rng.standard_normal(n),
    "uniform_bounded": lambda rng, n: rng.uniform(-1.0, 1.0, n),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise description: level delta, generator seed, distribution.

    Distributions, both i.i.d. unit draws before scaling by delta:

    - "gaussian_unit" (the default): standard normal, so the noise has
      standard deviation delta; its sup norm is not bounded by delta (about
      3*delta at 512 samples), so it lies outside the paper's hypothesis
      ||f~ - f|| < delta.
    - "uniform_bounded": uniform on [-1, 1), so every sample satisfies
      |f~ - f| <= delta and the noise meets that hypothesis in the sup norm.

    The draw depends on the seed alone, so noise at two levels with one seed
    differs exactly by the ratio of the levels.
    """

    delta: float
    seed: int
    distribution: str = "gaussian_unit"

    def __post_init__(self):
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be a finite number >= 0, got {self.delta}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.distribution not in _UNIT_DRAWS:
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class BenchmarkExample:
    a: float
    b: float
    y: Callable[[np.ndarray], np.ndarray]
    dy: Callable[[np.ndarray], np.ndarray]


def _example1_y(t):
    return np.sin(np.pi * t / 4.0) / (t**3 + 1.0)


def _example1_dy(t):
    den = t**3 + 1.0
    return (np.pi / 4.0) * np.cos(np.pi * t / 4.0) / den \
        - 3.0 * t**2 * np.sin(np.pi * t / 4.0) / den**2


def _example2_y(t):
    return np.cos(np.pi * t / 8.0) * np.exp(-(t**2))


def _example2_dy(t):
    return -np.exp(-(t**2)) * ((np.pi / 8.0) * np.sin(np.pi * t / 8.0)
                               + 2.0 * t * np.cos(np.pi * t / 8.0))


EXAMPLES = {
    1: BenchmarkExample(a=0.0, b=3.0, y=_example1_y, dy=_example1_dy),
    2: BenchmarkExample(a=0.0, b=5.0, y=_example2_y, dy=_example2_dy),
}


def example_function(example_id: int, t):
    """Value and exact derivative of a benchmark function at t.

    Example 1 is sin(pi*t/4) / (t^3 + 1) on [0, 3]; example 2 is
    cos(pi*t/8) * exp(-t^2) on [0, 5]. Raises UnknownExample otherwise.
    """
    try:
        ex = EXAMPLES[example_id]
    except KeyError:
        raise UnknownExample(f"no benchmark example with id {example_id!r}") from None
    t = np.asarray(t, dtype=float)
    return ex.y(t), ex.dy(t)


def example_interval(example_id: int) -> tuple[float, float]:
    """The interval a benchmark function is defined on."""
    try:
        ex = EXAMPLES[example_id]
    except KeyError:
        raise UnknownExample(f"no benchmark example with id {example_id!r}") from None
    return ex.a, ex.b


def _unit_noise(seeds: Sequence[int], distribution: str, n: int) -> np.ndarray:
    """One row per seed: the unit draw that delta scales into its noise."""
    draw = _UNIT_DRAWS[distribution]
    return np.array([draw(np.random.default_rng(seed), n) for seed in seeds])


def add_noise(y: GridFunction, spec: NoiseSpec) -> GridFunction:
    """Add delta-scaled unit noise of ``spec.distribution`` from the seeded generator.

    With delta = 0 the samples pass through unchanged. The unit draw is made
    regardless, so the noise pattern for a given seed and distribution is one
    fixed vector that delta only scales. Only "uniform_bounded" guarantees
    ||f~ - f||_inf <= delta. Raises SampleOverflow when a noisy sample
    leaves the float64 range (delta near 1.8e308 can).
    """
    unit = _unit_noise([spec.seed], spec.distribution, y.n)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = y.values + spec.delta * unit
    return y.with_values(_finite(noisy, "the noisy samples"))


@dataclass(frozen=True)
class ExperimentReport:
    """One differentiation run against a benchmark function."""

    example_id: int
    n: int
    delta: float
    alpha: float
    seed: int
    max_error_full: float
    max_error_interior: float
    derivative: GridFunction
    exact_derivative: GridFunction


def _sample(example_id: int, n: int) -> tuple[GridFunction, GridFunction]:
    """A benchmark function and its exact derivative on n uniform points."""
    ex = EXAMPLES[example_id]
    return GridFunction.sample(ex.y, ex.a, ex.b, n), GridFunction.sample(ex.dy, ex.a, ex.b, n)


def _runs(example_id: int, n: int, delta: float, alpha: float, seeds: Sequence[int],
          units: np.ndarray, y: GridFunction, exact: GridFunction) -> list[ExperimentReport]:
    """One report per seed: the rows y + delta * units differentiated as one stack.

    Every row gets the bits of a lone run. Raises SampleOverflow when the
    noisy samples or any later stack leave the float64 range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = _finite(y.values + delta * units, "the noisy samples")
    _, _, derivative = _derivative_rows(noisy, y.a, y.b, alpha)
    err = np.abs(derivative - exact.values)
    interior = y.t > y.a + 3.0 * alpha  # past the startup layer
    full = err.max(axis=1).tolist()
    inner = err[:, interior].max(axis=1).tolist() if interior.any() else [math.nan] * len(seeds)
    return [ExperimentReport(example_id=example_id, n=n, delta=delta, alpha=alpha, seed=seed,
                             max_error_full=full[i], max_error_interior=inner[i],
                             derivative=y.with_values(derivative[i]), exact_derivative=exact)
            for i, seed in enumerate(seeds)]


def run_experiment(example_id: int, delta: float, seed: int, n: int = 512,
                   alpha: float | None = None,
                   distribution: str = "gaussian_unit") -> ExperimentReport:
    """Differentiate one noisy benchmark realization and measure the error.

    Samples the benchmark on n uniform points, adds delta-scaled seeded
    noise, differentiates with the automatic baseline, and compares against
    the exact derivative. ``max_error_interior`` excludes the startup layer
    [a, a + 3*alpha]; ``max_error_full`` does not.

    alpha defaults to sqrt(delta). ``distribution`` names the noise model
    (see NoiseSpec); pass "uniform_bounded" for noise that meets the paper's
    hypothesis ||f~ - f||_inf <= delta.
    """
    example_interval(example_id)  # UnknownExample comes first
    if alpha is None:
        alpha = coordinate_alpha(delta, SqrtDelta())
    y, exact = _sample(example_id, n)
    spec = NoiseSpec(delta=delta, seed=seed, distribution=distribution)
    units = _unit_noise([spec.seed], spec.distribution, n)
    return _runs(example_id, n, delta, alpha, [seed], units, y, exact)[0]


@dataclass(frozen=True)
class StudyRow:
    """Median errors across seeds at one noise level, and the runs behind them.

    ``reports`` holds one ExperimentReport per seed, in the order of the
    seeds; it takes no part in comparisons.
    """

    delta: float
    alpha: float
    seed_count: int
    median_max_error_full: float
    median_max_error_interior: float
    reports: tuple[ExperimentReport, ...] = field(compare=False, repr=False)


def _median(values: Sequence[float]) -> float:
    """``np.median`` of a nonempty sequence, bit for bit, NaN if any value is NaN.

    np.median imports numpy.ma on first use, which costs a cold process
    several milliseconds and megabytes. This is its own recipe without it:
    the same partition (so even equal values such as 0.0 and -0.0 come out in
    the same order), NaN when the partition puts one last, and the mean of
    the middle one or two values as np.mean takes it: summed from 0.0 (which
    turns a -0.0 into 0.0), then divided by the count. Python floats do the
    sum, so it overflows to inf without a warning.
    """
    size = len(values)
    mid = size // 2
    kth = [mid - 1, mid, -1] if size % 2 == 0 else [mid, -1]
    part = np.partition(np.asarray(values, dtype=float), kth).tolist()
    if math.isnan(part[-1]):
        return part[-1]
    return 0.0 + part[mid] if size % 2 else (0.0 + part[mid - 1] + part[mid]) / 2.0


def convergence_study(example_id: int, deltas: Sequence[float], seeds: Sequence[int],
                      n: int = 512) -> list[StudyRow]:
    """Median differentiation errors per noise level, over a set of seeds.

    Medians rather than means: single realizations can park an outlier far
    from the trend, and the point of the study is the trend in delta. Each
    row keeps its runs' reports, so a caller that writes the runs out does
    not run them again.

    The example, every delta's alpha = sqrt(delta) and every seed are checked
    before anything is sampled: ValueError when deltas or seeds are empty or
    a seed is negative. SampleOverflow comes from the first delta whose runs
    leave the float64 range.
    """
    deltas = [float(d) for d in deltas]
    seeds = [int(s) for s in seeds]
    if not deltas:
        raise ValueError("need at least one delta")
    if not seeds:
        raise ValueError("need at least one seed")
    example_interval(example_id)
    alphas = [coordinate_alpha(delta, SqrtDelta()) for delta in deltas]
    if min(seeds) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {min(seeds)}")
    y, exact = _sample(example_id, n)
    units = _unit_noise(seeds, "gaussian_unit", n)
    rows = []
    for delta, alpha in zip(deltas, alphas):
        reports = _runs(example_id, n, delta, alpha, seeds, units, y, exact)
        rows.append(StudyRow(
            delta=delta,
            alpha=alpha,
            seed_count=len(seeds),
            median_max_error_full=_median([r.max_error_full for r in reports]),
            median_max_error_interior=_median([r.max_error_interior for r in reports]),
            reports=tuple(reports),
        ))
    return rows
