"""Stable differentiation of noisy uniform samples.

Differentiation is recast as an integral equation: the unknown derivative
(minus its left-endpoint value) integrates to the detrended data g. The
stabilized equation (V + alpha I) x = g, V the running trapezoid integral,
is solved on the grid by ``DiscreteOperator.solve_shifted``: the O(n)
inverse behind ``solve``, ``sweep`` and the closed-form certificate c_sup.
It trades the unbounded noise amplification of finite differences for a
controlled 1/alpha amplification plus an O(alpha) bias.

One private core differentiates a stack of rows on one grid, each step an
array pass: one closed-form line fit, detrending, the shifted solve, the
slope; SampleOverflow fails the stack. ``regularized_derivative`` runs it
on one row, a convergence study on each noise level's seeds.
``resolvent_apply``, the continuous kernel to O(h^2), is only a reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlphaTooSmall, SampleOverflow, WindowTooNarrow
from .grid import GridFunction
from .operators import DiscreteOperator, _check_alpha, first_order_scan, running_trapezoid


@dataclass(frozen=True)
class Baseline:
    """Left-endpoint anchors of the data: value c and slope d at t = a.

    ``source`` records whether the anchors were supplied by the caller
    ("user") or fitted from the data ("auto", with the fit window width).
    """

    c: float
    d: float
    source: str = "user"
    window_width: float | None = None

    def __post_init__(self):
        if self.source not in ("user", "auto"):
            raise ValueError(f"source must be 'user' or 'auto', got {self.source!r}")
        if self.source == "auto" and (self.window_width is None or self.window_width <= 0.0):
            raise ValueError("auto baselines must record a positive window width")


@dataclass(frozen=True)
class DerivativeResult:
    """Smoothed derivative and the pieces it was assembled from.

    ``x_alpha`` solves (V + alpha I) x = detrended samples, V the running
    trapezoid integral; ``derivative`` is ``x_alpha`` plus the baseline
    slope. The first ``boundary_layer_width = 3 * alpha`` of the interval
    carries a systematic startup bias and is reported separately by the
    experiment harness.
    """

    x_alpha: GridFunction
    derivative: GridFunction
    alpha: float
    baseline: Baseline
    boundary_layer_width: float


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise SampleOverflow(f"{what} left the float64 range")
    return values


def volterra_apply(x: GridFunction) -> GridFunction:
    """Running trapezoid integral of the samples; the first output is 0."""
    return x.with_values(running_trapezoid(x.values, x.h))


def _warn_unresolved(alpha: float, h: float, runs: int = 1) -> None:
    """AlphaTooSmall once per run when alpha < h, from the caller's caller."""
    if alpha < h:
        for _ in range(runs):
            warnings.warn(AlphaTooSmall(f"alpha={alpha:g} is below the grid spacing h={h:g}"),
                          stacklevel=3)


def resolvent_apply(g: GridFunction, alpha: float) -> GridFunction:
    """Apply the closed-form inverse of (integration + alpha * identity).

        x(t) = g(t)/alpha - (1/alpha^2) * int_a^t exp(-(t-s)/alpha) g(s) ds

    The convolution w is the trapezoid sum with kernel weights, which obeys
    the first-order recurrence over trapezoid panels

        w_0 = 0,   w_i = r * w_{i-1} + (h/2) * (g_i + r * g_{i-1}),

    with r = exp(-h/alpha). ``first_order_scan`` evaluates it in O(n) numpy
    operations, in blocks, without a Python loop over the samples; it agrees
    with the direct O(n^2) sum up to rounding.

    Warns
    -----
    AlphaTooSmall
        When alpha < h the smoothing kernel decays inside a single panel and
        the quadrature no longer resolves it. The result is still returned.

    Raises
    ------
    SampleOverflow
        When finite samples produce a result outside the float64 range.
    """
    _check_alpha(alpha)
    _warn_unresolved(alpha, g.h)
    h, vals = g.h, g.values
    r = math.exp(-h / alpha)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        panels = np.concatenate(([0.0], 0.5 * h * (vals[1:] + r * vals[:-1])))
        conv = first_order_scan(panels, r)
        # numpy's scalar power is the libm pow behind alpha**2 too, but gives
        # inf where the Python float raises OverflowError (alpha > ~1e154)
        x = vals / alpha - conv / np.float64(alpha) ** 2
    return g.with_values(_finite(x, "the resolvent output"))


def _fit_baselines(values: np.ndarray, t: np.ndarray, a: float, h: float,
                   window_width: float) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_baseline`` of each row of values (S, n), as (S, 1) arrays c, d.

    One closed form over the window, a prefix of t. Powers of two (at or below
    s = t - a's last entry and each row's peak) scale it exactly into float64's
    range; reducing along rows alone gives each row the bits of a lone fit.
    """
    if window_width <= 0.0:
        raise ValueError(f"window width must be positive, got {window_width}")
    m = int(np.count_nonzero((t - a) <= window_width + 1e-9 * h))
    if m < 2:
        raise WindowTooNarrow(f"window {window_width:g} holds {m} sample(s), need at least 2")
    span = np.ldexp(1.0, np.frexp(t[m - 1] - a)[1] - 1)
    u = (t[:m] - a) / span
    du = u - u.mean()
    scale = np.ldexp(1.0, np.frexp(np.abs(values[:, :m]).max(axis=1, keepdims=True))[1] - 1)
    rows = values[:, :m] / scale
    mean = rows.mean(axis=1, keepdims=True)
    slope = ((rows - mean) * du).sum(axis=1, keepdims=True) / (du * du).sum()
    return (mean - slope * u.mean()) * scale, slope * scale / span


def estimate_baseline(y: GridFunction, window_width: float) -> Baseline:
    """Least-squares line through the samples with t <= a + window_width.

    Returns the fitted value c at a and the fitted slope d. The anchors only
    need to be accurate near the left endpoint, so the window should stay
    small against the scale on which the data bends; widening it trades noise
    suppression for curvature bias of order window_width.

    Raises
    ------
    WindowTooNarrow
        If the window holds fewer than two samples.
    """
    c, d = _fit_baselines(y.values[None], y.t, y.a, y.h, window_width)
    return Baseline(float(c[0, 0]), float(d[0, 0]), "auto", float(window_width))


def _derivative_rows(values: np.ndarray, a: float, b: float, alpha: float,
                     baseline: Baseline | None = None, window: float | None = None):
    """``regularized_derivative`` of each row of values (S, n), in one array pass.

    Every row gets exactly the bits a one-row call gives. Returns c, d (S x 1
    fitted, 1 x 1 given), the fit window (None if given) and the stacks of
    x_alpha and derivatives, checked in that call's order: the detrended
    samples, AlphaTooSmall once per row, the solve, the slope (SampleOverflow).
    """
    _check_alpha(alpha)
    op = DiscreteOperator.volterra(a, b, values.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(a, b, op.n)
        if baseline is None:
            # 2h is inf past half the float64 range: the window holds every sample
            width = float(window if window is not None else max(2.0 * op.h, alpha))
            c, d = _fit_baselines(values, t, a, op.h, width)
        else:
            width, c, d = None, np.array([[baseline.c]]), np.array([[baseline.d]])
        detrended = _finite(values - c - d * (t - a), "the detrended samples")
        _warn_unresolved(alpha, op.h, len(values))
        x_alpha = _finite(op.solve_shifted(alpha, detrended), "the resolvent output")
        return c, d, width, x_alpha, _finite(x_alpha + d, "the derivative")


def regularized_derivative(y_tilde: GridFunction, alpha: float,
                           baseline: Baseline | None = None,
                           window: float | None = None) -> DerivativeResult:
    """Differentiate noisy uniform samples by a stabilized running-integral solve.

    The data are detrended by the baseline (value and slope at the left
    endpoint), the stabilized equation (V + alpha I) x = y - c - d*(t - a)
    is solved on the sample grid by the trapezoid inverse
    ``DiscreteOperator.solve_shifted`` (V the running trapezoid integral),
    and the slope is added back:

        derivative = (V + alpha I)^-1 (y - c - d*(t - a)) + d.

    For exactly linear data the detrended samples vanish and the derivative
    is the constant d, independent of alpha.

    Parameters
    ----------
    y_tilde : GridFunction
        Noisy samples on a uniform grid.
    alpha : float
        Smoothing parameter, > 0. Larger alpha suppresses noise harder and
        biases the result more; alpha ~ sqrt(noise level) balances the two.
    baseline : Baseline, optional
        Left-endpoint anchors. None means the least-squares line through
        the data over a window of width max(2h, alpha), or ``window``.
    window : float, optional
        Fit window width for the automatic baseline; ignored when an
        explicit baseline is passed.

    Warns
    -----
    AlphaTooSmall
        When alpha < h; below h/2 the solve is barely stabilized, and its
        result alternates in sign from sample to sample.

    Raises
    ------
    SampleOverflow
        When the detrended samples, the solve's output or the derivative
        leave the float64 range (finite samples near +-1.8e308 can).
    """
    c, d, width, x_alpha, derivative = _derivative_rows(
        y_tilde.values[None], y_tilde.a, y_tilde.b, alpha, baseline, window)
    return DerivativeResult(
        x_alpha=y_tilde.with_values(x_alpha[0]), derivative=y_tilde.with_values(derivative[0]),
        alpha=alpha, baseline=baseline or Baseline(float(c[0, 0]), float(d[0, 0]), "auto", width),
        boundary_layer_width=3.0 * alpha)
