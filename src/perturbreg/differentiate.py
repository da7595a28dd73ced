"""Stable differentiation of noisy uniform samples.

Differentiation is recast as an integral equation: the unknown derivative
(minus its left-endpoint value) integrates to the detrended data. That
equation is solved in closed form by an exponential-kernel resolvent, which
trades the unbounded noise amplification of finite differences for a
controlled 1/alpha amplification plus an O(alpha) bias.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlphaTooSmall, SampleOverflow, WindowTooNarrow
from .grid import GridFunction
from .operators import first_order_scan, running_trapezoid


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

    ``derivative`` equals ``x_alpha`` shifted by the baseline slope at every
    sample. The first ``boundary_layer_width = 3 * alpha`` of the interval
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
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    h = g.h
    if alpha < h:
        warnings.warn(
            AlphaTooSmall(f"alpha={alpha:g} is below the grid spacing h={h:g}"),
            stacklevel=2,
        )
    vals = g.values
    r = math.exp(-h / alpha)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        panels = np.empty_like(vals)
        panels[0] = 0.0
        panels[1:] = 0.5 * h * (vals[1:] + r * vals[:-1])
        conv = first_order_scan(panels, r)
        # numpy's scalar power is the libm pow behind alpha**2 too, but gives
        # inf where the Python float raises OverflowError (alpha > ~1e154)
        out = vals / alpha - conv / np.float64(alpha) ** 2
    return g.with_values(_finite(out, "the resolvent output"))


def resolvent_norm_bound(alpha: float, a: float, b: float) -> float:
    """Sup-norm bound (2 - exp(-(b-a)/alpha)) / alpha of the resolvent; < 2/alpha."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    return (2.0 - math.exp(-(b - a) / alpha)) / alpha


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
    if window_width <= 0.0:
        raise ValueError(f"window width must be positive, got {window_width}")
    t = y.t
    mask = (t - y.a) <= window_width + 1e-9 * y.h
    m = int(np.count_nonzero(mask))
    if m < 2:
        raise WindowTooNarrow(f"window {window_width:g} holds {m} sample(s), need at least 2")
    coeffs = np.polynomial.polynomial.polyfit(t[mask] - y.a, y.values[mask], 1)
    return Baseline(c=float(coeffs[0]), d=float(coeffs[1]), source="auto",
                    window_width=float(window_width))


def regularized_derivative(y_tilde: GridFunction, alpha: float,
                           baseline: Baseline | None = None,
                           window: float | None = None) -> DerivativeResult:
    """Differentiate noisy uniform samples by resolvent smoothing.

    The data are detrended by the baseline (value and slope at the left
    endpoint), pushed through ``resolvent_apply``, and the slope is added
    back:

        derivative = resolvent_apply(y - c - d*(t - a), alpha) + d.

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
        Left-endpoint anchors. None means fit them from the data over a
        window of width max(2h, alpha), or ``window`` if given.
    window : float, optional
        Fit window width for the automatic baseline; ignored when an
        explicit baseline is passed.

    Raises
    ------
    SampleOverflow
        When the detrended samples, the resolvent output or the derivative
        leave the float64 range (finite samples near +-1.8e308 can).
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):
        if baseline is None:
            # 2h is inf on a grid wider than half the float64 range; the
            # window then holds every sample, as it should.
            width = window if window is not None else max(2.0 * y_tilde.h, alpha)
            baseline = estimate_baseline(y_tilde, width)
        detrended = _finite(y_tilde.values - baseline.c - baseline.d * (y_tilde.t - y_tilde.a),
                            "the detrended samples")
        x_alpha = resolvent_apply(y_tilde.with_values(detrended), alpha)
        derivative = x_alpha.with_values(_finite(x_alpha.values + baseline.d, "the derivative"))
    return DerivativeResult(
        x_alpha=x_alpha,
        derivative=derivative,
        alpha=alpha,
        baseline=baseline,
        boundary_layer_width=3.0 * alpha,
    )
