"""Stabilized solves for perturbed operator equations, with error reporting.

Only a noisy operator and right-hand side are available, each within distance
delta of an exact pair for which the equation is solvable. Adding a small
stabilizing perturbation makes the observed system invertible; every solve
reports the quantities needed to certify the reconstruction error: the
resolvent-norm estimate c(alpha), the margin q = delta * c(alpha), the bias
introduced by the stabilizer, and the resulting error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateDelta, QOutOfRange, SingularSystem
from .grid import GridFunction
from .operators import DiscreteOperator, Stabilizer


class SqrtDelta:
    """Coordination rule alpha = sqrt(delta)."""

    def __repr__(self) -> str:
        return "SqrtDelta()"


@dataclass(frozen=True)
class PowerDelta:
    """Coordination rule alpha = delta**p with 0 < p < 1."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"exponent must lie in (0, 1), got {self.p}")


CoordinationRule = Union[SqrtDelta, PowerDelta]


def coordinate_alpha(delta: float, rule: CoordinationRule) -> float:
    """Pick a regularization parameter matched to the noise level.

    The choice has to balance two failure modes: alpha must vanish with delta
    (or the stabilizer bias never dies), yet slowly enough that the noise
    amplification delta * c(alpha) also vanishes. Both power rules here do
    that whenever c(alpha) grows no faster than ~1/alpha.

    Parameters
    ----------
    delta : float
        Noise level, > 0.
    rule : SqrtDelta | PowerDelta
        SqrtDelta gives sqrt(delta); PowerDelta(p) gives delta**p.

    Raises
    ------
    DegenerateDelta
        If delta is not a positive finite number; a vanishing noise level
        does not select a parameter, and an infinite or NaN one selects
        nothing usable.
    """
    if not delta > 0.0:
        raise DegenerateDelta(f"noise level must be positive, got {delta}")
    if math.isinf(delta):
        raise DegenerateDelta(f"noise level must be finite, got {delta}")
    if rule is SqrtDelta or isinstance(rule, SqrtDelta):
        return math.sqrt(delta)
    if isinstance(rule, PowerDelta):
        return delta**rule.p
    raise TypeError(f"unknown coordination rule: {rule!r}")


@dataclass(frozen=True)
class RegConfig:
    """Noise level, parameter choice, and the safety threshold for q.

    Exactly one of ``alpha`` and ``rule`` must be given. ``q_max`` is the
    largest acceptable margin q = delta * c(alpha) before a solve gets
    flagged; at q = 1 the perturbation argument behind the error bound
    breaks down entirely.
    """

    delta: float
    alpha: float | None = None
    rule: CoordinationRule | None = None
    q_max: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be a finite number >= 0, got {self.delta}")
        if (self.alpha is None) == (self.rule is None):
            raise ValueError("exactly one of alpha and rule must be set")
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.q_max < 1.0:
            raise ValueError(f"q_max must lie in (0, 1), got {self.q_max}")

    def resolve_alpha(self) -> float:
        """The explicit alpha, or the rule applied to delta."""
        if self.alpha is not None:
            return self.alpha
        return coordinate_alpha(self.delta, self.rule)


@dataclass(frozen=True)
class SolveReport:
    """Solution of a stabilized solve plus the diagnostics around it.

    ``gap``, ``bound`` and ``bound_components = (gap, amplification,
    x_star_norm)`` are filled only when the exact problem is supplied for
    comparison; ``bound`` then equals
    gap + amplification * (1 + x_star_norm + gap).
    ``q_exceeded`` flags q_est >= q_max without failing the solve, so sweeps
    can cross the threshold and show where the margin is lost.
    """

    solution: np.ndarray
    residual_norm: float
    c_alpha_est: float
    q_est: float
    q_exceeded: bool
    gap: float | None = None
    bound: float | None = None
    bound_components: tuple[float, float, float] | None = None
    observed_error: float | None = None
    selection: np.ndarray | None = None


def invertibility_margin(delta: float, c_alpha: float) -> float:
    """The margin q = delta * c(alpha); at q >= 1 solvability is no longer implied."""
    if delta < 0.0 or c_alpha < 0.0:
        raise ValueError("delta and c_alpha must be nonnegative")
    return delta * c_alpha


def error_bound(S: float, delta: float, c_alpha: float, q: float, x_star_norm: float) -> float:
    """Error certificate S + (delta * c / (1 - q)) * (1 + ||x*|| + S).

    ``S`` is the stabilization gap (bias the stabilizer itself introduces on
    the exact solution); the second term is the data noise amplified through
    the perturbed inverse, whose norm is at most c / (1 - q).

    Raises
    ------
    QOutOfRange
        Unless 0 <= q < 1.
    """
    if not 0.0 <= q < 1.0:
        raise QOutOfRange(f"q must lie in [0, 1), got {q}")
    if min(S, delta, c_alpha, x_star_norm) < 0.0:
        raise ValueError("all bound inputs must be nonnegative")
    amplification = delta * c_alpha / (1.0 - q)
    return S + amplification * (1.0 + x_star_norm + S)


def _as_vector(x) -> np.ndarray:
    if isinstance(x, GridFunction):
        return x.values
    return np.asarray(x, dtype=float)


def _report(x: np.ndarray, residual: float, c_est: float, delta: float, q_max: float,
            x_star=None, gap: float | None = None, selection=None) -> SolveReport:
    """The report of a stabilized solve; both solvers build theirs here.

    Owns the margin q = delta * c and its flag q >= q_max. With ``x_star``
    the report carries the observed error; with the stabilization ``gap`` as
    well, and q < 1, it also carries the error bound and its components.
    """
    q_est = invertibility_margin(delta, c_est)
    bound = components = observed = None
    if x_star is not None:
        xs = _as_vector(x_star)
        observed = float(np.max(np.abs(x - xs)))
        if gap is not None and q_est < 1.0:
            x_norm = float(np.max(np.abs(xs)))
            bound = error_bound(gap, delta, c_est, q_est, x_norm)
            components = (gap, delta * c_est / (1.0 - q_est), x_norm)
    return SolveReport(
        solution=x,
        residual_norm=residual,
        c_alpha_est=c_est,
        q_est=q_est,
        q_exceeded=q_est >= q_max,
        gap=gap,
        bound=bound,
        bound_components=components,
        observed_error=observed,
        selection=selection,
    )


def _solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"assembled matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("factorization produced non-finite values")
    return x


def _assemble(A: DiscreteOperator, B: Stabilizer, alpha: float) -> np.ndarray:
    return A.as_matrix() + B.materialize(alpha, A.size)


def _is_shifted_integral(A: DiscreteOperator, B: Stabilizer) -> bool:
    """True for the running integral plus alpha * I, solved in O(n) without a matrix."""
    return A.is_volterra and B.is_scalar


def _solve_stabilized(A: DiscreteOperator, B: Stabilizer, alpha: float,
                      rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve (A + B(alpha)) x = rhs; returns x and the assembled matrix, if one was built."""
    if _is_shifted_integral(A, B):
        with np.errstate(over="ignore", invalid="ignore"):
            x = A.solve_shifted(alpha, rhs)
        if not np.all(np.isfinite(x)):
            raise SingularSystem("shifted running-integral solve produced non-finite values")
        return x, None
    assembled = _assemble(A, B, alpha)
    return _solve_linear(assembled, rhs), assembled


def c_alpha_estimate(A: DiscreteOperator, B: Stabilizer, alpha: float,
                     assembled: np.ndarray | None = None) -> float:
    """Estimate c(alpha), the norm of (A + B(alpha))^{-1}.

    The running integral plus alpha * I has the closed bound 2/alpha and needs
    no matrix. Any other pair falls back to 1/sigma_min of the assembled
    matrix (a 2-norm estimate, exact for the assembled system); pass
    ``assembled`` when it is at hand, otherwise it is built here.
    """
    if _is_shifted_integral(A, B):
        return 2.0 / alpha
    if assembled is None:
        assembled = _assemble(A, B, alpha)
    sigma_min = float(np.linalg.svd(assembled, compute_uv=False)[-1])
    if sigma_min == 0.0:
        return math.inf
    return 1.0 / sigma_min


# The benchmark's tracer (perfbench/tracing.py) times this routine under its
# earlier private name, so both solvers call it through that name.
_c_alpha_estimate = c_alpha_estimate


def stabilization_gap(A: DiscreteOperator, B: Stabilizer, alpha: float, x_star) -> float:
    """Sup-norm of (A + B(alpha))^{-1} B(alpha) x*: the stabilizer-induced bias.

    This is the error a stabilized solve commits on perfect data. It vanishes
    exactly when the stabilizer annihilates x*; for integration with alpha*I
    it decays with alpha precisely when x* vanishes at the left endpoint.

    Raises
    ------
    SingularSystem
        If A + B(alpha) cannot be factorized.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    xs = _as_vector(x_star)
    sol, _ = _solve_stabilized(A, B, alpha, B.apply(alpha, xs))
    return float(np.max(np.abs(sol)))


def stabilization_sweep(A: DiscreteOperator, B: Stabilizer, alphas: Sequence[float],
                        x_star) -> list[tuple[float, float]]:
    """stabilization_gap at each alpha, as (alpha, gap) pairs.

    No monotonicity is enforced or assumed; the sweep exists to make the
    actual alpha -> bias trade-off visible.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0.0 for a in alphas):
        raise ValueError("sweep alphas must be positive")
    return [(a, stabilization_gap(A, B, a, x_star)) for a in alphas]


def solve_perturbed(A_tilde: DiscreteOperator, B: Stabilizer, alpha: float, f_tilde,
                    config: RegConfig, x_star=None,
                    A_exact: DiscreteOperator | None = None) -> SolveReport:
    """Solve (A_tilde + B(alpha)) x = f_tilde and report diagnostics.

    The running integral with alpha * I is solved by its O(n) recurrence
    (``DiscreteOperator.solve_shifted``); every other pair is assembled into
    a dense matrix and factorized.

    Parameters
    ----------
    A_tilde : DiscreteOperator
        The operator actually observed (possibly perturbed).
    B : Stabilizer
        Stabilizing perturbation, alpha * I or a fixed finite-rank operator.
    alpha : float
        Regularization parameter, > 0.
    f_tilde : array_like or GridFunction
        Observed right-hand side.
    config : RegConfig
        Supplies the noise level delta and the q threshold.
    x_star, A_exact : optional
        Exact solution and exact operator, when known. With x_star alone the
        report carries the observed error; with both it also carries the
        stabilization gap and the error bound.

    Raises
    ------
    SingularSystem
        If the assembled matrix cannot be factorized, or the solve returns
        non-finite values. A margin q_est at or above config.q_max does NOT
        raise: the solution is still returned, flagged with
        ``q_exceeded=True``.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    f = _as_vector(f_tilde)
    if A_tilde.size != f.size:
        raise ValueError(f"operator size {A_tilde.size} does not match rhs size {f.size}")
    x, assembled = _solve_stabilized(A_tilde, B, alpha, f)
    lhs = A_tilde.apply(x) + B.apply(alpha, x) if assembled is None else assembled @ x
    residual = float(np.max(np.abs(lhs - f)))
    c_est = _c_alpha_estimate(A_tilde, B, alpha, assembled)
    gap = None
    if x_star is not None and A_exact is not None:
        gap = stabilization_gap(A_exact, B, alpha, x_star)
    return _report(x, residual, c_est, config.delta, config.q_max, x_star=x_star, gap=gap)
