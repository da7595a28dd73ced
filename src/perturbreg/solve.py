"""Stabilized solves for perturbed operator equations, with error reporting.

Only a noisy operator and right-hand side are available, each within distance
delta of an exact pair for which the equation is solvable. Adding a small
stabilizing perturbation makes the observed system invertible; every solve
reports the quantities needed to certify the reconstruction error: the
sup norm c_sup of the inverse of the observed stabilized matrix, with
q_sup = delta * c_sup, a 2-norm margin q_est = delta * c_alpha_est, the bias
introduced by the stabilizer, and the resulting error bound, derived in
``solve_perturbed``. It is a-posteriori: it rests on the inverse the solve
itself holds and on the residual it leaves, so it needs no margin below 1.

Each dense stabilized matrix is factored once. A certified solve inverts it,
and that one inverse serves the solution (with one refinement step, and an
LU solve as the fallback), the residual, both norms and, given exact data,
the stabilization gap by iterative refinement. A lone gap takes one LU solve,
and a sweep reorders the operator once for all its alphas, or solves once
for a stabilizer that does not depend on alpha. The running integral with
alpha * I needs no matrix at all; the sup norm of its stabilized inverse has
a closed form.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateDelta, SingularSystem
from .operators import DiscreteOperator, Stabilizer, _as_vector, _check_alpha, _check_delta


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
    """Noise level, regularization parameter, and the safety threshold for q.

    A set ``alpha`` must equal the alpha passed to ``solve_perturbed``; None
    stands for that alpha. ``q_max`` is the largest acceptable 2-norm margin
    q_est = delta * c_alpha_est before a solve gets flagged. The flag does
    not touch the error bound, which holds at any margin.
    """

    delta: float
    alpha: float | None = None
    q_max: float = 0.5

    def __post_init__(self):
        _check_delta(self.delta)
        if self.alpha is not None:
            _check_alpha(self.alpha)
        if not 0.0 < self.q_max < 1.0:
            raise ValueError(f"q_max must lie in (0, 1), got {self.q_max}")


@dataclass(frozen=True)
class SolveReport:
    """Solution of a stabilized solve plus the diagnostics around it.

    ``c_sup`` is the sup norm of the inverse of the observed stabilized
    matrix and ``q_sup = delta * c_sup``; the error bound is built from
    them. ``c_alpha_est`` is a lower estimate of its 2-norm, and
    ``q_est = delta * c_alpha_est`` the margin that ``q_exceeded`` flags
    (q_est >= q_max) without failing the solve, so sweeps can cross the
    threshold and show where the margin is lost.

    ``gap``, ``bound`` (derived in ``solve_perturbed``) and
    ``bound_components = (gap, amplification, x_star_norm)``, with
    amplification = delta * c_sup, are filled only when the exact problem is
    supplied for comparison and its stabilized system can be solved, and
    ``bound`` only while the exact problem bears delta out and the bound is
    finite. ``delta_realized`` is the noise the exact problem shows,
    max(||A_tilde - A||_inf, ||f_tilde - A x*||_inf), filled when both x*
    and the exact operator are given.
    """

    solution: np.ndarray
    residual_norm: float
    c_alpha_est: float
    q_est: float
    q_exceeded: bool
    c_sup: float
    q_sup: float
    gap: float | None = None
    bound: float | None = None
    bound_components: tuple[float, float, float] | None = None
    observed_error: float | None = None
    delta_realized: float | None = None
    selection: np.ndarray | None = None


def _solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"assembled matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("factorization produced non-finite values")
    return x


_EPS = float(np.finfo(float).eps)

# Power steps behind the 2-norm estimate of c_alpha_estimate. On a spectrum
# clustered at its top (s from 1 down to 1e-3 over n = 512, plus 0.01 I) the
# estimate reaches 0.97-0.98 of 1/sigma_min in 10 steps and about 0.987 in
# 20; at n = 512 ten steps cost about 2 ms beside 23-26 ms for the inverse.
_POWER_STEPS = 10

# Solves behind the stabilization gap of a certified dense solve, the first
# included: y = M~^-1 b, then y += M~^-1 (b - (A + B(alpha)) y). Each step
# shrinks the error by a factor of at most ||M~^-1 (A~ - A)||_inf
# <= c_sup ||A~ - A||_inf; where that reaches 1 the refinement may stall,
# and one LU solve gives the gap. On the benchmark's n = 512 dense problems
# the residual falls about 1e4-fold a step, and the third solve reaches LU
# level: 0.7 ms in all, against 5-6 ms for the LU solve of
# ``stabilization_gap`` (one BLAS thread on a shared 2-vCPU machine).
_GAP_STEPS = 10

# The running integral's c_sup is its exact sup norm carried up by this many
# n * eps, so it stays above the amplification a computed solve shows: with
# the noise delta * sign(row i of M^-1) that attains the norm, an LU solve of
# the dense matrix read up to 7.3 n eps above it (n = 513, alpha = h/400),
# and the O(n) scan up to 0.9 n eps. The error bound allows this many n * eps
# times cond(M~): with 16 n eps alone, worst-case data and operator noise on a
# finite-rank system (n = 2, c_alpha_est 2e3) broke it by 7e-15 relative.
_ROUNDING_PER_ROW = 16

# Rows of the blocks in which ``_inf_norm`` sums a matrix.
_NORM_BLOCK = 128


def _shifted(matrix: np.ndarray, alpha: float) -> np.ndarray:
    """matrix + alpha * I, entry for entry, as a new array in the memory order
    of ``matrix``: one copy and a diagonal add, no identity."""
    m = matrix.copy(order="K")
    diagonal = np.einsum("ii->i", m)  # a writable view
    diagonal += alpha
    return m


def _assemble(A: DiscreteOperator, B: Stabilizer, alpha: float) -> np.ndarray:
    if B.is_scalar:
        return _shifted(A.as_matrix(), alpha)
    return A.as_matrix() + B.materialize(alpha, A.size)


def _is_shifted_integral(A: DiscreteOperator, B: Stabilizer) -> bool:
    """True for the running integral plus alpha * I, solved in O(n) without a matrix."""
    return A.is_volterra and B.is_scalar


def _solve_stabilized(A: DiscreteOperator, B: Stabilizer, alpha: float,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (A + B(alpha)) x = rhs by one LU factorization, or the O(n) recurrence."""
    if _is_shifted_integral(A, B):
        with np.errstate(over="ignore", invalid="ignore"):
            x = A.solve_shifted(alpha, rhs)
        if not np.all(np.isfinite(x)):
            raise SingularSystem("shifted running-integral solve produced non-finite values")
        return x
    return _solve_linear(_assemble(A, B, alpha), rhs)


def _unit(v: np.ndarray) -> tuple[np.ndarray, float]:
    """v over its 2-norm, and the norm; scaled by the largest entry first, so
    the norm overflows only when it lies beyond the float range itself."""
    peak = float(np.max(np.abs(v)))
    v = v / peak
    norm = math.sqrt(v @ v)
    return v / norm, peak * norm


def _invert(matrix: np.ndarray) -> np.ndarray | None:
    """The inverse of ``matrix``, or None when LAPACK finds it singular."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return None


def _inverse_norms(inverse: np.ndarray | None) -> tuple[float, float]:
    """(c_alpha_est, c_sup) of an inverse, as ``c_alpha_estimate`` describes them.

    The inverse is overwritten with its absolute values; None, or an inverse
    with a non-finite norm, gives inf for both.
    """
    if inverse is None:
        return math.inf, math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Start from the column of largest 2-norm, so the first estimate is
        # already at least 1/(sqrt(n) sigma_min). Vectors are scaled to unit
        # norm at each half step, so only the matrix-vector products can
        # overflow, and only when the inverse itself is near the float range.
        v, _ = _unit(inverse[:, np.argmax(np.einsum("ij,ij->j", inverse, inverse))])
        for _ in range(_POWER_STEPS):
            u, _ = _unit(inverse @ v)
            v, c_est = _unit(inverse.T @ u)
        # The signed inverse is no longer needed: its absolute values go in
        # place, so no second n x n array is made.
        c_sup = float(np.max(np.abs(inverse, out=inverse).sum(axis=1)))
    if not (math.isfinite(c_sup) and math.isfinite(c_est)):
        return math.inf, math.inf
    return c_est, c_sup


def c_alpha_estimate(A: DiscreteOperator, B: Stabilizer, alpha: float) -> tuple[float, float]:
    """The norms of (A + B(alpha))^{-1}: returns (c_alpha_est, c_sup).

    ``c_sup`` is its sup norm, the one the error bound needs, and
    ``c_alpha_est`` a lower estimate of its 2-norm, the margin that q_est
    rates. The running integral plus alpha * I needs no matrix: c_sup is
    the closed form ``DiscreteOperator.shifted_inverse_norm``, between
    1/alpha and 2/alpha, carried up by ``_ROUNDING_PER_ROW`` * n * eps, and
    c_alpha_est keeps the closed bound 2/alpha. Any other pair inverts the
    assembled matrix once: c_sup is the largest absolute row sum of the
    inverse, exact up to rounding, and c_alpha_est comes from
    ``_POWER_STEPS`` power steps on inv^T inv; each step's gain is a lower
    bound on 1/sigma_min, and the gains do not decrease. A singular matrix
    or a non-finite inverse gives inf for both. A certified solve
    (``solve_perturbed``) takes both norms from the one inverse that also
    gives its solution, its residual and its stabilization gap.
    """
    _check_alpha(alpha)
    if _is_shifted_integral(A, B):
        c_sup = A.shifted_inverse_norm(alpha) * (1.0 + _ROUNDING_PER_ROW * A.n * _EPS)
        return 2.0 / alpha, c_sup
    return _inverse_norms(_invert(_assemble(A, B, alpha)))


# The benchmark's tracer (perfbench/tracing.py) times this routine under its
# earlier private name, so the CLI sweep and the O(n) certified solve call it
# through that name.
_c_alpha_estimate = c_alpha_estimate


def _inf_norm(matrix: np.ndarray) -> float:
    """||matrix||_inf, summed in blocks of rows so that no second n x n array is made."""
    return max(float(np.max(np.abs(matrix[i:i + _NORM_BLOCK]).sum(axis=1)))
               for i in range(0, matrix.shape[0], _NORM_BLOCK))


def _refined_gap(inverse: np.ndarray, A_exact: DiscreteOperator, B: Stabilizer, alpha: float,
                 x_star: np.ndarray, norm: float) -> float | None:
    """||(A_exact + B(alpha))^-1 B(alpha) x*||_inf, by iterative refinement on
    ``inverse``, the inverse of a nearby matrix; None unless it gets there.

    Up to ``_GAP_STEPS`` solves y += inverse @ (b - (A_exact + B(alpha)) y),
    from y = 0 and b = B(alpha) x*, each with two products of O(n^2) (the
    running integral applies in O(n)), until the residual lies at LU level,
    n * eps * norm * ||y||_inf, with ``norm`` a bound on
    ||A_exact + B(alpha)||_inf. A step that does not shrink the residual
    ends the refinement.
    """
    level = inverse.shape[0] * _EPS * norm
    if not math.isfinite(level):
        return None
    b = B.apply(alpha, x_star)
    y = np.zeros(b.shape)
    residual, last = b, math.inf
    for _ in range(_GAP_STEPS):
        y += inverse @ residual
        residual = b - A_exact.apply(y) - B.apply(alpha, y)
        size, left = float(np.max(np.abs(y))), float(np.max(np.abs(residual)))
        if left <= level * size:
            return size
        if not left < last:
            return None
        last = left
    return None


def _certified_solve(A: DiscreteOperator, B: Stabilizer, alpha: float, rhs: np.ndarray,
                     A_exact: DiscreteOperator | None = None, x_star: np.ndarray | None = None,
                     noise: float | None = None
                     ) -> tuple[np.ndarray, float, float, float, float, float | None]:
    """Solve M x = rhs, M = A + B(alpha); returns x, its residual, c_alpha_est, c_sup,
    ||M||_inf and the gap.

    A dense pair is assembled and inverted once. That inverse gives x and one
    refinement step, x += inverse @ (rhs - M x), and then both norms. When
    the inverse is singular or not finite, or the refined residual lies
    above LU level, n * eps * ||M||_inf * ||x||_inf, x comes from an LU
    solve instead: at condition numbers past about 1e10 the explicit
    inverse can leave a residual far above LU's.

    Given ``A_exact``, ``x_star`` and ``noise`` >= ||A - A_exact||_inf, the
    gap is ``stabilization_gap(A_exact, B, alpha, x_star)``. A dense pair
    takes it from the same inverse by ``_refined_gap``, with
    ||A_exact + B(alpha)||_inf <= ||M||_inf + noise; the running integral
    with alpha * I, a failed refinement or a singular inverse take the LU
    solve of ``stabilization_gap``. Without them, or when that exact system
    is singular while the observed one is not, the gap is None.
    """
    gap = None
    if _is_shifted_integral(A, B):
        x = _solve_stabilized(A, B, alpha, rhs)
        residual = float(np.max(np.abs(A.apply(x) + B.apply(alpha, x) - rhs)))
        c_est, c_sup = _c_alpha_estimate(A, B, alpha)
        m_norm = (A.n - 1) * A.h + alpha  # the last row: h/2, n - 2 times h, h/2 + alpha
    else:
        m = _assemble(A, B, alpha)
        inverse = _invert(m)
        c_est = c_sup = m_norm = math.inf
        if inverse is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                x = inverse @ rhs
                x += inverse @ (rhs - m @ x)
                residual = float(np.max(np.abs(m @ x - rhs)))
                m_norm = _inf_norm(m)
                if A_exact is not None:
                    # before _inverse_norms overwrites the signed inverse
                    gap = _refined_gap(inverse, A_exact, B, alpha, x_star, m_norm + noise)
                c_est, c_sup = _inverse_norms(inverse)
                lu_level = m.shape[0] * _EPS * m_norm * float(np.max(np.abs(x)))
        if inverse is None or not (math.isfinite(residual) and residual <= lu_level):
            x = _solve_linear(m, rhs)
            residual = float(np.max(np.abs(m @ x - rhs)))
    if A_exact is not None and gap is None:
        with contextlib.suppress(SingularSystem):
            gap = stabilization_gap(A_exact, B, alpha, x_star)
    return x, residual, c_est, c_sup, m_norm, gap


def stabilization_gap(A: DiscreteOperator, B: Stabilizer, alpha: float, x_star) -> float:
    """Sup-norm of (A + B(alpha))^{-1} B(alpha) x*: the stabilizer-induced bias.

    This is the error a stabilized solve commits on perfect data. It vanishes
    exactly when the stabilizer annihilates x*; for integration with alpha*I
    it decays with alpha precisely when x* vanishes at the left endpoint.

    Raises
    ------
    ValueError
        If alpha is not positive and finite, or x_star is not one-dimensional
        or not of the size of A.
    SingularSystem
        If A + B(alpha) cannot be factorized.
    """
    _check_alpha(alpha)
    xs = _as_vector(x_star, A.size, "x_star")
    return float(np.max(np.abs(_solve_stabilized(A, B, alpha, B.apply(alpha, xs)))))


def stabilization_sweep(A: DiscreteOperator, B: Stabilizer, alphas: Sequence[float],
                        x_star) -> list[tuple[float, float]]:
    """stabilization_gap at each alpha, as (alpha, gap) pairs.

    No monotonicity is enforced or assumed; the sweep exists to make the
    actual alpha -> bias trade-off visible. A dense operator with alpha * I
    is reordered once, into one Fortran-ordered copy; each alpha's matrix is
    copied from it, so LAPACK's own input copy reads contiguous columns. It
    sees the same column-major matrix either way, so each gap has the bits a
    lone ``stabilization_gap`` call gives. A finite-rank stabilizer does not
    depend on alpha, so its one gap is solved once and repeated on every row.
    x_star is checked as ``stabilization_gap`` checks it, even with no alphas.
    """
    alphas = [_check_alpha(float(a)) for a in alphas]
    xs = _as_vector(x_star, A.size, "x_star")
    if not alphas:
        return []
    if not B.is_scalar:
        gap = stabilization_gap(A, B, alphas[0], xs)
        return [(a, gap) for a in alphas]
    if A.is_volterra:
        return [(a, stabilization_gap(A, B, a, xs)) for a in alphas]
    columns = np.asfortranarray(A.matrix)
    return [(a, float(np.max(np.abs(_solve_linear(_shifted(columns, a), a * xs)))))
            for a in alphas]


def _realized_noise(A_tilde: DiscreteOperator, A_exact: DiscreteOperator, f: np.ndarray,
                    x_star: np.ndarray, delta: float) -> tuple[float, bool]:
    """(delta_realized, whether it stays within delta), as ``solve_perturbed`` states them.

    Two running integrals on n points are not densified: row i of each holds
    h/2, i - 1 times h and h/2, so they differ by (n - 1) |h~ - h| and
    || |A_tilde| + |A_exact| ||_inf is (n - 1) (h~ + h). Any other pair is
    compared as dense matrices. Noise, or its rounding allowance, past the
    float64 range (A x* may overflow) claims no bound; the noise then reads inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exact_f = A_exact.apply(x_star)
        data = float(np.max(np.abs(f - exact_f)))
        holds = data <= delta + _EPS * float(np.max(np.abs(f))) \
            + _EPS * float(np.max(np.abs(exact_f)))
        if A_tilde.is_volterra and A_exact.is_volterra and A_tilde.n == A_exact.n:
            operator = (A_tilde.n - 1) * abs(A_tilde.h - A_exact.h)
            scale = (A_tilde.n - 1) * (A_tilde.h + A_exact.h)
        else:
            observed, exact = A_tilde.as_matrix(), A_exact.as_matrix()
            work = np.subtract(observed, exact)
            operator = float(np.max(np.abs(work, out=work).sum(axis=1)))
            rows = np.abs(observed, out=work).sum(axis=1)
            scale = float(np.max(rows + np.abs(exact, out=work).sum(axis=1)))
    if not (math.isfinite(data) and math.isfinite(operator)):
        return math.inf, False
    return max(operator, data), holds and operator <= delta + _EPS * scale < math.inf


def solve_perturbed(A_tilde: DiscreteOperator, B: Stabilizer, alpha: float, f_tilde,
                    config: RegConfig, x_star=None,
                    A_exact: DiscreteOperator | None = None) -> SolveReport:
    """Solve (A_tilde + B(alpha)) x = f_tilde and report diagnostics.

    The running integral with alpha * I is solved by its O(n) recurrence
    (``DiscreteOperator.solve_shifted``), and its c_sup has a closed form.
    Every other pair is assembled into a dense matrix M and inverted once;
    that inverse gives x, refined by one step x += M^-1 (f - M x), the
    residual, c_alpha_est and c_sup. When the refined residual lies above LU
    level, n * eps * ||M||_inf * ||x||_inf, or the inverse is not finite, x
    comes from an LU solve instead. With exact data the same inverse also
    gives the stabilization gap: iterative refinement solves
    (A_exact + B(alpha)) y = B(alpha) x* to LU level in a few O(n^2) steps,
    since M differs from A_exact + B(alpha) only by the operator noise; when
    it does not get there within ``_GAP_STEPS`` solves, one LU solve gives
    the gap, and when A_exact + B(alpha) is singular there is no gap and no
    bound.

    The report carries both margins, q_est = delta * c_alpha_est with its flag
    q_est >= q_max and q_sup = delta * c_sup, and the error bound, which is
    a-posteriori (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 7). Let y solve (A + B(alpha)) y = A x*, so that
    ||y - x*||_inf = S, the gap, and r = f~ - M~ x for the observed
    M~ = A~ + B(alpha). Then M~ (x - y) = (f~ - A x*) - (A~ - A) y - r, so
    with noise within delta
    ||x - x*||_inf <= S + delta c_sup (1 + ||x*||_inf + S) + c_sup ||r||_inf,
    at any q_sup. The computed c_sup and x are accurate to about n eps
    cond(M~), cond(M~) = ||M~||_inf c_sup, so the bound is that sum times
    1 + rho, plus 2 rho ||x||_inf for the rounding of r, with
    rho = ``_ROUNDING_PER_ROW`` n eps cond(M~). A bound that is not finite
    is not claimed.

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
        Supplies the noise level delta and the q threshold. Its alpha, when
        set, must equal ``alpha``.
    x_star, A_exact : optional
        Exact solution and exact operator, when known, of the size of
        f_tilde. With x_star alone the report carries the observed error;
        with both it also carries the stabilization gap, the realized noise
        delta_realized = max(||A_tilde - A_exact||_inf, ||f_tilde - A_exact x*||_inf)
        and the error bound. The bound rests on noise of at most delta, so it
        is claimed only while each of the two norms is at most delta plus the
        rounding of its subtraction: eps * (||f_tilde||_inf + ||A_exact x*||_inf)
        for the data, eps * || |A_tilde| + |A_exact| ||_inf for the operator.

    Raises
    ------
    ValueError
        If alpha is not positive and finite or differs from config.alpha,
        f_tilde or x_star is not one-dimensional, f_tilde does not match the
        size of A_tilde, or x_star or A_exact that of f_tilde.
    SingularSystem
        If the assembled matrix cannot be factorized, or the solve returns
        non-finite values. A margin q_est at or above config.q_max does NOT
        raise: the solution is still returned, flagged with
        ``q_exceeded=True``.
    """
    _check_alpha(alpha)
    if config.alpha is not None and config.alpha != alpha:
        raise ValueError(f"config.alpha {config.alpha} differs from alpha {alpha}")
    f = _as_vector(f_tilde, A_tilde.size, "f_tilde")
    xs = None if x_star is None else _as_vector(x_star, f.size, "x_star", "rhs")
    if A_exact is not None and A_exact.size != f.size:
        raise ValueError(f"exact operator size {A_exact.size} does not match rhs size {f.size}")
    exact = A_exact if xs is not None else None
    delta_realized, delta_holds = None, True
    if exact is not None:
        delta_realized, delta_holds = _realized_noise(A_tilde, exact, f, xs, config.delta)
    # delta_realized >= ||A_tilde - A_exact||_inf, as the gap's refinement needs
    x, residual, c_est, c_sup, m_norm, gap = _certified_solve(A_tilde, B, alpha, f, exact, xs,
                                                              delta_realized)
    q_est, q_sup = config.delta * c_est, config.delta * c_sup
    bound = components = observed = None
    if xs is not None:
        observed = float(np.max(np.abs(x - xs)))
        if gap is not None and delta_holds:
            xs_norm = float(np.max(np.abs(xs)))
            rho = _ROUNDING_PER_ROW * x.size * _EPS * m_norm * c_sup
            claim = (gap + q_sup * (1.0 + xs_norm + gap) + c_sup * residual) * (1.0 + rho) \
                + 2.0 * rho * float(np.max(np.abs(x)))
            if math.isfinite(claim):
                bound, components = claim, (gap, q_sup, xs_norm)
    return SolveReport(
        solution=x,
        residual_norm=residual,
        c_alpha_est=c_est,
        q_est=q_est,
        q_exceeded=q_est >= config.q_max,
        c_sup=c_sup,
        q_sup=q_sup,
        gap=gap,
        bound=bound,
        bound_components=components,
        observed_error=observed,
        delta_realized=delta_realized,
    )
