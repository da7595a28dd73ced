"""Finite-rank stabilizers built from null-space data, and the projected solve.

When the operator has a known finite-dimensional null space, an alpha-scaled
identity is a blunt instrument: it perturbs every direction. The finite-rank
stabilizer below shifts only the degenerate directions, using the null
vectors phi_i of the operator, the null vectors psi_i of its adjoint, and a
biorthogonal family z_i. The right-hand side is projected off the cokernel
before solving, so the stabilized system stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BiorthogonalityFailed, DegenerateGram, SingularSystem
from .operators import DiscreteOperator, Stabilizer, _stack_vectors
from .solve import SolveReport, _c_alpha_estimate, _report, _solve_stabilized

_BIORTHO_TOL = 1e-10
_DET_TOL = 1e-12


@dataclass(frozen=True)
class FredholmBasis:
    """Null-space data for a finite-rank stabilizer, stacked as (k, n) rows.

    phis span the null space of the operator, psis the null space of its
    adjoint, gammas are the selection functionals paired against phis, and
    zs are biorthogonal to psis (<z_i, psi_k> = delta_ik).
    """

    phis: np.ndarray
    psis: np.ndarray
    gammas: np.ndarray
    zs: np.ndarray

    @property
    def rank(self) -> int:
        return self.phis.shape[0]

    @property
    def stabilizer(self) -> Stabilizer:
        return Stabilizer.finite_dim(self.gammas, self.zs)


def nullspace_basis(matrix: np.ndarray, rtol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal null-space bases (phis, psis) of a square matrix via SVD.

    Directions with singular value sigma_i < rtol * sigma_max count as null.
    Returns (k, n) stacks of right (matrix @ phi = 0) and left
    (matrix.T @ psi = 0) null vectors; both are empty when the matrix has
    full numerical rank.
    """
    m = np.asarray(matrix, dtype=float)
    u, s, vt = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        null_mask = np.ones(s.size, dtype=bool)
    else:
        null_mask = s < rtol * s[0]
    return vt[null_mask].copy(), u[:, null_mask].T.copy()


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row over its 2-norm, a zero row left zero.

    Dividing by the largest entry first keeps the norm from overflowing; it
    leaves every nonzero row with a norm of at least 1, so the clip only
    touches zero rows.
    """
    peak = np.max(np.abs(rows), axis=1, keepdims=True)
    scaled = np.divide(rows, peak, out=np.zeros_like(rows), where=peak > 0.0)
    return scaled / np.linalg.norm(scaled, axis=1, keepdims=True).clip(min=1.0)


def build_stabilizer(phis, psis, gammas=None, zs=None) -> FredholmBasis:
    """Assemble and validate the null-space data for a finite-rank stabilizer.

    Parameters
    ----------
    phis, psis : sequences of vectors
        Null vectors of the operator and of its adjoint, one per defect
        dimension.
    gammas : sequence of vectors, optional
        Selection functionals; defaults to phis, which pins the component of
        the solution along each null direction.
    zs : sequence of vectors, optional
        Vectors biorthogonal to psis. By default they are produced from psis
        through the inverse Gram matrix, which is the unique biorthogonal
        family inside span(psis).

    Raises
    ------
    DegenerateGram
        If det <phi_i, gamma_k> is numerically zero; the stabilizer would
        leave some null direction unshifted.
    BiorthogonalityFailed
        If biorthogonal vectors cannot be produced (psis linearly dependent)
        or supplied zs fail <z_i, psi_k> = delta_ik.
    """
    phis = _stack_vectors(phis, "phis")
    psis = _stack_vectors(psis, "psis")
    if phis.shape != psis.shape:
        raise ValueError(f"phis and psis disagree in shape: {phis.shape} vs {psis.shape}")
    k = phis.shape[0]

    gammas = phis if gammas is None else _stack_vectors(gammas, "gammas")
    if gammas.shape != phis.shape:
        raise ValueError(f"gammas shape {gammas.shape} does not match phis {phis.shape}")

    # The pairing of unit rows: the test does not depend on how the rows are
    # scaled, and no product of norms can overflow.
    if abs(float(np.linalg.det(_unit_rows(phis) @ _unit_rows(gammas).T))) <= _DET_TOL:
        raise DegenerateGram(
            f"|det <phi_i, gamma_k>| <= {_DET_TOL:g} for unit phi_i and gamma_k; "
            "the stabilizer cannot separate the null directions")

    if zs is None:
        # Solved on psis scaled by one power of two, which is exact and keeps
        # the Gram matrix in range; zs scale back the same way.
        shift = int(np.frexp(np.max(np.abs(psis)))[1])
        scaled = np.ldexp(psis, -shift)
        try:
            with np.errstate(over="raise"):
                zs = np.ldexp(np.linalg.solve(scaled @ scaled.T, scaled), -shift)
        except np.linalg.LinAlgError as exc:
            raise BiorthogonalityFailed(
                f"psis are linearly dependent, Gram matrix is singular: {exc}") from exc
        except FloatingPointError as exc:
            raise BiorthogonalityFailed(
                "psis are too small: the biorthogonal zs leave the float64 range") from exc
    else:
        zs = _stack_vectors(zs, "zs")
        if zs.shape != psis.shape:
            raise ValueError(f"zs shape {zs.shape} does not match psis {psis.shape}")

    defect = float(np.max(np.abs(zs @ psis.T - np.eye(k))))
    if defect > _BIORTHO_TOL:
        raise BiorthogonalityFailed(
            f"max |<z_i, psi_k> - delta_ik| = {defect:g} exceeds {_BIORTHO_TOL:g}")

    return FredholmBasis(phis=phis, psis=psis, gammas=gammas, zs=zs)


def project_rhs(f, basis: FredholmBasis) -> np.ndarray:
    """Remove the cokernel components: f - sum_i <f, psi_i> z_i.

    The projected vector pairs to zero with every psi_i whenever the zs are
    exactly biorthogonal, which keeps the stabilized system consistent with
    the solvable part of the data.
    """
    f = np.asarray(f, dtype=float)
    return f - basis.zs.T @ (basis.psis @ f)


def solve_fredholm_regularized(A_tilde: DiscreteOperator, basis: FredholmBasis, f_tilde,
                               delta: float = 0.0, q_max: float = 0.5,
                               x_star=None) -> SolveReport:
    """Solve (A_tilde + B) x = projected f_tilde with the finite-rank B.

    The report's ``selection`` entries are the pairings <x, gamma_i>; for
    exact data they vanish, and they shrink linearly with the data noise, so
    they act as a per-direction consistency diagnostic.

    ``delta`` is only used for the margin q_est = delta * c_alpha_est; the
    stabilizer itself does not depend on it. With ``x_star`` the report
    carries the observed error.

    Raises
    ------
    SingularSystem
        If the stabilized matrix still cannot be factorized.
    """
    stab = basis.stabilizer
    rhs = project_rhs(f_tilde, basis)
    x, assembled = _solve_stabilized(A_tilde, stab, 1.0, rhs)
    residual = float(np.max(np.abs(assembled @ x - rhs)))
    c_est = _c_alpha_estimate(A_tilde, stab, 1.0, assembled)
    return _report(x, residual, c_est, delta, q_max, x_star=x_star,
                   selection=basis.gammas @ x)
