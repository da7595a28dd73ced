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
from .solve import SolveReport, _solve_linear, invertibility_margin

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

    pairing = phis @ gammas.T
    scale = float(np.prod([np.linalg.norm(phis[i]) * np.linalg.norm(gammas[i])
                           for i in range(k)]))
    if abs(float(np.linalg.det(pairing))) <= _DET_TOL * scale:
        raise DegenerateGram(
            f"|det <phi_i, gamma_k>| <= {_DET_TOL:g} * {scale:g}; "
            "the stabilizer cannot separate the null directions")

    if zs is None:
        gram = psis @ psis.T
        try:
            zs = np.linalg.solve(gram, psis)
        except np.linalg.LinAlgError as exc:
            raise BiorthogonalityFailed(
                f"psis are linearly dependent, Gram matrix is singular: {exc}") from exc
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
                               delta: float = 0.0, q_max: float = 0.5) -> SolveReport:
    """Solve (A_tilde + B) x = projected f_tilde with the finite-rank B.

    The report's ``selection`` entries are the pairings <x, gamma_i>; for
    exact data they vanish, and they shrink linearly with the data noise, so
    they act as a per-direction consistency diagnostic.

    ``delta`` is only used for the margin q_est = delta * c_alpha_est; the
    stabilizer itself does not depend on it.

    Raises
    ------
    SingularSystem
        If the stabilized matrix still cannot be factorized.
    """
    f = np.asarray(f_tilde, dtype=float)
    stab = basis.stabilizer
    assembled = A_tilde.as_matrix() + stab.materialize(1.0, f.size)
    rhs = project_rhs(f, basis)
    x = _solve_linear(assembled, rhs)
    residual = float(np.max(np.abs(assembled @ x - rhs)))
    sigma_min = float(np.linalg.svd(assembled, compute_uv=False)[-1])
    c_est = float("inf") if sigma_min == 0.0 else 1.0 / sigma_min
    q_est = invertibility_margin(delta, c_est)
    return SolveReport(
        solution=x,
        residual_norm=residual,
        c_alpha_est=c_est,
        q_est=q_est,
        q_exceeded=q_est >= q_max,
        selection=basis.gammas @ x,
    )
