"""Discrete operators and the stabilizing perturbations added to them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import GridFunction, _check_grid

# Samples per block of ``first_order_scan``. Each sample costs one row of a
# matrix product this wide; smaller blocks would add recursion levels, each a
# few more numpy calls, and larger ones flops.
_SCAN_BLOCK = 64
# Index of r^(j-m) in [r^0, ..., r^64, 0] for entry [j, m] of the scan's
# lower-triangular power matrix; entries above the diagonal index the 0.
_SCAN_LAGS = np.subtract.outer(np.arange(_SCAN_BLOCK), np.arange(_SCAN_BLOCK))
_SCAN_LAGS[_SCAN_LAGS < 0] = _SCAN_BLOCK + 1


def running_trapezoid(y: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral of uniform samples y with spacing h; the first value is 0.

    Same operations in the same order as ``scipy.integrate.cumulative_trapezoid``
    with ``dx=h, initial=0``, so the result is bit-identical to it.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty(y.size)
    out[:1] = 0.0
    np.cumsum(h * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


def first_order_scan(u: np.ndarray, r: float) -> np.ndarray:
    """The recurrence w_0 = u_0, w_i = r * w_{i-1} + u_i, for |r| <= 1, in O(n).

    No Python loop over i: the samples are cut into blocks of 64. Inside a
    block, w is the block's input times the lower-triangular matrix of powers
    r^(j-m). The value at each block end then carries into the next block as
    r^(j+1) * carry; the carries obey the same recurrence with ratio r^64, so
    the same scan solves them, one level up.

    u may be a stack of rows, scanned along its last axis. numpy multiplies
    each row's blocks by the power matrix in a product of their own, so
    every row gets the bits a scan of that row alone gives.
    """
    u = np.asarray(u, dtype=float)
    lead, n = u.shape[:-1], u.shape[-1]
    blocks = -(-n // _SCAN_BLOCK)
    padded = np.zeros(lead + (blocks, _SCAN_BLOCK))
    padded.reshape(lead + (-1,))[..., :n] = u
    pw = r ** np.arange(_SCAN_BLOCK + 2)
    pw[-1] = 0.0
    w = padded @ pw[_SCAN_LAGS].T
    if blocks > 1:
        carry = first_order_scan(w[..., -1], pw[_SCAN_BLOCK])
        w[..., 1:, :] += carry[..., :-1, None] * pw[1:-1]
    return w.reshape(lead + (-1,))[..., :n]


def cumulative_trapezoid_matrix(n: int, h: float) -> np.ndarray:
    """Dense matrix of the running trapezoid integral.

    Row i holds h * [1/2, 1, ..., 1, 1/2] over columns 0..i; row 0 is all
    zeros since the integral from a to a vanishes. The matrix is singular by
    construction, which is exactly why a stabilizer is needed.
    """
    m = np.tril(np.full((n, n), h))
    m[:, 0] = 0.5 * h
    np.fill_diagonal(m, 0.5 * h)
    m[0, :] = 0.0
    return m


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be a finite number >= 0, got {delta}")


def _as_vector(x, n: int, name: str, against: str = "operator") -> np.ndarray:
    """x as a float array of shape (n,), a GridFunction as its values; any other
    shape, such as a column (n, 1) that would broadcast, is a ValueError."""
    v = x.values if isinstance(x, GridFunction) else np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size != n:
        raise ValueError(f"{name} size {v.size} does not match {against} size {n}")
    return v


def _as_matrix(matrix) -> np.ndarray:
    """matrix as a float array of shape (n, n) with n >= 1 and finite entries."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"matrix must not be empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class DiscreteOperator:
    """A dense matrix, or the running trapezoid integral on a described grid.

    The integral variant stores only the grid (a, b, n); its matrix is
    materialized on demand.
    """

    matrix: np.ndarray | None = None
    a: float | None = None
    b: float | None = None
    n: int | None = None

    @classmethod
    def dense(cls, matrix: np.ndarray) -> "DiscreteOperator":
        return cls(matrix=_as_matrix(matrix))

    @classmethod
    def volterra(cls, a: float, b: float, n: int) -> "DiscreteOperator":
        """Running trapezoid integral over [a, b] on n uniform points."""
        _check_grid(a, b, n)
        return cls(a=float(a), b=float(b), n=int(n))

    @property
    def is_volterra(self) -> bool:
        return self.matrix is None

    @property
    def size(self) -> int:
        return self.n if self.is_volterra else self.matrix.shape[0]

    @property
    def h(self) -> float:
        if not self.is_volterra:
            raise AttributeError("dense operators carry no grid spacing")
        return (self.b - self.a) / (self.n - 1)

    def as_matrix(self) -> np.ndarray:
        if self.is_volterra:
            return cumulative_trapezoid_matrix(self.n, self.h)
        return self.matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self.size, "operand")
        if self.is_volterra:
            return running_trapezoid(x, self.h)
        return self.matrix @ x

    def solve_shifted(self, alpha: float, f: np.ndarray) -> np.ndarray:
        """(V + alpha * I)^-1 f for the running integral V, in O(n) and without its matrix.

        The system is lower-triangular with constant bands. Row 0 reads
        alpha * x_0 = f_0, and row i minus row i-1 leaves the first-order
        recurrence

            x_i = r * x_{i-1} + (f_i - f_{i-1}) / (alpha + h/2),
            r = (alpha - h/2) / (alpha + h/2),

        with |r| < 1 for every alpha > 0. f may be a stack of rows; each gets
        the bits a lone call gives. The result is not checked for overflow; a
        tiny alpha can return non-finite values.
        """
        if not self.is_volterra:
            raise ValueError("solve_shifted needs the running-integral operator")
        _check_alpha(alpha)
        f = np.atleast_1d(np.asarray(f, dtype=float))
        if f.shape[-1] != self.n:
            raise ValueError(f"operand size {f.shape[-1]} does not match operator size {self.n}")
        half_h = 0.5 * self.h
        u = np.empty(f.shape)
        u[..., 0] = f[..., 0] / alpha
        u[..., 1:] = np.diff(f, axis=-1) / (alpha + half_h)
        return first_order_scan(u, (alpha - half_h) / (alpha + half_h))

    def shifted_inverse_norm(self, alpha: float) -> float:
        """||(V + alpha * I)^-1||_inf for the running integral V, in O(1).

        With p = alpha + h/2 and r = (alpha - h/2)/p, row 0 of the inverse
        is e_0/alpha and row i >= 1 holds r^i/alpha - r^(i-1)/p at column 0,
        (r^(i-k) - r^(i-k-1))/p at column k < i and 1/p at column i (see
        ``solve_shifted``). Since 1 - |r| = min(h, 2 alpha)/p, the absolute
        row sums have a closed form: for alpha <= h/2 every row sums to
        1/alpha, and above h/2 row i sums to (2 - r^(i-1) (alpha - h/2)/alpha)/p,
        which grows with i. So the norm is the last row's sum, or 1/alpha.
        """
        if not self.is_volterra:
            raise ValueError("shifted_inverse_norm needs the running-integral operator")
        _check_alpha(alpha)
        half_h = 0.5 * self.h
        if alpha <= half_h:
            return 1.0 / alpha
        p = alpha + half_h
        return (2.0 - ((alpha - half_h) / p) ** (self.n - 2) * ((alpha - half_h) / alpha)) / p


def _stack_vectors(vectors, name: str) -> np.ndarray:
    """At least one vector, each by the vector rule and of the size of the first,
    as the rows of one (k, n) array; all finite. A grid function gives its values."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError(f"{name} must hold at least one vector")
    first = vectors[0]
    n = np.size(first.values if isinstance(first, GridFunction) else first)
    stacked = np.vstack([_as_vector(v, n, f"{name}[{i}]", f"{name}[0]")
                         for i, v in enumerate(vectors)])
    if not np.all(np.isfinite(stacked)):
        raise ValueError(f"{name} must be finite")
    return stacked


@dataclass(frozen=True)
class Stabilizer:
    """alpha * I, or a fixed finite-rank operator  x -> sum_i <x, gamma_i> z_i.

    The finite-rank variant does not depend on alpha at all; its job is to
    shift the degenerate directions of the operator it is added to. The
    pairing is the plain sum <x, gamma_i> = sum_k x_k gamma_ik, for grid
    functions as for arrays.
    """

    gammas: np.ndarray | None = None
    zs: np.ndarray | None = None

    @classmethod
    def scalar_alpha(cls) -> "Stabilizer":
        return cls()

    @classmethod
    def finite_dim(cls, gammas: Sequence, zs: Sequence) -> "Stabilizer":
        """Finite-rank stabilizer from matching lists of vectors or grid functions.

        Each list holds at least one vector; each entry is one-dimensional and
        of the size of the first, and a grid function gives its values.
        """
        g = _stack_vectors(gammas, "gammas")
        z = _stack_vectors(zs, "zs")
        if g.shape != z.shape:
            raise ValueError(f"gammas and zs disagree in shape: {g.shape} vs {z.shape}")
        return cls(gammas=g, zs=z)

    @property
    def is_scalar(self) -> bool:
        return self.gammas is None

    @property
    def rank(self) -> int:
        return 0 if self.is_scalar else self.gammas.shape[0]

    def _check_size(self, n: int) -> None:
        """ValueError unless the finite-rank stabilizer acts on vectors of size n."""
        if self.gammas.shape[1] != n:
            raise ValueError(f"stabilizer built for size {self.gammas.shape[1]}, asked for {n}")

    def apply(self, alpha: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.is_scalar:
            return alpha * x
        self._check_size(len(x))
        return self.zs.T @ (self.gammas @ x)

    def materialize(self, alpha: float, n: int) -> np.ndarray:
        """Dense n x n matrix of the stabilizer evaluated at alpha."""
        if self.is_scalar:
            return alpha * np.eye(n)
        self._check_size(n)
        return self.zs.T @ self.gammas
