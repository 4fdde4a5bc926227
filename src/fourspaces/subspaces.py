"""Orthonormal bases for the four fundamental subspaces of a matrix.

Everything derives from the singular value decomposition: the leading
columns of ``v`` and ``u`` span the row space and column space, the silent
columns of the full form span the null space and left null space, and the
dimensions add up to the rank-nullity identities by construction.  Consumers
that need only the rank or the row space read the reduced SVD, so bases are
completed only when a null space is asked for.

Bases are passed around as 2-D arrays whose *columns* are the basis
vectors; a subspace of dimension zero is a ``(dim, 0)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentBasisError, NonFiniteEntryError, NotInRowSpaceError, ShapeError
from .factorizations import svd_full, svd_reduced
from .matrix import (DEFAULT_TOL, _as_tolerance, _prescaled, as_matrix, frobenius_norm, matmul,
                     pivot_rank)

__all__ = [
    "SubspaceBases",
    "RankNullityReport",
    "fundamental_bases",
    "column_basis_from_row_basis",
    "rank_nullity_report",
    "subspaces_equal",
]


@dataclass(frozen=True)
class SubspaceBases:
    """Column-wise orthonormal bases of the four subspaces, plus the rank."""

    row_space: np.ndarray
    null_space: np.ndarray
    column_space: np.ndarray
    left_null_space: np.ndarray
    rank: int

    @classmethod
    def from_svd(cls, res):
        """Split the factors of a full-form ``SvdResult`` into the four bases."""
        r = res.rank
        return cls(
            row_space=res.v[:, :r].copy(),
            null_space=res.v[:, r:].copy(),
            column_space=res.u[:, :r].copy(),
            left_null_space=res.u[:, r:].copy(),
            rank=r,
        )


@dataclass(frozen=True)
class RankNullityReport:
    """Subspace dimensions; ``rank + dim_null == n_cols`` and ``rank + dim_left_null == n_rows``."""

    rank: int
    n_rows: int
    n_cols: int
    dim_null: int
    dim_left_null: int


def _as_basis(b, name="basis"):
    """A (dim, k) array of column vectors; k may be zero, dim may not."""
    arr = np.asarray(b, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ShapeError(f"{name} must be a (dim, k) array of column vectors, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError(f"{name} contains NaN or infinite entries")
    return arr


def fundamental_bases(x, tol=DEFAULT_TOL):
    """Split the full SVD factors into the four orthonormal bases."""
    return SubspaceBases.from_svd(svd_full(_prescaled(as_matrix(x))[0], tol))


def rank_nullity_report(x, tol=DEFAULT_TOL):
    """Dimensions of all four subspaces of ``x``."""
    x = as_matrix(x)
    r = svd_reduced(_prescaled(x)[0], tol).rank
    n, p = x.shape
    return RankNullityReport(rank=r, n_rows=n, n_cols=p, dim_null=p - r, dim_left_null=n - r)


def column_basis_from_row_basis(x, row_basis, tol=DEFAULT_TOL):
    """Map a basis of the row space through ``x`` into a basis of the column space.

    Each supplied column must actually lie in the row space (its projection
    onto the fundamental row-space basis must move it by no more than
    ``max(100 * tol.relative, 1e-8)`` times its own norm) and the columns
    must be linearly independent; the images ``x @ row_basis`` then form a
    basis of the column space, though not generally an orthonormal one; one
    past the float range raises ``NonFiniteEntryError``, with no warning.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    rb = _as_basis(row_basis, "row basis")
    n, p = x.shape
    if rb.shape[0] != p:
        raise ShapeError(f"row basis vectors must have length {p}, got {rb.shape[0]}")
    k = rb.shape[1]
    if k == 0:
        return np.zeros((n, 0))
    row_space = svd_reduced(_prescaled(x)[0], tol).v
    proj = row_space @ (row_space.T @ rb)
    band = max(100.0 * tol.relative, 1e-8)
    for j in range(k):
        drift = frobenius_norm(proj[:, j] - rb[:, j])
        if drift > band * frobenius_norm(rb[:, j]):
            raise NotInRowSpaceError(
                f"column {j} of the supplied basis leaves the row space "
                f"(projection drift {drift:.3e})"
            )
    if pivot_rank(rb, tol) < k:
        raise DependentBasisError("supplied row-space vectors are linearly dependent")
    return matmul(x, rb)


def subspaces_equal(basis_a, basis_b, tol=DEFAULT_TOL):
    """Whether two column bases span the same subspace.

    Each basis is first orthonormalised as the ``u`` of its
    :func:`~fourspaces.factorizations.svd_reduced` at ``tol``, so its columns
    need be neither orthonormal nor independent: a column that ``tol``
    counts as dependent adds nothing to the span, and a ``(dim, 0)`` basis
    spans the zero subspace.  The orthogonal projectors ``u_a @ u_a.T`` and
    ``u_b @ u_b.T`` are then compared, which is basis-independent; the
    comparison band is ``k * max(100 * tol.relative, 1e-8)``, ``k`` the
    larger of the two ranks.  At ``k = 0`` both projectors are exactly zero.
    """
    tol = _as_tolerance(tol)
    a = _as_basis(basis_a, "first basis")
    b = _as_basis(basis_b, "second basis")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"bases live in different ambient dimensions: {a.shape[0]} vs {b.shape[0]}"
        )
    a, b = (svd_reduced(_prescaled(x)[0], tol).u if x.shape[1] else x for x in (a, b))
    k = max(a.shape[1], b.shape[1])
    gap = frobenius_norm(a @ a.T - b @ b.T)
    return bool(gap <= k * max(100.0 * tol.relative, 1e-8))
