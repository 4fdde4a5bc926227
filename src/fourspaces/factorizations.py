"""Singular value and CR factorizations, built constructively.

The SVD runs Jacobi on the triangular factor of a QR, as in A = QR, taken
twice: a column-pivoted, re-orthogonalised Gram-Schmidt gives ``X = Q R``
up to rounding, with ``Q`` n x k, the same loop gives ``R' = Q1 R1``, and
one-sided Jacobi rotates the k1 rows of ``R1`` until every pair is
orthogonal to ``k1 eps`` in cosine.  Its rotations are those that
diagonalise ``R1 R1'``, read off the rows, and give the eigenvectors ``W``
of ``R1 R1'``, ``v = Q1 W`` and ``u = Q R1' W / sigma``.  A wide input runs
on its transpose with the two sides swapped, so ``X`` is tall.  Pivoting
grades the rows of ``R`` and the second QR brings ``R1 R1'`` one step
nearer to diagonal, so Jacobi needs few sweeps and keeps small singular
values to relative accuracy (Drmac and Veselic, SIMAX 2008), and each QR
stops at rounding level, so a rank-deficient input gives a rank-sized
problem.  The input is first scaled by the power of two that brings its
largest entry into [0.5, 1) and ``sigma`` is scaled back; the scaling is
exact, so it changes no bits unless a product of entries would otherwise
overflow or underflow, and a ``sigma`` that scales back past the float
range raises ``NonFiniteEntryError``.  :func:`svd_full` completes both
sides of :func:`svd_reduced` to orthonormal bases by one Gram-Schmidt pass
over standard basis candidates.  The CR factorization reuses the row
reduction of :mod:`matrix`, without its transform: original pivot columns
times the nonzero echelon rows reproduce the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteEntryError
from .matrix import (
    DEFAULT_TOL, Tolerance, _as_tolerance, _eliminate, _inverse_scaled_back, _prescaled,
    _scaled_back, as_matrix,
)
from .spectral import _jacobi_rows, _sign_columns

__all__ = [
    "SvdResult",
    "CrFactors",
    "svd_full",
    "svd_reduced",
    "cr_decompose",
]

# The rank cutoff never goes below this fraction of sigma_max.  It was set for
# the Gram-matrix route, which could not certify singular values below
# roughly sqrt(eps) * sigma_max: forming R R' perturbed zero eigenvalues by
# eps * sigma_max^2, and spurious values on exactly rank-deficient inputs
# reached 2e-8 of sigma_max.  Jacobi now rotates the rows of R1, the factor
# of the second QR, and forms R1 R1' only to test the cosine of each pair, so
# the floor guards the cutoff rule alone; lowering it changes ranks.
GRAM_RANK_FLOOR = 1e-6


@dataclass(frozen=True)
class SvdResult:
    """Factors with ``u @ sigma_matrix() @ v.T`` reproducing the input.

    ``sigma`` holds the ``rank`` accepted singular values in descending
    order.  In ``full`` form ``u`` and ``v`` are square orthogonal; in
    ``reduced`` form they keep only the first ``rank`` columns.  ``cutoff``
    is the absolute threshold a singular value had to exceed,
    ``largest_rejected`` the largest computed singular value at or below
    it (0.0 when every computed value passed; the QR leaves none above
    rounding level uncomputed), and ``sweeps`` the Jacobi sweeps behind them.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    form: str
    tol_used: Tolerance
    cutoff: float
    largest_rejected: float
    sweeps: int

    def sigma_matrix(self):
        """Materialize sigma as ``u.shape[1] x v.shape[1]``: ``r x r`` reduced, ``n x p`` full."""
        s = np.zeros((self.u.shape[1], self.v.shape[1]))
        s[: self.rank, : self.rank] = np.diag(self.sigma)
        return s

    def pinv(self):
        """Pseudo inverse ``v_r diag(1/sigma) u_r'`` from the first ``rank`` columns.

        Either form gives the same array; at rank zero it is the zero matrix.
        ``1/sigma`` is taken with ``sigma`` prescaled and the product scaled
        back, so a pseudo inverse past the float range raises
        ``NonFiniteEntryError`` with no overflow warning ahead of it.
        """
        r = self.rank
        s, e = _prescaled(self.sigma) if r else (self.sigma, 0)
        return _inverse_scaled_back(self.v[:, :r] / s @ self.u[:, :r].T, e, "pseudo inverse")


@dataclass(frozen=True)
class CrFactors:
    """Pivot columns ``c`` and nonzero echelon rows ``r_factor`` with ``c @ r_factor == x``."""

    c: np.ndarray
    r_factor: np.ndarray
    rank: int


def _residuals(q):
    """Standard basis vectors with the span of ``q`` projected out, twice over."""
    w = np.eye(q.shape[0])
    for _ in range(2):
        w -= q @ (q.T @ w)
    return w


def _complete_basis(accepted, dim):
    """Extend orthonormal columns to a full orthonormal basis of R^dim.

    Candidates are the standard basis vectors with the accepted columns
    projected out in one block step.  One modified Gram-Schmidt pass takes
    them in index order: a candidate is accepted when its residual norm
    exceeds 0.5, and every later candidate is orthogonalized against it.
    Residuals only shrink as columns are added, so a rejected candidate
    stays rejected and the pass picks what a scan restarted after every pick
    would.  If the basis is still short, the largest residual against
    everything accepted wins, one column at a time; that residual is never
    smaller than 1/sqrt(dim), so normalizing it is safe.  The added columns
    get the sign rule of :func:`eig_symmetric` at the end; a column's sign
    never enters ``q q' w``, so it does not matter when they get it.
    """
    basis = np.asarray(accepted, dtype=float).reshape(dim, -1)
    r = r0 = basis.shape[1]
    q = np.empty((dim, dim))
    q[:, :r] = basis
    w = _residuals(basis)
    update = np.empty(dim * dim)
    for k in range(dim):
        if r == dim:
            break
        nrm = float(np.sqrt(w[:, k] @ w[:, k]))
        if nrm > 0.5:
            q[:, r] = w[:, k] / nrm
            rest = w[:, k + 1 :]
            out = update[: rest.size].reshape(rest.shape)
            rest -= np.dot(q[:, r, None], (q[:, r] @ rest)[None, :], out=out)
            r += 1
    while r < dim:
        w = _residuals(q[:, :r])
        norms = np.sqrt(np.sum(w * w, axis=0))
        k = int(np.argmax(norms))
        q[:, r] = w[:, k] / norms[k]
        r += 1
    _sign_columns(q[:, r0:])
    return q


def svd_full(x, tol=DEFAULT_TOL):
    """Full singular value decomposition ``x = u @ sigma_matrix() @ v.T``.

    The first ``rank`` columns of ``u`` and ``v`` span the column space and
    row space; the remaining columns are completed orthonormal bases of the
    left null space and null space.  A singular value is kept only if it
    exceeds ``max(tol.relative * max(n, p), 1e-6) * sigma_max``.
    """
    res = svd_reduced(x, tol)
    u = _complete_basis(res.u, res.u.shape[0])
    v = _complete_basis(res.v, res.v.shape[0])
    return replace(res, u=u, v=v, form="full")


def _pivoted_gram_schmidt(x):
    """Orthonormal ``Q`` (n x k) with ``X = Q Q' X`` to rounding, for n x p ``X``, n >= p.

    Each step takes the residual column of largest norm, projects it off
    ``Q`` once more ("twice is enough"), normalises it and removes it from
    every residual, whose norms are then recomputed.  It stops once
    ``||X - Q Q' X||_F`` is at most ``eps * n * ||X||_F``, so nothing above
    rounding is dropped; the zero matrix gives k = 0.
    """
    n, p = x.shape
    q, w, update = np.empty((n, p)), x.copy(), np.empty((n, p))
    norms = np.sum(w * w, axis=0)
    # squared: ||X - Q Q' X||_F <= eps * n * ||X||_F
    stop = (np.finfo(float).eps * n) ** 2 * np.sum(norms)
    k = 0
    while k < p and np.sum(norms) > stop:
        c = w[:, np.argmax(norms)]
        c = c - q[:, :k] @ (q[:, :k].T @ c)
        q[:, k] = c / math.sqrt(c @ c)
        w -= np.dot(q[:, k, None], (q[:, k] @ w)[None, :], out=update)
        k += 1
        norms = np.sum(w * w, axis=0)
    return q[:, :k]


def svd_reduced(x, tol=DEFAULT_TOL):
    """Rank-sized factors only: ``u (n, r)``, ``sigma (r,)``, ``v (p, r)``.

    Agrees with the leading columns of :func:`svd_full` exactly, because the
    full form completes these factors.

    A wide input runs on its transpose, so ``X`` is n x p with n >= p.  The
    pivoted Gram-Schmidt of :func:`_pivoted_gram_schmidt` runs twice: on
    ``X`` for ``X = Q R`` (``Q`` n x k, ``R = Q' X`` k x p, its rows graded
    by the pivoting), then on ``R'`` for ``R' = Q1 R1`` (``Q1`` p x k1,
    ``R1`` k1 x k, k1 <= k).  One-sided Jacobi rotates ``[R1 | I]`` to
    ``[Sigma Z' | W']``; ``R1 R1'`` is one LQ step closer to diagonal than
    ``R R' = R1' R1``, so it needs fewer sweeps.  ``sigma`` is the rotated
    row norms, and ``W`` gives ``v = Q1 W`` and ``u = Q R1' W / sigma``.
    ``v`` takes the sign rule of :func:`eig_symmetric` and ``u`` the same
    flips.  ``cutoff`` records the absolute cutoff applied,
    ``largest_rejected`` the largest computed ``sigma`` it cut, and
    ``sweeps`` the Jacobi sweeps.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    if n < p:
        res = svd_reduced(x.T, tol)
        return replace(res, u=res.v, v=res.u)
    # with the largest entry in [0.5, 1), R R' cannot overflow, and a tiny
    # input no longer underflows to rank zero
    x, e = _prescaled(x)
    q = _pivoted_gram_schmidt(x)
    k = q.shape[1]
    if k == 0:  # the zero matrix: nothing for Jacobi to decompose
        return SvdResult(q, np.zeros(0), np.zeros((p, 0)), 0, "reduced", tol, 0.0, 0.0, 0)
    rt = x.T @ q  # R' = X' Q
    q1 = _pivoted_gram_schmidt(rt)
    r1 = q1.T @ rt  # R' = Q1 R1
    sig_all, rot, sweeps = _jacobi_rows(r1)  # rot is W
    cutoff = max(tol.relative * n, GRAM_RANK_FLOOR) * sig_all[0]
    r = int(np.sum(sig_all > cutoff))
    v_r = q1 @ rot[:, :r]
    u_r = q @ (r1.T @ rot[:, :r] / sig_all[:r])
    u_r[:, _sign_columns(v_r)] *= -1.0
    sigma = _scaled_back(sig_all[:r], e)
    if np.any(sigma == np.inf):
        raise NonFiniteEntryError("a singular value lies beyond the float range")
    rejected = float(_scaled_back(sig_all[r], e)) if r < len(sig_all) else 0.0
    return SvdResult(
        u_r, sigma, v_r, r, "reduced", tol, float(_scaled_back(cutoff, e)), rejected, sweeps
    )


def cr_decompose(x, tol=DEFAULT_TOL):
    """Column-row factorization from the row reduction.

    ``c`` keeps the original pivot columns of ``x`` in pivot order and
    ``r_factor`` the nonzero rows of the echelon form, so ``c @ r_factor``
    reproduces ``x`` and both factors have full rank equal to ``rank``.
    A zero matrix yields empty factors whose product is still the right
    shape.  No transform is read, so the reduction runs on a copy of ``x``
    alone; its echelon form and pivots are those of ``rref_rows``.
    """
    x = as_matrix(x)
    reduced = x.copy()
    pivots = _eliminate(reduced, x.shape[1], _as_tolerance(tol))
    r = len(pivots)
    return CrFactors(x[:, list(pivots)].copy(), reduced[:r].copy(), r)
