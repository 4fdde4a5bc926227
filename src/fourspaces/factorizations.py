"""Singular value and CR factorizations, built constructively.

The SVD comes out of the symmetric eigendecomposition of the Gram matrix
``X'X``: its eigenvectors supply ``v`` and ``u_i = X v_i / sigma_i`` follows.
A wide input runs on its transpose with the two sides swapped, so the Gram
matrix is always the smaller one.  The input is first scaled by the power of
two that brings its largest entry into [0.5, 1) and ``sigma`` is scaled
back; the scaling is exact, so it changes no bits unless ``X'X`` would
otherwise overflow or underflow.  :func:`svd_full` completes both sides of
:func:`svd_reduced` to orthonormal bases by one Gram-Schmidt pass over
standard basis candidates.  The CR factorization reuses the tracked row
reduction: original pivot columns times the nonzero echelon rows reproduce
the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import DEFAULT_TOL, Tolerance, _as_tolerance, _prescaled, as_matrix, rref_rows
from .spectral import eig_symmetric

__all__ = [
    "SvdResult",
    "CrFactors",
    "svd_full",
    "svd_reduced",
    "cr_decompose",
    "GRAM_RANK_FLOOR",
]

# The Gram-matrix route cannot certify singular values below roughly
# sqrt(eps) * sigma_max: forming X'X already perturbs zero eigenvalues by
# eps * sigma_max^2.  Measured spurious values on exactly rank-deficient
# inputs reach 2e-8 of sigma_max, so the rank cutoff never goes below this.
GRAM_RANK_FLOOR = 1e-6


@dataclass(frozen=True)
class SvdResult:
    """Factors with ``u @ sigma_matrix() @ v.T`` reproducing the input.

    ``sigma`` holds the ``rank`` accepted singular values in descending
    order.  In ``full`` form ``u`` and ``v`` are square orthogonal; in
    ``reduced`` form they keep only the first ``rank`` columns.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    form: str
    tol_used: Tolerance

    def sigma_matrix(self):
        """Materialize sigma in the shape matching ``form``."""
        if self.form == "reduced":
            return np.diag(self.sigma)
        full = np.zeros((self.u.shape[0], self.v.shape[0]))
        full[: self.rank, : self.rank] = np.diag(self.sigma)
        return full

    def pinv(self):
        """Pseudo inverse ``v_r diag(1/sigma) u_r'`` from the first ``rank`` columns.

        Either form gives the same array; at rank zero it is the zero matrix.
        """
        r = self.rank
        return self.v[:, :r] / self.sigma @ self.u[:, :r].T


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


def _signed(v):
    """``v`` or ``-v``, whichever has a positive largest-magnitude component."""
    return -v if v[int(np.argmax(np.abs(v)))] < 0.0 else v


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
    smaller than 1/sqrt(dim), so normalizing it is safe.  Accepted columns
    get the positive-largest-component sign.
    """
    basis = np.asarray(accepted, dtype=float).reshape(dim, -1)
    r = basis.shape[1]
    q = np.empty((dim, dim))
    q[:, :r] = basis
    w = _residuals(basis)
    for k in range(dim):
        if r == dim:
            break
        nrm = float(np.sqrt(w[:, k] @ w[:, k]))
        if nrm > 0.5:
            q[:, r] = _signed(w[:, k] / nrm)
            w[:, k + 1 :] -= np.outer(q[:, r], q[:, r] @ w[:, k + 1 :])
            r += 1
    while r < dim:
        w = _residuals(q[:, :r])
        norms = np.sqrt(np.sum(w * w, axis=0))
        k = int(np.argmax(norms))
        q[:, r] = _signed(w[:, k] / norms[k])
        r += 1
    return q


def _svd_kernel(x, tol):
    """Rank, singular values, and the first ``rank`` columns of each side."""
    n, p = x.shape
    if n < p:
        r, sigma, v_r, u_r = _svd_kernel(x.T, tol)
        return r, sigma, u_r, v_r
    # with the largest entry in [0.5, 1), X'X cannot overflow, and a tiny
    # input no longer underflows to rank zero
    x, e = _prescaled(x)
    eig = eig_symmetric(x.T @ x, tol)
    sig_all = np.sqrt(np.clip(eig.values, 0.0, None))
    cutoff = max(tol.relative * max(n, p), GRAM_RANK_FLOOR) * sig_all[0]
    r = int(np.sum(sig_all > cutoff))
    v_r = eig.q[:, :r]
    u_r = (x @ v_r) / sig_all[:r]
    return r, np.ldexp(sig_all[:r], e), u_r, v_r


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
    return SvdResult(u, res.sigma, v, res.rank, "full", res.tol_used)


def svd_reduced(x, tol=DEFAULT_TOL):
    """Rank-sized factors only: ``u (n, r)``, ``sigma (r,)``, ``v (p, r)``.

    Agrees with the leading columns of :func:`svd_full` exactly, because the
    full form completes these factors.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    r, sigma, u_r, v_r = _svd_kernel(x, tol)
    return SvdResult(u_r, sigma, v_r, r, "reduced", tol)


def cr_decompose(x, tol=DEFAULT_TOL):
    """Column-row factorization from the tracked row reduction.

    ``c`` keeps the original pivot columns of ``x`` in pivot order and
    ``r_factor`` the nonzero rows of the echelon form, so ``c @ r_factor``
    reproduces ``x`` and both factors have full rank equal to ``rank``.
    A zero matrix yields empty factors whose product is still the right
    shape.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    res = rref_rows(x, tol)
    r = res.pivot_rank
    c = x[:, list(res.pivot_cols)].copy()
    r_factor = res.reduced[:r, :].copy()
    return CrFactors(c, r_factor, r)
