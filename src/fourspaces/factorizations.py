"""Singular value and CR factorizations, built constructively.

The SVD comes out of the symmetric eigendecomposition of a Gram matrix: its
eigenvectors supply ``v`` and ``u_i = X v_i / sigma_i`` follows.  A wide
input runs on its transpose with the two sides swapped, so ``X`` is tall.
The row reduction first probes the rank: its ``k`` pivot rows of ``X``,
orthonormalised into ``Q``, carry the row space, and when ``k`` is below the
column count and ``X - X Q Q'`` is small enough that no singular value above
the cutoff can hide in it, Jacobi runs on the k x k Gram matrix of ``X Q``
instead of the full ``X'X``.  The input is first scaled by the power of
two that brings its largest entry into [0.5, 1) and ``sigma`` is scaled
back; the scaling is exact, so it changes no bits unless ``X'X`` would
otherwise overflow or underflow, and a ``sigma`` that scales back past the
float range raises ``NonFiniteEntryError``.  :func:`svd_full` completes both
sides of :func:`svd_reduced` to orthonormal bases by one Gram-Schmidt pass
over standard basis candidates.  The CR factorization reuses the tracked row
reduction: original pivot columns times the nonzero echelon rows reproduce
the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntryError
from .matrix import (
    DEFAULT_TOL, Tolerance, _as_tolerance, _prescaled, _scaled_back, as_matrix, frobenius_norm,
    rref_rows,
)
from .spectral import _sign_columns, eig_symmetric

__all__ = [
    "SvdResult",
    "CrFactors",
    "svd_full",
    "svd_reduced",
    "cr_decompose",
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
        g = _scaled_back(self.v[:, :r] / s @ self.u[:, :r].T, -e)
        if np.any(np.isinf(g)):
            raise NonFiniteEntryError("the pseudo inverse lies beyond the float range")
        return g


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
    for k in range(dim):
        if r == dim:
            break
        nrm = float(np.sqrt(w[:, k] @ w[:, k]))
        if nrm > 0.5:
            q[:, r] = w[:, k] / nrm
            w[:, k + 1 :] -= np.outer(q[:, r], q[:, r] @ w[:, k + 1 :])
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
    return SvdResult(u, res.sigma, v, res.rank, "full", res.tol_used)


def _orthonormal_columns(c):
    """Orthonormal columns spanning those of ``c``, by classical Gram-Schmidt.

    Each column is projected off the ones kept before it twice over, as in
    :func:`_residuals` ("twice is enough").  A column whose second pass
    leaves no more than half of what the first left lies in their span up
    to rounding (Kahan and Parlett), and is dropped.
    """
    q = np.empty_like(c)
    k = 0
    for w in c.T.copy():
        norms = []
        for _ in range(2):
            w -= q[:, :k] @ (q[:, :k].T @ w)
            norms.append(math.sqrt(w @ w))
        if norms[1] > 0.5 * norms[0]:
            q[:, k] = w / norms[1]
            k += 1
    return q[:, :k]


def svd_reduced(x, tol=DEFAULT_TOL):
    """Rank-sized factors only: ``u (n, r)``, ``sigma (r,)``, ``v (p, r)``.

    Agrees with the leading columns of :func:`svd_full` exactly, because the
    full form completes these factors.

    A rank probe, the row reduction of :func:`cr_decompose` on ``X'``, picks
    pivot rows of the tall ``X`` (n >= p; a wide input runs on its
    transpose).  When there are fewer than ``p``, they are orthonormalised
    into ``Q`` (p x k; a row that Gram-Schmidt finds in the span of the
    others is dropped) and the Jacobi eigendecomposition runs on the k x k
    Gram matrix of ``Y = X Q``, giving ``v = Q W`` with the sign rule of
    :func:`eig_symmetric`; otherwise ``Y = X`` and ``Q = I``.
    The rank-sized route is taken only if ``||X - Y Q'||_F`` is at most a
    tenth of the relative cutoff times ``||Y||_F / sqrt(k)``, a lower bound
    on ``sigma_max``: by Weyl's inequality each singular value it drops then
    lies under a tenth of the cutoff.  A probe that overestimates the rank
    only makes the eigenproblem larger; one that underestimates it fails
    the guard.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    if n < p:
        res = svd_reduced(x.T, tol)
        return SvdResult(res.v, res.sigma, res.u, res.rank, "reduced", tol)
    # with the largest entry in [0.5, 1), X'X cannot overflow, and a tiny
    # input no longer underflows to rank zero
    x, e = _prescaled(x)
    relative = max(tol.relative * max(n, p), GRAM_RANK_FLOOR)
    y, q = x, None
    probe = cr_decompose(x.T, tol)
    if 0 < probe.rank < p:
        q = _orthonormal_columns(probe.c)
        y = x @ q
        # Weyl: ||Y||_F / sqrt(k) <= sigma_max, so each dropped singular
        # value lies under a tenth of the cutoff
        bound = 0.1 * relative * frobenius_norm(y) / math.sqrt(q.shape[1])
        if frobenius_norm(x - y @ q.T) > bound:
            y, q = x, None
    eig = eig_symmetric(y.T @ y, tol)
    sig_all = np.sqrt(np.clip(eig.values, 0.0, None))
    cutoff = relative * sig_all[0]
    r = int(np.sum(sig_all > cutoff))
    v_r = eig.q[:, :r]
    if q is not None:
        v_r = q @ v_r
        _sign_columns(v_r)
    u_r = (x @ v_r) / sig_all[:r]
    sigma = _scaled_back(sig_all[:r], e)
    if np.any(sigma == np.inf):
        raise NonFiniteEntryError("a singular value lies beyond the float range")
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
