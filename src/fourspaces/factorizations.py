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
nearer to diagonal, so Jacobi needs few sweeps and keeps every singular
value of ``B D``, ``D`` diagonal, to relative accuracy ``O(eps kappa(B))``
(Drmac and Veselic, SIMAX 2008), and each QR
stops at rounding level, so a rank-deficient input gives a rank-sized
problem.  The input is first scaled by the power of two that brings its
largest entry into [0.5, 1) and ``sigma`` is scaled back; the scaling is
exact, so it changes no bits unless a product of entries would otherwise
overflow or underflow, and a ``sigma`` that scales back past the float
range raises ``NonFiniteEntryError``.  :func:`svd_full` completes both
sides of :func:`svd_reduced` to orthonormal bases by Householder
triangularization of the r accepted columns, r reflector steps whatever
the dimension, so the added columns are a Householder basis of the
orthogonal complement.  The CR factorization reuses the row
reduction of :mod:`matrix`, without its transform: original pivot columns
times the nonzero echelon rows reproduce the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteEntryError
from .matrix import (
    DEFAULT_TOL, _as_tolerance, _eliminate, _in_range, _prescaled, _scaled_back, as_matrix,
)
from .spectral import _jacobi_rows, _sign_columns

__all__ = [
    "SvdResult",
    "CrFactors",
    "svd_full",
    "svd_reduced",
    "cr_decompose",
]


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
        ``NonFiniteEntryError`` with no overflow warning ahead of it.  So
        does an accepted ``sigma`` that scales back to 0.0, which happens at
        the bottom of the subnormal range.
        """
        r = self.rank
        if r and self.sigma[-1] == 0.0:
            raise NonFiniteEntryError("the pseudo inverse lies beyond the float range")
        s, e = _prescaled(self.sigma)
        return _in_range(self.v[:, :r] / s @ self.u[:, :r].T, -e, "the pseudo inverse")


@dataclass(frozen=True)
class CrFactors:
    """Pivot columns ``c`` and nonzero echelon rows ``r_factor`` with ``c @ r_factor == x``."""

    c: np.ndarray
    r_factor: np.ndarray
    rank: int


def _complete_basis(accepted, dim):
    """Extend orthonormal columns to a full orthonormal basis of R^dim.

    Householder triangularization (Trefethen and Bau, Lecture 10) of the r
    accepted columns builds reflectors ``H_1 ... H_r``, and ``H_r ... H_1``
    takes the accepted columns to the first r unit vectors.  The added
    columns are ``H_1 ... H_r`` applied to the last ``dim - r`` unit
    vectors, the Householder basis of the orthogonal complement that a
    complete QR of the accepted columns gives.  In that product, the
    entries before index k of each vector are still zero when ``H_k``
    comes, so step k touches only the trailing ``dim - k`` entries, and the
    cost is r steps, whatever ``dim``.  ``H_k = I - v v'`` with ``v`` of
    norm sqrt(2) along ``x + sign(x_0) |x| e_1``, ``x`` the trailing part
    of the k-th column; ``|x|`` is 1 to rounding, so nothing cancels.  The
    accepted columns are returned bit for bit and the added ones get the
    sign rule of :func:`eig_symmetric`.  Everything is built transposed,
    one contiguous row a column, and each rank-1 update is formed by BLAS
    into a buffer allocated once.
    """
    basis = np.asarray(accepted, dtype=float).reshape(dim, -1)
    r = basis.shape[1]
    vt = basis.T.copy()  # row k ends as the reflector v of H_k
    qt = np.eye(dim)  # rows r: are the last dim - r unit vectors
    qt[:r] = vt
    update = np.empty(dim * dim)
    for k in range(r):
        v = vt[k, k:]
        nrm = math.sqrt(v @ v)
        head = v[0]
        v[0] += math.copysign(nrm, head)
        v /= math.sqrt(nrm * (nrm + abs(head)))
        rest = vt[k + 1 :, k:]
        rest -= np.dot((rest @ v)[:, None], v[None, :], out=update[: rest.size].reshape(rest.shape))
    for k in reversed(range(r)):
        v = vt[k, k:]
        rest = qt[r:, k:]
        rest -= np.dot((rest @ v)[:, None], v[None, :], out=update[: rest.size].reshape(rest.shape))
    q = qt.T
    _sign_columns(q[:, r:])
    return q


def svd_full(x, tol=DEFAULT_TOL):
    """Full singular value decomposition ``x = u @ sigma_matrix() @ v.T``.

    The first ``rank`` columns of ``u`` and ``v`` span the column space and
    row space and are those of :func:`svd_reduced`, bit for bit; the
    remaining columns are Householder bases of the left null space and null
    space, completed by :func:`_complete_basis` in ``rank`` reflector steps
    on each side.  A singular value is kept only if it exceeds
    ``tol.relative * max(n, p) * sigma_max``.
    """
    res = svd_reduced(x, tol)
    u = _complete_basis(res.u, res.u.shape[0])
    v = _complete_basis(res.v, res.v.shape[0])
    return replace(res, u=u, v=v, form="full")


def _pivoted_gram_schmidt(x):
    """Orthonormal ``Q`` (n x k) with ``X = Q Q' X`` to rounding, for n x p
    ``X``, n >= p, whose largest entry is of order 1.

    That precondition keeps the squared residual norms from underflowing: on
    a 60 x 60 graded ``X`` times 2^-600 they underflow to 0 and k comes out 0.
    The only caller, :func:`svd_reduced`, meets it, as it hands over the
    prescaled ``X`` (largest entry in [0.5, 1)) and ``R' = X'Q``, whose
    entries are then of order 1 too.

    Each step takes the residual column of largest norm, projects it off
    ``Q`` once more ("twice is enough"), normalises it and removes it from
    every residual, whose norms are then recomputed.  It stops once
    ``||X - Q Q' X||_F`` is at most ``eps * n * ||X||_F``, so nothing above
    rounding is dropped; the zero matrix gives k = 0.  The residuals and
    ``Q`` are kept transposed, so each is a contiguous row: one ``vecdot``
    takes the norms, and the rank-1 update goes into a buffer allocated once.
    """
    n, p = x.shape
    qt, w, update, norms = np.empty((p, n)), x.T.copy(), np.empty((p, n)), np.empty(p)
    np.vecdot(w, w, out=norms)
    # squared: ||X - Q Q' X||_F <= eps * n * ||X||_F
    stop = (np.finfo(float).eps * n) ** 2 * norms.sum()
    k = 0
    while k < p and norms.sum() > stop:
        c = w[norms.argmax()]
        c = c - (qt[:k] @ c) @ qt[:k]
        qk = qt[k]
        np.divide(c, math.sqrt(c @ c), out=qk)
        w -= np.dot((w @ qk)[:, None], qk[None, :], out=update)
        k += 1
        np.vecdot(w, w, out=norms)
    return qt[:k].T


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
    ``tol.relative * max(n, p) * sigma_1``, ``largest_rejected`` the largest
    computed ``sigma`` it cut, and ``sweeps`` the Jacobi sweeps.
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
        return SvdResult(q, np.zeros(0), np.zeros((p, 0)), 0, "reduced", 0.0, 0.0, 0)
    rt = x.T @ q  # R' = X' Q
    q1 = _pivoted_gram_schmidt(rt)
    r1 = q1.T @ rt  # R' = Q1 R1
    sig_all, rot, sweeps = _jacobi_rows(r1)  # rot is W
    cutoff = tol.relative * n * sig_all[0]
    r = int(np.sum(sig_all > cutoff))
    v_r = q1 @ rot[:, :r]
    u_r = q @ (r1.T @ rot[:, :r] / sig_all[:r])
    u_r[:, _sign_columns(v_r)] *= -1.0
    sigma = _in_range(sig_all[:r], e, "a singular value")
    rejected = float(_scaled_back(sig_all[r], e)) if r < len(sig_all) else 0.0
    return SvdResult(u_r, sigma, v_r, r, "reduced", float(_scaled_back(cutoff, e)), rejected, sweeps)


def cr_decompose(x, tol=DEFAULT_TOL):
    """Column-row factorization from the row reduction.

    ``c`` keeps the original pivot columns of ``x`` in pivot order and
    ``r_factor`` the nonzero rows of the echelon form, so ``c @ r_factor``
    reproduces ``x`` and both factors have full rank equal to ``rank``.
    A zero matrix yields empty factors whose product is still the right
    shape.  The reduction is that of ``rref_rows``, on the same prescaled
    copy, so the echelon form and pivots are its own; the transform is
    never assembled.
    """
    x = as_matrix(x)
    reduced, _ = _prescaled(np.ascontiguousarray(x))
    pivots = _eliminate(reduced, _as_tolerance(tol))[0]
    r = len(pivots)
    r_factor = _in_range(reduced[:r].copy(), 0, "the echelon form")
    # copied C-ordered: in the layout fancy indexing gives, C R rounds differently
    return CrFactors(x[:, list(pivots)].copy(), r_factor, r)
