"""Symmetric eigendecomposition and the SVD's kernel: one-sided Jacobi rotations.

One kernel, :func:`_jacobi_rows`, rotates the rows of a k x p matrix ``R``:
``[R | I]`` is rotated round by round to ``[Sigma V' | W']``, each pair's
rotation read off the dot products of its two rows, the entries of ``R R'``
a two-sided Jacobi round would read, so ``W' R R' W`` ends diagonal with
``R R'`` formed only to test convergence (Hestenes 1958).  A sweep is k
rounds of the odd-even ordering (Luk and Park, SISC 1989): each round
rotates and swaps adjacent row pairs, one contiguous block, in a few array
operations with angles from one ``atan2``, and every pair meets once per
sweep.  The rounds alternate between ``[R | I]`` and a spare array of its
shape, each rotating its block out of one into the other, and write only
into arrays and views built once per kernel call.  Sweeps stop on one
rule: every pair of rows orthogonal to ``k eps`` in cosine, the relative
criterion of Demmel and Veselic (SIMAX 1992).

The SVD passes its triangular factor.  :func:`eig_symmetric` passes the
shifted matrix ``B = A + mu I`` with ``mu = 2 ||A||_F``: ``B`` is positive
definite, its spectrum in ``[||A||_F, 3 ||A||_F]``, so the ``W`` that makes
``W' B^2 W`` diagonal makes ``W' A W`` diagonal too, and
``s == q @ diag(values) @ q.T`` up to roundoff with no reliance on an
external eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotSymmetricError, ShapeError
from .matrix import (
    DEFAULT_TOL, _as_tolerance, _defect, _in_range, _prescaled, _scaled_back, as_matrix,
    frobenius_norm, invert, pivot_rank,
)

__all__ = ["EigResult", "SimilarityReport", "eig_symmetric", "similarity_check"]

MAX_SWEEPS = 50
# 1/2 as a 0-d array: a ufunc converts a Python float on every call
_HALF = np.array(0.5)


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues in descending order and the orthogonal eigenvector matrix.

    Column ``q[:, i]`` belongs to ``values[i]``; each column is signed so
    its lowest-index component within a relative 1e-12 of its largest
    magnitude is positive, which keeps exact ties stable under rounding.
    ``sweeps`` counts the sweeps of the one-sided kernel, and
    ``offdiag_norm`` is the off-diagonal Frobenius norm of ``q' S q`` at the
    input's scale: how far ``q`` is from diagonalizing the input ``S``.
    """

    values: np.ndarray
    q: np.ndarray
    sweeps: int
    offdiag_norm: float


@dataclass(frozen=True)
class SimilarityReport:
    """What conjugation by a nonsingular matrix preserved.

    ``eigs_match`` is None when the conjugating matrix is not orthogonal,
    because only orthogonal conjugation keeps the matrix symmetric and hence
    inside this module's eigensolver domain; rank and trace are compared for
    any nonsingular conjugation.
    """

    eigs_match: bool | None
    rank_match: bool
    trace_match: bool


def _offdiag_norm(a):
    # summed directly off the diagonal: the subtraction ||a||^2 - ||diag||^2
    # cancels catastrophically once the true value is below sqrt(eps)*||a||
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return frobenius_norm(off)


def _rotation(app, aqq, apq, out=None):
    """Cosines and sines of the Jacobi rotations that annihilate ``apq``, elementwise.

    The angle is the inner one, ``|theta| <= pi / 4`` with
    ``tan 2 theta = apq / h`` and ``h = aqq / 2 - app / 2`` from halves:
    ``theta = sign(h) atan2(apq, |h|) / 2``, so nothing overflows for
    entries below 7e307 and nothing divides.  At ``h = 0`` the angle is
    ``pi / 4`` signed as ``apq``, and 0 when ``apq`` is 0 too.  ``out`` is
    four arrays of the shape of ``apq``, ``(h, theta, c, s)``, that take the
    intermediates and the result, so a round of :func:`_row_sweep`
    allocates nothing; without it they are allocated.  Returns ``(c, s)``.
    """
    if out is None:
        out = [np.empty(np.shape(apq)) for _ in range(4)]
    h, theta, c, s = out
    # x * 0.5 is exactly x / 2, subnormal or not
    np.multiply(aqq, _HALF, out=h)
    np.multiply(app, _HALF, out=theta)
    np.subtract(h, theta, out=h)
    np.abs(h, out=theta)
    np.arctan2(apq, theta, out=theta)
    np.copysign(_HALF, h, out=h)
    np.multiply(theta, h, out=theta)
    np.cos(theta, out=c)
    np.sin(theta, out=s)
    return c, s


def _sign_columns(q):
    """Flip columns of ``q`` in place to the sign rule :class:`EigResult` states.

    Returns the boolean mask of the flipped columns, so a partner factor can
    take the same flips.
    """
    mag = np.abs(q)
    lead = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    flip = q[lead, np.arange(q.shape[1])] < 0.0
    q[:, flip] *= -1.0
    return flip


def _row_rounds(w, p):
    """Everything the rounds of :func:`_row_sweep` over ``w`` read and write, built once.

    Round t of a sweep rotates its block of ``w`` or of a spare array of
    the same shape into the same block of the other, ``w`` first, so no
    round copies its block back.  The views of both parities over both
    arrays, the dot products, the angles and the 2 x 2 rotation blocks are
    made here, once per :func:`_jacobi_rows` call, and every round writes
    through them.  Returns ``(w, spare, schedule)``, ``schedule[first]``
    the k rounds of a sweep that begins on parity ``first``.
    """
    k, n = w.shape
    spare = np.empty_like(w)
    # the first and last rows: a round leaves one or both idle, and carries
    # both across before its matmul overwrites the one it pairs, if any
    edges = slice(None, None, max(k - 1, 1))
    table = ([], [])
    for o in (0, 1):
        m = (k - o) // 2
        norms, gamma = np.empty(2 * m), np.empty(m)
        # g[m] = [[s, c], [c, -s]] for pair m: the rotation, then the swap
        g = np.empty((m, 2, 2))
        c, s = g[:, 0, 1], g[:, 0, 0]
        rotation = (norms[::2], norms[1::2], gamma, (*np.empty((2, m)), c, s))
        for d, (src, dst) in enumerate(((w, spare), (spare, w))):
            r = src[o : o + 2 * m, :p]
            idle = (src[edges], dst[edges]) if 2 * m < k else None
            table[d].append((r, r[::2], r[1::2], norms, gamma, rotation, c, g[:, 1, 0], s,
                             g[:, 1, 1], g, src[o : o + 2 * m].reshape(m, 2, n),
                             dst[o : o + 2 * m].reshape(m, 2, n), idle))
    schedule = [[table[t % 2][(first + t) % 2] for t in range(k)] for first in (0, 1)]
    return w, spare, schedule


def _row_sweep(rounds, first):
    """One odd-even pass over all row pairs of ``w = [R | W']``, in place.

    ``rounds`` is :func:`_row_rounds` of ``w``, C-ordered, k x (p + k).
    Round t pairs rows ``(o, o + 1), (o + 2, o + 3), ...`` with
    ``o = (first + t) mod 2``, one contiguous block, and reads
    ``alpha = r_i . r_i``, ``beta = r_j . r_j`` and ``gamma = r_i . r_j``
    off its left block with two ``vecdot`` calls: the entries of ``R R'`` a
    two-sided round would read, without forming ``R R'``.  A round's pairs
    are disjoint, so one ``matmul`` rotates them out of ``w`` into the
    spare array, or back, and one slice copy carries the idle edge rows
    across; a sweep over odd k ends in the spare and is copied back once.
    Each rotation also swaps its pair, so the k rounds are odd-even
    transposition: from either ``first``, every pair of rows is adjacent in
    exactly one round, and the sweep leaves the rows in reverse order.
    """
    w, spare, schedule = rounds
    for r, ri, rj, norms, gamma, rotation, c, c2, s, ns, g, pairs, out, idle in schedule[first]:
        np.vecdot(r, r, out=norms)
        np.vecdot(ri, rj, out=gamma)
        _rotation(*rotation)
        c2[...] = c
        np.negative(s, out=ns)
        if idle:
            idle[1][...] = idle[0]
        np.matmul(g, pairs, out=out)
    if len(w) % 2:
        w[...] = spare


def eig_symmetric(s, tol=DEFAULT_TOL):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    s : (p, p) array_like
        Symmetric matrix; symmetry is enforced up to
        ``tol.relative * ||s||_F`` and the working copy is symmetrized.
    tol : Tolerance or float, optional
        Bounds only the asymmetry.  The sweeps stop on the rule of the
        one-sided kernel, which no tolerance sets.

    Returns
    -------
    EigResult

    Raises
    ------
    NotSymmetricError
        If ``s`` is further from its transpose than the tolerance allows.
    ConvergenceError
        If the kernel's rule still fails after ``MAX_SWEEPS`` (50) sweeps;
        the error carries ``sweeps`` and the largest ``|cosine|`` between
        two rows of the shifted matrix, which no scaling of ``s`` changes.
    NonFiniteEntryError
        If an eigenvalue of the finite ``s`` lies beyond the float range.

    Notes
    -----
    The symmetrized ``A`` is shifted to ``B = A + 2 ||A||_F I``, positive
    definite with its spectrum in ``[||A||_F, 3 ||A||_F]``, and
    :func:`_jacobi_rows` rotates the rows of ``B`` until they are orthogonal
    to ``p eps`` in cosine.  Its ``W`` then diagonalizes ``B^2`` and so
    ``A``; the values are the diagonal of ``W' A W``.  The rule is relative
    to rounding, so no polish sweep follows.  A shift of only ``||A||_F``
    can leave ``B`` singular, and a singular ``B`` converges slowly: on
    negative rank-one inputs of order 5 to 40 it took 3 to 11 sweeps, where
    this shift takes 1.

    The shift makes the accuracy absolute, not relative: the kernel works
    on ``B``, whose eigenvalues all lie near ``||A||_F``, so each computed
    eigenvalue is within about ``eps ||A||`` of the exact one, and an
    eigenvalue far below ``||A||`` may keep no correct digit.  Against an
    exact oracle, ``|lambda - lambda*| <= 2 n eps ||A||_F`` holds.
    """
    s = as_matrix(s)
    tol = _as_tolerance(tol)
    n, p = s.shape
    if n != p:
        raise ShapeError(f"eigendecomposition needs a square matrix, got {s.shape}")
    # the work runs at the scale of _prescaled, where no sum or square can
    # overflow; every value the caller sees is scaled back by 2**e
    s, e = _prescaled(s)
    threshold = tol.relative * frobenius_norm(s)
    asymmetry = frobenius_norm(s - s.T)
    if asymmetry > threshold:
        raise NotSymmetricError(
            "matrix is not symmetric within tolerance (asymmetry "
            f"{_scaled_back(asymmetry, e):.3e} vs bound {_scaled_back(threshold, e):.3e})"
        )
    a = (s + s.T) / 2.0
    _, q, sweeps = _jacobi_rows(a + 2.0 * frobenius_norm(a) * np.eye(n))
    d = q.T @ a @ q
    order = np.argsort(-np.diag(d), kind="stable")
    values = _in_range(np.diag(d)[order], e, "an eigenvalue")
    q = q[:, order]
    _sign_columns(q)
    return EigResult(values, q, sweeps, float(_scaled_back(_offdiag_norm(d), e)))


def _largest_cosine(g):
    """Largest ``|g_ij| / sqrt(g_ii g_jj)`` over ``i != j`` of a Gram matrix ``g``.

    A pair with a zero row of ``g`` reads 0: a zero row is orthogonal to
    every other, including a row whose squared norm underflowed.
    """
    d = np.sqrt(np.diag(g))
    d[d == 0.0] = np.inf
    cosine = np.abs(g) / np.outer(d, d)
    np.fill_diagonal(cosine, 0.0)
    return float(cosine.max())


def _jacobi_rows(r):
    """Singular values of a k x p matrix ``R`` by one-sided Jacobi on its rows.

    One C-ordered array ``[R | I]`` is rotated to ``[Sigma V' | W']``, so
    ``W' R R' W`` is diagonal: the rotations are those of two-sided
    Jacobi on ``R R'``, read off the rows of ``R`` (Hestenes 1958).  The
    spare array, views and temporaries of every round are built once, by
    :func:`_row_rounds`, and each sweep is a :func:`_row_sweep` over them,
    which leaves the rows in ``[R | I]``, from the round parity where the
    last one left off: for odd k a sweep ends on the parity it began with, and
    beginning the next on it would repeat pairs just made orthogonal.  Sweeps
    stop once every pair of rows has
    ``|r_i . r_j| <= k eps ||r_i|| ||r_j||``, read off ``R R'`` formed once
    per sweep, a zero row counting as orthogonal: the relative criterion of
    Demmel and Veselic (SIMAX 1992), which leaves every singular value to
    relative accuracy, so no polish sweep follows.  The bound is a constant
    of the kernel; the caller's tolerance sets only the rank cutoff.
    Returns ``(sigma, w, sweeps)``: the row norms in descending order, a
    value past the float range read as ``inf``; the k x k orthogonal ``W``
    with its columns in the same order and signed as the rotations leave
    them; and the sweeps applied.  The work runs at the scale of
    :func:`_prescaled`.  A ``ConvergenceError`` after ``MAX_SWEEPS`` sweeps
    carries the figure the rule tests, the largest ``|cosine|`` between two
    rows, which no scaling of ``R`` changes.  With more rows than columns
    at most p rows can be orthogonal and nonzero, so the others pass the
    rule only as zero rows: they shrink sweep after sweep until their
    squares underflow, which takes about 25 sweeps for a 50 x 40 ``R``.
    Rows whose squared norms are subnormal next to the others' are past the
    rule's reach: their squares and dot products keep too few bits for the
    angles or the cosine test to reach ``k eps``.  On a 5 x 5 normal draw
    with two rows scaled by 2^-530 it raises after ``MAX_SWEEPS`` with a
    cosine of 1.2e-3, where 2^-520 takes 4 sweeps.  No public route passes
    such rows: :func:`svd_reduced`'s Gram-Schmidt drops them, and
    :func:`eig_symmetric`'s ``B`` is well scaled.
    :func:`svd_reduced` passes a k1 x k factor with k1 <= k, and
    :func:`eig_symmetric` a square, positive definite ``B``, whose ``W``
    diagonalizes ``B^2`` and so ``B``.
    """
    r, e = _prescaled(as_matrix(r))
    k, p = r.shape
    # [R | I] is rotated to [Sigma V' | W']; r is now the left block, a view
    w = np.hstack((r, np.eye(k)))
    r = w[:, :p]
    bound = k * np.finfo(float).eps
    sweeps = 0
    rounds = _row_rounds(w, p)
    cosine = _largest_cosine(r @ r.T)
    while cosine > bound:
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(
                f"largest cosine between rows {cosine:.3e} still above "
                f"{bound:.3e} after {MAX_SWEEPS} sweeps",
                sweeps,
                cosine,
            )
        _row_sweep(rounds, sweeps * k % 2)
        sweeps += 1
        cosine = _largest_cosine(r @ r.T)
    sigma = np.sqrt(np.vecdot(r, r))
    order = np.argsort(-sigma, kind="stable")
    return _scaled_back(sigma[order], e), w[order, p:].T, sweeps


def similarity_check(a, p, tol=DEFAULT_TOL):
    """Verify what ``p @ a @ p^-1`` preserves: spectrum, rank, and trace.

    ``a`` must be square symmetric and ``p`` square nonsingular.  The
    eigenvalue comparison runs only when ``p`` is orthogonal (otherwise the
    conjugate leaves the symmetric domain) and is reported as None in that
    case; rank and trace are compared for every nonsingular ``p``.  Each
    bound is ``100 tol`` times the size of what it bounds, with no floor.
    """
    a = as_matrix(a, "matrix")
    p = as_matrix(p, "conjugating matrix")
    tol = _as_tolerance(tol)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    if p.shape != a.shape:
        raise ShapeError(f"conjugating matrix must be {a.shape}, got {p.shape}")
    if frobenius_norm(a - a.T) > tol.relative * frobenius_norm(a):
        raise NotSymmetricError("similarity check is defined for symmetric matrices")
    b = p @ a @ invert(p, tol)
    scale = max(abs(float(np.trace(a))), frobenius_norm(a))
    trace_match = bool(abs(float(np.trace(b)) - float(np.trace(a))) <= 100 * tol.relative * scale)
    rank_match = pivot_rank(a, tol) == pivot_rank(b, tol)
    orthogonal = _defect(p.T, p, np.eye(n)) <= 100 * tol.relative * math.sqrt(n)
    if orthogonal:
        ea = eig_symmetric(a, tol)
        eb = eig_symmetric(b, tol)
        spread = float(np.max(np.abs(ea.values)))
        eigs_match = bool(np.max(np.abs(ea.values - eb.values)) <= 100 * tol.relative * spread)
    else:
        eigs_match = None
    return SimilarityReport(eigs_match, rank_match, trace_match)
