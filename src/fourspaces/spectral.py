"""Symmetric eigendecomposition by round-robin Jacobi rotations.

The decomposition is fully constructive: one working array ``[A | I]`` is
rotated to ``[Lambda | Q']``, the way ``rref_rows`` takes ``[A | I]`` to
``[R | E]``, so ``s == q @ diag(values) @ q.T`` up to roundoff with no
reliance on an external eigensolver.  Each sweep visits the off-diagonal
pairs in the parallel ordering of Brent and Luk (SISC 1985; Golub and Van
Loan, *Matrix Computations*, section 8.5): n - 1 rounds of disjoint pairs,
each round applied as a few array operations addressed by a table of flat
indices cached per order, its rotations taken from one branch-free
closed-form tangent.

The same rotations also run one-sidedly, for the SVD: rotating the rows of
a k x p matrix ``R`` takes ``R R'`` where the two-sided sweep would, with
each pair's entries of ``R R'`` read as dot products of its rows, so one
array ``[R | I]`` is rotated once per round to ``[Sigma V' | W']`` and
``R R'`` is formed only to test convergence (Hestenes 1958).  The two
stop differently.  :func:`eig_symmetric` stops on the off-diagonal
Frobenius norm and then sweeps once more, as its callers pass indefinite
matrices; the one-sided kernel stops once every pair of rows is orthogonal
to ``k eps`` in cosine, the relative criterion of Demmel and Veselic (SIMAX
1992), with no polish.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonFiniteEntryError, NotSymmetricError, ShapeError
from .matrix import (
    DEFAULT_TOL, _as_tolerance, _prescaled, _scaled_back, as_matrix, frobenius_norm, invert,
    pivot_rank,
)

__all__ = ["EigResult", "SimilarityReport", "eig_symmetric", "similarity_check"]

MAX_SWEEPS = 50


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues in descending order and the orthogonal eigenvector matrix.

    Column ``q[:, i]`` belongs to ``values[i]``; each column is signed so
    its lowest-index component within a relative 1e-12 of its largest
    magnitude is positive, which keeps exact ties stable under rounding.
    ``sweeps`` counts the sweeps applied, the polish sweep included, and
    ``offdiag_norm`` is the off-diagonal Frobenius norm left after the last.
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


@functools.lru_cache(maxsize=None)
def _rounds(n):
    """Brent-Luk round-robin schedule of one sweep over an n x n matrix.

    Seats are paired as in a round-robin tournament: seat 0 stays put and
    the others move one place per round, so after n - 1 rounds (n even)
    every pair has met once.  Odd n adds an empty seat whose partner sits
    the round out.  Each round is ``(i, j, ij)``: the disjoint pairs with
    ``i < j``, and both interleaved as ``i0, j0, i1, j1, ...``.
    """
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        seats = np.concatenate(([0], np.roll(np.arange(1, m), -r)))
        top, bottom = seats[: m // 2], seats[m // 2 :][::-1]
        real = (top < n) & (bottom < n)
        i, j = np.minimum(top, bottom)[real], np.maximum(top, bottom)[real]
        rounds.append((i, j, np.stack([i, j], axis=1).ravel()))
    return tuple(rounds)


def _rotation(app, aqq, apq):
    """Cosines and sines of the Jacobi rotations that annihilate ``apq``, elementwise.

    The tangent is the smaller root of ``t^2 + 2 t h / apq = 1``,
    ``t = apq / (h + sign(h) hypot(h, apq))`` with ``h = aqq / 2 - app / 2``
    from halves; nothing overflows for entries below 7e307.  The denominator
    is 0 only at ``h = apq = 0``, where it is read as 1, so ``t = 0``.
    """
    h = aqq / 2.0 - app / 2.0
    d = h + np.copysign(np.hypot(h, apq), h)
    t = apq / (d + (d == 0.0))
    c = 1.0 / np.hypot(1.0, t)
    return c, t * c


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


def _rotate_rows(a, ij, g):
    """Apply the 2 x 2 rotation ``g[k]`` to rows ``ij[2k], ij[2k + 1]`` of ``a`` in place."""
    a[ij] = (g @ a[ij].reshape(len(g), 2, -1)).reshape(len(ij), -1)


@functools.lru_cache(maxsize=None)
def _flat_rounds(n):
    """:func:`_rounds` as flat indices into the C-ordered n x 2n array ``[A | Q']``.

    Each round is ``(ij, diag, pins)``: ``ij`` as in :func:`_rounds`, ``diag``
    addressing ``(i, i)``, ``(j, j)`` and ``(i, j)`` pair by pair, one block
    after the other, and ``pins`` addressing ``(i, j)`` and ``(j, i)``.  The
    one round without pairs, at n = 1, is left out.
    """
    stride = 2 * n
    return tuple(
        (ij, np.concatenate((i * stride + i, j * stride + j, i * stride + j)),
         np.concatenate((i * stride + j, j * stride + i)))
        for i, j, ij in _rounds(n)
        if len(ij)
    )


def _set_rotations(g, app, aqq, apq):
    """Write ``g[k] = [[c, -s], [s, c]]``, the rotation :func:`_rotation` gives for pair k."""
    c, s = _rotation(app, aqq, apq)
    cs = g.reshape(-1, 4)
    cs[:, ::3] = c[:, None]
    cs[:, 2] = s
    np.negative(s, out=cs[:, 1])


def _sweep(w):
    """One round-robin pass over all off-diagonal pairs of ``w = [A | Q']``, in place.

    ``w`` is C-ordered, n x 2n.  The rotations of one round touch disjoint
    pairs, so they commute and are applied together.  Rotating the rows of
    ``w`` gives ``[R' A | R' Q']``; rotating the rows of the left block's
    transposed view then gives ``R' A R``, as ``A`` is symmetric.
    """
    n = w.shape[0]
    a = w[:, :n]
    # every round of one order has n // 2 pairs
    g = np.empty((n // 2, 2, 2))
    for ij, diag, pins in _flat_rounds(n):
        _set_rotations(g, *w.take(diag).reshape(3, -1))
        _rotate_rows(w, ij, g)
        _rotate_rows(a.T, ij, g)
        # each rotation annihilates its pair analytically; pin the zeros
        w.put(pins, 0.0)


def _row_sweep(w, p):
    """One round-robin pass over all row pairs of ``w = [R | W']``, in place.

    ``w`` is C-ordered, k x (p + k).  Each round gathers its pairs once and
    reads ``alpha = r_i . r_i``, ``beta = r_j . r_j`` and ``gamma = r_i . r_j``
    off the gathered left block: the entries of ``R R'`` that a two-sided
    round of :func:`_sweep` reads, without forming ``R R'``.  Rotating the
    rows takes ``R R'`` to ``G' R R' G`` with the rotation that round would
    apply.
    """
    k = w.shape[0]
    g = np.empty((k // 2, 2, 2))
    for _, _, ij in _rounds(k):
        pairs = w.take(ij, axis=0).reshape(len(g), 2, -1)
        r = pairs[:, :, :p]
        norms = np.einsum("kij,kij->ki", r, r)
        _set_rotations(g, norms[:, 0], norms[:, 1], np.einsum("kj,kj->k", r[:, 0], r[:, 1]))
        w[ij] = (g @ pairs).reshape(len(ij), -1)


def eig_symmetric(s, tol=DEFAULT_TOL):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    s : (p, p) array_like
        Symmetric matrix; symmetry is enforced up to
        ``tol.relative * ||s||_F`` and the working copy is symmetrized.
    tol : Tolerance or float, optional
        Sweeping stops once the off-diagonal Frobenius norm falls below
        ``tol.relative * ||s||_F``.

    Returns
    -------
    EigResult

    Raises
    ------
    NotSymmetricError
        If ``s`` is further from its transpose than the tolerance allows.
    ConvergenceError
        If the off-diagonal mass has not fallen below the threshold after
        ``MAX_SWEEPS`` (50) sweeps; the error carries ``sweeps`` and the
        ``offdiag_norm`` it stopped at.
    NonFiniteEntryError
        If an eigenvalue of the finite ``s`` lies beyond the float range.

    Notes
    -----
    After the acceptance threshold is met one extra sweep runs.  Convergence
    is quadratic at that point, so the polish costs next to nothing and pushes
    near-zero eigenvalues from tolerance level down to rounding level, which
    keeps downstream rank decisions out of the noise band.
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
    # [A | I] is rotated to [Lambda | Q']; a is the left block, a view
    w = np.hstack(((s + s.T) / 2.0, np.eye(n)))
    a = w[:, :n]
    # the sweep that starts at or below the threshold is the polish, and the last
    sweeps, polish = 0, False
    off = _offdiag_norm(a)
    while off > 0.0 and not polish:
        polish = off <= threshold
        if sweeps == MAX_SWEEPS and not polish:
            off, threshold = _scaled_back(off, e), _scaled_back(threshold, e)
            raise ConvergenceError(
                f"off-diagonal norm {off:.3e} still above "
                f"{threshold:.3e} after {MAX_SWEEPS} sweeps",
                sweeps,
                off,
            )
        _sweep(w)
        sweeps += 1
        off = _offdiag_norm(a)
    order = np.argsort(-np.diag(a), kind="stable")
    values = _scaled_back(np.diag(a)[order], e)
    if not np.all(np.isfinite(values)):
        raise NonFiniteEntryError("an eigenvalue lies beyond the float range")
    q = w[order, n:].T
    _sign_columns(q)
    return EigResult(values, q, sweeps, float(_scaled_back(off, e)))


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
    ``W' R R' W`` is diagonal: the rotations are those of
    :func:`eig_symmetric` on ``R R'``, read off the rows of ``R`` (Hestenes
    1958).  Sweeps stop once every pair of rows has
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
    :func:`svd_reduced` passes a k1 x k factor with k1 <= k.
    """
    r, e = _prescaled(as_matrix(r))
    k, p = r.shape
    # [R | I] is rotated to [Sigma V' | W']; r is now the left block, a view
    w = np.hstack((r, np.eye(k)))
    r = w[:, :p]
    bound = k * np.finfo(float).eps
    sweeps = 0
    cosine = _largest_cosine(r @ r.T)
    while cosine > bound:
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(
                f"largest cosine between rows {cosine:.3e} still above "
                f"{bound:.3e} after {MAX_SWEEPS} sweeps",
                sweeps,
                cosine,
            )
        _row_sweep(w, p)
        sweeps += 1
        cosine = _largest_cosine(r @ r.T)
    sigma = np.sqrt(np.einsum("ij,ij->i", r, r))
    order = np.argsort(-sigma, kind="stable")
    return _scaled_back(sigma[order], e), w[order, p:].T, sweeps


def similarity_check(a, p, tol=DEFAULT_TOL):
    """Verify what ``p @ a @ p^-1`` preserves: spectrum, rank, and trace.

    ``a`` must be square symmetric and ``p`` square nonsingular.  The
    eigenvalue comparison runs only when ``p`` is orthogonal (otherwise the
    conjugate leaves the symmetric domain) and is reported as None in that
    case; rank and trace are compared for every nonsingular ``p``.
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
    scale = max(1.0, abs(float(np.trace(a))), frobenius_norm(a))
    trace_match = bool(abs(float(np.trace(b)) - float(np.trace(a))) <= 100 * tol.relative * scale)
    rank_match = pivot_rank(a, tol) == pivot_rank(b, tol)
    gram = p.T @ p
    orthogonal = frobenius_norm(gram - np.eye(n)) <= 100 * tol.relative * max(1.0, math.sqrt(n))
    if orthogonal:
        ea = eig_symmetric(a, tol)
        eb = eig_symmetric(b, tol)
        spread = max(1.0, float(np.max(np.abs(ea.values))) if n else 1.0)
        eigs_match = bool(np.max(np.abs(ea.values - eb.values)) <= 100 * tol.relative * spread)
    else:
        eigs_match = None
    return SimilarityReport(eigs_match, rank_match, trace_match)
