"""Symmetric eigendecomposition by round-robin Jacobi rotations.

The decomposition is fully constructive: plane rotations are accumulated
into the orthogonal factor, so ``s == q @ diag(values) @ q.T`` up to
roundoff with no reliance on an external eigensolver.  Each sweep visits the
off-diagonal pairs in the parallel ordering of Brent and Luk (SISC 1985;
Golub and Van Loan, *Matrix Computations*, section 8.5): n - 1 rounds of
disjoint pairs, each round applied as a few array operations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotSymmetricError, ShapeError
from .matrix import DEFAULT_TOL, _as_tolerance, as_matrix, frobenius_norm, invert, pivot_rank

__all__ = ["EigResult", "SimilarityReport", "eig_symmetric", "similarity_check", "MAX_SWEEPS"]

MAX_SWEEPS = 50


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues in descending order and the orthogonal eigenvector matrix.

    Column ``q[:, i]`` belongs to ``values[i]``; each column is scaled so its
    largest-magnitude component is positive, ties resolved by lowest index.
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
    return math.sqrt(np.sum(off * off))


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

    With ``tau = (aqq - app) / (2 apq)`` the tangent is
    ``t = sign(tau) / (|tau| + sqrt(1 + tau^2))``; once the angle is below
    rounding the large-tau limit ``t = apq / (aqq - app)`` replaces it, which
    avoids overflow in the quotient.  A zero ``apq`` gives no rotation.  Each
    branch is evaluated only where it applies, so nothing divides by zero.
    """
    diff = aqq - app
    tiny = np.abs(diff) > 1e12 * np.abs(apq)
    # tau stays infinite where apq is zero, which makes t zero there
    tau = np.divide(diff, 2.0 * apq, out=np.full_like(diff, np.inf), where=(apq != 0.0) & ~tiny)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    np.divide(apq, diff, out=t, where=tiny)
    c = 1.0 / np.hypot(1.0, t)
    return c, t * c


def _rotate_rows(a, ij, g):
    """Apply the 2 x 2 rotation ``g[k]`` to rows ``ij[2k], ij[2k + 1]`` of ``a`` in place."""
    a[ij] = (g @ a[ij].reshape(len(g), 2, -1)).reshape(len(ij), -1)


def _sweep(a, qt, rounds):
    """One round-robin pass over all off-diagonal pairs; returns the rotated matrix.

    The rotations of one round touch disjoint pairs, so they commute and are
    applied together: ``a <- R' a R`` and ``qt <- R' qt``, where ``qt`` holds
    the eigenvectors as rows.  Rotating the rows of ``a`` gives ``R' a``,
    whose transpose is ``a R`` because ``a`` is symmetric; rotating rows once
    more gives ``R' a R``.
    """
    for i, j, ij in rounds:
        c, s = _rotation(a[i, i], a[j, j], a[i, j])
        g = np.empty((len(i), 2, 2))
        g[:, 0, 0] = c
        g[:, 0, 1] = -s
        g[:, 1, 0] = s
        g[:, 1, 1] = c
        _rotate_rows(a, ij, g)
        a = a.T.copy()
        _rotate_rows(a, ij, g)
        # each rotation annihilates its pair analytically; pin the zeros
        a[i, j] = 0.0
        a[j, i] = 0.0
        _rotate_rows(qt, ij, g)
    return a


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
    scale = frobenius_norm(s)
    if frobenius_norm(s - s.T) > tol.relative * scale:
        raise NotSymmetricError(
            "matrix is not symmetric within tolerance "
            f"(asymmetry {frobenius_norm(s - s.T):.3e} vs bound {tol.relative * scale:.3e})"
        )
    work = (s + s.T) / 2.0
    qt = np.eye(n)
    rounds = _rounds(n)
    threshold = tol.relative * scale
    sweeps = 0
    off = _offdiag_norm(work)
    while off > threshold:
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(
                f"off-diagonal norm {off:.3e} still above "
                f"{threshold:.3e} after {MAX_SWEEPS} sweeps",
                sweeps,
                off,
            )
        work = _sweep(work, qt, rounds)
        sweeps += 1
        off = _offdiag_norm(work)
    if n > 1 and off > 0.0:
        work = _sweep(work, qt, rounds)
        sweeps += 1
        off = _offdiag_norm(work)
    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    q = qt.T[:, order]
    top = np.argmax(np.abs(q), axis=0)
    q[:, q[top, np.arange(n)] < 0.0] *= -1.0
    return EigResult(values, q, sweeps, off)


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
