"""Least squares read through the four subspaces.

Every solver here returns the same record: an estimate, the projection of
the observation onto the column space, and the residual left over in the
left null space.  The normal-equation route requires full column rank; the
SVD route works at any rank and picks the minimum-norm minimizer, which is
the one lying entirely in the row space.  Projectors onto the column and
row spaces, ``U_r U_r'`` and ``V_r V_r'`` off one SVD record, round out the
picture, with a diagnostics helper that checks the projector laws directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystemError, RankDeficientError, ShapeError
from .factorizations import svd_reduced
from .inverses import left_inverse, right_inverse
from .matrix import (
    DEFAULT_TOL,
    _as_tolerance,
    _defect,
    _in_range,
    _prescaled,
    _scaled_back,
    as_matrix,
    as_vector,
    frobenius_norm,
    pivot_rank,
)
from .spectral import eig_symmetric

__all__ = [
    "LsSolution",
    "ProjectorReport",
    "ls_normal",
    "ls_svd_minnorm",
    "observation_split",
    "projector_column",
    "projector_row",
    "projector_diagnostics",
    "consistent_unique_solve",
    "right_solve",
]


@dataclass(frozen=True)
class LsSolution:
    """A least-squares answer split into estimate, projection, and residual.

    ``y_hat + residual`` reconstructs the observation, ``y_hat`` lies in
    the column space, and ``residual`` in the left null space.  ``method``
    names the route that produced the estimate: ``normal``,
    ``svd-minnorm``, ``unique-consistent``, or ``right-inverse``.
    """

    beta_hat: np.ndarray
    y_hat: np.ndarray
    residual: np.ndarray
    residual_norm: float
    rank_used: int
    method: str


@dataclass(frozen=True)
class ProjectorReport:
    """Diagnostics for a square matrix claiming to be a projector.

    ``spectrum_binary`` is ``None`` when the matrix is not symmetric,
    since the eigenvalue check runs on the symmetric engine only.
    ``idempotency`` and ``symmetry`` are the defects ``||P^2 - P||_F`` and
    ``||P - P'||_F`` behind the ``idempotent`` and ``symmetric`` flags.
    """

    trace: float
    rank: int
    idempotent: bool
    symmetric: bool
    spectrum_binary: bool | None
    idempotency: float
    symmetry: float


def _finish(x, y, beta, rank_used, method):
    # formed at the scale of _prescaled, where the partial sums of X beta
    # cannot overflow though its entries stay finite
    x, e = _prescaled(x)
    y_hat = _scaled_back(x @ beta, e)
    residual = y - y_hat
    return LsSolution(
        beta_hat=beta,
        y_hat=y_hat,
        residual=residual,
        residual_norm=frobenius_norm(residual),
        rank_used=rank_used,
        method=method,
    )


def _left_inverse_solve(x, y, tol, who, method):
    """``beta = X_L y`` by :func:`left_inverse`, finished as ``method``; a
    rank-deficient ``x`` raises an error that names ``who``."""
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    y = as_vector(y, length=n, name="y")
    try:
        beta = left_inverse(x, tol) @ y
    except RankDeficientError:
        raise RankDeficientError(
            f"{who} needs full column rank; use ls_svd_minnorm for the rank-deficient case"
        ) from None
    return _finish(x, y, beta, p, method)


def ls_normal(x, y, tol=DEFAULT_TOL):
    """Least squares by the normal equation; needs full column rank.

    Solves ``(X^T X) beta = X^T y`` and splits the observation into the
    projection ``X beta`` and the residual orthogonal to the column space.
    """
    return _left_inverse_solve(x, y, tol, "normal-equation least squares", "normal")


def ls_svd_minnorm(x, y, tol=DEFAULT_TOL):
    """Minimum-norm least squares at any rank.

    The estimate is ``sum_i (u_i^T y / sigma_i) v_i`` over the retained
    singular triplets, i.e. the pseudo-inverse applied to ``y``.  Among
    all minimizers of the residual it is the one of smallest Euclidean
    norm, and it lies in the row space.  It is formed from the SVD of the
    prescaled ``X`` and the prescaled ``y``, as ``beta = 2^(ey - ex) V
    ((U' ys) / sigma)``; an estimate past the float range raises
    ``NonFiniteEntryError``, with no warning ahead of it.
    """
    x = as_matrix(x)
    y = as_vector(y, length=x.shape[0], name="y")
    (xs, ex), (ys, ey) = _prescaled(x), _prescaled(y)
    res = svd_reduced(xs, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # a sigma over a subnormal cutoff
        beta = res.v @ ((res.u.T @ ys) / res.sigma)
    return _finish(x, y, _in_range(beta, ey - ex, "the estimate"), res.rank, "svd-minnorm")


def observation_split(x, y, tol=DEFAULT_TOL):
    """Split an observation into its column-space and left-null-space parts.

    Returns ``(y_hat, e)`` with ``y_hat = X X^+ y`` and ``e = y - y_hat``;
    the residual satisfies ``X^T e = 0`` and ``X^+ e = 0`` up to rounding.
    These are the ``y_hat`` and ``residual`` of :func:`ls_svd_minnorm`.
    """
    sol = ls_svd_minnorm(x, y, tol)
    return sol.y_hat, sol.residual


def projector_column(x, tol=DEFAULT_TOL):
    """Orthogonal projector ``X X^+ = U_r U_r'`` onto the column space (n by n)."""
    u = svd_reduced(_prescaled(as_matrix(x))[0], tol).u
    return u @ u.T


def projector_row(x, tol=DEFAULT_TOL):
    """Orthogonal projector ``X^+ X = V_r V_r'`` onto the row space (p by p)."""
    v = svd_reduced(_prescaled(as_matrix(x))[0], tol).v
    return v @ v.T


def projector_diagnostics(p, tol=DEFAULT_TOL):
    """Check the projector laws on a square matrix.

    Idempotence is ``||P^2 - P||_F`` against ``100 tol ||P||_F``, symmetry
    against ``tol ||P||_F``; the binary-spectrum check asks every eigenvalue
    to sit within ``100 tol ||P||_F`` of 0 or 1 and is skipped (reported
    ``None``) when ``P`` is not symmetric.  Every band is in the unit of
    ``P``, and none has a floor.  For a symmetric idempotent the trace
    matches the rank.
    """
    p = as_matrix(p, "projector")
    tol = _as_tolerance(tol)
    if p.shape[0] != p.shape[1]:
        raise ShapeError(f"projector must be square, got {p.shape}")
    scale = frobenius_norm(p)
    idempotency = _defect(p, p, p)
    symmetry = frobenius_norm(p - p.T)
    band = 100.0 * tol.relative * scale
    idem = idempotency <= band
    sym = symmetry <= tol.relative * scale
    spectrum_binary = None
    if sym:
        values = eig_symmetric((p + p.T) / 2.0, tol).values
        spectrum_binary = bool(np.all(np.minimum(np.abs(values), np.abs(values - 1.0)) <= band))
    return ProjectorReport(
        trace=float(np.trace(p)),
        rank=pivot_rank(p, tol),
        idempotent=bool(idem),
        symmetric=bool(sym),
        spectrum_binary=spectrum_binary,
        idempotency=idempotency,
        symmetry=symmetry,
    )


def consistent_unique_solve(x, y, tol=DEFAULT_TOL):
    """Solve ``X beta = y`` exactly when a unique solution exists.

    Requires full column rank.  Consistency is decided by the left-inverse
    test ``||(I - X X_L) y|| <= band * ||y||`` with
    ``band = max(100 * tol.relative, 1e-8)``; the test is relative to
    ``y`` alone, and formed from its prescaled copy, so it reads the same
    at every scale.  An inconsistent observation raises an error carrying
    that residual norm instead of silently returning a best fit.
    """
    sol = _left_inverse_solve(x, y, tol, "a unique solution", "unique-consistent")
    ys, ey = _prescaled(as_vector(y))
    band = _scaled_back(max(100.0 * _as_tolerance(tol).relative, 1e-8) * frobenius_norm(ys), ey)
    if sol.residual_norm > band:
        raise InconsistentSystemError(
            f"system is inconsistent: left-inverse residual {sol.residual_norm:.3e} "
            f"exceeds {band:.3e}",
            residual_norm=sol.residual_norm,
        )
    return sol


def right_solve(x, y, tol=DEFAULT_TOL):
    """Solve ``X beta = y`` through the right inverse; needs full row rank.

    With full row rank the system is solvable for every ``y``, and
    ``beta = X^T (X X^T)^{-1} y`` hits it exactly, so the residual is
    zero up to rounding.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    y = as_vector(y, length=x.shape[0], name="y")
    beta = right_inverse(x, tol) @ y
    return _finish(x, y, beta, x.shape[0], "right-inverse")
