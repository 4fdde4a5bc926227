"""The inverse hierarchy: one-sided, generalized, reflexive, and pseudo.

Constructions come in families on purpose.  One-sided inverses have a
normal-equation route, an elementary route that reads the inverse straight
off the tracked row reduction, and a parametrized family sweeping every
member.  Reflexive generalized inverses have three independent
constructions, and the pseudo inverse two; keeping the routes separate is
what lets the classifier act as a cross-check instead of a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAGInverseError, RankDeficientError, ShapeError
from .factorizations import cr_decompose, svd_reduced
from .matrix import (
    DEFAULT_TOL,
    _as_tolerance,
    _inverse_scaled_back,
    _prescaled,
    as_matrix,
    frobenius_norm,
    invert,
    pivot_rank,
    rref_cols,
    rref_rows,
)

__all__ = [
    "PenroseFlags",
    "InverseReport",
    "classify_inverse",
    "left_inverse",
    "right_inverse",
    "left_inverse_elementary",
    "right_inverse_elementary",
    "left_inverse_family",
    "right_inverse_family",
    "rg_canonical",
    "ginverse_extend",
    "rg_sandwich",
    "rg_via_gram",
    "pinv_svd",
    "pinv_cr",
]


@dataclass(frozen=True)
class PenroseFlags:
    """Which of the four defining identities a candidate satisfies.

    c1: ``X G X = X``; c2: ``G X G = G``; c3: ``X G`` symmetric;
    c4: ``G X`` symmetric.
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool

    def all_four(self):
        return self.c1 and self.c2 and self.c3 and self.c4


@dataclass(frozen=True)
class InverseReport:
    """Classification of a candidate inverse ``g`` against a matrix.

    ``class_label`` follows from the flags alone: every flag gives
    ``pseudo-inverse``, c1 with c2 gives ``reflexive-g-inverse``, c1 alone
    gives ``g-inverse``, otherwise ``none``.  ``is_left_inverse`` and
    ``is_right_inverse`` are independent extras recording ``G X = I`` and
    ``X G = I``.  ``residuals`` holds the four Frobenius defect norms behind
    the flags.
    """

    g: np.ndarray
    flags: PenroseFlags
    class_label: str
    residuals: tuple
    is_left_inverse: bool
    is_right_inverse: bool


def _penrose_threshold(x, g, tol):
    return tol.relative * max(1.0, frobenius_norm(x), frobenius_norm(g))


def _require_c1(x, g, tol, who):
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frobenius_norm(x @ g @ x - x)
    if defect > _penrose_threshold(x, g, tol):
        raise NotAGInverseError(
            f"{who} fails the g-inverse identity (defect {defect:.3e})"
        )


def _operand(m, shape, what):
    """``m`` as a finite matrix of ``shape``; anything else raises naming ``what``."""
    m = as_matrix(m, what)
    if m.shape != shape:
        raise ShapeError(f"{what} must be {shape[0]}x{shape[1]}, got {m.shape}")
    return m


def _free_block(blk, shape, what):
    """A free parameter block of ``shape``, zeros when omitted; a wrong shape
    or a non-finite entry raises ``ShapeError`` naming ``what``."""
    blk = np.zeros(shape) if blk is None else np.asarray(blk, dtype=float)
    if blk.shape != shape:
        raise ShapeError(f"{what} must be {shape[0]}x{shape[1]}, got {blk.shape}")
    if blk.size and not np.all(np.isfinite(blk)):
        raise ShapeError(f"{what} contains non-finite entries")
    return blk


def classify_inverse(x, g, tol=DEFAULT_TOL):
    """Evaluate all four defining identities for a candidate inverse.

    Residuals are compared against
    ``tol.relative * max(1, ||X||_F, ||G||_F)``.
    """
    x = as_matrix(x, "matrix")
    g = as_matrix(g, "candidate inverse")
    tol = _as_tolerance(tol)
    n, p = x.shape
    if g.shape != (p, n):
        raise ShapeError(f"candidate must be {p}x{n}, got {g.shape[0]}x{g.shape[1]}")
    # products past the float range reach frobenius_norm as inf, which it
    # rejects with NonFiniteEntryError; the overflow itself is no warning
    with np.errstate(over="ignore", invalid="ignore"):
        xg = x @ g
        gx = g @ x
        residuals = (
            frobenius_norm(x @ gx - x),
            frobenius_norm(g @ xg - g),
            frobenius_norm(xg.T - xg),
            frobenius_norm(gx.T - gx),
        )
    thr = _penrose_threshold(x, g, tol)
    flags = PenroseFlags(*(r <= thr for r in residuals))
    if flags.all_four():
        label = "pseudo-inverse"
    elif flags.c1 and flags.c2:
        label = "reflexive-g-inverse"
    elif flags.c1:
        label = "g-inverse"
    else:
        label = "none"
    is_left = frobenius_norm(gx - np.eye(p)) <= thr
    is_right = frobenius_norm(xg - np.eye(n)) <= thr
    return InverseReport(g.copy(), flags, label, residuals, is_left, is_right)


def left_inverse(x, tol=DEFAULT_TOL):
    """Normal-equation left inverse ``(X'X)^-1 X'`` of a full-column-rank matrix.

    ``X'X`` is formed at the scale of :func:`_prescaled`, and ``(cX)_L = X_L / c``;
    a left inverse past the float range raises ``NonFiniteEntryError``.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    if pivot_rank(x, tol) < p:
        raise RankDeficientError(f"left inverse needs full column rank {p}")
    xs, e = _prescaled(x)
    return _inverse_scaled_back(invert(xs.T @ xs, tol) @ xs.T, e, "left inverse")


def right_inverse(x, tol=DEFAULT_TOL):
    """Normal-equation right inverse ``X'(XX')^-1`` of a full-row-rank matrix,
    prescaled like :func:`left_inverse`."""
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    if pivot_rank(x, tol) < n:
        raise RankDeficientError(f"right inverse needs full row rank {n}")
    xs, e = _prescaled(x)
    return _inverse_scaled_back(xs.T @ invert(xs @ xs.T, tol), e, "right inverse")


def left_inverse_elementary(x, tol=DEFAULT_TOL):
    """Left inverse read off the row reduction.

    The transform ``E`` carrying a full-column-rank ``X`` to its echelon form
    stacks the identity over zero rows, so the top ``p`` rows of ``E``
    multiply ``X`` to the identity.
    """
    return left_inverse_family(x, None, tol)


def right_inverse_elementary(x, tol=DEFAULT_TOL):
    """Right inverse read off the column reduction (mirror of the left case)."""
    return right_inverse_family(x, None, tol)


def left_inverse_family(x, y=None, tol=DEFAULT_TOL):
    """The left inverse parametrized by a free ``p x (n - p)`` block ``y``.

    With ``E X`` reduced all the way to ``[I; 0]`` the general family
    ``[X1^-1 - Y X2 X1^-1 | Y] E`` collapses to ``[I | Y] E``; sweeping ``y``
    sweeps every left inverse, and ``y = 0`` recovers the elementary one.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    res = rref_rows(x, tol)
    if res.pivot_rank < p:
        raise RankDeficientError(f"left inverse needs full column rank {p}")
    y = _free_block(y, (p, n - p), "free block")
    return np.hstack([np.eye(p), y]) @ res.transform


def right_inverse_family(x, y=None, tol=DEFAULT_TOL):
    """The right inverse parametrized by a free ``(p - n) x n`` block ``y``."""
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    res = rref_cols(x, tol)
    if res.pivot_rank < n:
        raise RankDeficientError(f"right inverse needs full row rank {n}")
    y = _free_block(y, (p - n, n), "free block")
    return res.transform @ np.vstack([np.eye(n), y])


def rg_canonical(x, a=None, b=None, tol=DEFAULT_TOL):
    """Reflexive generalized inverse from the two-sided canonical reduction.

    Row then column reduction writes ``X = E1 [I_r 0; 0 0] E2``; every choice
    of free blocks ``a (r x (n-r))`` and ``b ((p-r) x r)`` then gives the
    reflexive generalized inverse ``E2^-1 [I_r a; b b a] E1^-1``.  The
    inverses of the factors are exactly the tracked transforms, so nothing
    is ever explicitly inverted.  Omitted blocks default to zero.
    """
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    n, p = x.shape
    row = rref_rows(x, tol)
    r = row.pivot_rank
    col = rref_cols(row.reduced, tol)
    a = _free_block(a, (r, n - r), "block a")
    b = _free_block(b, (p - r, r), "block b")
    middle = np.zeros((p, n))
    middle[:r, :r] = np.eye(r)
    middle[:r, r:] = a
    middle[r:, :r] = b
    middle[r:, r:] = b @ a
    return col.transform @ middle @ row.transform


def ginverse_extend(x, g, a, tol=DEFAULT_TOL):
    """Move along the affine family of g-inverses: ``g + a - g X a X g``.

    ``g`` must already satisfy the g-inverse identity; the result then
    satisfies it for any ``p x n`` direction ``a``.
    """
    x = as_matrix(x)
    n, p = x.shape
    g = _operand(g, (p, n), "g-inverse")
    a = _operand(a, (p, n), "direction")
    tol = _as_tolerance(tol)
    _require_c1(x, g, tol, "supplied candidate")
    return g + a - g @ x @ a @ x @ g


def rg_sandwich(x, g1, g2, tol=DEFAULT_TOL):
    """Reflexive generalized inverse ``g1 X g2`` from two g-inverses."""
    x = as_matrix(x)
    n, p = x.shape
    g1 = _operand(g1, (p, n), "first g-inverse")
    g2 = _operand(g2, (p, n), "second g-inverse")
    tol = _as_tolerance(tol)
    for g, name in ((g1, "first g-inverse"), (g2, "second g-inverse")):
        _require_c1(x, g, tol, name)
    return g1 @ x @ g2


def rg_via_gram(x, gram_ginv, tol=DEFAULT_TOL):
    """Reflexive generalized inverse ``(X'X)^- X'`` from a Gram g-inverse."""
    x = as_matrix(x)
    p = x.shape[1]
    gram_ginv = _operand(gram_ginv, (p, p), "gram g-inverse")
    tol = _as_tolerance(tol)
    _require_c1(x.T @ x, gram_ginv, tol, "candidate for the Gram matrix")
    return gram_ginv @ x.T


def pinv_svd(x, tol=DEFAULT_TOL):
    """Pseudo inverse assembled from the reduced SVD: ``v diag(1/sigma) u'``."""
    return svd_reduced(x, tol).pinv()


def pinv_cr(x, tol=DEFAULT_TOL):
    """Pseudo inverse assembled from the CR factors: ``R'(RR')^-1 (C'C)^-1 C'``.

    Deliberately shares no code with :func:`pinv_svd`; the two routes
    agreeing is a statement about the uniqueness of the pseudo inverse, not
    about the implementation.  At full column rank ``R`` is exactly ``I``,
    so only ``(C'C)^-1 C'`` is formed.  ``x`` is first scaled by the power
    of two that brings its largest entry into [0.5, 1), so ``C'C`` neither
    overflows nor underflows; since ``pinv(cX) = pinv(X) / c`` the result is
    scaled back by the same power, and past the float range it raises
    ``NonFiniteEntryError``.
    """
    x, e = _prescaled(as_matrix(x))
    tol = _as_tolerance(tol)
    n, p = x.shape
    factors = cr_decompose(x, tol)
    if factors.rank == 0:
        return np.zeros((p, n))
    c, rf = factors.c, factors.r_factor
    if factors.rank == p:
        # the echelon rows are exactly I, so R'(RR')^-1 is I
        g = invert(c.T @ c, tol) @ c.T
    else:
        g = rf.T @ invert(rf @ rf.T, tol) @ invert(c.T @ c, tol) @ c.T
    return _inverse_scaled_back(g, e, "pseudo inverse")
