"""The inverse hierarchy: one-sided, generalized, reflexive, and pseudo.

Constructions come in families on purpose.  One-sided inverses have a
normal-equation route, an elementary route that reads the inverse off the
tracked transform ``E``, and a parametrized family sweeping every member,
read off slices of ``E``.  Reflexive generalized inverses have three
independent constructions, and the pseudo inverse two: the SVD's, and
``R+ C+`` from the one-sided inverses of the CR factors.  Keeping the routes
separate lets the classifier act as a cross-check instead of a tautology.
Since ``N(X'X) = N(X)``, a Gram matrix is inverted first (only in
:func:`_normal_inverse`), and ``X`` is reduced only to name a failure (only
in :func:`_gram_inverse`) or, for ``R+ C+``, to fall back to the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (MatrixError, NotAGInverseError, RankDeficientError, ShapeError,
                     SingularMatrixError)
from .factorizations import cr_decompose, svd_reduced
from .matrix import (
    DEFAULT_TOL,
    _as_tolerance,
    _in_range,
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
    """Classification of a candidate inverse against a matrix.

    ``class_label`` follows from the flags alone: every flag gives
    ``pseudo-inverse``, c1 with c2 gives ``reflexive-g-inverse``, c1 alone
    gives ``g-inverse``, otherwise ``none``.  ``is_left_inverse`` and
    ``is_right_inverse`` are independent extras recording ``G X = I`` and
    ``X G = I``.  ``residuals`` holds the four Frobenius defect norms behind
    the flags.
    """

    class_label: str
    flags: PenroseFlags
    is_left_inverse: bool
    is_right_inverse: bool
    residuals: tuple


def _require_c1(x, g, tol, who):
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frobenius_norm(x @ g @ x - x)
    if defect > tol.relative * max(frobenius_norm(x), frobenius_norm(g)):
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

    Residuals are compared against ``tol.relative * max(||X||_F, ||G||_F)``,
    and the unitless ``||GX - I||_F`` and ``||XG - I||_F`` against
    ``tol.relative * ||X||_F * ||G||_F``, none of the bounds with a floor.
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
    x_norm, g_norm = frobenius_norm(x), frobenius_norm(g)
    thr = tol.relative * max(x_norm, g_norm)
    flags = PenroseFlags(*(r <= thr for r in residuals))
    if flags.all_four():
        label = "pseudo-inverse"
    elif flags.c1 and flags.c2:
        label = "reflexive-g-inverse"
    elif flags.c1:
        label = "g-inverse"
    else:
        label = "none"
    is_left = frobenius_norm(gx - np.eye(p)) <= tol.relative * x_norm * g_norm
    is_right = frobenius_norm(xg - np.eye(n)) <= tol.relative * x_norm * g_norm
    return InverseReport(label, flags, is_left, is_right, residuals)


def _normal_inverse(xs, tol, left):
    """``(X'X)^-1 X'`` (``left``) or ``X'(XX')^-1`` of the prescaled ``xs``,
    range unchecked: the one place a Gram matrix is inverted.  A failed
    inversion raises as :func:`invert` does."""
    if left:
        return invert(xs.T @ xs, tol) @ xs.T
    return xs.T @ invert(xs @ xs.T, tol)


def _gram_inverse(x, tol, side):
    """The ``side`` (``"left"`` or ``"right"``) normal-equation inverse of ``x``,
    with ``x`` row reduced only to name a failed Gram inversion: the one place
    such a failure is named, as :func:`left_inverse` says."""
    x = as_matrix(x)
    xs, e = _prescaled(x)
    left = side == "left"
    try:
        g = _normal_inverse(xs, tol, left)
    except MatrixError as exc:
        full, dim = (x.shape[1], "column") if left else (x.shape[0], "row")
        if pivot_rank(x, tol) < full:
            raise RankDeficientError(f"{side} inverse needs full {dim} rank {full}") from None
        if not isinstance(exc, SingularMatrixError):
            raise
        raise SingularMatrixError(
            f"X has full {dim} rank {full}, but its Gram matrix is singular at the working "
            f"tolerance (pivot rank {exc.pivot_rank} of {full}): the normal equations "
            "square its condition number",
            exc.pivot_rank,
        ) from None
    return _in_range(g, -e, f"the {side} inverse")


def left_inverse(x, tol=DEFAULT_TOL):
    """Normal-equation left inverse ``(X'X)^-1 X'`` of a full-column-rank matrix.

    ``X'X`` is formed at the scale of :func:`_prescaled`, and ``(cX)_L = X_L / c``;
    a left inverse past the float range raises ``NonFiniteEntryError``.  The
    Gram matrix is inverted first; since ``N(X'X) = N(X)``, ``X`` is row
    reduced only when that fails, to name the error: ``RankDeficientError``
    below full column rank, and at full rank a ``SingularMatrixError`` that
    says the normal equations square the conditioning.  Any other failure
    is the inversion's own.
    """
    return _gram_inverse(x, tol, "left")


def right_inverse(x, tol=DEFAULT_TOL):
    """Normal-equation right inverse ``X'(XX')^-1`` of a full-row-rank matrix,
    prescaled and ordered like :func:`left_inverse`: ``XX'`` is inverted
    first, and ``X`` is reduced only to name a failure."""
    return _gram_inverse(x, tol, "right")


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
    ``[X1^-1 - Y X2 X1^-1 | Y] E`` collapses to ``[I | Y] E = E[:p] + Y E[p:]``;
    sweeping ``y`` sweeps every left inverse, and ``y = 0`` recovers the
    elementary one.
    """
    x = as_matrix(x)
    n, p = x.shape
    res = rref_rows(x, tol)
    if res.pivot_rank < p:
        raise RankDeficientError(f"left inverse needs full column rank {p}")
    y = _free_block(y, (p, n - p), "free block")
    e = _in_range(res.transform, 0, "the left inverse")
    return e[:p] + y @ e[p:]


def right_inverse_family(x, y=None, tol=DEFAULT_TOL):
    """The right inverse parametrized by a free ``(p - n) x n`` block ``y``:
    ``E [I; Y] = E[:, :n] + E[:, n:] Y``, mirroring the left case."""
    x = as_matrix(x)
    n, p = x.shape
    res = rref_cols(x, tol)
    if res.pivot_rank < n:
        raise RankDeficientError(f"right inverse needs full row rank {n}")
    y = _free_block(y, (p - n, n), "free block")
    e = _in_range(res.transform, 0, "the right inverse")
    return e[:, :n] + e[:, n:] @ y


def rg_canonical(x, a=None, b=None, tol=DEFAULT_TOL):
    """Reflexive generalized inverse from the two-sided canonical reduction.

    Row then column reduction writes ``X = E1 [I_r 0; 0 0] E2``; every choice
    of free blocks ``a (r x (n-r))`` and ``b ((p-r) x r)`` then gives the
    reflexive generalized inverse ``E2^-1 [I_r a; b b a] E1^-1``, formed as
    ``E2^-1 [I; b] [I a] E1^-1`` with no ``p x n`` middle block.  The
    inverses of the factors are exactly the tracked transforms, so nothing
    is ever explicitly inverted.  Omitted blocks default to zero.  An
    answer past the float range raises ``NonFiniteEntryError``.
    """
    x = as_matrix(x)
    n, p = x.shape
    row = rref_rows(x, tol)
    r = row.pivot_rank
    # rows past the rank are zero and move no pivot: the column reduction
    # of the nonzero rows gives the same transform, one row kept at rank 0
    cols = rref_cols(_in_range(row.reduced[: max(r, 1)], 0, "the echelon form"), tol).transform
    a = _free_block(a, (r, n - r), "block a")
    b = _free_block(b, (p - r, r), "block b")
    rows = row.transform
    with np.errstate(over="ignore", invalid="ignore"):
        g = (cols[:, :r] + cols[:, r:] @ b) @ (rows[:r] + a @ rows[r:])
    return _in_range(g, 0, "the reflexive g-inverse")


def ginverse_extend(x, g, a, tol=DEFAULT_TOL):
    """Move along the affine family of g-inverses: ``g + a - g X a X g``.

    ``g`` must already satisfy the g-inverse identity; the result then
    satisfies it for any ``p x n`` direction ``a``.  ``g X`` and ``X g``,
    unchanged when ``X`` is scaled by c and ``g`` by 1/c, are formed first,
    so the result is finite wherever the answer is; one past the float
    range raises ``NonFiniteEntryError``.
    """
    x = as_matrix(x)
    n, p = x.shape
    g = _operand(g, (p, n), "g-inverse")
    a = _operand(a, (p, n), "direction")
    tol = _as_tolerance(tol)
    _require_c1(x, g, tol, "supplied candidate")
    with np.errstate(over="ignore", invalid="ignore"):
        h = g + a - (g @ x) @ a @ (x @ g)
    return _in_range(h, 0, "the g-inverse")


def rg_sandwich(x, g1, g2, tol=DEFAULT_TOL):
    """Reflexive generalized inverse ``g1 X g2`` from two g-inverses; one past
    the float range raises ``NonFiniteEntryError``."""
    x = as_matrix(x)
    n, p = x.shape
    g1 = _operand(g1, (p, n), "first g-inverse")
    g2 = _operand(g2, (p, n), "second g-inverse")
    tol = _as_tolerance(tol)
    for g, name in ((g1, "first g-inverse"), (g2, "second g-inverse")):
        _require_c1(x, g, tol, name)
    with np.errstate(over="ignore", invalid="ignore"):
        g = g1 @ x @ g2
    return _in_range(g, 0, "the reflexive g-inverse")


def rg_via_gram(x, gram_ginv, tol=DEFAULT_TOL):
    """Reflexive generalized inverse ``(X'X)^- X'`` from a Gram g-inverse.

    A Gram matrix or an answer past the float range raises
    ``NonFiniteEntryError`` naming it, with no overflow warning ahead of it.
    """
    x = as_matrix(x)
    p = x.shape[1]
    gram_ginv = _operand(gram_ginv, (p, p), "gram g-inverse")
    tol = _as_tolerance(tol)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x.T @ x
        g = gram_ginv @ x.T
    _require_c1(as_matrix(gram, "Gram matrix"), gram_ginv, tol, "candidate for the Gram matrix")
    return _in_range(g, 0, "the reflexive g-inverse")


def pinv_svd(x, tol=DEFAULT_TOL):
    """Pseudo inverse ``v diag(1/sigma) u'`` from the SVD of the prescaled ``x``, scaled back."""
    x, e = _prescaled(as_matrix(x))
    return _in_range(svd_reduced(x, tol).pinv(), -e, "the pseudo inverse")


def pinv_cr(x, tol=DEFAULT_TOL):
    """Pseudo inverse from the CR factors: ``X+ = R+ C+ = right_inverse(R) left_inverse(C)``.

    Deliberately shares no code with :func:`pinv_svd`; the two routes
    agreeing is a statement about the uniqueness of the pseudo inverse, not
    about the implementation.  ``x`` is first scaled by the power of two
    that brings its largest entry into [0.5, 1); since
    ``pinv(cX) = pinv(X) / c`` the result is scaled back by the same power,
    and past the float range it raises ``NonFiniteEntryError``.

    A tall ``X`` inverts its Gram matrix first: ``N(X'X) = N(X)`` makes that
    full column rank, where ``R = I`` and ``X+ = (X'X)^-1 X'``.  Any failure
    falls back to ``R+ C+``, ``R+`` formed first: zeros at rank zero, and
    otherwise the one-sided inverses of the factors name every error.
    """
    # C-ordered like the C of cr_decompose, so the products round as on C
    x, e = _prescaled(np.ascontiguousarray(as_matrix(x)))
    n, p = x.shape
    if n >= p:
        try:
            return _in_range(_normal_inverse(x, tol, True), -e, "the pseudo inverse")
        except MatrixError:
            pass  # R+ C+ below names it, a past-range answer too
    factors = cr_decompose(x, tol)
    if factors.rank == 0:
        return np.zeros((p, n))
    g = right_inverse(factors.r_factor, tol) @ left_inverse(factors.c, tol)
    return _in_range(g, -e, "the pseudo inverse")
