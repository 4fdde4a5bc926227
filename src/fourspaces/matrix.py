"""Dense real matrix kernels.

Validation, Frobenius norms, and reduced row (and column) echelon
factorizations that track the elementary transform applied, so every
downstream construction can reuse the transform instead of refactoring.

One Gauss-Jordan loop, :func:`_eliminate`, does every reduction, on the
prescaled n x p copy of ``A`` with no identity block.  Each step keeps the
column ``E`` gains in the pivot column it frees, as the classical in-place
Gauss-Jordan inversion does, and the loop returns those columns before it
pins the pivot columns to their unit vectors.  :func:`rref_rows`,
:func:`rref_cols` and :func:`invert` assemble ``E`` from them;
:func:`pivot_rank` and ``cr_decompose`` read only ``R`` and the pivots.
All give the ``R``, pivots and ``E`` of ``[A | I] -> [R | E]``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntryError, ShapeError, SingularMatrixError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "RrefResult",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "matmul",
    "rref_rows",
    "rref_cols",
    "pivot_rank",
    "invert",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance scaling every comparison threshold in the library.

    Each operation documents the scale it multiplies ``relative`` by; the
    value itself is dimensionless and must sit strictly inside (0, 1).
    """

    relative: float = 1e-10

    def __post_init__(self):
        rel = float(self.relative)
        if not (0.0 < rel < 1.0):
            raise ValueError(
                f"tolerance must satisfy 0 < relative < 1, got {self.relative!r}"
            )
        object.__setattr__(self, "relative", rel)


DEFAULT_TOL = Tolerance()


def _as_tolerance(tol):
    if tol is None:
        return DEFAULT_TOL
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(float(tol))


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float array, rejecting empty shapes and non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    n, p = arr.shape
    if n < 1 or p < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError(f"{name} contains NaN or infinite entries")
    return arr


def as_vector(a, length=None, name="vector"):
    """Coerce to a 1-D float array; a single-row or single-column 2-D input is flattened."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError(f"{name} contains NaN or infinite entries")
    if length is not None and arr.shape[0] != length:
        raise ShapeError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def _prescaled(a):
    """``(a * 2**-e, e)``, with ``e`` chosen so the largest entry lands in [0.5, 1).

    A power-of-two scaling is exact, so products formed from the copy cannot
    overflow or underflow where the raw entries would, and a result scales
    back exactly: ``np.ldexp(result, k * e)`` for a product of ``k`` factors.
    """
    _, e = np.frexp(np.max(np.abs(a), initial=0.0))
    return np.ldexp(a, -e), int(e)


def _scaled_back(value, e):
    """``value * 2**e`` undoing :func:`_prescaled` for a reported figure; past the
    float range it is ``inf``, with no overflow warning ahead of the typed error."""
    with np.errstate(over="ignore"):
        return np.ldexp(value, e)


def _in_range(value, e, what):
    """``value * 2**e``, scaled back only when ``e`` is nonzero, for a checked result.

    An entry past the float range (``inf``, or ``nan`` from one) raises
    :class:`NonFiniteEntryError` naming ``what``, with no warning ahead of it.
    With ``e = 0`` nothing is copied: a transform of :func:`rref_rows` is
    already at the input's scale.
    """
    if e:
        value = _scaled_back(value, e)
    if not np.all(np.isfinite(value)):
        raise NonFiniteEntryError(f"{what} lies beyond the float range")
    return value


def frobenius_norm(a):
    """Square root of the sum of squared entries; a 1-D array is read as one row.

    The entries are squared at the scale of :func:`_prescaled`, so the norm
    underflows only where its own value does, and one past the float range
    raises :class:`NonFiniteEntryError`.
    """
    arr = np.asarray(a, dtype=float)
    arr, e = _prescaled(as_matrix(arr[None] if arr.ndim == 1 else arr))
    return float(_in_range(np.sqrt(np.sum(arr * arr)), e, "the Frobenius norm"))


def matmul(a, b):
    """Matrix product with an explicit conformability check; a product past
    the float range raises :class:`NonFiniteEntryError`, with no warning."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        product = a @ b
    return _in_range(product, 0, "the product")


def _defect(a, b, c):
    """``||a b - c||_F`` from :func:`_prescaled` copies, ``a b`` and ``c`` met at the
    larger of their scales; past the float range it raises, with no warning."""
    (a, ea), (b, eb), (c, ec) = _prescaled(a), _prescaled(b), _prescaled(c)
    e = max(ea + eb, ec)
    defect = frobenius_norm(np.ldexp(a @ b, ea + eb - e) - np.ldexp(c, ec - e))
    return float(_in_range(defect, e, "the defect"))


@dataclass(frozen=True)
class RrefResult:
    """Echelon form together with the elementary transform that produced it.

    For ``rref_rows``: ``transform @ a == reduced`` with ``transform`` square
    and nonsingular, and ``pivot_cols`` listing the pivot column indices in
    order.  For ``rref_cols`` the relation is ``a @ transform == reduced`` and
    ``pivot_cols`` holds the pivot *row* indices of the column-reduced form.
    """

    reduced: np.ndarray
    transform: np.ndarray
    pivot_cols: tuple
    pivot_rank: int


def _eliminate(work, tol):
    """Reduce the n x p array ``work`` to reduced row echelon form in place;
    return the pivot columns, the row order and the stored columns of ``E``.

    This is the one Gauss-Jordan loop of the library, with the pivoting rule
    of :func:`rref_rows` and a threshold of ``tol.relative`` times the
    largest entry of ``work``.  ``order[i]`` is the input row that ends at
    row ``i``.  Each step subtracts one rank-1 product, formed by BLAS into
    a buffer allocated once per call, so ``work`` must be C-contiguous.

    Each step first writes the pivot row's unit vector into the pivot
    column.  That unit vector is the column ``E`` gains at this step (the
    one ``[A | I]`` holds at ``order[row]``), and the division and the
    update that follow leave it there as ``[A | I]`` would, entry for entry.
    The pivot columns then hold ``E[:, order[:r]]``, and ``E[:, order[s]]``
    is still the unit vector ``e_s`` for ``s >= r``.  Those columns are
    returned, and the pivot columns of ``work`` are then pinned to their
    unit vectors, leaving ``R``.  A stored column holds ``1 / pivot``, so
    every caller hands over the :func:`_prescaled` copy of its input.  At a
    tolerance small enough to accept a subnormal pivot, the division can
    carry a row past the float range.  The loop lets that overflow, and the
    ``nan`` it spreads, pass without a warning; the non-finite result then
    fails a range check of the caller with ``NonFiniteEntryError``.
    """
    n = work.shape[0]
    threshold = tol.relative * np.max(np.abs(work))
    update = np.empty_like(work)
    order = list(range(n))
    pivots = []
    row = 0
    # a subnormal pivot may divide its row past the float range: see above
    with np.errstate(over="ignore", invalid="ignore"):
        for col in range(work.shape[1]):
            if row == n:
                break
            candidates = np.abs(work[row:, col])
            k = int(candidates.argmax())
            if candidates[k] <= threshold:
                work[row:, col] = 0.0
                continue
            piv = row + k
            if piv != row:
                work[row], work[piv] = work[piv], work[row].copy()
                order[row], order[piv] = order[piv], order[row]
            pivot_row = work[row]
            pivot = pivot_row[col]
            factors = work[:, col].copy()
            factors[row] = 0.0
            work[:, col] = 0.0
            work[row, col] = 1.0
            pivot_row /= pivot
            # a zero divided by a negative pivot is -0.0, and subtracting the
            # +0.0 products BLAS forms for the row's zero factor would keep it;
            # adding +0.0 stores every zero of a pivot row as +0.0
            pivot_row += 0.0
            work -= np.dot(factors[:, None], pivot_row[None, :], out=update)
            pivots.append(col)
            row += 1
    stored = work[:, pivots]
    work[:, pivots] = 0.0
    work[range(row), pivots] = 1.0
    return tuple(pivots), order, stored


def rref_rows(a, tol=DEFAULT_TOL):
    """Reduced row echelon form with the accumulated row transform.

    Parameters
    ----------
    a : (n, p) array_like
        Matrix to reduce.
    tol : Tolerance or float, optional
        A candidate pivot is accepted only if its magnitude exceeds
        ``tol.relative * max(abs(a))``; the scale is fixed by the input, so
        the factorization is invariant under scalar rescaling of ``a``.

    Returns
    -------
    RrefResult
        ``reduced`` is the echelon form, ``transform`` the square nonsingular
        matrix with ``transform @ a == reduced`` up to roundoff, ``pivot_cols``
        the pivot columns in order and ``pivot_rank`` their count.

    Notes
    -----
    Gauss-Jordan with partial pivoting reduces the augmented ``[A | I]`` to
    ``[R | E]``, so ``E @ A == R``.  Within each column of ``A`` the
    largest-magnitude candidate below the current row is chosen, ties going
    to the lowest row index.  Pivot rows are scaled to a unit leading entry
    and the pivot column is cleared above and below.  Columns of ``A`` whose
    best candidate falls under the acceptance threshold are flushed to exact
    zeros below the current row, so ``pivot_rank`` always equals the number
    of nonzero rows.

    The identity block is not stored: the pivot columns of the n x p work
    array keep the columns of ``E`` (see :func:`_eliminate`), and ``E`` is
    assembled from them and the unit vectors of the rows that never pivot,
    every entry bit for bit the one ``[A | I]`` gives.  ``E`` serves the
    elementary one-sided inverses and their families, ``ginv``,
    :func:`rref_cols` and :func:`invert`.  The work runs at the scale of
    :func:`_prescaled`, where an accepted pivot exceeds ``tol.relative / 2``.
    ``R`` and the non-pivot rows of ``E`` do not scale with ``A``; the pivot
    rows of ``E`` scale as ``1 / A`` and are scaled back, exactly, or to
    ``inf`` past the float range, with no warning.
    """
    work, e = _prescaled(np.ascontiguousarray(as_matrix(a)))
    n = work.shape[0]
    pivots, order, stored = _eliminate(work, _as_tolerance(tol))
    r = len(pivots)
    transform = np.zeros((n, n))
    transform[:, order[:r]] = stored
    transform[range(r, n), order[r:]] = 1.0
    transform[:r] = _scaled_back(transform[:r], -e)
    return RrefResult(work, transform, pivots, r)


def rref_cols(a, tol=DEFAULT_TOL):
    """Column-echelon companion of :func:`rref_rows`.

    Reduces by elementary column operations via the transposed problem and
    returns ``reduced = a @ transform`` with ``pivot_cols`` holding the pivot
    row indices.
    """
    res = rref_rows(as_matrix(a).T, tol)
    return RrefResult(
        np.ascontiguousarray(res.reduced.T),
        np.ascontiguousarray(res.transform.T),
        res.pivot_cols,
        res.pivot_rank,
    )


def pivot_rank(a, tol=DEFAULT_TOL):
    """Number of accepted pivots in the row echelon form.

    The reduction is that of :func:`rref_rows`, on the same prescaled copy,
    so the count is its count; the transform is never assembled.
    """
    work, _ = _prescaled(np.ascontiguousarray(as_matrix(a)))
    return len(_eliminate(work, _as_tolerance(tol))[0])


def invert(a, tol=DEFAULT_TOL):
    """Inverse of a square nonsingular matrix via the tracked row reduction.

    The row transform that carries ``a`` to the identity *is* the inverse, so
    no separate elimination pass is needed: :func:`rref_rows` reduces
    ``[A | I]`` to ``[I | A^-1]``, and this caller reads the transform, whose
    columns the reduction stored in the pivot columns of ``A``'s copy.
    A singular ``a`` raises :class:`SingularMatrixError` with the reduction's
    ``pivot_rank``; an inverse past the float range raises
    :class:`NonFiniteEntryError`.
    """
    a = as_matrix(a)
    n, p = a.shape
    if n != p:
        raise ShapeError(f"only square matrices invert, got {a.shape}")
    res = rref_rows(a, tol)
    if res.pivot_rank < n:
        raise SingularMatrixError(
            f"matrix is singular at the working tolerance (pivot rank {res.pivot_rank} of {n})",
            res.pivot_rank,
        )
    return _in_range(res.transform, 0, "the inverse")
