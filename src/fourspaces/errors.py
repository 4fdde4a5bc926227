"""Exception types raised across the library.

Every error carries a short ``code`` string; the command line layer reports
that code verbatim so scripted callers can branch on it.
"""

__all__ = [
    "MatrixError",
    "ShapeError",
    "NonFiniteEntryError",
    "NotSymmetricError",
    "ConvergenceError",
    "SingularMatrixError",
    "RankDeficientError",
    "NotAGInverseError",
    "NotInRowSpaceError",
    "DependentBasisError",
    "InconsistentSystemError",
    "ParseError",
    "RaggedRowsError",
]


class MatrixError(Exception):
    """Base class for all library errors."""

    code = "matrix-error"


class ShapeError(MatrixError):
    """Operands do not conform, or a parameter has the wrong shape."""

    code = "shape-mismatch"


class NonFiniteEntryError(MatrixError):
    """A NaN or infinity showed up where a finite real was required."""

    code = "non-finite-entry"


class NotSymmetricError(MatrixError):
    """A symmetric matrix was required."""

    code = "not-symmetric"


class ConvergenceError(MatrixError):
    """An iteration hit its sweep cap before reaching its tolerance.

    ``sweeps`` records how many sweeps ran and ``offdiag_norm`` the figure
    the stopping rule of the one Jacobi kernel, behind both the SVD and
    ``eig_symmetric``, still read after them: the largest ``|cosine|``
    between two rows of the matrix it rotates, which is dimensionless and
    so the same at every scale of the input.
    """

    code = "non-convergence"

    def __init__(self, message, sweeps, offdiag_norm):
        super().__init__(message)
        self.sweeps = int(sweeps)
        self.offdiag_norm = float(offdiag_norm)


class SingularMatrixError(MatrixError):
    """A nonsingular matrix was required.

    ``pivot_rank`` records how many pivots the elimination accepted, or None
    where no elimination counted them.
    """

    code = "singular-matrix"

    def __init__(self, message, pivot_rank=None):
        super().__init__(message)
        self.pivot_rank = pivot_rank


class RankDeficientError(MatrixError):
    """A full-rank matrix was required."""

    code = "rank-deficient"


class NotAGInverseError(MatrixError):
    """A supplied candidate fails the defining inverse identity."""

    code = "not-a-g-inverse"


class NotInRowSpaceError(MatrixError):
    """A supplied vector lies outside the row space."""

    code = "not-in-row-space"


class DependentBasisError(MatrixError):
    """Supplied basis vectors are linearly dependent."""

    code = "dependent-basis"


class InconsistentSystemError(MatrixError):
    """The right hand side is not reachable by the coefficient matrix.

    ``residual_norm`` records how far outside the column space it sits.
    """

    code = "inconsistent-system"

    def __init__(self, message, residual_norm):
        super().__init__(message)
        self.residual_norm = float(residual_norm)


class ParseError(MatrixError):
    """A matrix file could not be parsed."""

    code = "parse-error"


class RaggedRowsError(ParseError):
    """Rows of a matrix file disagree on their column count."""

    code = "ragged-rows"
