"""Constructive dense linear algebra over the reals.

Everything here is built from two kernels: a tracked Gauss-Jordan reduction
and a one-sided odd-even Jacobi sweep, which gives both the symmetric
eigendecomposition and the singular values.  On top of those sit
the singular value and CR factorizations, orthonormal bases for the four
fundamental subspaces, the full hierarchy of one-sided, generalized,
reflexive generalized and pseudo inverses, and least squares solvers for
every rank situation, each checkable against the identities it promises.
"""

from . import errors, factorizations, inverses, matrix, solve, spectral, subspaces
from .errors import *  # noqa: F401,F403
from .matrix import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .factorizations import *  # noqa: F401,F403
from .subspaces import *  # noqa: F401,F403
from .inverses import *  # noqa: F401,F403
from .solve import *  # noqa: F401,F403

__all__ = [
    *errors.__all__,
    *matrix.__all__,
    *spectral.__all__,
    *factorizations.__all__,
    *subspaces.__all__,
    *inverses.__all__,
    *solve.__all__,
]
