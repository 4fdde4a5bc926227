"""One float-range contract for every public function.

Each function of ``fourspaces.__all__`` runs on the inputs of its domain
among five, each prescaled to a largest entry in [0.5, 1) and then scaled
by 2^k for every k of ``SCALES``, under the suite's ``error::RuntimeWarning``
filter.  Every case answers finitely or raises a typed ``MatrixError``.

Two kinds of refusal are expected, and nothing else may refuse:

- ``PAST_RANGE``: the answer, or an operand the function takes, lies past
  the float range.  An oracle computes its magnitude with NumPy at 2^0 and
  scales it by 2^(degree k), so these cases are found, not listed.
- ``FAULTS``: cases listed by name that refuse an answer inside the range.
  A change that mends one edits this table, so each entry failing to
  refuse fails the test.
"""

import inspect
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import fourspaces
from fourspaces import MatrixError, NonFiniteEntryError

SCALES = (-1014, -1000, -600, -300, 0, 300, 600, 1000, 1023)


def _prescale(a):
    return np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])


_rng = np.random.default_rng(0)
BASE = {"tall": _prescale(_rng.standard_normal((6, 4)))}
BASE["wide"] = BASE["tall"].T.copy()
# positive factors put sigma_1 near ||X||_F, both past the range at 2^1023
BASE["rank2"] = _prescale(_rng.uniform(0.5, 1.0, (6, 2)) @ _rng.uniform(0.5, 1.0, (2, 5)))
_s = _rng.standard_normal((5, 5))
BASE["sym"] = _prescale(_s + _s.T)
BASE["orth"] = _prescale(np.linalg.qr(_rng.standard_normal((5, 5)))[0])
OBSERVATION = {name: _prescale(_rng.standard_normal(x.shape[0])) for name, x in BASE.items()}

ALL = ("tall", "wide", "rank2", "sym", "orth")
FULL_COLUMN = ("tall", "sym", "orth")
FULL_ROW = ("wide", "sym", "orth")


def _row_basis(x0):
    _, s, vt = np.linalg.svd(x0)
    return vt[: int(np.sum(s > 1e-10 * s[0]))].T


def _at(a, k):
    """``a * 2**k``; an operand past the float range is passed on as inf."""
    with np.errstate(over="ignore"):
        return np.ldexp(a, k)


class Case:
    """Operands of one input at one scale: ``x`` is ``x0 * 2**k``."""

    def __init__(self, name, k):
        self.x0, self.k = BASE[name], k
        self.x = np.ldexp(self.x0, k)
        self.y = np.ldexp(OBSERVATION[name], k)
        self.g = np.ldexp(np.linalg.pinv(self.x0), -k)


def _family_block(x, left):
    n, p = x.shape
    return np.ones((p, n - p) if left else (p - n, n))


CASES = {
    "as_matrix": (ALL, lambda c: fourspaces.as_matrix(c.x)),
    "as_vector": (ALL, lambda c: fourspaces.as_vector(c.x[:, 0])),
    "frobenius_norm": (ALL, lambda c: fourspaces.frobenius_norm(c.x)),
    "matmul": (ALL, lambda c: fourspaces.matmul(c.x, c.x0.T)),
    "rref_rows": (ALL, lambda c: fourspaces.rref_rows(c.x)),
    "rref_cols": (ALL, lambda c: fourspaces.rref_cols(c.x)),
    "pivot_rank": (ALL, lambda c: fourspaces.pivot_rank(c.x)),
    "invert": (("sym", "orth"), lambda c: fourspaces.invert(c.x)),
    "eig_symmetric": (("sym",), lambda c: fourspaces.eig_symmetric(c.x)),
    "similarity_check": (("sym",), lambda c: fourspaces.similarity_check(c.x, BASE["orth"])),
    "svd_full": (ALL, lambda c: fourspaces.svd_full(c.x)),
    "svd_reduced": (ALL, lambda c: fourspaces.svd_reduced(c.x)),
    "cr_decompose": (ALL, lambda c: fourspaces.cr_decompose(c.x)),
    "fundamental_bases": (ALL, lambda c: fourspaces.fundamental_bases(c.x)),
    "column_basis_from_row_basis": (
        ALL, lambda c: fourspaces.column_basis_from_row_basis(c.x, _row_basis(c.x0))
    ),
    "rank_nullity_report": (ALL, lambda c: fourspaces.rank_nullity_report(c.x)),
    "subspaces_equal": (ALL, lambda c: fourspaces.subspaces_equal(c.x, c.x0)),
    "classify_inverse": (ALL, lambda c: fourspaces.classify_inverse(c.x, c.g)),
    "left_inverse": (FULL_COLUMN, lambda c: fourspaces.left_inverse(c.x)),
    "right_inverse": (FULL_ROW, lambda c: fourspaces.right_inverse(c.x)),
    "left_inverse_elementary": (FULL_COLUMN, lambda c: fourspaces.left_inverse_elementary(c.x)),
    "right_inverse_elementary": (FULL_ROW, lambda c: fourspaces.right_inverse_elementary(c.x)),
    "left_inverse_family": (
        FULL_COLUMN, lambda c: fourspaces.left_inverse_family(c.x, _family_block(c.x, True))
    ),
    "right_inverse_family": (
        FULL_ROW, lambda c: fourspaces.right_inverse_family(c.x, _family_block(c.x, False))
    ),
    "rg_canonical": (ALL, lambda c: fourspaces.rg_canonical(c.x)),
    "ginverse_extend": (
        ALL, lambda c: fourspaces.ginverse_extend(c.x, c.g, np.ldexp(np.ones(c.g.shape), -c.k))
    ),
    "rg_sandwich": (ALL, lambda c: fourspaces.rg_sandwich(c.x, c.g, c.g)),
    "rg_via_gram": (
        ALL, lambda c: fourspaces.rg_via_gram(c.x, _at(np.linalg.pinv(c.x0.T @ c.x0), -2 * c.k))
    ),
    "pinv_svd": (ALL, lambda c: fourspaces.pinv_svd(c.x)),
    "pinv_cr": (ALL, lambda c: fourspaces.pinv_cr(c.x)),
    "ls_normal": (FULL_COLUMN, lambda c: fourspaces.ls_normal(c.x, c.y)),
    "ls_svd_minnorm": (ALL, lambda c: fourspaces.ls_svd_minnorm(c.x, c.y)),
    "observation_split": (ALL, lambda c: fourspaces.observation_split(c.x, c.y)),
    "projector_column": (ALL, lambda c: fourspaces.projector_column(c.x)),
    "projector_row": (ALL, lambda c: fourspaces.projector_row(c.x)),
    "projector_diagnostics": (("sym", "orth"), lambda c: fourspaces.projector_diagnostics(c.x)),
    # the consistent system X beta = X 1
    "consistent_unique_solve": (
        FULL_COLUMN, lambda c: fourspaces.consistent_unique_solve(c.x, c.x @ np.ones(c.x.shape[1]))
    ),
    "right_solve": (FULL_ROW, lambda c: fourspaces.right_solve(c.x, c.y)),
}

# (degree, magnitude at 2^0): the quantity at 2^k is magnitude * 2^(degree k)
PAST_RANGE = {
    "frobenius_norm": ((1, np.linalg.norm),),
    "matmul": ((1, lambda x: np.max(np.abs(x @ x.T))),),
    "svd_full": ((1, lambda x: np.linalg.norm(x, 2)),),
    "svd_reduced": ((1, lambda x: np.linalg.norm(x, 2)),),
    # the Gram matrix the function checks, and the Gram g-inverse it takes
    "rg_via_gram": (
        (2, lambda x: np.max(np.abs(x.T @ x))),
        (-2, lambda x: np.max(np.abs(np.linalg.pinv(x.T @ x)))),
    ),
    # the idempotency defect ||P^2 - P||_F, led by P^2
    "projector_diagnostics": ((2, lambda x: np.linalg.norm(x @ x)),),
}

_X_NORM = {("rank2", 1023), ("orth", 1023)}
FAULTS = {
    # ROADMAP item 3: the c1 threshold tol * max(||X||_F, ||G||_F) passes the
    # float range through ||X||_F, where every residual stays inside it
    "classify_inverse": _X_NORM,
    "ginverse_extend": _X_NORM,
    "rg_sandwich": _X_NORM,
}

# (degree, the answer read): the consumers of the SVD decompose the prescaled
# input and scale only their answer, by 2^(degree k)
PRESCALED = {
    "rank_nullity_report": (0, lambda out: out),
    "fundamental_bases": (0, lambda out: out),
    "subspaces_equal": (0, lambda out: out),
    "projector_column": (0, lambda out: out),
    "projector_row": (0, lambda out: out),
    "ls_svd_minnorm": (0, lambda out: out.beta_hat),
    "column_basis_from_row_basis": (1, lambda out: out),
    "observation_split": (1, lambda out: out),
    "pinv_svd": (-1, lambda out: out),
}


def _finite(out):
    """Whether every float an answer carries is finite."""
    if is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in fields(out))
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    if isinstance(out, np.ndarray) and out.dtype.kind == "f":
        return bool(np.all(np.isfinite(out)))
    if isinstance(out, float):
        return math.isfinite(out)
    return True


def _leaves(out):
    """The fields of an answer, a dataclass or tuple read in order."""
    if is_dataclass(out):
        return [leaf for f in fields(out) for leaf in _leaves(getattr(out, f.name))]
    if isinstance(out, tuple):
        return [leaf for item in out for leaf in _leaves(item)]
    return [out]


def _past_range(name, x0, k):
    return any(np.log2(size(x0)) + degree * k >= 1024 for degree, size in PAST_RANGE.get(name, ()))


def test_every_public_function_is_swept():
    public = {n for n in fourspaces.__all__ if inspect.isfunction(getattr(fourspaces, n))}
    assert public - set(CASES) == set(), "add each new public function to CASES"
    assert set(CASES) - public == set()
    assert set(FAULTS) | set(PAST_RANGE) <= public


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_answers_finitely_or_raises_a_typed_error(name):
    inputs, call = CASES[name]
    wrong = []
    for which in inputs:
        for k in SCALES:
            case = Case(which, k)
            past = _past_range(name, case.x0, k)
            fault = (which, k) in FAULTS.get(name, ())
            try:
                out = call(case)
            except MatrixError as exc:
                if past and not isinstance(exc, NonFiniteEntryError):
                    wrong.append(f"{which} 2^{k}: past the range, but {exc!r}")
                elif not (past or fault):
                    wrong.append(f"{which} 2^{k}: refused {exc!r}")
                continue
            if not _finite(out):
                wrong.append(f"{which} 2^{k}: a non-finite answer")
            elif past or fault:
                wrong.append(f"{which} 2^{k}: answered, listed as {'past' if past else 'fault'}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("name", sorted(PRESCALED))
def test_svd_consumers_scale_their_answer_at_the_top_exactly(name):
    # sigma_1 of the rank-2 6 x 5 at 2^1023 lies past the float range, and
    # every one of these refused there; none of their answers grows with it
    degree, answer = PRESCALED[name]
    inputs, call = CASES[name]
    for which in inputs:
        pairs = zip(_leaves(answer(call(Case(which, 1023)))),
                    _leaves(answer(call(Case(which, 0)))), strict=True)
        for got, want in pairs:
            if isinstance(want, (float, np.ndarray)):
                want = np.ldexp(want, degree * 1023)
            assert np.array_equal(got, want), which
