import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import NonFiniteEntryError, ShapeError, rref_rows
from fourspaces.errors import DependentBasisError, NotInRowSpaceError
from fourspaces.subspaces import (
    column_basis_from_row_basis,
    fundamental_bases,
    rank_nullity_report,
    subspaces_equal,
)
from support import full_col_rank, rank_deficient


def test_fundamental_bases_rank_one_fixture():
    bases = fundamental_bases([[1.0, 2.0], [2.0, 4.0]])
    d = np.array([1.0, 2.0]) / math.sqrt(5.0)
    c = np.array([2.0, -1.0]) / math.sqrt(5.0)
    assert bases.rank == 1
    assert_allclose(bases.row_space[:, 0], d, atol=1e-10)
    assert_allclose(bases.column_space[:, 0], d, atol=1e-10)
    assert_allclose(bases.null_space[:, 0], c, atol=1e-10)
    assert_allclose(bases.left_null_space[:, 0], c, atol=1e-10)


def test_fundamental_bases_identity_has_empty_null():
    bases = fundamental_bases(np.eye(2))
    assert bases.rank == 2
    assert bases.null_space.shape == (2, 0)
    assert bases.left_null_space.shape == (2, 0)
    assert subspaces_equal(bases.row_space, np.eye(2))


def test_fundamental_bases_zero_matrix():
    bases = fundamental_bases(np.zeros((2, 3)))
    assert bases.rank == 0
    assert bases.row_space.shape == (3, 0)
    assert np.array_equal(bases.null_space, np.eye(3))
    assert np.array_equal(bases.left_null_space, np.eye(2))


def test_rank_nullity_fixture_and_identities():
    rep = rank_nullity_report([[1.0, 2.0], [2.0, 4.0]])
    assert (rep.rank, rep.dim_null, rep.dim_left_null) == (1, 1, 1)
    assert rep.rank + rep.dim_null == rep.n_cols
    assert rep.rank + rep.dim_left_null == rep.n_rows


# small random shapes by seed, then ranks below and above half of each
# dimension, at three scales
@pytest.mark.parametrize(
    "case",
    [
        *range(6),
        *(
            pytest.param((n, p, r, e), id=f"{n}x{p}-rank{r}-2^{e}")
            for n, p, r in ((60, 40, 8), (80, 60, 60), (120, 100, 70))
            for e in (0, 600, -600)
        ),
    ],
)
def test_four_subspace_orthogonality(case):
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        n, p = int(rng.integers(2, 12)), int(rng.integers(2, 9))
        r, e = int(rng.integers(0, min(n, p) + 1)), 0
    else:
        n, p, r, e = case
        rng = np.random.default_rng(n + p + r)
    x = rank_deficient(rng, n, p, r) * 2.0**e
    bases = fundamental_bases(x)
    assert bases.rank == r
    assert bases.row_space.shape == (p, r)
    assert bases.null_space.shape == (p, p - r)
    assert bases.left_null_space.shape == (n, n - r)
    # the pairs of complementary subspaces are orthogonal
    if r and p - r:
        assert np.max(np.abs(bases.row_space.T @ bases.null_space)) <= 1e-8
    if r and n - r:
        assert np.max(np.abs(bases.column_space.T @ bases.left_null_space)) <= 1e-8
    # the completed bases are orthonormal
    for basis in (bases.null_space, bases.left_null_space):
        assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-12)
    scale = float(np.abs(x).max())
    if p - r:
        assert np.max(np.abs(x @ bases.null_space)) <= 1e-8 * scale
    if n - r:
        assert np.max(np.abs(x.T @ bases.left_null_space)) <= 1e-8 * scale


def test_column_basis_from_row_basis_fixtures():
    # oracle: X (1,2)' = (5,10)'
    out = column_basis_from_row_basis([[1.0, 2.0], [2.0, 4.0]], np.array([[1.0], [2.0]]))
    assert_allclose(out, [[5.0], [10.0]], atol=1e-12)
    out = column_basis_from_row_basis([[0.0, 1.0], [0.0, 0.0]], np.array([[0.0], [1.0]]))
    assert_allclose(out, [[1.0], [0.0]], atol=1e-12)
    # an empty basis maps to an empty one with the column dimension
    assert column_basis_from_row_basis(np.ones((3, 2)), np.zeros((2, 0))).shape == (3, 0)


def test_column_basis_rejects_vector_outside_row_space():
    with pytest.raises(NotInRowSpaceError):
        column_basis_from_row_basis([[0.0, 1.0], [0.0, 0.0]], np.array([[1.0], [0.0]]))


def test_column_basis_rejects_wrong_vector_length():
    with pytest.raises(ShapeError, match="length 2"):
        column_basis_from_row_basis(np.ones((3, 2)), np.ones((3, 1)))


def test_column_basis_rejects_dependent_vectors():
    rb = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DependentBasisError):
        column_basis_from_row_basis([[1.0, 2.0], [2.0, 4.0]], rb)


def test_column_basis_spans_column_space():
    rng = np.random.default_rng(17)
    x = rank_deficient(rng, 8, 6, 3)
    bases = fundamental_bases(x)
    # random independent combinations of the row-space basis stay inside it
    mix = bases.row_space @ full_col_rank(rng, 3, 3)
    images = column_basis_from_row_basis(x, mix)
    q, _ = np.linalg.qr(images)
    assert subspaces_equal(q, bases.column_space)


def test_subspaces_equal_fixture_rotated_plane():
    a = np.column_stack([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert subspaces_equal(a, np.eye(2)) is True
    assert subspaces_equal(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])) is False
    # a 1-D input is one column vector
    assert subspaces_equal(np.array([0.0, 1.0]), np.array([[0.0], [-1.0]])) is True


def test_subspaces_equal_does_not_need_orthonormal_bases():
    # a scaled column and a sheared pair span what their orthonormal
    # counterparts span, though a a' != b b' for each
    assert subspaces_equal([[2.0], [0.0]], [[1.0], [0.0]]) is True
    assert subspaces_equal([[1.0, 1.0], [0.0, 1.0]], np.eye(2)) is True
    assert subspaces_equal([[3.0], [0.0]], [[0.0], [5.0]]) is False
    # a dependent column adds nothing to the span
    dependent = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
    assert subspaces_equal(dependent, np.eye(3)[:, :2]) is True
    assert subspaces_equal(dependent, np.eye(3)) is False
    # a (dim, 0) basis spans the zero subspace, as does a zero column
    empty = np.zeros((3, 0))
    assert subspaces_equal(empty, np.zeros((3, 0))) is True
    assert subspaces_equal(empty, np.zeros((3, 1))) is True
    assert subspaces_equal(empty, [[0.0], [2.0], [0.0]]) is False


def test_subspaces_equal_rejects_mixed_ambient_dims():
    with pytest.raises(ShapeError):
        subspaces_equal(np.eye(2), np.eye(3))
    with pytest.raises(ShapeError, match="column vectors"):
        subspaces_equal(np.zeros((2, 1, 1)), np.eye(2))
    with pytest.raises(NonFiniteEntryError, match="second basis"):
        subspaces_equal(np.eye(2), [[1.0], [np.nan]])


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-200], ids=["1", "1e160", "1e-200"])
def test_row_space_check_is_scale_safe(scale):
    # rank 2, row space spanned by (1, 2, 3) and (1, 0, 1); (1, 1, -1)
    # spans the null space, so it lies wholly outside.  The squared entries
    # of the raw norms overflowed at 1e160 and waved it through; at 1e-200
    # a drift band floored at 1 did.
    x = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]) * scale
    with pytest.raises(NotInRowSpaceError):
        column_basis_from_row_basis(x, np.array([[1.0], [1.0], [-1.0]]) * scale)
    inside = np.array([[1.0], [2.0], [3.0]])
    assert_allclose(column_basis_from_row_basis(x, inside), x @ inside)


def test_column_basis_images_past_the_float_range_raise_typed():
    # the row space is read off the prescaled input, so sigma_1 past the
    # float range is no obstacle; the image of the unit basis vector,
    # 0.9 sqrt(5) 2^1023, lies past it and must raise, with no warning
    x = np.full((6, 5), 0.9)
    v = np.ones((5, 1)) / math.sqrt(5.0)
    with pytest.raises(NonFiniteEntryError, match="^the product lies beyond the float range$"):
        column_basis_from_row_basis(np.ldexp(x, 1023), v)
    # two powers of two lower it answers: the image at 2^0, scaled exactly
    got = column_basis_from_row_basis(np.ldexp(x, 1021), v)
    assert np.array_equal(got, np.ldexp(column_basis_from_row_basis(x, v), 1021))


def _elimination_bases(x):
    """The four subspaces read off ``EA = R`` (Strang 1993): the first r rows
    of R, the special solutions of the free columns, the pivot columns of
    X and the last n - r rows of E, with the rank r."""
    res = rref_rows(x)
    r, pivots = res.pivot_rank, list(res.pivot_cols)
    free = [j for j in range(x.shape[1]) if j not in pivots]
    special = np.zeros((x.shape[1], len(free)))
    for k, j in enumerate(free):
        special[j, k] = 1.0
        special[pivots, k] = -res.reduced[:r, j]
    return res.reduced[:r].T, special, x[:, pivots], res.transform[r:].T, r


@pytest.mark.parametrize("seed", range(20))
def test_elimination_and_svd_agree_on_the_four_subspaces(seed):
    # the paper's elimination view and the library's SVD view of the four
    # fundamental subspaces span the same spaces at the same rank, on exact
    # low-rank inputs, plain and column-graded to 1e3, at 2^0 and 2^+-600
    rng = np.random.default_rng(seed)
    n, p = [(8, 6), (6, 9), (10, 10), (12, 7), (5, 11)][seed % 5]
    base = rank_deficient(rng, n, p, int(rng.integers(0, min(n, p) + 1)))
    for x0 in (base, base * np.geomspace(1.0, 1e3, p)):
        for k in (0, 600, -600):
            x = np.ldexp(x0, k)
            bases = fundamental_bases(x)
            row, null, column, left_null, r = _elimination_bases(x)
            assert r == bases.rank, k
            assert subspaces_equal(row, bases.row_space), k
            assert subspaces_equal(null, bases.null_space), k
            assert subspaces_equal(column, bases.column_space), k
            assert subspaces_equal(left_null, bases.left_null_space), k
