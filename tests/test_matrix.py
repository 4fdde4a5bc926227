import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fourspaces
from fourspaces import (
    DEFAULT_TOL,
    NonFiniteEntryError,
    ShapeError,
    SingularMatrixError,
    Tolerance,
    as_matrix,
    as_vector,
    cr_decompose,
    frobenius_norm,
    invert,
    matmul,
    pivot_rank,
    rref_cols,
    rref_rows,
)
from fourspaces.matrix import _defect
from support import assert_echelon_structure, full_col_rank, rank_deficient


def test_tolerance_validates_open_interval():
    Tolerance(1e-10)
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(ValueError):
            Tolerance(bad)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(NonFiniteEntryError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(NonFiniteEntryError):
        as_matrix([[np.inf]])
    with pytest.raises(NonFiniteEntryError):
        as_vector([1.0, np.inf])


def test_frobenius_hand_value():
    # oracle: direct sum of squares, recomputed here
    oracle = (3.0 * 3.0 + 4.0 * 4.0) ** 0.5
    assert oracle == 5.0
    assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(oracle, abs=1e-10)
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    # a vector is read as one row: its Euclidean norm
    assert frobenius_norm([3.0, 4.0]) == 5.0
    for bad in (3.0, np.ones((2, 2, 2)), []):
        with pytest.raises(ShapeError):
            frobenius_norm(bad)
    with pytest.raises(NonFiniteEntryError):
        frobenius_norm([1.0, np.inf])
    # finite entries whose norm passes the float range; it was inf after a warning
    with pytest.raises(NonFiniteEntryError, match="norm lies beyond the float range"):
        frobenius_norm([1.5e308, 1.5e308])


@pytest.mark.parametrize("k", [600, -600])
def test_frobenius_norm_scales_exactly_by_powers_of_two(k):
    # squaring the raw entries overflows at 2^600 and underflows at 2^-600
    x = np.random.default_rng(3).standard_normal((6, 4))
    assert frobenius_norm(np.ldexp(x, k)) == np.ldexp(frobenius_norm(x), k)
    assert frobenius_norm(np.ldexp(x[:, 0], k)) == np.ldexp(frobenius_norm(x[:, 0]), k)


def test_root_reexports_each_module_all_once():
    # the package root lists no name itself: a later star import that
    # shadowed an earlier module's name would show here as a different object
    modules = [
        fourspaces.errors,
        fourspaces.matrix,
        fourspaces.spectral,
        fourspaces.factorizations,
        fourspaces.subspaces,
        fourspaces.inverses,
        fourspaces.solve,
    ]
    assert fourspaces.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(fourspaces.__all__)) == len(fourspaces.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(fourspaces, name) is getattr(m, name), name


def test_src_uses_no_external_linear_algebra():
    # everything is built from the two kernels; numpy.linalg and scipy may
    # appear only in tests, as oracles
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(fourspaces.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"linalg|scipy", line)
    ]
    assert offenders == []


def test_matmul_hand_value():
    a = [[1.0, 2.0], [2.0, 4.0]]
    b = [[1.0], [2.0]]
    # oracle: triple loop product
    oracle = [[0.0], [0.0]]
    for i in range(2):
        for j in range(1):
            for k in range(2):
                oracle[i][j] += a[i][k] * b[k][j]
    assert oracle == [[5.0], [10.0]]
    assert_allclose(matmul(a, b), oracle, atol=1e-10)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))


def _hand_reduce_rank_one():
    # partial pivoting walk-through for [[1,2],[2,4]]: the second row wins the
    # pivot, gets scaled, then wipes out the first
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    e = np.eye(2)
    m[[0, 1]] = m[[1, 0]]
    e[[0, 1]] = e[[1, 0]]
    lead = m[0, 0]
    m[0] /= lead
    e[0] /= lead
    f = m[1, 0]
    m[1] -= f * m[0]
    e[1] -= f * e[0]
    return m, e


def test_rref_rows_hand_fixture():
    m_oracle, e_oracle = _hand_reduce_rank_one()
    assert_allclose(m_oracle, [[1.0, 2.0], [0.0, 0.0]], atol=1e-15)
    res = rref_rows([[1.0, 2.0], [2.0, 4.0]])
    assert_allclose(res.reduced, m_oracle, atol=1e-10)
    assert_allclose(res.transform, e_oracle, atol=1e-10)
    assert res.pivot_cols == (0,)
    assert res.pivot_rank == 1


def test_rref_rows_identity_passthrough():
    res = rref_rows(np.eye(2))
    assert np.array_equal(res.reduced, np.eye(2))
    assert np.array_equal(res.transform, np.eye(2))
    assert res.pivot_cols == (0, 1)


def test_rref_rows_zero_matrix():
    res = rref_rows(np.zeros((2, 3)))
    assert np.array_equal(res.reduced, np.zeros((2, 3)))
    assert np.array_equal(res.transform, np.eye(2))
    assert res.pivot_rank == 0


def test_rref_cols_hand_fixture():
    # oracle: the transposed problem reduced by hand, transposed back
    m_oracle, e_oracle = _hand_reduce_rank_one()
    res = rref_cols([[1.0, 2.0], [2.0, 4.0]])
    assert_allclose(res.reduced, m_oracle.T, atol=1e-10)
    assert_allclose(res.transform, e_oracle.T, atol=1e-10)
    assert res.pivot_cols == (0,)
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert_allclose(a @ res.transform, res.reduced, atol=1e-10)


def test_pivot_rank_hand_values():
    assert pivot_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert pivot_rank(np.eye(3)) == 3
    assert pivot_rank(np.zeros((2, 2))) == 0


def test_pivot_threshold_is_relative_to_largest_entry():
    a = [[1.0, 0.0], [0.0, 1e-14]]
    assert pivot_rank(a) == 1
    assert pivot_rank(a, Tolerance(1e-15)) == 2
    assert pivot_rank(a, None) == 1  # None means the default tolerance
    # scaling the matrix must not change the decision
    assert pivot_rank(np.array(a) * 1e6) == 1
    assert pivot_rank(np.array(a) * 1e-6) == 1


@pytest.mark.parametrize("seed", range(6))
def test_rref_rows_round_trip_and_structure(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    p = int(rng.integers(1, 12))
    r = int(rng.integers(0, min(n, p) + 1))
    a = rank_deficient(rng, n, p, r) if r else np.zeros((n, p))
    res = rref_rows(a)
    assert res.pivot_rank == np.linalg.matrix_rank(a) if r else res.pivot_rank == 0
    assert_echelon_structure(res, a.shape)
    norm = frobenius_norm(a) if a.any() else 1.0
    assert frobenius_norm(res.transform @ a - res.reduced) <= 10 * DEFAULT_TOL.relative * norm
    # the transform must always be invertible
    assert pivot_rank(res.transform) == n


@pytest.mark.parametrize("seed", range(6))
def test_rref_cols_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    n, p = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    a = rng.standard_normal((n, p))
    res = rref_cols(a)
    assert_allclose(a @ res.transform, res.reduced, atol=1e-10 * max(1.0, frobenius_norm(a)))
    assert res.pivot_rank == np.linalg.matrix_rank(a)


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=60, deadline=None)
def test_pivot_rank_transpose_invariant(rows):
    a = np.array(rows, dtype=float)
    assert pivot_rank(a) == pivot_rank(a.T)


def test_invert_round_trip():
    rng = np.random.default_rng(3)
    a = full_col_rank(rng, 5, 5)
    assert_allclose(invert(a) @ a, np.eye(5), atol=1e-9)
    assert_allclose(a @ invert(a), np.eye(5), atol=1e-9)


def test_invert_rejects_singular_and_rectangular():
    with pytest.raises(SingularMatrixError):
        invert([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ShapeError):
        invert(np.ones((2, 3)))


def _reference_rref(a, tol):
    """The Gauss-Jordan loop as it read before the one elimination core:
    ``np.outer`` update, fancy-index row swap, and the pivot row's own
    zero-factor update in place of ``+= 0.0``."""
    n, p = a.shape
    aug = np.hstack([a, np.eye(n)])
    threshold = tol.relative * np.max(np.abs(a))
    pivots = []
    row = 0
    for col in range(p):
        if row == n:
            break
        candidates = np.abs(aug[row:, col])
        k = int(np.argmax(candidates))
        if candidates[k] <= threshold:
            aug[row:, col] = 0.0
            continue
        piv = row + k
        if piv != row:
            aug[[row, piv], :] = aug[[piv, row], :]
        aug[row, :] /= aug[row, col]
        factors = aug[:, col].copy()
        factors[row] = 0.0
        aug -= np.outer(factors, aug[row, :])
        aug[:, col] = 0.0
        aug[row, col] = 1.0
        pivots.append(col)
        row += 1
    return aug[:, :p].copy(), aug[:, p:].copy(), tuple(pivots)


def _bitwise_inputs():
    """Named inputs for the bitwise comparison with :func:`_reference_rref`."""
    rng = np.random.default_rng(21)
    signed_zeros = rng.standard_normal((6, 5))
    signed_zeros[rng.random((6, 5)) < 0.4] = -0.0
    signed_zeros[0, 1] = 0.0
    zero_columns = rng.standard_normal((5, 6))
    zero_columns[:, 1] = 0.0
    zero_columns[:, 4] = -0.0
    inputs = {
        "one_by_one": np.array([[-3.0]]),
        "one_row": rng.standard_normal((1, 7)),
        "one_column": rng.standard_normal((7, 1)),
        "negative_pivots": np.array([[-2.0, 0.0, 1.0, 0.0], [1.0, -1.0, 0.0, 3.0]]),
        "signed_zeros": signed_zeros,
        "zero_columns": zero_columns,
        "zero": np.zeros((3, 4)),
        "tied": rng.choice([-1.0, 1.0], size=(6, 6)),
        "tied_rank_one": np.ones((4, 5)),
        "near_threshold": np.diag([1.0, 0.05, 1e-11, 2.0]),
    }
    for n, p in ((6, 6), (9, 5), (5, 9), (12, 12)):
        inputs[f"random_{n}x{p}"] = rng.standard_normal((n, p))
        inputs[f"integer_{n}x{p}"] = rng.integers(-3, 4, size=(n, p)).astype(float)
        inputs[f"deficient_{n}x{p}"] = rank_deficient(rng, n, p, min(n, p) // 2)
    return inputs


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("k", [0, 600, -600])
@pytest.mark.parametrize("relative", [1e-10, 1e-2])
def test_elimination_matches_the_reference_loop_bit_for_bit(relative, k):
    # every product is the one the old update formed, signed zeros included,
    # and a reduction without the identity block leaves R and the pivots as
    # they are with it
    tol = Tolerance(relative)
    for name, x in _bitwise_inputs().items():
        a = np.ldexp(x, k)
        want_r, want_e, want_piv = _reference_rref(a, tol)
        res = rref_rows(a, tol)
        _assert_same_bits(res.reduced, want_r)
        _assert_same_bits(res.transform, want_e)
        assert res.pivot_cols == want_piv and res.pivot_rank == len(want_piv), name
        assert pivot_rank(a, tol) == len(want_piv), name
        fac = cr_decompose(a, tol)
        assert fac.rank == len(want_piv), name
        _assert_same_bits(fac.c, a[:, list(want_piv)])
        _assert_same_bits(fac.r_factor, want_r[: len(want_piv)])
        if a.shape[0] != a.shape[1]:
            continue
        if len(want_piv) == a.shape[0]:
            _assert_same_bits(invert(a, tol), want_e)
        else:
            wording = (f"matrix is singular at the working tolerance "
                       f"(pivot rank {len(want_piv)} of {a.shape[0]})")
            with pytest.raises(SingularMatrixError, match=re.escape(wording) + "$"):
                invert(a, tol)


@given(
    n=st.integers(1, 12),
    p=st.integers(1, 12),
    rank=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    negative_zeros=st.booleans(),
    k=st.sampled_from([0, 600, -600]),
    relative=st.sampled_from([1e-10, 1e-2]),
)
@example(n=9, p=4, rank=2, seed=0, integer=False, negative_zeros=False, k=0, relative=1e-10)
@example(n=4, p=9, rank=3, seed=1, integer=True, negative_zeros=True, k=600, relative=1e-10)
@settings(max_examples=200, deadline=None)
def test_every_reader_of_the_elimination_matches_the_reference_loop(
    n, p, rank, seed, integer, negative_zeros, k, relative
):
    # the transform kept in the pivot columns is the identity block of
    # [A | I], signed zeros included, on tall and wide inputs of planted
    # rank; a tall input has rows that never pivot, whose columns of E are
    # the unit vectors the reduction never stores
    rng = np.random.default_rng(seed)
    rank = min(rank, n, p)
    if integer:
        x = rng.integers(-2, 3, (n, rank)) @ rng.integers(-2, 3, (rank, p)) + 0.0
    else:
        x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
    if negative_zeros:
        x[(x == 0.0) | (rng.random((n, p)) < 0.2)] = -0.0
    a = np.ldexp(x, k)
    tol = Tolerance(relative)
    want_r, want_e, want_piv = _reference_rref(a, tol)
    r = len(want_piv)
    res = rref_rows(a, tol)
    _assert_same_bits(res.reduced, want_r)
    _assert_same_bits(res.transform, want_e)
    assert res.pivot_cols == want_piv and res.pivot_rank == r
    want_rt, want_et, want_pivt = _reference_rref(a.T, tol)
    res = rref_cols(a, tol)
    _assert_same_bits(res.reduced, want_rt.T)
    _assert_same_bits(res.transform, want_et.T)
    assert res.pivot_cols == want_pivt and res.pivot_rank == len(want_pivt)
    assert pivot_rank(a, tol) == r
    fac = cr_decompose(a, tol)
    assert fac.rank == r
    _assert_same_bits(fac.c, a[:, list(want_piv)])
    _assert_same_bits(fac.r_factor, want_r[:r])
    if n == p and r == n:
        _assert_same_bits(invert(a, tol), want_e)
    elif n == p:
        with pytest.raises(SingularMatrixError):
            invert(a, tol)


@st.composite
def _scaled_inputs(draw):
    """Planted-rank inputs at 2^k, k in {0, +-600, -1040}, or sign matrices
    (entries in {-1, 0, 1}) at 2^1023."""
    n, p = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return np.ldexp(rng.integers(-1, 2, (n, p)) + 0.0, 1023)
    rank = draw(st.integers(0, min(n, p)))
    x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
    return np.ldexp(x, draw(st.sampled_from([0, 600, -600, -1040])))


@given(a=_scaled_inputs())
@example(a=np.ldexp(np.array([[-1.0, -1, -1], [-1, -1, -1], [-1, 0, 1]]), 1023))
@example(a=np.ldexp(np.array([[1.0, 1], [-1, 1]]), 1023))
@settings(max_examples=200, deadline=None)
def test_readers_of_the_elimination_agree_at_either_end_of_the_float_range(a):
    # pivot_rank and cr_decompose reduce the prescaled copy rref_rows reduces:
    # on the raw input a 2^1023 product overflowed, and a subnormal one lost
    # bits, so rank, pivots and R came apart from rref_rows'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rref_rows(a)
        rank = pivot_rank(a)
        fac = cr_decompose(a)
    r = res.pivot_rank
    assert rank == r and fac.rank == r
    _assert_same_bits(fac.c, a[:, list(res.pivot_cols)])
    _assert_same_bits(fac.r_factor, res.reduced[:r])


def test_elimination_reduces_a_c_contiguous_copy_of_the_input(monkeypatch):
    # the transform lives in the pivot columns of an n x p work array, not in
    # an identity block, and the rank-1 update writes into a C-ordered buffer
    import fourspaces.matrix as matrix

    seen = []
    original = matrix._eliminate

    def spy(work, tol):
        seen.append((work.shape, work.flags.c_contiguous))
        return original(work, tol)

    monkeypatch.setattr(matrix, "_eliminate", spy)
    rng = np.random.default_rng(5)
    x = np.asfortranarray(rng.standard_normal((7, 4)))
    square = np.asfortranarray(full_col_rank(rng, 5, 5))
    kept = x.copy()
    rref_rows(x)
    rref_cols(x.T)
    invert(square)
    assert seen == [((7, 4), True), ((7, 4), True), ((5, 5), True)]
    _assert_same_bits(x, kept)


def test_a_subnormal_pivot_overflows_quietly_into_a_typed_error():
    # at tol 1e-320 the prescaled copy's pivot 2^-1041 is accepted, and
    # dividing its row by it warned "overflow encountered in divide" ahead
    # of the typed error; RuntimeWarning is an error under pytest
    a = np.diag([1.0, 2.0**-1040])
    with pytest.raises(NonFiniteEntryError, match="^the inverse lies beyond the float range$"):
        invert(a, 1e-320)
    # the update then meets inf with a zero factor: nan, as quietly
    res = rref_rows(a, 1e-320)
    assert res.pivot_rank == 2 and np.isnan(res.transform[:, 1]).all()


def test_a_singular_matrix_error_carries_the_pivot_rank():
    with pytest.raises(SingularMatrixError) as info:
        invert([[1.0, 2.0], [2.0, 4.0]])
    assert info.value.pivot_rank == 1
    assert str(info.value) == "matrix is singular at the working tolerance (pivot rank 1 of 2)"


def _defect_operands(rng):
    """(a, b, c) triples: near products, an identity and an unrelated c."""
    a, b = rng.standard_normal((7, 4)), rng.standard_normal((4, 5))
    g = np.linalg.pinv(a)
    return {
        "near_product": (a, b, a @ b + 1e-9 * rng.standard_normal((7, 5))),
        "identity": (g, a, np.eye(4)),
        "unrelated": (a, b, rng.standard_normal((7, 5))),
        "square": (b @ b.T, b @ b.T, b @ b.T),
    }


@pytest.mark.parametrize("which", ["near_product", "identity", "unrelated", "square"])
def test_defect_is_the_raw_residual_norm_bit_for_bit(which):
    a, b, c = _defect_operands(np.random.default_rng(5))[which]
    assert _defect(a, b, c) == frobenius_norm(a @ b - c)


@pytest.mark.parametrize("j, k", [(500, 400), (-500, -400), (1000, 15), (-1000, 300), (900, -900)])
@pytest.mark.parametrize("which", ["near_product", "identity", "unrelated", "square"])
def test_defect_scales_exactly_with_its_operands(which, j, k):
    a, b, c = _defect_operands(np.random.default_rng(5))[which]
    scaled = _defect(np.ldexp(a, j), np.ldexp(b, k), np.ldexp(c, j + k))
    assert scaled == np.ldexp(_defect(a, b, c), j + k)


_SUBNORMAL_PROJECTOR = np.ldexp(np.full((3, 3), 1.0 / 3.0), -1060)


@pytest.mark.parametrize(
    "a, c",
    [(_SUBNORMAL_PROJECTOR, _SUBNORMAL_PROJECTOR), (np.ldexp(np.eye(3), -520), np.eye(3))],
    ids=["subnormal_projector", "identity"],
)
def test_defect_of_a_product_far_below_c_is_the_norm_of_c(a, c):
    # P^2 - P at 2^-1060 and a a - I at 2^-520: c scaled by 2^-(ea + eb) to
    # meet a a would pass the float range; a a scaled down to meet c cannot
    assert _defect(a, a, c) == frobenius_norm(c)


def test_defect_past_the_float_range_raises_typed_with_no_warning():
    a, b = np.ldexp(np.ones((2, 3)), 1000), np.ldexp(np.ones((3, 2)), 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntryError, match="^the defect lies beyond the float range$"):
            _defect(a, b, np.zeros((2, 2)))


def test_defect_of_an_empty_product_is_the_norm_of_c():
    c = np.random.default_rng(5).standard_normal((3, 4))
    assert _defect(np.zeros((3, 0)), np.zeros((0, 4)), c) == frobenius_norm(c)
