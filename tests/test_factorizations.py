import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import NonFiniteEntryError, Tolerance, factorizations, frobenius_norm, pivot_rank
from fourspaces.factorizations import (
    _complete_basis,
    cr_decompose,
    svd_full,
    svd_reduced,
)
from fourspaces.inverses import classify_inverse, pinv_svd
from fourspaces.spectral import _sign_columns
from support import full_col_rank, full_row_rank, graded, kahan, rank_deficient


def test_svd_full_rank_one_fixture():
    # oracle: X = (1,2)' (1,2) is an outer product, so sigma = |a||b| and the
    # singular directions are the normalized factors
    a = np.array([1.0, 2.0])
    sigma_oracle = math.sqrt(a @ a) * math.sqrt(a @ a)
    assert sigma_oracle == pytest.approx(5.0, abs=1e-12)
    direction = a / math.sqrt(a @ a)

    res = svd_full([[1.0, 2.0], [2.0, 4.0]])
    assert res.rank == 1
    assert_allclose(res.sigma, [sigma_oracle], atol=1e-10)
    assert_allclose(res.u[:, 0], direction, atol=1e-10)
    assert_allclose(res.v[:, 0], direction, atol=1e-10)
    # deterministic completion of the silent columns
    assert_allclose(res.u[:, 1], np.array([2.0, -1.0]) / math.sqrt(5.0), atol=1e-10)
    assert_allclose(res.v[:, 1], np.array([2.0, -1.0]) / math.sqrt(5.0), atol=1e-10)
    assert_allclose(res.u @ res.sigma_matrix() @ res.v.T, [[1.0, 2.0], [2.0, 4.0]], atol=1e-10)


def test_svd_full_tall_diagonal_fixture():
    res = svd_full([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert res.rank == 1
    assert_allclose(res.sigma, [3.0], atol=1e-12)
    assert_allclose(res.u[:, 0], [1.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(res.v[:, 0], [1.0, 0.0], atol=1e-12)
    assert_allclose(res.u, np.eye(3), atol=1e-12)
    assert_allclose(res.v, np.eye(2), atol=1e-12)


def test_svd_full_zero_matrix():
    res = svd_full(np.zeros((2, 3)))
    assert res.rank == 0
    assert res.sigma.shape == (0,)
    assert np.array_equal(res.u, np.eye(2))
    assert np.array_equal(res.v, np.eye(3))
    assert np.array_equal(res.sigma_matrix(), np.zeros((2, 3)))


def test_svd_reduced_column_fixture():
    # oracle: X'X = [2] so sigma = sqrt(2), v = [1], u = X v / sigma
    res = svd_reduced([[1.0], [1.0]])
    assert res.rank == 1
    assert_allclose(res.sigma, [math.sqrt(2.0)], atol=1e-12)
    assert_allclose(res.v, [[1.0]], atol=1e-12)
    assert_allclose(res.u, np.array([[1.0], [1.0]]) / math.sqrt(2.0), atol=1e-12)


def test_svd_reduced_agrees_with_full_slices():
    rng = np.random.default_rng(2)
    for x in (rank_deficient(rng, 7, 5, 3), rank_deficient(rng, 4, 9, 3)):
        full = svd_full(x)
        red = svd_reduced(x)
        r = full.rank
        assert red.rank == r
        assert np.array_equal(red.sigma, full.sigma)
        assert np.array_equal(red.u, full.u[:, :r])
        assert np.array_equal(red.v, full.v[:, :r])
        assert_allclose(red.u @ np.diag(red.sigma) @ red.v.T, x, atol=1e-8 * frobenius_norm(x))
        # a wide input runs on its transpose, so transposing swaps the sides bit for bit
        flip = svd_reduced(x.T)
        assert flip.rank == r
        assert np.array_equal(flip.sigma, red.sigma)
        assert np.array_equal(flip.u, red.v)
        assert np.array_equal(flip.v, red.u)


@pytest.mark.parametrize(
    "scale", [2.0**-600, 1e-200, 1e160, 2.0**600], ids=["2^-600", "1e-200", "1e160", "2^600"]
)
@pytest.mark.parametrize("shape", [(6, 4), (4, 6)], ids=["tall", "wide"])
def test_svd_route_is_scale_safe(shape, scale):
    # without an exact prescale X'X underflows at 1e-200 (rank 0) and overflows at 1e160
    x = np.random.default_rng(3).standard_normal(shape)
    scaled = x * scale
    res = svd_reduced(scaled)
    assert res.rank == pivot_rank(scaled) == min(shape)
    if math.frexp(scale)[0] == 0.5:
        # the power-of-two prescale is exact, so sigma scales exactly too
        assert np.array_equal(res.sigma, svd_reduced(x).sigma * scale)
    # max-abs, not Frobenius: squaring entries near 2^600 overflows
    expected = pinv_svd(x) / scale
    assert np.max(np.abs(pinv_svd(scaled) - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("shape", [(6, 4), (4, 6)], ids=["tall", "wide"])
def test_sigma_past_the_float_range_raises_non_finite_entry(shape):
    # sigma_1 of X * 5e307 is about 4e308: it scaled back to inf with a
    # warning, and project then built a rank-3 projector of a rank-4 input
    x = np.random.default_rng(3).standard_normal(shape) * 5e307
    with pytest.raises(NonFiniteEntryError, match="singular value lies beyond the float range"):
        svd_reduced(x)


def test_pinv_of_a_sigma_that_scales_back_to_zero_raises_non_finite_entry():
    # at 2^-1076 the second sigma is accepted at the prescaled size and
    # scales back to 0.0; 1/sigma used to divide by zero with a warning
    x = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    res = svd_reduced(np.ldexp(x, -1076))
    assert res.rank == 2 and res.sigma[-1] == 0.0
    with pytest.raises(NonFiniteEntryError, match="^the pseudo inverse lies beyond"):
        res.pinv()


def test_svd_rank_cutoff_scales_with_tolerance():
    x = np.diag([1.0, 1e-4])
    assert svd_full(x).rank == 2
    assert svd_full(x, Tolerance(1e-2)).rank == 1
    # far below the certifiable band at default tolerance
    assert svd_full(np.diag([1.0, 1e-13])).rank == 1


@pytest.fixture
def eig_sizes(monkeypatch):
    """Orders k of the k x p factors R that svd_reduced hands to Jacobi."""
    sizes = []
    original = factorizations._jacobi_rows

    def spy(r):
        sizes.append(r.shape[0])
        return original(r)

    monkeypatch.setattr(factorizations, "_jacobi_rows", spy)
    return sizes


@pytest.mark.parametrize("shape", [(30, 20), (20, 30)], ids=["tall", "wide"])
@pytest.mark.parametrize("r", range(1, 21))
def test_rank_sized_route_matches_numpy_at_every_rank(eig_sizes, shape, r):
    x = rank_deficient(np.random.default_rng(r), *shape, r)
    res = svd_reduced(x)
    # the pivoted QR leaves a rounding-level residual after r columns, so
    # Jacobi runs on r x r
    assert eig_sizes == [r]
    u, s, vt = np.linalg.svd(x)
    assert res.rank == r
    assert np.max(np.abs(res.sigma - s[:r])) <= 1e-12 * s[0]
    assert_allclose(res.u @ res.u.T, u[:, :r] @ u[:, :r].T, rtol=0, atol=1e-10)
    assert_allclose(res.v @ res.v.T, vt[:r].T @ vt[:r], rtol=0, atol=1e-10)


def test_kahan_qr_stops_at_rounding_and_the_cutoff_cuts(eig_sizes):
    # the pivoted QR keeps every direction above rounding level, 26 of
    # Kahan's 30 for a numerical rank of 16 at the cutoff; the eigenproblem
    # is never larger than 30 x 30 and the cutoff alone sets the rank
    x = kahan(30, 0.3)
    res = svd_reduced(x)
    assert len(eig_sizes) == 1 and eig_sizes[0] <= 30
    s = np.linalg.svd(x, compute_uv=False)
    assert res.rank == int(np.sum(s > 1e-10 * 30 * s[0])) == 16


def test_pivot_row_in_the_span_of_the_others_is_dropped(eig_sizes):
    # columns 0..28 of X' are the unit lower bidiagonal with -1 below the
    # diagonal, whose elimination doubles the entries row by row; the other
    # two are combinations of them, and the doubled rounding of one passes
    # the pivot threshold of the row reduction.  The pivoted QR leaves a
    # residual at rounding level after 29 columns and stops there
    p = 31
    w = np.eye(p) - np.tril(np.ones((p, p)), -1)
    xt = np.hstack([w[:, :29], w[:, :29] @ np.random.default_rng(0).standard_normal((29, 2))])
    assert cr_decompose(xt).rank == 30
    res = svd_reduced(xt.T)
    assert eig_sizes == [29]
    s = np.linalg.svd(xt, compute_uv=False)
    assert res.rank == 29
    assert np.max(np.abs(res.sigma - s[:29])) <= 1e-12 * s[0]


def test_residual_above_rounding_keeps_the_qr_going(eig_sizes):
    # after one column the residual is 5e-3, far above rounding level, so the
    # QR takes the second column too; the cutoff 0.02 then drops its value
    tol = Tolerance(1e-2)
    x = np.diag([1.0, 5e-3])
    res = svd_reduced(x, tol)
    assert eig_sizes == [2]
    assert res.rank == 1
    assert res.cutoff == 0.02


@pytest.mark.parametrize(
    "x, rank",
    [
        (np.random.default_rng(0).standard_normal((40, 25)), 25),
        (graded(np.random.default_rng(1), 80, 60, 60, 1e6), 60),
        (np.random.default_rng(2).standard_normal((40, 20)) * np.geomspace(1.0, 1e-7, 20), 20),
        *((rank_deficient(np.random.default_rng(r), n, p, r), r)
          for n, p, r in ((30, 20, 1), (30, 20, 7), (50, 50, 33), (40, 12, 11), (12, 12, 12))),
        (np.zeros((6, 4)), 0),
    ],
    ids=["gaussian", "graded-1e6", "graded-columns", "planted-1", "planted-7",
         "planted-33", "planted-11", "planted-12", "zero"],
)
def test_pivoted_gram_schmidt_contract(x, rank):
    # X = Q Q' X to eps * n * ||X||_F with Q orthonormal to k eps; a sum of
    # r outer products gives k = r and the zero matrix k = 0; the first
    # column is the normalised column of X of largest norm
    n = x.shape[0]
    eps = np.finfo(float).eps
    q = factorizations._pivoted_gram_schmidt(x)
    k = q.shape[1]
    assert q.shape[0] == n and k == rank
    if k == 0:
        return
    assert np.max(np.abs(q.T @ q - np.eye(k))) <= k * eps
    assert frobenius_norm(x - q @ (q.T @ x)) <= eps * n * frobenius_norm(x)
    first = x[:, np.argmax(np.sum(x * x, axis=0))]
    assert_allclose(q[:, 0], first / math.sqrt(first @ first), rtol=0, atol=2 * eps)


def test_svd_records_its_absolute_cutoff_and_sweeps():
    x = np.random.default_rng(5).standard_normal((7, 4))
    sweeps = svd_reduced(x).sweeps
    assert sweeps > 0
    for scale in (1.0, 2.0**-700, 2.0**700):
        sigma_1 = np.linalg.svd(x * scale, compute_uv=False)[0]
        for res in (svd_reduced(x * scale), svd_reduced(x.T * scale), svd_full(x * scale)):
            assert res.cutoff == pytest.approx(1e-10 * 7 * sigma_1, rel=1e-13)
            assert res.sweeps == sweeps
            # full rank: every computed value passed the cutoff
            assert res.largest_rejected == 0.0
    zero = svd_full(np.zeros((3, 2)))
    assert (zero.cutoff, zero.largest_rejected, zero.sweeps) == (0.0, 0.0, 0)


def test_svd_records_the_largest_rejected_value():
    # sigma 3e-7 and 1e-9 lie above the QR's rounding-level stop, so both are
    # computed; the cutoff 1e-7 * 7 * 2 = 1.4e-6 rejects them and the larger
    # is recorded
    tol = Tolerance(1e-7)
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((7, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    x = u @ np.diag([2.0, 1.0, 3e-7, 1e-9]) @ v.T
    rejected = svd_reduced(x, tol).largest_rejected
    assert rejected == pytest.approx(np.linalg.svd(x, compute_uv=False)[2], rel=1e-8)
    for scale in (1.0, 2.0**-700, 2.0**700):
        for res in (svd_reduced(x * scale, tol), svd_reduced(x.T * scale, tol),
                    svd_full(x * scale, tol)):
            assert res.rank == 2
            assert res.largest_rejected < res.cutoff
            # the prescale is exact, so the recorded value scales exactly
            assert res.largest_rejected == rejected * scale


@pytest.mark.parametrize("shape", [(80, 60), (60, 80)], ids=["tall", "wide"])
@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5])
def test_full_rank_graded_pinv_is_accurate_in_few_sweeps(shape, cond):
    # on X'X the sweeps grew with conditioning (10-16), the pinv error reached
    # 2e-5 and from cond 1e4 the label fell to g-inverse; the pivoted QR
    # grades R R' so that Jacobi converges in a few sweeps to relative accuracy,
    # and the second QR with the scaled stopping rule takes 5-6 where R R'
    # with a polish sweep took 6-8
    for seed in range(3):
        x = graded(np.random.default_rng(seed), *shape, min(shape), cond)
        res = svd_reduced(x)
        g = res.pinv()
        expected = np.linalg.pinv(x)
        assert res.rank == min(shape)
        assert res.sweeps <= 6
        assert frobenius_norm(g - expected) <= 1e-10 * frobenius_norm(expected)
        assert classify_inverse(x, g).class_label == "pseudo-inverse"


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e7, 1e8, 1e10, 1e12])
def test_graded_rank_and_pinv_match_numpy_at_the_cutoff(cond):
    # a floor of 1e-6 * sigma_1 on the cutoff cut true singular values from
    # cond 1e7 up, and the pinv at the wrong rank was 100% wrong yet labelled
    # pseudo-inverse; Jacobi on the QR factor keeps small sigma to relative
    # accuracy, so tol * max(n, p) * sigma_1 alone sets the rank
    base = graded(np.random.default_rng(7), 80, 60, 60, cond)
    for x in (base, base.T):
        s = np.linalg.svd(x, compute_uv=False)
        cutoff = 1e-10 * 80 * s[0]
        # no sigma lies near the cutoff, so NumPy's rounding cannot move the count
        assert np.min(np.abs(np.log(s / cutoff))) > 0.05
        rank = int(np.sum(s > cutoff))
        expected = np.linalg.pinv(x, rcond=cutoff / s[0])
        for scale in (1.0, 2.0**600, 2.0**-600):
            res = svd_reduced(x * scale)
            g = res.pinv()
            assert res.rank == rank
            assert res.cutoff == pytest.approx(cutoff * scale, rel=1e-13)
            assert frobenius_norm(g - expected / scale) <= 1e-8 * frobenius_norm(expected / scale)
            # the Penrose thresholds grow with max(||X||, ||G||), not with
            # each residual's own scale, so from cond 1e8 up this correct
            # pinv is labelled g-inverse (none at 2^600); the label is pinned
            # only where those thresholds hold, until they scale consistently
            if cond <= 1e7 and scale == 1.0:
                assert classify_inverse(x, g).class_label == "pseudo-inverse"


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4])
def test_rank_deficient_pinv_is_labelled_pseudo_inverse(cond):
    # on X'X of the whole input, rounding at eps * sigma_1^2 tilted v toward
    # the null space by about eps * cond^2: 14, 9 and 0 of these 18 were
    # labelled below pseudo-inverse
    for seed in range(3):
        for shape in ((60, 40), (40, 60)):
            for r in (8, 20, 30):
                x = graded(np.random.default_rng(seed), *shape, r, cond)
                assert svd_reduced(x).rank == r
                assert classify_inverse(x, pinv_svd(x)).class_label == "pseudo-inverse"


@pytest.mark.parametrize("seed", range(9))
def test_svd_properties_three_regimes(seed):
    rng = np.random.default_rng(seed)
    regime = seed % 3
    if regime == 0:
        p = int(rng.integers(1, 8))
        n = int(rng.integers(p, 14))
        x = full_col_rank(rng, n, p)
        expected_rank = p
    elif regime == 1:
        n = int(rng.integers(1, 8))
        p = int(rng.integers(n, 14))
        x = full_row_rank(rng, n, p)
        expected_rank = n
    else:
        n = int(rng.integers(2, 14))
        p = int(rng.integers(2, 10))
        expected_rank = int(rng.integers(1, min(n, p)))
        x = rank_deficient(rng, n, p, expected_rank)
    res = svd_full(x)
    n_, p_ = x.shape
    assert res.rank == expected_rank
    assert np.all(res.sigma > 0)
    assert np.all(np.diff(res.sigma) <= 0)
    assert_allclose(res.u.T @ res.u, np.eye(n_), atol=1e-8)
    assert_allclose(res.v.T @ res.v, np.eye(p_), atol=1e-8)
    scale = max(1.0, frobenius_norm(x))
    assert_allclose(res.u @ res.sigma_matrix() @ res.v.T, x, atol=1e-8 * scale)
    # singular values agree with an independent decomposition
    assert_allclose(res.sigma, np.linalg.svd(x, compute_uv=False)[: res.rank], atol=1e-8 * scale)


def _householder_completion(side):
    """Oracle: the trailing columns of a complete QR of ``side``, with the sign rule."""
    added = np.linalg.qr(side, mode="complete")[0][:, side.shape[1] :].copy()
    _sign_columns(added)
    return added


def test_completion_fallback_when_no_candidate_clears_half():
    # the orthogonal complement of span(accepted) is the single direction
    # w = (1,1,1,1)/2, along which every standard basis vector has a component
    # of only 0.5; the completion is w, its sign fixed by the sign rule
    w = np.full(4, 0.5)
    seed = np.eye(4) - np.outer(w, w)
    q_acc, _ = np.linalg.qr(seed[:, :3])
    full = _complete_basis(q_acc, 4)
    oracle = np.column_stack([q_acc, _householder_completion(q_acc)])
    assert_allclose(full, oracle, rtol=0, atol=1e-12)
    assert full.shape == (4, 4)
    assert_allclose(full.T @ full, np.eye(4), atol=1e-10)
    assert_allclose(full[:, 3], w, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "dim, r",
    [(20, 10), (40, 8), (60, 8), (60, 30), (60, 59), (80, 60), (120, 70), (30, 0), (30, 30)],
)
def test_completion_is_the_householder_basis_of_the_complement(dim, r):
    rng = np.random.default_rng(dim + r)
    res = svd_reduced(rank_deficient(rng, dim, dim, r))
    assert res.rank == r
    for side in (res.u, res.v):
        full = _complete_basis(side, dim)
        assert np.array_equal(full[:, :r], side)
        assert_allclose(full[:, r:], _householder_completion(side), rtol=0, atol=1e-12)
        assert_allclose(full.T @ full, np.eye(dim), rtol=0, atol=1e-12)
        if r == 0:
            assert np.array_equal(full, np.eye(dim))


def test_cr_rank_one_fixture():
    res = cr_decompose([[1.0, 2.0], [2.0, 4.0]])
    assert res.rank == 1
    assert np.array_equal(res.c, [[1.0], [2.0]])
    assert_allclose(res.r_factor, [[1.0, 2.0]], atol=1e-12)
    assert_allclose(res.c @ res.r_factor, [[1.0, 2.0], [2.0, 4.0]], atol=1e-12)


def test_cr_full_row_rank_fixture():
    x = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
    res = cr_decompose(x)
    assert res.rank == 2
    assert np.array_equal(res.c, np.eye(2))
    assert_allclose(res.r_factor, x, atol=1e-12)


def test_cr_zero_matrix_empty_factors():
    res = cr_decompose(np.zeros((3, 2)))
    assert res.rank == 0
    assert res.c.shape == (3, 0)
    assert res.r_factor.shape == (0, 2)
    assert np.array_equal(res.c @ res.r_factor, np.zeros((3, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_cr_reconstruction_and_factor_ranks(seed):
    rng = np.random.default_rng(40 + seed)
    n, p = int(rng.integers(2, 10)), int(rng.integers(2, 10))
    r = int(rng.integers(1, min(n, p) + 1))
    x = rank_deficient(rng, n, p, r)
    res = cr_decompose(x)
    assert res.rank == r
    # c is made of original columns of x
    for j in range(res.c.shape[1]):
        assert any(np.array_equal(res.c[:, j], x[:, k]) for k in range(p))
    assert np.linalg.matrix_rank(res.c) == r
    assert np.linalg.matrix_rank(res.r_factor) == r
    assert_allclose(res.c @ res.r_factor, x, atol=1e-8 * max(1.0, frobenius_norm(x)))
