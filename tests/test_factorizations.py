import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import Tolerance, frobenius_norm, pivot_rank
from fourspaces.factorizations import (
    _complete_basis,
    cr_decompose,
    svd_full,
    svd_reduced,
)
from fourspaces.inverses import pinv_svd
from support import full_col_rank, full_row_rank, rank_deficient


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


def test_svd_rank_cutoff_scales_with_tolerance():
    x = np.diag([1.0, 1e-4])
    assert svd_full(x).rank == 2
    assert svd_full(x, Tolerance(1e-2)).rank == 1
    # far below the certifiable band at default tolerance
    assert svd_full(np.diag([1.0, 1e-13])).rank == 1


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


def test_completion_fallback_when_no_candidate_clears_half():
    # the orthogonal complement of span(accepted) is the single direction
    # w = (1,1,1,1)/2, so every standard basis candidate has residual exactly
    # 0.5 and only the fallback can finish the basis
    w = np.full(4, 0.5)
    seed = np.eye(4) - np.outer(w, w)
    q_acc, _ = np.linalg.qr(seed[:, :3])
    full = _complete_basis(q_acc, 4)
    assert_allclose(full, _restarting_completion(q_acc, 4), rtol=0, atol=1e-12)
    assert full.shape == (4, 4)
    assert_allclose(full.T @ full, np.eye(4), atol=1e-10)
    assert_allclose(np.abs(full[:, 3] @ w), 1.0, atol=1e-10)


def _restarting_completion(accepted, dim):
    """Reference: rescan every standard basis candidate after each pick."""
    q = np.array(accepted, dtype=float, copy=True).reshape(dim, -1)
    while q.shape[1] < dim:
        pick = None
        best = None
        best_norm = -1.0
        for k in range(dim):
            w = np.zeros(dim)
            w[k] = 1.0
            for _ in range(2):
                w -= q @ (q.T @ w)
            nrm = float(np.sqrt(np.sum(w * w)))
            if nrm > 0.5:
                pick = w / nrm
                break
            if nrm > best_norm:
                best_norm = nrm
                best = w
        if pick is None:
            pick = best / best_norm
        top = int(np.argmax(np.abs(pick)))
        if pick[top] < 0.0:
            pick = -pick
        q = np.hstack([q, pick[:, None]])
    return q


@pytest.mark.parametrize("seed", range(6))
def test_completion_picks_what_a_restarting_scan_picks(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, 12))
    res = svd_reduced(rank_deficient(rng, 30, 20, r) if r else np.eye(30, 20))
    for side in (res.u, res.v):
        full = _complete_basis(side, side.shape[0])
        assert_allclose(full, _restarting_completion(side, side.shape[0]), rtol=0, atol=1e-12)
        assert_allclose(full.T @ full, np.eye(side.shape[0]), atol=1e-12)


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
