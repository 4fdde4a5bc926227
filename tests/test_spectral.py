import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import (
    ConvergenceError,
    NonFiniteEntryError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
    Tolerance,
    pivot_rank,
)
from fourspaces import factorizations, svd_reduced
from fourspaces.spectral import (
    _flat_rounds,
    _jacobi_rows,
    _offdiag_norm,
    _rotate_rows,
    _rotation,
    _rounds,
    _row_sweep,
    _sign_columns,
    _sweep,
    eig_symmetric,
    similarity_check,
)
from support import graded, kahan, random_orthogonal, rank_deficient


def _scalar_tangent(aii, ajj, aij):
    """Tangent of the rotation annihilating ``aij``, one pair at a time."""
    diff = ajj - aii
    if abs(diff) > 1e12 * abs(aij):
        return aij / diff
    tau = diff / (2.0 * aij)
    return math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))


def _scalar_sweep(a, q):
    """Reference: the cyclic sweep, one rotation per off-diagonal pair in row order."""
    n = a.shape[0]
    for i in range(n - 1):
        for j in range(i + 1, n):
            aij = a[i, j]
            if aij == 0.0:
                continue
            t = _scalar_tangent(a[i, i], a[j, j], aij)
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            ci = a[:, i].copy()
            cj = a[:, j].copy()
            a[:, i] = c * ci - s * cj
            a[:, j] = s * ci + c * cj
            ri = a[i, :].copy()
            rj = a[j, :].copy()
            a[i, :] = c * ri - s * rj
            a[j, :] = s * ri + c * rj
            a[i, j] = 0.0
            a[j, i] = 0.0
            qi = q[:, i].copy()
            qj = q[:, j].copy()
            q[:, i] = c * qi - s * qj
            q[:, j] = s * qi + c * qj


def _reference_sweep(w):
    """Reference: the round-robin sweep with fancy diagonal gathers, ``np.stack``
    and a two-index zero pin, which the flat-index round must match bit for bit."""
    a = w[:, : w.shape[0]]
    for i, j, ij in _rounds(w.shape[0]):
        if not len(ij):  # n = 1: nothing to rotate, and no rows to reshape
            continue
        c, s = _rotation(a[i, i], a[j, j], a[i, j])
        g = np.stack((c, -s, s, c), axis=1).reshape(-1, 2, 2)
        _rotate_rows(w, ij, g)
        _rotate_rows(a.T, ij, g)
        a[i, j] = a[j, i] = 0.0


def _scalar_eig(s, relative=1e-10):
    """Reference eigensolver: cyclic sweeps under the same stopping rule and polish."""
    work = (s + s.T) / 2.0
    q = np.eye(s.shape[0])
    threshold = relative * float(np.sqrt(np.sum(s * s)))
    while _offdiag_norm(work) > threshold:
        _scalar_sweep(work, q)
    _scalar_sweep(work, q)
    order = np.argsort(-np.diag(work), kind="stable")
    return np.diag(work)[order], q[:, order]


def test_eig_hand_fixture_two_by_two():
    # oracle: characteristic polynomial of [[2,1],[1,2]] solved directly
    tr, det = 4.0, 3.0
    disc = math.sqrt(tr * tr - 4.0 * det)
    lam_hi, lam_lo = (tr + disc) / 2.0, (tr - disc) / 2.0
    assert (lam_hi, lam_lo) == (3.0, 1.0)
    # oracle eigenvectors: (A - lam I) v = 0 solved by hand for each root
    v_hi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v_lo = np.array([1.0, -1.0]) / math.sqrt(2.0)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert_allclose(a @ v_hi, lam_hi * v_hi, atol=1e-12)
    assert_allclose(a @ v_lo, lam_lo * v_lo, atol=1e-12)

    res = eig_symmetric(a)
    assert_allclose(res.values, [lam_hi, lam_lo], atol=1e-10)
    assert_allclose(res.q[:, 0], v_hi, atol=1e-10)
    assert_allclose(res.q[:, 1], v_lo, atol=1e-10)


def test_eig_identity_is_fixed_point():
    res = eig_symmetric(np.eye(2))
    assert_allclose(res.values, [1.0, 1.0], atol=1e-12)
    assert np.array_equal(res.q, np.eye(2))


def test_eig_diagonal_sorts_descending():
    res = eig_symmetric(np.diag([1.0, 3.0]))
    assert_allclose(res.values, [3.0, 1.0], atol=1e-12)
    # a signed permutation with positive sign convention
    assert_allclose(res.q, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_eig_one_by_one():
    res = eig_symmetric([[-7.0]])
    assert_allclose(res.values, [-7.0])
    assert_allclose(res.q, [[1.0]])


def test_eig_rejects_asymmetry_and_shape():
    with pytest.raises(NotSymmetricError):
        eig_symmetric([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ShapeError):
        eig_symmetric(np.ones((2, 3)))


def test_eig_sweep_cap_is_enforced(monkeypatch):
    import fourspaces.spectral as spectral

    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    rng = np.random.default_rng(0)
    s = rng.standard_normal((6, 6))
    s = s + s.T
    with pytest.raises(ConvergenceError) as info:
        eig_symmetric(s)
    assert info.value.sweeps == 0
    assert info.value.offdiag_norm == _offdiag_norm(s)
    assert info.value.offdiag_norm > 1e-10 * float(np.sqrt(np.sum(s * s)))


def test_eig_reports_sweeps_and_final_offdiag_norm():
    diagonal = eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert (diagonal.sweeps, diagonal.offdiag_norm) == (0, 0.0)
    rng = np.random.default_rng(4)
    s = rng.standard_normal((9, 9))
    s = s + s.T
    res = eig_symmetric(s)
    # at least one sweep to converge, plus the polish sweep
    assert 2 <= res.sweeps <= 12
    assert 0.0 <= res.offdiag_norm <= 1e-10 * float(np.sqrt(np.sum(s * s)))


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_schedule_covers_each_pair_once(n):
    rounds = _rounds(n)
    assert len(rounds) == n - 1 + n % 2
    pairs = []
    for i, j, ij in rounds:
        assert np.all(i < j)
        # disjoint: no index appears twice in one round
        assert len(set(i.tolist()) | set(j.tolist())) == 2 * len(i)
        assert ij.tolist() == np.column_stack([i, j]).ravel().tolist()
        pairs += list(zip(i.tolist(), j.tolist()))
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("n", range(1, 13))
def test_flat_rounds_address_the_pair_entries(n):
    stride = 2 * n
    rounds = [r for r in _rounds(n) if len(r[2])]
    assert len(_flat_rounds(n)) == len(rounds) == (n > 1) * (n - 1 + n % 2)
    for (ij, diag, pins), (i, j, ij_ref) in zip(_flat_rounds(n), rounds):
        assert ij is ij_ref
        rows, cols = np.divmod(np.concatenate((diag, pins)), stride)
        k = len(i)
        assert rows.tolist() == np.concatenate((i, j, i, i, j)).tolist()
        assert cols.tolist() == np.concatenate((i, j, j, j, i)).tolist()
        assert len(diag) == 3 * k and len(pins) == 2 * k


def _sweep_inputs(n):
    rng = np.random.default_rng(n)
    s = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    yield "random", s + s.T
    yield "diagonal", np.diag(rng.standard_normal(n))
    # exact ties: n - 1 eigenvalues equal to 1
    yield "ties", np.eye(n) + np.outer(v, v)
    yield "zero", np.zeros((n, n))
    yield "2^600", np.ldexp(s + s.T, 600)
    yield "2^-600", np.ldexp(s + s.T, -600)


@pytest.mark.parametrize("n", [*range(1, 13), 21, 40, 60])
def test_flat_round_matches_the_reference_round_bit_for_bit(n):
    for name, s in _sweep_inputs(n):
        w = np.hstack(((s + s.T) / 2.0, np.eye(n)))
        ref = w.copy()
        for sweep in range(6):
            _sweep(w)
            _reference_sweep(ref)
            assert np.array_equal(w, ref), (name, sweep)


def test_rotation_matches_scalar_formula_and_stays_quiet():
    rng = np.random.default_rng(8)
    aii, ajj, aij = rng.standard_normal((3, 40))
    # zero pairs, a tie, huge and tiny angles, large-tau quotients that
    # overflow, and pairs whose 1e12 * |aij| passes the float range
    aii = np.concatenate([aii, [0.0, 1.0, 2.0, 1e300, 0.0, 1.0, 0.0, 1e307]])
    ajj = np.concatenate([ajj, [0.0, 3.0, 2.0, -1e300, 1e-300, 1.0 + 1e-13, 1.0, -1e307]])
    aij = np.concatenate([aij, [0.0, 0.0, 1.5, 1e-10, 1e-300, 1.0, 1e297, 1e307]])
    c, s = _rotation(aii, ajj, aij)
    for k in range(len(aij)):
        # Python floats: the oracle's own products overflow silently there
        args = float(aii[k]), float(ajj[k]), float(aij[k])
        t = 0.0 if aij[k] == 0.0 else _scalar_tangent(*args)
        c_k = 1.0 / math.hypot(1.0, t)
        assert_allclose([c[k], s[k]], [c_k, t * c_k], rtol=1e-15, atol=0.0)
    assert np.array_equal(c[40:42], [1.0, 1.0]) and np.array_equal(s[40:42], [0.0, 0.0])


def _graded_gram(rng, cond):
    u, _ = np.linalg.qr(rng.standard_normal((80, 60)))
    sigma = np.logspace(0.0, -np.log10(cond), 60)
    x = (u * sigma) @ random_orthogonal(rng, 60).T
    return x.T @ x


@pytest.mark.parametrize("cond", [1e1, 1e2, 1e3, 1e4])
def test_round_robin_agrees_with_scalar_sweep(cond):
    s = _graded_gram(np.random.default_rng(int(np.log10(cond))), cond)
    scale = float(np.sqrt(np.sum(s * s)))
    ref_values, ref_q = _scalar_eig(s)
    res = eig_symmetric(s)
    assert np.max(np.abs(res.values - ref_values)) <= 1e-12 * scale
    recon = res.q @ np.diag(res.values) @ res.q.T
    assert np.max(np.abs(recon - ref_q @ np.diag(ref_values) @ ref_q.T)) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(8))
def test_eig_reconstruction_and_orthogonality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 14))
    s = rng.standard_normal((n, n))
    s = s + s.T
    res = eig_symmetric(s)
    scale = max(1.0, float(np.sqrt(np.sum(s * s))))
    assert np.all(np.diff(res.values) <= 1e-12)
    assert_allclose(res.q @ np.diag(res.values) @ res.q.T, s, atol=1e-8 * scale)
    assert_allclose(res.q.T @ res.q, np.eye(n), atol=1e-8)
    for j in range(n):
        k = int(np.argmax(np.abs(res.q[:, j])))
        assert res.q[k, j] > 0.0


def test_eig_rank_matches_nonzero_eigenvalue_count():
    rng = np.random.default_rng(11)
    q = random_orthogonal(rng, 6)
    lam = np.array([4.0, 2.5, 1.0, 0.0, 0.0, 0.0])
    s = q @ np.diag(lam) @ q.T
    res = eig_symmetric(s)
    big = np.abs(res.values) > 1e-10 * np.max(np.abs(res.values))
    assert int(np.sum(big)) == 3
    assert pivot_rank(s) == 3


def test_eig_repeated_eigenvalues_stay_orthonormal():
    rng = np.random.default_rng(5)
    q = random_orthogonal(rng, 5)
    lam = np.array([5.0, 2.0, 2.0, 2.0, -1.0])
    s = q @ np.diag(lam) @ q.T
    res = eig_symmetric(s)
    assert_allclose(res.values, lam, atol=1e-9)
    assert_allclose(res.q.T @ res.q, np.eye(5), atol=1e-9)
    assert_allclose(res.q @ np.diag(res.values) @ res.q.T, s, atol=1e-9)


def test_similarity_orthogonal_conjugation_preserves_everything():
    a = np.diag([1.0, 2.0])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    # oracle: the conjugate computed by hand is diag(2, 1)
    assert_allclose(rot @ a @ rot.T, np.diag([2.0, 1.0]), atol=1e-15)
    rep = similarity_check(a, rot)
    assert rep.eigs_match is True
    assert rep.rank_match is True
    assert rep.trace_match is True


def test_similarity_general_nonsingular_skips_eigenvalues():
    rep = similarity_check(np.diag([1.0, 2.0]), [[1.0, 1.0], [0.0, 1.0]])
    assert rep.eigs_match is None
    assert rep.rank_match is True
    assert rep.trace_match is True


def test_similarity_rejects_singular_conjugator():
    with pytest.raises(SingularMatrixError):
        similarity_check(np.eye(2), [[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ShapeError, match="square"):
        similarity_check(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ShapeError, match="conjugating matrix"):
        similarity_check(np.eye(2), np.eye(3))
    with pytest.raises(NotSymmetricError):
        similarity_check([[1.0, 2.0], [0.0, 1.0]], np.eye(2))


def test_similarity_random_orthogonal():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        s = rng.standard_normal((n, n))
        s = s + s.T
        rep = similarity_check(s, random_orthogonal(rng, n))
        assert rep.eigs_match and rep.rank_match and rep.trace_match


@pytest.mark.parametrize("scale", [1e308, 1e307], ids=["1e308", "1e307"])
def test_eig_is_scale_safe_at_the_top_of_the_range(scale):
    # the squares and the symmetrization overflowed here, and the rotation
    # then divided inf by inf
    res = eig_symmetric(np.array([[1.0, 1.0], [1.0, -1.0]]) * scale)
    assert_allclose(res.values, [math.sqrt(2.0) * scale, -math.sqrt(2.0) * scale], rtol=1e-15)
    assert_allclose(np.abs(res.q.T @ res.q), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("k", [600, -600], ids=["2^600", "2^-600"])
def test_eig_scales_exactly_by_powers_of_two(k):
    rng = np.random.default_rng(5)
    s = rng.standard_normal((7, 7))
    s = s + s.T
    base = eig_symmetric(s)
    res = eig_symmetric(np.ldexp(s, k))
    assert np.array_equal(res.values, np.ldexp(base.values, k))
    assert np.array_equal(res.q, base.q)
    assert res.sweeps == base.sweeps
    assert res.offdiag_norm == np.ldexp(base.offdiag_norm, k)


def test_asymmetry_past_the_float_range_still_raises_not_symmetric():
    # ||s - s'|| = 2.8e308: scaling the figure back overflowed, and the
    # overflow warning got in ahead of the typed error
    with pytest.raises(NotSymmetricError, match="asymmetry inf vs bound"):
        eig_symmetric(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_offdiag_norm_past_the_float_range_still_raises_convergence_error(monkeypatch):
    import fourspaces.spectral as spectral

    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    s = np.full((3, 3), 1e308)
    np.fill_diagonal(s, 0.0)
    with pytest.raises(ConvergenceError) as info:
        eig_symmetric(s)
    assert info.value.offdiag_norm == math.inf
    assert "off-diagonal norm inf still above" in str(info.value)


def test_offdiag_norm_does_not_underflow():
    # squaring the raw off-diagonal entries underflows to a wrong 0.0
    off = _offdiag_norm(np.array([[1.0, 1e-170], [1e-170, 1.0]]))
    assert off == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-15, abs=0.0)


def test_eigenvalue_past_the_float_range_raises_non_finite_entry():
    # 1e308 off the diagonal, 0 on it: the largest eigenvalue is 2e308, and
    # scaling it back overflowed with a warning ahead of an inf eigenvalue
    s = np.full((3, 3), 1e308)
    np.fill_diagonal(s, 0.0)
    with pytest.raises(NonFiniteEntryError, match="eigenvalue lies beyond the float range"):
        eig_symmetric(s)


@pytest.mark.parametrize("k", [600, -600], ids=["2^600", "2^-600"])
def test_eig_errors_report_values_at_the_input_scale(monkeypatch, k):
    import fourspaces.spectral as spectral

    rng = np.random.default_rng(0)
    s = rng.standard_normal((6, 6))
    with pytest.raises(NotSymmetricError) as info:
        eig_symmetric(np.ldexp(s, k))
    asym = float(np.ldexp(np.sqrt(np.sum((s - s.T) ** 2)), k))
    assert f"asymmetry {asym:.3e} vs bound" in str(info.value)
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    s = s + s.T
    with pytest.raises(ConvergenceError) as info:
        eig_symmetric(np.ldexp(s, k))
    off = float(np.ldexp(_offdiag_norm(s), k))
    assert info.value.offdiag_norm == off
    assert str(info.value).startswith(f"off-diagonal norm {off:.3e} still above")


def test_sign_rule_is_stable_under_near_ties():
    # demos/02: the eigenvector of eigenvalue 3 is (1, -1, -1)/sqrt(3); its
    # components tie in exact arithmetic, so the lowest index takes the sign
    s = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    res = eig_symmetric(s)
    assert_allclose(res.values[1], 3.0, atol=1e-12)
    assert_allclose(res.q[:, 1], np.array([1.0, -1.0, -1.0]) / math.sqrt(3.0), atol=1e-12)
    # a rounding-level lead of a later component does not flip the sign
    for later in (1.0 + 4e-16, 1.0 - 4e-16):
        q = np.array([[-1.0, 0.0], [later, -2.0], [0.5, 1.0]])
        _sign_columns(q)
        assert q[0, 0] == 1.0 and q[1, 1] == 2.0


@pytest.mark.parametrize("k", [6, 7], ids=["even", "odd"])
def test_row_sweep_applies_the_rotations_of_the_two_sided_sweep(k):
    # rotating the rows of [R | I] takes R R' where the two-sided sweep takes
    # [R R' | I]: the same pairs, the same rotations, one array rotated once
    p = 9
    r = np.random.default_rng(k).standard_normal((k, p))
    w = np.hstack((r, np.eye(k)))
    w2 = np.hstack((r @ r.T, np.eye(k)))
    _row_sweep(w, p)
    _sweep(w2)
    scale = float(np.sqrt(np.sum((r @ r.T) ** 2)))
    assert_allclose(w[:, :p] @ w[:, :p].T, w2[:, :k], rtol=0, atol=1e-13 * scale)
    assert_allclose(w[:, p:], w2[:, k:], rtol=0, atol=1e-13)


def _assert_row_svd(r, sigma, w):
    s = np.linalg.svd(r, compute_uv=False)
    k = r.shape[0]
    assert np.all(np.diff(sigma) <= 0.0)
    assert np.max(np.abs(sigma - np.pad(s, (0, k - len(s))))) <= 1e-12 * s[0]
    assert_allclose(w.T @ w, np.eye(k), rtol=0, atol=1e-13 * k)
    # W' R R' W is diagonal, with the squared singular values on its diagonal
    assert_allclose(w.T @ r @ r.T @ w, np.diag(sigma**2), rtol=0, atol=1e-12 * s[0] ** 2)


@pytest.mark.parametrize("rank", range(1, 21))
def test_row_jacobi_matches_numpy_at_every_rank(rank):
    x = rank_deficient(np.random.default_rng(rank), 20, 30, rank)
    _assert_row_svd(x, *_jacobi_rows(x)[:2])


def test_row_jacobi_matches_numpy_on_kahans_matrix():
    x = kahan(30, 0.3)
    _assert_row_svd(x, *_jacobi_rows(x)[:2])


@pytest.mark.parametrize(
    "r",
    [np.array([[3.0, 4.0]]), np.random.default_rng(1).standard_normal((5, 7)), np.zeros((3, 4))],
    ids=["k=1", "odd", "zero"],
)
def test_row_jacobi_edge_orders_and_scales(r):
    sigma, w, sweeps = _jacobi_rows(r)
    if np.any(r):
        _assert_row_svd(r, sigma, w)
    else:
        assert (sweeps, list(sigma)) == (0, [0.0] * 3)
        assert np.array_equal(w, np.eye(3))
    for k in (600, -600):
        # an exact power-of-two scaling: the same rotations, sigma scaled exactly
        big_sigma, big_w, big_sweeps = _jacobi_rows(np.ldexp(r, k))
        assert np.array_equal(big_sigma, np.ldexp(sigma, k))
        assert np.array_equal(big_w, w)
        assert big_sweeps == sweeps


def test_row_jacobi_takes_the_sweeps_of_the_two_sided_kernel(monkeypatch):
    # the stopping rule is eig_symmetric's on R R', so on every factor R of
    # svd_reduced both kernels sweep equally often
    factors = []
    original = factorizations._jacobi_rows

    def spy(r, tol):
        factors.append(r.copy())
        return original(r, tol)

    monkeypatch.setattr(factorizations, "_jacobi_rows", spy)
    for seed in range(3):
        for cond in (1e2, 1e4, 1e5):
            svd_reduced(graded(np.random.default_rng(seed), 80, 60, 60, cond))
        svd_reduced(graded(np.random.default_rng(seed), 40, 60, 20, 1e3))
        svd_reduced(rank_deficient(np.random.default_rng(seed), 20, 30, 7 + seed))
    svd_reduced(kahan(30, 0.3))
    assert len(factors) == 16
    for r in factors:
        assert _jacobi_rows(r)[2] == eig_symmetric(r @ r.T).sweeps


def test_row_jacobi_sweep_cap_is_enforced(monkeypatch):
    import fourspaces.spectral as spectral

    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    r = np.random.default_rng(0).standard_normal((6, 8))
    with pytest.raises(ConvergenceError) as info:
        _jacobi_rows(r)
    assert info.value.sweeps == 0
    # the figures are those of R R', at its own scale
    assert info.value.offdiag_norm == _offdiag_norm(r @ r.T)
