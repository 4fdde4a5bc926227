import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import (
    ConvergenceError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
    Tolerance,
    pivot_rank,
)
from fourspaces.spectral import _offdiag_norm, _rotation, _rounds, eig_symmetric, similarity_check
from support import random_orthogonal


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


def test_rotation_matches_scalar_formula_and_stays_quiet():
    rng = np.random.default_rng(8)
    aii, ajj, aij = rng.standard_normal((3, 40))
    # zero pairs, a tie, huge and tiny angles, and large-tau quotients that overflow
    aii = np.concatenate([aii, [0.0, 1.0, 2.0, 1e300, 0.0, 1.0]])
    ajj = np.concatenate([ajj, [0.0, 3.0, 2.0, -1e300, 1e-300, 1.0 + 1e-13]])
    aij = np.concatenate([aij, [0.0, 0.0, 1.5, 1e-10, 1e-300, 1.0]])
    c, s = _rotation(aii, ajj, aij)
    for k in range(len(aij)):
        t = 0.0 if aij[k] == 0.0 else _scalar_tangent(aii[k], ajj[k], aij[k])
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


def test_similarity_random_orthogonal():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        s = rng.standard_normal((n, n))
        s = s + s.T
        rep = similarity_check(s, random_orthogonal(rng, n))
        assert rep.eigs_match and rep.rank_match and rep.trace_match
