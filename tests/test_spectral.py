import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from fourspaces import factorizations, spectral, svd_reduced
from fourspaces.spectral import (
    _jacobi_rows,
    _offdiag_norm,
    _rotation,
    _row_rounds,
    _row_sweep,
    _sign_columns,
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


def _reference_sweep(w, first):
    """Reference: the two-sided odd-even sweep of ``w = [A | Q']``, one pair at
    a time: round t rotates and swaps rows and columns i, i + 1 for
    i = o, o + 2, ..., o = (first + t) mod 2, with a two-index zero pin."""
    k = w.shape[0]
    a = w[:, :k]
    for t in range(k):
        for i in range((first + t) % 2, k - 1, 2):
            ij = [i, i + 1]
            c, s = _rotation(a[i, i], a[i + 1, i + 1], a[i, i + 1])
            g = np.array([[s, c], [c, -s]])
            w[ij] = g @ w[ij]
            a[:, ij] = a[:, ij] @ g
            a[i, i + 1] = a[i + 1, i] = 0.0


def _scalar_eig(s, relative=1e-10):
    """Reference eigensolver: two-sided cyclic sweeps until the off-diagonal norm is
    at most ``relative * ||s||_F``, then one more."""
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


def _shifted_cosine(s):
    """Largest |cosine| between two rows of ``A + 2 ||A||_F I``, ``A`` the
    symmetrized ``s`` at the scale of the prescale."""
    a = np.ldexp(s, -np.frexp(np.max(np.abs(s)))[1])
    a = (a + a.T) / 2.0
    return _largest_row_cosine(a + 2.0 * np.sqrt(np.sum(a * a)) * np.eye(len(a)))


def test_eig_sweep_cap_is_enforced(monkeypatch):
    import fourspaces.spectral as spectral

    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    rng = np.random.default_rng(0)
    s = rng.standard_normal((6, 6))
    s = s + s.T
    figures = []
    for k in (0, 600, -600):
        with pytest.raises(ConvergenceError, match="largest cosine between rows") as info:
            eig_symmetric(np.ldexp(s, k))
        assert info.value.sweeps == 0
        figures.append(info.value.offdiag_norm)
    # the figure of the one-sided kernel on the shifted matrix: the largest
    # |cosine| between two of its rows, the same at every power-of-two scale
    assert figures[0] == pytest.approx(_shifted_cosine(s), rel=1e-14)
    assert figures == [figures[0]] * 3
    assert 6 * np.finfo(float).eps < figures[0] < 1.0


def test_eig_reports_sweeps_and_final_offdiag_norm():
    diagonal = eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert (diagonal.sweeps, diagonal.offdiag_norm) == (0, 0.0)
    rng = np.random.default_rng(4)
    s = rng.standard_normal((9, 9))
    s = s + s.T
    res = eig_symmetric(s)
    # a random 9 x 9 input takes a few sweeps to reach the kernel's rule
    assert 2 <= res.sweeps <= 12
    assert 0.0 <= res.offdiag_norm <= 1e-10 * float(np.sqrt(np.sum(s * s)))


@pytest.mark.parametrize("k", range(1, 10))
def test_round_robin_schedule_covers_each_pair_once(k, monkeypatch):
    # rows of distinct norms, pairwise orthogonal: every rotation is the
    # identity, so each pair is only swapped, exactly, and the squared norm
    # alpha = (label + 1)^2 that _rotation reads names the row it came from
    import fourspaces.spectral as spectral

    rounds = []
    original = spectral._rotation

    def spy(app, aqq, apq, out=None):
        rounds.append(list(zip(np.sqrt(app).astype(int) - 1, np.sqrt(aqq).astype(int) - 1)))
        return original(app, aqq, apq, out)

    monkeypatch.setattr(spectral, "_rotation", spy)
    labels = np.arange(k)
    start = np.hstack((np.diag(labels + 1.0), np.eye(k)))
    for first in (0, 1):
        rounds.clear()
        w = start.copy()
        _row_sweep(_row_rounds(w, k), first)
        assert len(rounds) == k
        met = []
        for pairs in rounds:
            seen = [label for pair in pairs for label in pair]
            # disjoint: no row appears twice in one round
            assert len(set(seen)) == len(seen)
            met += [tuple(sorted(pair)) for pair in pairs]
        assert sorted(met) == [(i, j) for i in range(k) for j in range(i + 1, k)]
        # k rounds of odd-even transposition reverse the rows, labels and all
        assert np.array_equal(w, start[::-1])


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


def test_rotation_degenerate_cases_leave_the_pair_orthogonal():
    # alpha = beta with gamma != 0 (|theta| = pi / 4, signed as gamma), gamma = 0
    # with alpha != beta (the identity), all zero, and exact ties of all three
    eps = np.finfo(float).eps
    app = np.array([2.0, 2.0, 3.0, 1.0, 0.0, 5.0, 1e300])
    aqq = np.array([2.0, 2.0, 1.0, 3.0, 0.0, 5.0, 1e300])
    apq = np.array([1.5, -0.25, 0.0, 0.0, 0.0, 5.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, s = _rotation(app, aqq, apq)
    assert np.all(np.abs(c * c + s * s - 1.0) <= 2 * eps)
    quarter = [0, 1, 5, 6]
    assert_allclose(np.arctan2(s[quarter], c[quarter]), np.copysign(np.pi / 4, apq[quarter]),
                    rtol=2 * eps, atol=0)
    assert np.array_equal(c[2:5], [1.0] * 3) and np.array_equal(s[2:5], [0.0] * 3)
    for k in range(len(apq)):
        # the off-diagonal of the rotated Gram matrix [[app, apq], [apq, aqq]],
        # in exact arithmetic on the computed c and s
        c_k, s_k, a, b, g = (Fraction(float(v)) for v in (c[k], s[k], app[k], aqq[k], apq[k]))
        off = c_k * s_k * (a - b) + (c_k * c_k - s_k * s_k) * g
        assert abs(off) <= eps * math.hypot(app[k], aqq[k], math.sqrt(2.0) * apq[k]), k


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


@pytest.mark.parametrize("k", [0, -40])
def test_similarity_catches_a_wrong_inverse_below_unit_scale(k, monkeypatch):
    # P A (1.25 P^-1) scales every eigenvalue by 1.25; bounds floored at
    # 100 tol once let it match at 2^-40, where the trace is 9.1e-12
    a = np.ldexp(np.diag([1.0, 2.0, 3.0, 4.0]), k)
    p = random_orthogonal(np.random.default_rng(0), 4)
    rep = similarity_check(a, p)
    assert rep.eigs_match and rep.rank_match and rep.trace_match
    invert = spectral.invert
    monkeypatch.setattr(spectral, "invert", lambda m, tol: 1.25 * invert(m, tol))
    rep = similarity_check(a, p)
    assert (rep.eigs_match, rep.rank_match, rep.trace_match) == (False, True, False)


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
    # the off-diagonal norm, 2.4e308, lies past the float range; the
    # figure the error carries is a cosine, finite at every scale
    with pytest.raises(ConvergenceError, match="largest cosine between rows") as info:
        eig_symmetric(s)
    assert info.value.offdiag_norm == pytest.approx(_shifted_cosine(s), rel=1e-14)
    assert 0.0 < info.value.offdiag_norm < 1.0


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
    reports = []
    for scale in (0, k):
        with pytest.raises(ConvergenceError) as info:
            eig_symmetric(np.ldexp(s, scale))
        reports.append((str(info.value), info.value.offdiag_norm))
    # the cosine figure is dimensionless: the same figure and message at 2^k
    assert reports[1] == reports[0]
    assert reports[0][1] == pytest.approx(_shifted_cosine(s), rel=1e-14)
    assert reports[0][0].startswith(f"largest cosine between rows {reports[0][1]:.3e} still above")


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
    scale = float(np.sqrt(np.sum((r @ r.T) ** 2)))
    for first in (0, 1):
        w = np.hstack((r, np.eye(k)))
        w2 = np.hstack((r @ r.T, np.eye(k)))
        _row_sweep(_row_rounds(w, p), first)
        _reference_sweep(w2, first)
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


def test_row_jacobi_stops_typed_on_rows_with_subnormal_squares():
    # rows scaled by 2^-530 have squared norms and dot products that keep
    # about 14 bits, so the cosine test cannot reach k eps; at 2^-520 it does
    def scaled(k):
        r = np.random.default_rng(0).standard_normal((5, 5))
        r[[1, 3]] = np.ldexp(r[[1, 3]], k)
        return r

    assert _jacobi_rows(scaled(-520))[2] == 4
    r = scaled(-530)
    with pytest.raises(ConvergenceError, match="largest cosine between rows") as info:
        _jacobi_rows(r)
    assert info.value.sweeps == spectral.MAX_SWEEPS == 50
    assert f"{info.value.offdiag_norm:.3e}" == "1.203e-03"
    # no public route reaches the limit: the SVD's Gram-Schmidt drops those rows
    assert svd_reduced(r).rank == 3


def _reference_row_sweeps(r):
    """Sweeps of :func:`_row_sweep`, each from the round parity where the last
    left off, until every pair of prescaled rows has
    ``|r_i . r_j| <= k eps ||r_i|| ||r_j||``, a zero row counting as orthogonal."""
    r = np.ldexp(r, -np.frexp(np.max(np.abs(r)))[1])
    k, p = r.shape
    w = np.hstack((r, np.eye(k)))
    rounds = _row_rounds(w, p)
    sweeps = 0
    while True:
        g = w[:, :p] @ w[:, :p].T
        d = np.sqrt(np.diag(g))
        apart = np.abs(g) > k * np.finfo(float).eps * np.outer(d, d)
        np.fill_diagonal(apart, False)
        if not apart.any():
            return sweeps
        _row_sweep(rounds, sweeps * k % 2)
        sweeps += 1


def test_row_jacobi_takes_the_sweeps_of_the_reference_rule(monkeypatch):
    # on every factor R1 of svd_reduced the kernel sweeps as often as a plain
    # loop of the scaled rule over _row_sweep
    factors = []
    original = factorizations._jacobi_rows

    def spy(r):
        factors.append(r.copy())
        return original(r)

    monkeypatch.setattr(factorizations, "_jacobi_rows", spy)
    for seed in range(3):
        for cond in (1e2, 1e4, 1e5):
            svd_reduced(graded(np.random.default_rng(seed), 80, 60, 60, cond))
        svd_reduced(graded(np.random.default_rng(seed), 40, 60, 20, 1e3))
        svd_reduced(rank_deficient(np.random.default_rng(seed), 20, 30, 7 + seed))
    svd_reduced(kahan(30, 0.3))
    assert len(factors) == 16
    for r in factors:
        sweeps = _jacobi_rows(r)[2]
        assert sweeps == _reference_row_sweeps(r)


def _reference_row_sweep(w, p, first):
    """Reference: one sweep of :func:`_row_sweep` on a single array, with the
    arithmetic of :func:`_rotation` written out.  Each round allocates its
    temporaries, rotates its block of ``w`` into a buffer of its own and
    copies it back; ``w`` is k x (p + k), as :func:`_row_rounds` takes it."""
    k, n = w.shape
    for t in range(k):
        o = (first + t) % 2
        m = (k - o) // 2
        pairs = w[o : o + 2 * m].reshape(m, 2, n)
        r = w[o : o + 2 * m, :p]
        norms = np.vecdot(r, r)
        app, aqq, apq = norms[::2], norms[1::2], np.vecdot(r[::2], r[1::2])
        h = aqq / 2.0 - app / 2.0
        theta = np.arctan2(apq, np.abs(h)) * np.copysign(0.5, h)
        c, s = np.cos(theta), np.sin(theta)
        g = np.empty((m, 2, 2))
        g[:, 0, 0] = s
        g[:, 0, 1] = c
        g[:, 1, 0] = c
        np.negative(s, out=g[:, 1, 1])
        buf = np.empty((m, 2, n))
        np.matmul(g, pairs, out=buf)
        pairs[...] = buf


def _with_reference_sweeps(f, *args):
    """``f(*args)`` with every sweep of the kernel run by :func:`_reference_row_sweep`."""

    def sweep(rounds, first):
        w = rounds[0]
        _reference_row_sweep(w, w.shape[1] - w.shape[0], first)

    with mock.patch.object(spectral, "_row_sweep", sweep):
        return f(*args)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 70),
    extra=st.sampled_from([0, 3]),
    first=st.integers(0, 1),
    scale=st.sampled_from([0, 600, -600]),
    seed=st.integers(0, 2**32 - 1),
    tiny=st.booleans(),
)
def test_double_buffered_rounds_match_the_reference_bit_for_bit(k, extra, first, scale, seed,
                                                                  tiny):
    # one sweep on rows as the kernel's prescale leaves them, largest entry of
    # order 1; with tiny, every other row is scaled by 2^-530, so its squared
    # norm is subnormal and halving it rounds.  Then the whole kernel on the
    # Gaussian rows at the drawn scale.
    p = k + extra
    r = np.random.default_rng(seed).standard_normal((k, p))
    w = np.hstack((r, np.eye(k)))
    if tiny:
        w[1::2, :p] = np.ldexp(w[1::2, :p], -530)
    ref = w.copy()
    _row_sweep(_row_rounds(w, p), first)
    _reference_row_sweep(ref, p, first)
    assert np.array_equal(w, ref)
    r = np.ldexp(r, scale)
    sigma, rot, sweeps = _jacobi_rows(r)
    ref_sigma, ref_rot, ref_sweeps = _with_reference_sweeps(_jacobi_rows, r)
    assert np.array_equal(sigma, ref_sigma)
    assert np.array_equal(rot, ref_rot)
    assert sweeps == ref_sweeps


def _fixture(kind, seed):
    """A graded 80 x 60 (cond 1e1 to 1e4), rank-deficient 20 x 30 or Kahan input."""
    rng = np.random.default_rng(seed)
    if kind == "graded":
        return graded(rng, 80, 60, 60, 10.0 ** (1 + seed % 4))
    if kind == "rank-deficient":
        return rank_deficient(rng, 20, 30, 1 + seed % 20)
    return kahan(2 + seed % 29, 0.3)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["graded", "rank-deficient", "kahan"]),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0, 600, -600]),
)
def test_double_buffered_rounds_leave_svd_and_eig_bit_for_bit(kind, seed, scale):
    x = _fixture(kind, seed)
    s = np.ldexp(x.T @ x, scale)
    x = np.ldexp(x, scale)
    res, ref = svd_reduced(x), _with_reference_sweeps(svd_reduced, x)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    assert (res.rank, res.sweeps) == (ref.rank, ref.sweeps)
    res, ref = eig_symmetric(s), _with_reference_sweeps(eig_symmetric, s)
    assert np.array_equal(res.values, ref.values)
    assert np.array_equal(res.q, ref.q)
    assert (res.sweeps, res.offdiag_norm) == (ref.sweeps, ref.offdiag_norm)


def _zero_rows():
    r = np.random.default_rng(2).standard_normal((7, 9))
    r[[1, 4]] = 0.0
    return r


@pytest.mark.parametrize(
    "r",
    [
        *(graded(np.random.default_rng(0), *shape, 40, cond)
          for shape in ((50, 40), (40, 50)) for cond in (1e2, 1e4, 1e6, 1e8)),
        *(rank_deficient(np.random.default_rng(rank), 20, 30, rank) for rank in range(1, 21)),
        kahan(30, 0.3),
        _zero_rows(),
        *(np.ldexp(graded(np.random.default_rng(1), 30, 40, 30, 1e4), k) for k in (600, -600)),
    ],
    ids=[
        *(f"graded-{shape}-{cond:.0e}" for shape in ("tall", "wide") for cond in (1e2, 1e4, 1e6, 1e8)),
        *(f"rank-{rank}" for rank in range(1, 21)),
        "kahan", "zero-rows", "2^600", "2^-600",
    ],
)
def test_row_jacobi_leaves_every_row_pair_orthogonal_to_k_eps(monkeypatch, r):
    # the rule on the rows the kernel returns from, read off the last Gram
    # matrix it formed: every pair within k eps in cosine, zero rows exempt
    import fourspaces.spectral as spectral

    grams = []
    original = spectral._largest_cosine

    def spy(g):
        grams.append(g.copy())
        return original(g)

    monkeypatch.setattr(spectral, "_largest_cosine", spy)
    sigma, _, sweeps = _jacobi_rows(r)
    assert len(grams) == sweeps + 1
    g, k = grams[-1], r.shape[0]
    d = np.sqrt(np.diag(g))
    for i in range(k):
        for j in range(i + 1, k):
            # 50 rows in R^40 cannot all be orthogonal and nonzero: 10 shrink
            # until their squares underflow, zero rows of R R' and exempt
            if d[i] and d[j]:
                assert abs(g[i, j]) <= k * np.finfo(float).eps * d[i] * d[j], (i, j)
    # sigma is the norms of those rows, scaled back
    e = int(np.frexp(np.max(np.abs(r)))[1])
    assert_allclose(np.ldexp(sigma, -e), np.sort(d)[::-1], rtol=1e-14, atol=0)


def _largest_row_cosine(r):
    rows = r / np.sqrt(np.sum(r * r, axis=1))[:, None]
    cosine = np.abs(rows @ rows.T)
    np.fill_diagonal(cosine, 0.0)
    return cosine.max()


def test_row_jacobi_sweep_cap_is_enforced(monkeypatch):
    import fourspaces.spectral as spectral

    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    r = np.random.default_rng(0).standard_normal((6, 8))
    figures = []
    for k in (0, 600, -600):
        with pytest.raises(ConvergenceError, match="largest cosine between rows") as info:
            _jacobi_rows(np.ldexp(r, k))
        assert info.value.sweeps == 0
        figures.append(info.value.offdiag_norm)
    # the figure the rule tests, the largest |cosine| between two rows, is
    # dimensionless: the same at every power-of-two scale
    assert figures[0] == pytest.approx(_largest_row_cosine(r), rel=1e-14)
    assert figures == [figures[0]] * 3


def test_svd_convergence_error_reports_the_same_figure_at_every_scale(monkeypatch):
    # the figure of R Rt at the prescaled input's scale read 2.201e-01 at
    # every scale; scaling it back by 2^(2e) would overflow at 2^600
    import fourspaces.spectral as spectral

    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    x = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 1.0]])
    messages, figures = [], []
    for k in (0, 600, -600):
        with pytest.raises(ConvergenceError) as info:
            svd_reduced(np.ldexp(x, k))
        messages.append(str(info.value))
        figures.append(info.value.offdiag_norm)
    assert messages == [messages[0]] * 3
    assert messages[0].startswith("largest cosine between rows")
    assert figures == [figures[0]] * 3
    assert 0.0 < figures[0] < 1.0


_SPECTRA = ("random", "pairs", "three-valued", "negative-rank-one", "projector", "graded", "zero")


def _spectral_input(kind, n, rng):
    """A symmetric n x n input of one spectral shape, exactly symmetric."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "negative-rank-one":
        v = rng.standard_normal(n)
        return -np.outer(v, v)
    q = random_orthogonal(rng, n)
    if kind == "projector":
        u = q[:, : int(rng.integers(1, n + 1))]
        s = u @ u.T
    else:
        lam = {
            "random": lambda: rng.standard_normal(n),
            "pairs": lambda: np.outer(rng.uniform(0.5, 2.0, n), [1.0, -1.0]).ravel()[:n],
            "three-valued": lambda: np.resize([2.0, -1.0, 0.5], n),
            "graded": lambda: np.geomspace(1.0, 1e-12, n),
        }[kind]()
        s = (q * lam) @ q.T
    return (s + s.T) / 2.0


@pytest.mark.parametrize("k", [0, 600, -600], ids=["2^0", "2^600", "2^-600"])
@pytest.mark.parametrize("kind", _SPECTRA)
def test_eig_satisfies_its_defining_identity_against_numpy(kind, k):
    # A Q = Q Lambda with Q orthogonal, at rounding level: the kernel's rule
    # is relative, so clustered spectra and projectors are held to the same
    # 10 n eps as the rest.  The figures are read at 2^0, which a power-of-two
    # scaling of the input leaves exact.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(_SPECTRA.index(kind))
    for n in range(1, 41):
        s = _spectral_input(kind, n, rng)
        res = eig_symmetric(np.ldexp(s, k))
        values, q = np.ldexp(res.values, -k), res.q
        scale = np.linalg.norm(s)
        assert np.linalg.norm(s @ q - q * values) <= 10 * n * eps * scale, n
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 10 * n * eps, n
        assert np.all(np.diff(values) <= 0.0), n
        assert np.max(np.abs(values - np.linalg.eigvalsh(s)[::-1])) <= 10 * n * eps * scale, n
