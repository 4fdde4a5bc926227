"""Least-squares solvers, the observation split, and projector laws."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import (
    InconsistentSystemError,
    NonFiniteEntryError,
    RankDeficientError,
    ShapeError,
    Tolerance,
    consistent_unique_solve,
    fundamental_bases,
    ls_normal,
    ls_svd_minnorm,
    observation_split,
    pinv_svd,
    projector_column,
    projector_diagnostics,
    projector_row,
    right_solve,
)
from fourspaces.inverses import left_inverse_family

from support import full_col_rank, full_row_rank, kahan, rank_deficient


def normal_equation_oracle(x, y):
    """Solve (X^T X) beta = X^T y with the generic linear solver."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(x.T @ x, x.T @ y)


# ---------------------------------------------------------------------------
# ls_normal


def test_ls_normal_identity_passes_y_through():
    sol = ls_normal(np.eye(2), [3.0, 4.0])
    assert np.allclose(sol.beta_hat, [3.0, 4.0])
    assert np.allclose(sol.residual, 0.0)
    assert sol.rank_used == 2
    assert sol.method == "normal"


def test_ls_normal_column_of_ones_hand_case():
    # X = [[1],[1]], y = (1,3): the normal equation is 2*beta = 4.
    x = np.array([[1.0], [1.0]])
    y = np.array([1.0, 3.0])
    oracle = normal_equation_oracle(x, y)
    assert np.allclose(oracle, [2.0])
    sol = ls_normal(x, y)
    assert np.allclose(sol.beta_hat, oracle, atol=1e-10)
    assert np.allclose(sol.y_hat, [2.0, 2.0], atol=1e-10)
    assert np.allclose(sol.residual, [-1.0, 1.0], atol=1e-10)
    assert sol.residual_norm == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_ls_normal_consistent_overdetermined_system():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 1.0, 2.0])
    sol = ls_normal(x, y)
    assert np.allclose(sol.beta_hat, [1.0, 1.0], atol=1e-10)
    assert sol.residual_norm <= 1e-10


def test_ls_normal_rejects_rank_deficiency_pointing_at_minnorm():
    with pytest.raises(RankDeficientError, match="ls_svd_minnorm"):
        ls_normal(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])


def test_ls_normal_rejects_wrong_length_y():
    with pytest.raises(ShapeError):
        ls_normal(np.eye(3), [1.0, 2.0])


# ---------------------------------------------------------------------------
# ls_svd_minnorm


def test_minnorm_zero_matrix_returns_zero_estimate():
    y = np.array([1.0, -2.0, 3.0])
    sol = ls_svd_minnorm(np.zeros((3, 2)), y)
    assert np.array_equal(sol.beta_hat, np.zeros(2))
    assert np.array_equal(sol.y_hat, np.zeros(3))
    assert np.array_equal(sol.residual, y)
    assert sol.rank_used == 0
    assert sol.method == "svd-minnorm"


def test_minnorm_single_row_picks_smallest_point_on_the_line():
    # X = [1,1], y = 2: pinv is [0.5, 0.5]^T, so beta = (1,1).
    x = np.array([[1.0, 1.0]])
    pinv_oracle = x.T / float((x @ x.T)[0, 0])
    assert np.allclose(pinv_oracle, [[0.5], [0.5]])
    sol = ls_svd_minnorm(x, [2.0])
    assert np.allclose(sol.beta_hat, pinv_oracle @ np.array([2.0]), atol=1e-10)
    assert np.allclose(sol.beta_hat, [1.0, 1.0], atol=1e-10)
    assert sol.residual_norm <= 1e-10


def test_minnorm_matches_normal_equation_on_the_ones_column():
    x = np.array([[1.0], [1.0]])
    y = np.array([1.0, 3.0])
    a = ls_normal(x, y)
    b = ls_svd_minnorm(x, y)
    assert np.allclose(a.beta_hat, b.beta_hat, atol=1e-10)
    assert np.allclose(a.y_hat, b.y_hat, atol=1e-10)


def test_solvers_agree_on_random_full_column_rank():
    rng = np.random.default_rng(4101)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, n + 1))
        x = full_col_rank(rng, n, p)
        y = rng.standard_normal(n)
        a = ls_normal(x, y)
        b = ls_svd_minnorm(x, y)
        assert np.allclose(a.beta_hat, b.beta_hat, atol=1e-7)
        assert a.rank_used == b.rank_used == p


def test_residual_is_orthogonal_to_the_column_space():
    rng = np.random.default_rng(4102)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        p = int(rng.integers(1, 10))
        r = int(rng.integers(0, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r) if r else np.zeros((n, p))
        y = rng.standard_normal(n)
        sol = ls_svd_minnorm(x, y)
        scale = np.sqrt(np.sum(x * x)) * np.linalg.norm(y)
        assert np.linalg.norm(x.T @ sol.residual) <= 1e-8 * max(1.0, scale)


def test_minnorm_estimate_lives_in_the_row_space():
    rng = np.random.default_rng(4103)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r)
        y = rng.standard_normal(n)
        sol = ls_svd_minnorm(x, y)
        rb = fundamental_bases(x).row_space
        back = rb @ (rb.T @ sol.beta_hat)
        assert np.allclose(back, sol.beta_hat, atol=1e-8)


def test_minnorm_pythagoras_against_null_space_shifts():
    rng = np.random.default_rng(4104)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, p)))
        x = rank_deficient(rng, n, p, r)
        y = rng.standard_normal(n)
        sol = ls_svd_minnorm(x, y)
        nb = fundamental_bases(x).null_space
        assert nb.shape[1] > 0
        shift = nb @ rng.standard_normal(nb.shape[1])
        lhs = np.linalg.norm(sol.beta_hat + shift) ** 2
        rhs = np.linalg.norm(sol.beta_hat) ** 2 + np.linalg.norm(shift) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-7)
        assert np.linalg.norm(sol.beta_hat) <= np.linalg.norm(sol.beta_hat + shift) + 1e-12


def test_pinv_maps_y_and_y_hat_to_the_same_estimate():
    rng = np.random.default_rng(4105)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r)
        y = rng.standard_normal(n)
        sol = ls_svd_minnorm(x, y)
        g = pinv_svd(x)
        assert np.allclose(g @ y, sol.beta_hat, atol=1e-8)
        assert np.allclose(g @ sol.y_hat, sol.beta_hat, atol=1e-8)


def test_row_space_round_trip_through_solve_and_pinv():
    rng = np.random.default_rng(4106)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r)
        rb = fundamental_bases(x).row_space
        beta_plus = rb @ rng.standard_normal(r)
        assert np.allclose(pinv_svd(x) @ (x @ beta_plus), beta_plus, atol=1e-8)


def test_split_reconstructs_y_exactly_on_hand_fixtures():
    x = np.array([[1.0], [1.0]])
    y = np.array([1.0, 3.0])
    sol = ls_svd_minnorm(x, y)
    assert np.array_equal(sol.y_hat + sol.residual, y)


# ---------------------------------------------------------------------------
# observation_split


def test_observation_split_hand_projection():
    y_hat, e = observation_split(np.array([[1.0], [1.0]]), [1.0, 3.0])
    assert np.allclose(y_hat, [2.0, 2.0], atol=1e-10)
    assert np.allclose(e, [-1.0, 1.0], atol=1e-10)


def test_observation_split_fixes_column_space_vectors():
    rng = np.random.default_rng(4107)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(1, 8))
        x = rng.standard_normal((n, p))
        y = x @ rng.standard_normal(p)
        y_hat, e = observation_split(x, y)
        assert np.allclose(y_hat, y, atol=1e-8 * max(1.0, np.linalg.norm(y)))
        assert np.linalg.norm(e) <= 1e-8 * max(1.0, np.linalg.norm(y))


def test_observation_split_residual_in_left_null_space():
    rng = np.random.default_rng(4108)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r)
        y = rng.standard_normal(n)
        y_hat, e = observation_split(x, y)
        scale = max(1.0, np.sqrt(np.sum(x * x)) * np.linalg.norm(y))
        assert np.linalg.norm(x.T @ e) <= 1e-8 * scale
        assert np.linalg.norm(pinv_svd(x) @ e) <= 1e-8 * scale
        assert np.allclose(y_hat + e, y)


def test_observation_split_zero_matrix_sends_everything_to_residual():
    y = np.array([2.0, -5.0])
    y_hat, e = observation_split(np.zeros((2, 3)), y)
    assert np.array_equal(y_hat, np.zeros(2))
    assert np.array_equal(e, y)


# ---------------------------------------------------------------------------
# projectors


def test_projectors_of_identity_are_identity():
    assert np.allclose(projector_column(np.eye(2)), np.eye(2), atol=1e-10)
    assert np.allclose(projector_row(np.eye(2)), np.eye(2), atol=1e-10)


def test_column_projector_of_ones_column():
    h = projector_column(np.array([[1.0], [1.0]]))
    assert np.allclose(h, [[0.5, 0.5], [0.5, 0.5]], atol=1e-10)
    p = projector_row(np.array([[1.0], [1.0]]))
    assert np.allclose(p, [[1.0]], atol=1e-10)


def test_column_projector_of_rank_one_matrix():
    # Columns span the line through (1,2); the projector is u u^T.
    u = np.array([1.0, 2.0]) / np.sqrt(5.0)
    oracle = np.outer(u, u)
    assert np.allclose(oracle, [[0.2, 0.4], [0.4, 0.8]])
    h = projector_column(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert np.allclose(h, oracle, atol=1e-10)


def test_projector_laws_on_random_matrices():
    rng = np.random.default_rng(4109)
    for _ in range(15):
        n = int(rng.integers(1, 10))
        p = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r) if r else np.zeros((n, p))
        for proj, dim in ((projector_column(x), n), (projector_row(x), p)):
            assert np.linalg.norm(proj @ proj - proj) <= 1e-8 * max(1.0, r)
            assert np.linalg.norm(proj - proj.T) <= 1e-8 * max(1.0, r)
            assert abs(np.trace(proj) - r) <= 1e-6


def test_projector_diagnostics_on_the_half_matrix():
    rep = projector_diagnostics(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert rep.idempotent
    assert rep.symmetric
    assert rep.trace == pytest.approx(1.0, abs=1e-12)
    assert rep.rank == 1
    assert rep.spectrum_binary is True
    assert rep.idempotency == 0.0 and rep.symmetry == 0.0


def test_projector_diagnostics_identity():
    rep = projector_diagnostics(np.eye(3))
    assert rep.idempotent and rep.symmetric and rep.spectrum_binary
    assert rep.trace == pytest.approx(3.0)
    assert rep.rank == 3


def test_projector_diagnostics_flags_non_projector():
    # [[1,1],[0,1]] squares to [[1,2],[0,1]], so it is not idempotent.
    rep = projector_diagnostics(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not rep.idempotent
    assert not rep.symmetric
    assert rep.spectrum_binary is None
    # the defects behind the flags: ||P^2 - P|| = ||[[0,1],[0,0]]||, ||P - P'|| = sqrt(2)
    assert rep.idempotency == 1.0
    assert rep.symmetry == pytest.approx(math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("k", [0, -40])
def test_projector_diagnostics_reads_the_same_below_unit_scale(k):
    # bands that never fell below tol once made 2^-40 [[1, 1], [0, 1]] a symmetric
    # idempotent with a binary spectrum, and 2^-40 I a projector
    rep = projector_diagnostics(np.ldexp([[1.0, 1.0], [0.0, 1.0]], k))
    assert not rep.idempotent and not rep.symmetric and rep.spectrum_binary is None
    rep = projector_diagnostics(np.ldexp(np.eye(3), k))
    assert rep.symmetric
    assert (rep.idempotent, rep.spectrum_binary) == (k == 0, k == 0)


@pytest.mark.parametrize("k", [-600, -300, 0, 300, 600, 1023])
def test_projector_idempotency_band_is_in_the_unit_of_p(k):
    # a band of 100 tol ||P||_F^2 grew past any defect above unit scale and
    # called the nilpotent 2^k [[0, 1], [0, 0]] (P^2 = 0) idempotent from k = 300
    nilpotent = projector_diagnostics(np.ldexp([[0.0, 1.0], [0.0, 0.0]], k))
    assert not nilpotent.idempotent
    assert nilpotent.idempotency == np.ldexp(1.0, k)
    oblique = projector_diagnostics(np.array([[1.0, np.ldexp(1.0, k)], [0.0, 0.0]]))
    assert oblique.idempotent and oblique.idempotency == 0.0


def test_projector_diagnostics_requires_square_input():
    with pytest.raises(ShapeError):
        projector_diagnostics(np.ones((2, 3)))


def test_projector_diagnostics_accepts_library_projectors():
    rng = np.random.default_rng(4110)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, p) + 1))
        x = rank_deficient(rng, n, p, r)
        rep = projector_diagnostics(projector_column(x))
        assert rep.idempotent
        assert rep.symmetric
        assert rep.spectrum_binary is True
        assert rep.rank == r
        assert rep.trace == pytest.approx(r, abs=1e-6)


def test_projectors_of_kahans_matrix_pass_their_own_audit():
    # X^+ X through 1/sigma had idempotency 1.7e-6 and symmetry 2.4e-6 here,
    # so the library's own row projector failed the audit; V_r V_r' is exact
    # to the orthonormality of V_r
    x = kahan(20, 0.3)
    for proj in (projector_column(x), projector_row(x)):
        rep = projector_diagnostics(proj)
        assert rep.idempotent and rep.symmetric and rep.spectrum_binary is True
        assert rep.symmetry == 0.0
        assert rep.rank == 16
        assert rep.trace == pytest.approx(16.0, abs=1e-9)


# ---------------------------------------------------------------------------
# consistent_unique_solve


def test_unique_solve_identity_is_trivially_consistent():
    sol = consistent_unique_solve(np.eye(2), [7.0, -1.0])
    assert np.allclose(sol.beta_hat, [7.0, -1.0], atol=1e-10)
    assert sol.method == "unique-consistent"


def test_unique_solve_accepts_y_in_the_column_space():
    sol = consistent_unique_solve(np.array([[1.0], [1.0]]), [2.0, 2.0])
    assert np.allclose(sol.beta_hat, [2.0], atol=1e-10)
    assert sol.residual_norm <= 1e-10


def test_unique_solve_rejects_y_off_the_column_space():
    # Projection of (1,3) onto span{(1,1)} is (2,2); the gap has norm sqrt(2).
    with pytest.raises(InconsistentSystemError) as excinfo:
        consistent_unique_solve(np.array([[1.0], [1.0]]), [1.0, 3.0])
    assert excinfo.value.residual_norm == pytest.approx(np.sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("scale", [1e-200, 2.0**-600], ids=["1e-200", "2^-600"])
def test_unique_solve_rejects_y_off_the_column_space_at_tiny_scale(scale):
    # X'X underflowed here before the prescale; with it, a band floored at
    # max(1, ||y||) waved the whole of y through as rounding
    x = np.random.default_rng(3).standard_normal((6, 4))
    y = x @ np.arange(1.0, 5.0) + fundamental_bases(x).left_null_space[:, 0]
    with pytest.raises(InconsistentSystemError):
        consistent_unique_solve(x * scale, y * scale)
    sol = consistent_unique_solve(x * scale, (x @ np.arange(1.0, 5.0)) * scale)
    assert_allclose(sol.beta_hat, np.arange(1.0, 5.0), rtol=1e-12)


def test_unique_solve_requires_full_column_rank():
    with pytest.raises(RankDeficientError):
        consistent_unique_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 2.0])


def test_unique_solve_verdict_is_family_independent():
    # Every left inverse must agree on consistency, not just the
    # normal-equation one the solver happens to use.
    rng = np.random.default_rng(4111)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, n))
        x = full_col_rank(rng, n, p)
        w = rng.standard_normal(p)
        consistent = x @ w
        lnb = fundamental_bases(x).left_null_space
        off = consistent + lnb @ (1.0 + np.abs(rng.standard_normal(lnb.shape[1])))
        for _ in range(3):
            g = left_inverse_family(x, rng.standard_normal((p, n - p)))
            gap_ok = np.linalg.norm(consistent - x @ (g @ consistent))
            gap_bad = np.linalg.norm(off - x @ (g @ off))
            assert gap_ok <= 1e-8 * max(1.0, np.linalg.norm(consistent))
            assert gap_bad > 1e-6


# ---------------------------------------------------------------------------
# right_solve


def test_right_solve_identity():
    sol = right_solve(np.eye(2), [5.0, 6.0])
    assert np.allclose(sol.beta_hat, [5.0, 6.0], atol=1e-10)
    assert sol.method == "right-inverse"


def test_right_solve_single_row_hand_case():
    sol = right_solve(np.array([[1.0, 1.0]]), [2.0])
    assert np.allclose(sol.beta_hat, [1.0, 1.0], atol=1e-10)
    assert sol.residual_norm <= 1e-10


def test_right_solve_selector_rows_pad_with_zero():
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    sol = right_solve(x, [3.0, -4.0])
    assert np.allclose(sol.beta_hat, [3.0, -4.0, 0.0], atol=1e-10)


def test_right_solve_hits_any_y_exactly():
    rng = np.random.default_rng(4112)
    for _ in range(15):
        p = int(rng.integers(2, 10))
        n = int(rng.integers(1, p + 1))
        x = full_row_rank(rng, n, p)
        y = rng.standard_normal(n)
        sol = right_solve(x, y)
        assert sol.residual_norm <= 1e-8 * max(1.0, np.linalg.norm(y))
        assert sol.rank_used == n


def test_right_solve_requires_full_row_rank():
    with pytest.raises(RankDeficientError):
        right_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 2.0])


# ---------------------------------------------------------------------------
# tolerance plumbing


def test_loose_tolerance_reaches_the_rank_decision():
    # With a loose relative tolerance the small second singular value is
    # dropped, so the normal-equation route refuses the same matrix.
    x = np.array([[1.0, 0.0], [0.0, 1e-4], [0.0, 0.0]])
    assert ls_normal(x, [1.0, 1.0, 1.0]).rank_used == 2
    with pytest.raises(RankDeficientError):
        ls_normal(x, [1.0, 1.0, 1.0], tol=Tolerance(1e-2))


@pytest.mark.parametrize("solver", [ls_normal, consistent_unique_solve])
def test_solvers_reduce_x_once(monkeypatch, solver):
    # left_inverse inverts the Gram matrix first, so a full-rank call runs
    # one reduction, of the Gram matrix inside invert; only a failed
    # inversion reduces x, to name the rank deficiency.  Every reduction
    # runs the one elimination loop; a call is recorded by the shape of the
    # n x p array it reduces
    import fourspaces.matrix as matrix

    calls = []
    original = matrix._eliminate

    def counted(work, tol):
        calls.append(work.shape)
        return original(work, tol)

    monkeypatch.setattr(matrix, "_eliminate", counted)
    rng = np.random.default_rng(8)
    x = full_col_rank(rng, 7, 4)
    sol = solver(x, x @ rng.standard_normal(4))
    assert calls == [(4, 4)]
    assert sol.rank_used == 4
    calls.clear()
    with pytest.raises(RankDeficientError, match="ls_svd_minnorm for the rank-deficient case"):
        solver(rank_deficient(rng, 7, 4, 2), rng.standard_normal(7))
    assert calls == [(4, 4), (7, 4)]


@pytest.mark.parametrize("k", [-1060, -1076])
def test_minnorm_estimate_past_the_float_range_raises_non_finite_entry(k):
    # at 2^-1060, u'y / sigma overflows; at 2^-1076 an accepted sigma scales
    # back to 0.0.  Both used to divide with a warning
    x = np.ldexp(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), k)
    with pytest.raises(NonFiniteEntryError, match="^the estimate lies beyond the float range$"):
        ls_svd_minnorm(x, np.ones(4))
