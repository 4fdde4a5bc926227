import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import (
    NonFiniteEntryError,
    NotAGInverseError,
    RankDeficientError,
    ShapeError,
    pivot_rank,
)
from fourspaces.inverses import (
    classify_inverse,
    ginverse_extend,
    left_inverse,
    left_inverse_elementary,
    left_inverse_family,
    pinv_cr,
    pinv_svd,
    rg_canonical,
    rg_sandwich,
    rg_via_gram,
    right_inverse,
    right_inverse_elementary,
    right_inverse_family,
)
from fourspaces.factorizations import cr_decompose
from fourspaces.matrix import DEFAULT_TOL, _prescaled
from support import full_col_rank, full_row_rank, graded, rank_deficient


def _penrose_oracle(x, g):
    """Recompute the four identities directly, no library code involved."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    return (
        np.allclose(x @ g @ x, x, atol=1e-9),
        np.allclose(g @ x @ g, g, atol=1e-9),
        np.allclose((x @ g).T, x @ g, atol=1e-9),
        np.allclose((g @ x).T, g @ x, atol=1e-9),
    )


def test_classify_g_inverse_only():
    x = [[1.0, 0.0], [0.0, 0.0]]
    g = np.eye(2)
    assert _penrose_oracle(x, g) == (True, False, True, True)
    rep = classify_inverse(x, g)
    assert (rep.flags.c1, rep.flags.c2, rep.flags.c3, rep.flags.c4) == (True, False, True, True)
    assert rep.class_label == "g-inverse"
    assert rep.is_left_inverse is False
    assert rep.is_right_inverse is False


def test_classify_reflexive_without_symmetry():
    x = [[1.0, 2.0], [2.0, 4.0]]
    g = [[1.0, 0.0], [0.0, 0.0]]
    assert _penrose_oracle(x, g) == (True, True, False, False)
    rep = classify_inverse(x, g)
    assert rep.class_label == "reflexive-g-inverse"


def test_classify_pseudo_inverse_and_uniqueness():
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    rep = classify_inverse(x, pinv_svd(x), 1e-8)
    assert rep.class_label == "pseudo-inverse"
    assert rep.flags.all_four()


def test_classify_rejects_zero_candidate_for_huge_matrix():
    # an overflowing Frobenius norm once made every threshold infinite
    x = np.random.default_rng(3).standard_normal((6, 4)) * 1e160
    assert classify_inverse(x, np.zeros((4, 6))).class_label == "none"


def test_classify_past_the_top_of_the_float_range_raises_non_finite_entry():
    # ||X||_F = inf (with an overflow warning) once made the zero matrix a
    # pseudo-inverse of X * 5e307
    x = np.random.default_rng(3).standard_normal((6, 4)) * 5e307
    with pytest.raises(NonFiniteEntryError, match="Frobenius norm lies beyond the float range"):
        classify_inverse(x, np.zeros((4, 6)))


def test_classify_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        classify_inverse(np.ones((2, 3)), np.ones((2, 3)))


def test_left_inverse_hand_fixture():
    # oracle: X'X = [2], so (X'X)^-1 X' = [0.5, 0.5]
    out = left_inverse([[1.0], [1.0]])
    assert_allclose(out, [[0.5, 0.5]], atol=1e-12)
    assert_allclose(left_inverse(np.eye(2)), np.eye(2), atol=1e-12)
    with pytest.raises(RankDeficientError):
        left_inverse([[1.0, 2.0], [2.0, 4.0]])


def test_right_inverse_hand_fixture():
    out = right_inverse([[1.0, 1.0]])
    assert_allclose(out, [[0.5], [0.5]], atol=1e-12)
    with pytest.raises(RankDeficientError):
        right_inverse([[1.0], [1.0]])


def test_left_inverse_elementary_fixtures():
    # oracle: eliminating [X | I] by hand leaves the inverse in the top rows
    assert_allclose(left_inverse_elementary([[1.0], [1.0]]), [[1.0, 0.0]], atol=1e-12)
    assert_allclose(left_inverse_elementary([[2.0], [0.0]]), [[0.5, 0.0]], atol=1e-12)


def test_right_inverse_elementary_fixtures():
    assert_allclose(right_inverse_elementary([[1.0, 1.0]]), [[1.0], [0.0]], atol=1e-12)
    assert_allclose(right_inverse_elementary([[2.0, 0.0]]), [[0.5], [0.0]], atol=1e-12)


def test_left_inverse_family_sweeps_members():
    x = [[1.0], [1.0]]
    assert_allclose(left_inverse_family(x), [[1.0, 0.0]], atol=1e-12)
    assert_allclose(left_inverse_family(x, [[0.5]]), [[0.5, 0.5]], atol=1e-12)
    assert_allclose(left_inverse_family(x, [[1.0]]), [[0.0, 1.0]], atol=1e-12)
    with pytest.raises(ShapeError):
        left_inverse_family(x, [[1.0, 2.0]])


def test_right_inverse_family_sweeps_members():
    x = [[1.0, 1.0]]
    assert_allclose(right_inverse_family(x, [[0.5]]), [[0.5], [0.5]], atol=1e-12)
    assert_allclose(right_inverse_family(x, [[1.0]]), [[0.0], [1.0]], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_every_left_route_inverts_from_the_left(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 7))
    n = int(rng.integers(p, 12))
    x = full_col_rank(rng, n, p)
    y = rng.standard_normal((p, n - p))
    for g in (left_inverse(x), left_inverse_elementary(x), left_inverse_family(x, y)):
        assert_allclose(g @ x, np.eye(p), atol=1e-8)
        assert classify_inverse(x, g, 1e-8).is_left_inverse


@pytest.mark.parametrize("seed", range(5))
def test_every_right_route_inverts_from_the_right(seed):
    rng = np.random.default_rng(50 + seed)
    n = int(rng.integers(1, 7))
    p = int(rng.integers(n, 12))
    x = full_row_rank(rng, n, p)
    y = rng.standard_normal((p - n, n))
    for g in (right_inverse(x), right_inverse_elementary(x), right_inverse_family(x, y)):
        assert_allclose(x @ g, np.eye(n), atol=1e-8)
        assert classify_inverse(x, g, 1e-8).is_right_inverse


def test_rg_canonical_tall_fixture_exact():
    # oracle: the two-sided reduction of [[1],[1]] has E1^-1 = [[1,0],[-1,1]],
    # E2^-1 = [1]; with a = [0] the middle is [1 0], giving [1, 0]
    e1_inv = np.array([[1.0, 0.0], [-1.0, 1.0]])
    middle = np.array([[1.0, 0.0]])
    oracle = np.array([[1.0]]) @ middle @ e1_inv
    assert_allclose(oracle, [[1.0, 0.0]], atol=1e-15)
    assert_allclose(rg_canonical([[1.0], [1.0]], a=[[0.0]]), oracle, atol=1e-10)


def test_rg_canonical_rank_one_square():
    # oracle (pivot-free reduction): F1 = [[1,0],[-2,1]], F2 = [[1,-2],[0,1]]
    # give F2 [I 0; 0 0] F1 = [[1,0],[0,0]]; the library pivots differently
    # and lands on another member of the same family, so the fixture checks
    # the defining identities rather than one member's entries
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    f1 = np.array([[1.0, 0.0], [-2.0, 1.0]])
    f2 = np.array([[1.0, -2.0], [0.0, 1.0]])
    assert_allclose(f1 @ x @ f2, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    oracle = f2 @ np.array([[1.0, 0.0], [0.0, 0.0]]) @ f1
    assert_allclose(oracle, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert _penrose_oracle(x, oracle)[:2] == (True, True)

    out = rg_canonical(x)
    assert _penrose_oracle(x, out)[:2] == (True, True)
    assert pivot_rank(out) == 1
    assert classify_inverse(x, out, 1e-8).class_label in ("reflexive-g-inverse", "pseudo-inverse")


@pytest.mark.parametrize("seed", range(6))
def test_rg_canonical_free_blocks_stay_reflexive(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 10)), int(rng.integers(2, 8))
    r = int(rng.integers(1, min(n, p) + 1))
    x = rank_deficient(rng, n, p, r)
    a = rng.standard_normal((r, n - r))
    b = rng.standard_normal((p - r, r))
    g = rg_canonical(x, a, b)
    rep = classify_inverse(x, g, 1e-8)
    assert rep.flags.c1 and rep.flags.c2
    assert pivot_rank(g) == pivot_rank(x)


def test_ginverse_extend_hand_fixture():
    # oracle: g X a X g = 0 here, so the result is g + a = I
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = x.copy()
    a = np.array([[0.0, 0.0], [0.0, 1.0]])
    shift = g @ x @ a @ x @ g
    assert_allclose(shift, np.zeros((2, 2)), atol=1e-15)
    out = ginverse_extend(x, g, a)
    assert_allclose(out, np.eye(2), atol=1e-12)
    assert _penrose_oracle(x, out)[0] is np.True_ or _penrose_oracle(x, out)[0] is True


def test_ginverse_extend_preserves_identity_for_random_directions():
    rng = np.random.default_rng(9)
    x = rank_deficient(rng, 6, 4, 2)
    g = pinv_svd(x)
    for _ in range(4):
        a = rng.standard_normal((4, 6))
        out = ginverse_extend(x, g, a)
        assert classify_inverse(x, out, 1e-8).flags.c1


def test_ginverse_extend_rejects_non_inverse():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotAGInverseError):
        ginverse_extend(x, [[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))


def test_rg_sandwich_hand_fixture():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    g1 = np.eye(2)
    g2 = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert _penrose_oracle(x, g2)[0]
    out = rg_sandwich(x, g1, g2)
    assert_allclose(out, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)
    assert _penrose_oracle(x, out)[:2] == (True, True)


def test_rg_sandwich_random_pairs_are_reflexive():
    rng = np.random.default_rng(13)
    x = rank_deficient(rng, 7, 5, 3)
    base = pinv_svd(x)
    g1 = ginverse_extend(x, base, rng.standard_normal((5, 7)))
    g2 = ginverse_extend(x, base, rng.standard_normal((5, 7)))
    rep = classify_inverse(x, rg_sandwich(x, g1, g2), 1e-8)
    assert rep.flags.c1 and rep.flags.c2


def test_rg_via_gram_hand_fixtures():
    out = rg_via_gram([[1.0], [1.0]], [[0.5]])
    assert_allclose(out, [[0.5, 0.5]], atol=1e-12)
    # oracle: Gram = [[5,10],[10,20]], candidate [[0.2,0],[0,0]] passes the
    # identity and candidate @ X' = [[0.2,0.4],[0,0]]
    gram = np.array([[5.0, 10.0], [10.0, 20.0]])
    cand = np.array([[0.2, 0.0], [0.0, 0.0]])
    assert_allclose(gram @ cand @ gram, gram, atol=1e-12)
    out = rg_via_gram([[1.0, 2.0], [2.0, 4.0]], cand)
    assert_allclose(out, [[0.2, 0.4], [0.0, 0.0]], atol=1e-12)


def test_rg_via_gram_rejects_bad_candidate():
    with pytest.raises(NotAGInverseError):
        rg_via_gram([[1.0], [1.0]], [[3.0]])


def test_rg_via_gram_random_candidates_are_reflexive():
    rng = np.random.default_rng(23)
    x = rank_deficient(rng, 6, 4, 2)
    gram_pinv = pinv_svd(x.T @ x)
    for _ in range(3):
        cand = ginverse_extend(x.T @ x, gram_pinv, rng.standard_normal((4, 4)))
        rep = classify_inverse(x, rg_via_gram(x, cand), 1e-7)
        assert rep.flags.c1 and rep.flags.c2


def test_pinv_svd_hand_fixture():
    # oracle for a rank-one matrix: X+ = X' / sigma^2
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    oracle = x.T / 25.0
    assert_allclose(oracle, [[0.04, 0.08], [0.08, 0.16]], atol=1e-15)
    assert_allclose(pinv_svd(x), oracle, atol=1e-10)


def test_pinv_cr_hand_fixtures():
    # oracle: C = (1,2)', R = (1,2); R'(RR')^-1 (C'C)^-1 C' recomputed by hand
    c = np.array([[1.0], [2.0]])
    r = np.array([[1.0, 2.0]])
    oracle = r.T @ np.linalg.inv(r @ r.T) @ np.linalg.inv(c.T @ c) @ c.T
    assert_allclose(oracle, [[0.04, 0.08], [0.08, 0.16]], atol=1e-12)
    assert_allclose(pinv_cr([[1.0, 2.0], [2.0, 4.0]]), oracle, atol=1e-10)
    assert_allclose(pinv_cr([[1.0], [1.0]]), [[0.5, 0.5]], atol=1e-12)


def test_pinv_zero_matrix():
    assert np.array_equal(pinv_svd(np.zeros((2, 3))), np.zeros((3, 2)))
    assert np.array_equal(pinv_cr(np.zeros((2, 3))), np.zeros((3, 2)))


@pytest.mark.parametrize(
    "scale", [1e-310, 2.0**-1030, 2.0**-1040], ids=["1e-310", "2^-1030", "2^-1040"]
)
def test_pinv_svd_past_the_float_range_raises_without_a_warning(scale):
    # 1/sigma overflowed to inf ("overflow encountered in divide") and the
    # product then met inf * 0 ("invalid value encountered in matmul");
    # RuntimeWarning is an error under pytest
    x = np.random.default_rng(3).standard_normal((6, 4)) * scale
    with pytest.raises(NonFiniteEntryError, match="pseudo inverse lies beyond the float range"):
        pinv_svd(x)


@pytest.mark.parametrize(
    "scale", [1e-310, 2.0**-1030, 2.0**-1040], ids=["1e-310", "2^-1030", "2^-1040"]
)
def test_prescaled_inverses_past_the_float_range_raise_typed(scale):
    # each scaled its answer back with a bare np.ldexp, which warned
    # "overflow encountered in ldexp" and returned inf entries
    x = np.random.default_rng(3).standard_normal((6, 4)) * scale
    cases = ((left_inverse, x, "left inverse"), (right_inverse, x.T, "right inverse"),
             (pinv_cr, x, "pseudo inverse"), (pinv_cr, x.T, "pseudo inverse"))
    for route, arg, what in cases:
        with pytest.raises(NonFiniteEntryError, match=f"the {what} lies beyond the float range"):
            route(arg)


def test_pinv_svd_inside_the_float_range_where_one_over_sigma_is_not():
    # X = 2^-1025 H with H a 4 x 4 Hadamard matrix: every sigma is 2^-1024,
    # so 1/sigma overflows, yet X^+ = H' / (4 * 2^-1025) = 2^1023 H' is finite
    h = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                  [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
    g = pinv_svd(np.ldexp(h, -1025))
    assert_allclose(np.ldexp(g, -1023), h.T, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "x, inverts",
    [
        (graded(np.random.default_rng(1), 80, 60, 60, 1e3), 1),
        (graded(np.random.default_rng(2), 30, 30, 30, 1e4), 1),
        (np.eye(4), 1),
        (np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]), 1),
        (graded(np.random.default_rng(3), 60, 80, 60, 1e2), 2),
        (rank_deficient(np.random.default_rng(4), 8, 6, 3), 2),
        (np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 2),
    ],
    ids=["tall", "square", "identity", "integer", "wide", "deficient", "integer-wide"],
)
def test_pinv_cr_skips_the_identity_at_full_column_rank(monkeypatch, x, inverts):
    # at full column rank the echelon rows are exactly I, so R'(RR')^-1 is I
    # and the shortcut is the general formula, bit for bit
    import fourspaces.inverses as inverses

    calls = []
    original = inverses.invert

    def spy(a, tol):
        calls.append(a.shape)
        return original(a, tol)

    monkeypatch.setattr(inverses, "invert", spy)
    g = pinv_cr(x)
    assert len(calls) == inverts
    xs, e = _prescaled(x)
    factors = cr_decompose(xs)
    c, rf = factors.c, factors.r_factor
    if inverts == 1:
        assert np.array_equal(rf, np.eye(x.shape[1]))
    general = rf.T @ original(rf @ rf.T, DEFAULT_TOL) @ original(c.T @ c, DEFAULT_TOL) @ c.T
    assert np.array_equal(g, np.ldexp(general, -e))
    assert np.array_equal(np.signbit(g), np.signbit(np.ldexp(general, -e)))


@pytest.mark.parametrize("seed", range(6))
def test_pinv_routes_agree_and_are_penrose(seed):
    rng = np.random.default_rng(seed)
    regime = seed % 3
    if regime == 0:
        x = full_col_rank(rng, 9, 5)
    elif regime == 1:
        x = full_row_rank(rng, 4, 9)
    else:
        x = rank_deficient(rng, 8, 6, 3)
    gs = pinv_svd(x)
    gc = pinv_cr(x)
    scale = max(1.0, float(np.abs(gs).max()))
    assert_allclose(gs, gc, atol=1e-8 * scale)
    assert_allclose(gs, np.linalg.pinv(x), atol=1e-8 * scale)
    assert classify_inverse(x, gs, 1e-8).flags.all_four()
    assert classify_inverse(x, gc, 1e-8).flags.all_four()


def test_pinv_degenerates_to_sided_and_true_inverses():
    rng = np.random.default_rng(31)
    tall = full_col_rank(rng, 8, 4)
    assert_allclose(pinv_svd(tall), left_inverse(tall), atol=1e-8)
    wide = full_row_rank(rng, 3, 7)
    assert_allclose(pinv_svd(wide), right_inverse(wide), atol=1e-8)
    square = full_col_rank(rng, 5, 5)
    assert_allclose(pinv_svd(square) @ square, np.eye(5), atol=1e-7)


def test_c1_and_rank_match_imply_c2_both_directions():
    # one direction: a C1 candidate with inflated rank cannot satisfy C2
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = classify_inverse(x, np.eye(2))
    assert rep.flags.c1 and not rep.flags.c2
    assert pivot_rank(np.eye(2)) > pivot_rank(x)
    # other direction: rank-matched C1 candidates do satisfy C2
    rng = np.random.default_rng(41)
    xr = rank_deficient(rng, 6, 5, 2)
    g = rg_canonical(xr, rng.standard_normal((2, 4)), rng.standard_normal((3, 2)))
    rep = classify_inverse(xr, g, 1e-8)
    assert pivot_rank(g) == pivot_rank(xr)
    assert rep.flags.c1 and rep.flags.c2


def test_free_block_errors_keep_their_messages():
    tall = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    deficient = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    cases = [
        (lambda: left_inverse_family(tall, np.zeros((1, 2))), "free block must be 2x1, got (1, 2)"),
        (lambda: left_inverse_family(tall, [[np.nan], [0.0]]), "free block contains non-finite entries"),
        (lambda: right_inverse_family(tall.T, np.zeros((2, 1))), "free block must be 1x2, got (2, 1)"),
        (lambda: right_inverse_family(tall.T, [[np.inf, 0.0]]), "free block contains non-finite entries"),
        (lambda: rg_canonical(deficient, np.zeros((2, 1))), "block a must be 1x2, got (2, 1)"),
        (lambda: rg_canonical(deficient, None, np.zeros((2, 1))), "block b must be 1x1, got (2, 1)"),
        (lambda: rg_canonical(deficient, [[0.0, np.nan]]), "block a contains non-finite entries"),
        (lambda: rg_canonical(deficient, None, [[-np.inf]]), "block b contains non-finite entries"),
    ]
    for call, message in cases:
        with pytest.raises(ShapeError) as info:
            call()
        assert str(info.value) == message


def test_ginverse_operand_errors_keep_their_messages():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = np.linalg.pinv(x)
    cases = [
        (lambda: ginverse_extend(x, g.T, g), ShapeError, "g-inverse must be 2x3, got (3, 2)"),
        (lambda: ginverse_extend(x, g, g[:1]), ShapeError, "direction must be 2x3, got (1, 3)"),
        (lambda: rg_sandwich(x, g.T, g), ShapeError, "first g-inverse must be 2x3, got (3, 2)"),
        (lambda: rg_sandwich(x, g, g.T), ShapeError, "second g-inverse must be 2x3, got (3, 2)"),
        (lambda: rg_via_gram(x, g), ShapeError, "gram g-inverse must be 2x2, got (2, 3)"),
        (
            lambda: ginverse_extend(x, g, np.full((2, 3), np.nan)),
            NonFiniteEntryError,
            "direction contains NaN or infinite entries",
        ),
        (
            lambda: rg_via_gram(x, [[np.inf, 0.0], [0.0, 1.0]]),
            NonFiniteEntryError,
            "gram g-inverse contains NaN or infinite entries",
        ),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "scale", [1e160, 1e-200, 2.0**600, 2.0**-600], ids=["1e160", "1e-200", "2^600", "2^-600"]
)
def test_normal_route_inverses_are_scale_safe(scale):
    # X'X and XX' overflowed or underflowed here before the prescale
    x = np.random.default_rng(3).standard_normal((6, 4))
    assert_allclose(left_inverse(x * scale) * scale, left_inverse(x), rtol=1e-12)
    assert_allclose(right_inverse(x.T * scale) * scale, right_inverse(x.T), rtol=1e-12)


def test_rg_via_gram_applies_the_penrose_threshold_to_the_gram_matrix():
    # X'X = [[2]]: the candidate 1/2 is exact, and one just outside the
    # threshold tol * max(1, ||X'X||, ||G||) = 2e-10 is refused
    x = [[1.0], [1.0]]
    assert_allclose(rg_via_gram(x, [[0.5]]), [[0.5, 0.5]])
    with pytest.raises(NotAGInverseError, match="candidate for the Gram matrix fails"):
        rg_via_gram(x, [[0.5 + 1e-10]])
    rg_via_gram(x, [[0.5 + 2e-11]])
