import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourspaces import (
    MatrixError,
    NonFiniteEntryError,
    NotAGInverseError,
    RankDeficientError,
    ShapeError,
    SingularMatrixError,
    frobenius_norm,
    invert,
    matmul,
    pivot_rank,
    rref_cols,
    rref_rows,
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
from fourspaces.matrix import DEFAULT_TOL, _as_tolerance, _in_range, _prescaled, as_matrix
from support import full_col_rank, full_row_rank, graded, kahan, rank_deficient


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


@pytest.mark.parametrize("k", [0, -40])
def test_classify_rejects_zero_candidate_below_unit_scale(k):
    # a threshold floored at tol once passed every residual of X * 2^-40
    x = np.ldexp(np.random.default_rng(3).standard_normal((6, 4)), k)
    rep = classify_inverse(x, np.zeros((4, 6)))
    assert rep.class_label == "none"
    assert not rep.flags.c1


@pytest.mark.parametrize("k", [0, 600, -600])
def test_one_sided_flags_read_the_same_at_every_scale(k):
    # ||GX - I|| has no unit; against a bound growing with ||X|| or ||G||
    # the pinv of a tall X at 2^600 read as a left and a right inverse
    rng = np.random.default_rng(3)
    tall, square = (np.ldexp(rng.standard_normal(shape), k) for shape in ((6, 4), (4, 4)))
    for x, sides in ((tall, (True, False)), (tall.T, (False, True))):
        rep = classify_inverse(x, pinv_svd(x))
        assert (rep.is_left_inverse, rep.is_right_inverse) == sides
    rep = classify_inverse(square, invert(square))
    assert rep.is_left_inverse and rep.is_right_inverse


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


def _rank_two_sandwich_case():
    # X+ + (I - X+X)U and X+ + V(I - XX+) are g-inverses of X; with U = V =
    # 1e200 their sandwich g1 X g2 reaches 1e400
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    p, u = pinv_svd(x), np.full((4, 5), 1e200)
    return rg_sandwich(x, p + (np.eye(4) - p @ x) @ u, p + u @ (np.eye(5) - x @ p))


def _rank_two_canonical_case():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    return rg_canonical(x, np.full((2, 4), 1e200), np.full((3, 2), 1e200))


@pytest.mark.parametrize(
    "build, what",
    [
        (_rank_two_canonical_case, "the reflexive g-inverse"),
        (_rank_two_sandwich_case, "the reflexive g-inverse"),
        (lambda: matmul(np.full((2, 2), 1e308), np.ones((2, 2))), "the product"),
        # a valid g-inverse of the Gram diag(1e20, 0), whose G X' reaches 1e310
        (lambda: rg_via_gram([[1e10, 0.0], [0.0, 0.0]], [[1e-20, 0.0], [1e300, 0.0]]),
         "the reflexive g-inverse"),
    ],
    ids=["rg_canonical", "rg_sandwich", "matmul", "rg_via_gram"],
)
def test_a_product_past_the_float_range_is_named_with_no_warning(build, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntryError, match=f"^{what} lies beyond the float range$"):
            build()


def test_ginverse_extend_is_finite_wherever_its_answer_is():
    # h(X, G, A) = G + A - GXAXG.  GX and XG do not change when X is scaled
    # by 2^k and G by 2^-k, so h(2^k X, 2^-k G, A) = h(X, G, A) + (2^-k - 1)G;
    # with A at 2^600 the product left to right reaches 2^1100 at k = 500
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    g, a = pinv_svd(x), np.ldexp(rng.standard_normal((4, 6)), 600)
    h = ginverse_extend(x, g, a)
    shift = frobenius_norm((g @ x) @ a @ (x @ g))
    for k in (500, -500):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hk = ginverse_extend(np.ldexp(x, k), np.ldexp(g, -k), a)
        assert np.all(np.isfinite(hk))
        # within 4 eps of the sum of the magnitudes the two sides add
        scale = frobenius_norm(a) + shift + (1 + 2.0**-k) * frobenius_norm(g)
        assert frobenius_norm(hk - (h + (2.0**-k - 1) * g)) <= 4 * np.finfo(float).eps * scale


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


def test_rg_via_gram_past_the_float_range_raises_without_a_warning():
    # X'X of this X * 1e200 overflows: the product warned "overflow
    # encountered in matmul" ahead of an error naming no Gram matrix
    x = np.random.default_rng(3).standard_normal((6, 4)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntryError, match="^Gram matrix contains NaN or infinite"):
            rg_via_gram(x, np.eye(4))


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
    # the check-only readers of the tracked transform, already at the
    # input's scale, name their own results
    x = np.random.default_rng(3).standard_normal((6, 4)) * scale
    cases = ((left_inverse, x, "left inverse"), (right_inverse, x.T, "right inverse"),
             (pinv_cr, x, "pseudo inverse"), (pinv_cr, x.T, "pseudo inverse"),
             (invert, x[:4], "inverse"), (left_inverse_family, x, "left inverse"),
             (left_inverse_elementary, x, "left inverse"),
             (right_inverse_family, x.T, "right inverse"),
             (rg_canonical, x, "reflexive g-inverse"))
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
        (rank_deficient(np.random.default_rng(4), 8, 6, 3), 3),
        (np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 2),
    ],
    ids=["tall", "square", "identity", "integer", "wide", "deficient", "integer-wide"],
)
def test_pinv_cr_skips_the_identity_at_full_column_rank(monkeypatch, x, inverts):
    # at full column rank the echelon rows are exactly I, so R'(RR')^-1 is I
    # and the shortcut is the general formula, bit for bit.  A tall input
    # tries its Gram matrix before it is factored, so the rank-deficient
    # tall one pays a third, failed, inversion ahead of R+ and C+
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
    # X+ = R+ C+, each factor's pseudo inverse formed on its own
    general = (rf.T @ original(rf @ rf.T, DEFAULT_TOL)) @ (original(c.T @ c, DEFAULT_TOL) @ c.T)
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
    # threshold tol * max(||X'X||, ||G||) = 2e-10 is refused
    x = [[1.0], [1.0]]
    assert_allclose(rg_via_gram(x, [[0.5]]), [[0.5, 0.5]])
    with pytest.raises(NotAGInverseError, match="candidate for the Gram matrix fails"):
        rg_via_gram(x, [[0.5 + 1e-10]])
    rg_via_gram(x, [[0.5 + 2e-11]])


def _rank_first(x, tol, side):
    """The normal-equation inverse with ``X``'s rank checked before the Gram
    matrix is inverted: the reference order for :func:`left_inverse` and
    :func:`right_inverse`.  A singular Gram matrix of a full-rank ``X`` is
    named as squared conditioning."""
    x = as_matrix(x)
    tol = _as_tolerance(tol)
    xs, e = _prescaled(x)
    full, dim = (x.shape[1], "column") if side == "left" else (x.shape[0], "row")
    if pivot_rank(x, tol) < full:
        raise RankDeficientError(f"{side} inverse needs full {dim} rank {full}")
    gram = xs.T @ xs if side == "left" else xs @ xs.T
    try:
        inverse = invert(gram, tol)
    except SingularMatrixError:
        raise SingularMatrixError(
            f"X has full {dim} rank {full}, but its Gram matrix is singular at the working "
            f"tolerance (pivot rank {pivot_rank(gram, tol)} of {full}): the normal equations "
            "square its condition number"
        ) from None
    if side == "left":
        return _in_range(inverse @ xs.T, -e, "the left inverse")
    return _in_range(xs.T @ inverse, -e, "the right inverse")


def _outcome(call):
    """The array a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except MatrixError as exc:
        return type(exc), str(exc)


def _gram_first_inputs():
    """Graded, column-graded, noisy low-rank and Kahan inputs, by name."""
    rng = np.random.default_rng(30)
    inputs = {}
    for k in range(2, 13, 2):
        inputs[f"graded_1e{k}"] = graded(rng, 80, 60, 60, 10.0**k)
    for k in range(2, 11, 2):
        inputs[f"columns_1e{k}"] = rng.standard_normal((30, 20)) * np.geomspace(1.0, 10.0**-k, 20)
    for noise in (0.0, 1e-12, 1e-8, 1e-4, 1e-2):
        x = rank_deficient(rng, 30, 20, 10)
        inputs[f"rank10_noise_{noise:g}"] = x + noise * rng.standard_normal(x.shape)
    for theta in (0.3, 1.2):
        inputs[f"kahan_{theta}"] = kahan(20, theta)
    return inputs


GRAM_FIRST_INPUTS = _gram_first_inputs()


@pytest.mark.parametrize("name", GRAM_FIRST_INPUTS)
def test_gram_first_normal_inverses_match_the_rank_first_order(name):
    # left_inverse and right_inverse invert the Gram matrix before X is
    # reduced, and reduce X only to name a failure.  That is the rank-first
    # answer, or its error, whenever an invertible Gram matrix comes with a
    # full-rank X, which N(X'X) = N(X) gives at exact arithmetic and which
    # is asserted here at every tolerance and scale
    for tol in (1e-2, 1e-6, 1e-10):
        for k in (0, 600, -600):
            x = np.ldexp(GRAM_FIRST_INPUTS[name], k)
            p = x.shape[1]
            for route, arg, side in ((left_inverse, x, "left"), (right_inverse, x.T, "right")):
                got = _outcome(lambda: route(arg, tol))
                want = _outcome(lambda: _rank_first(arg, tol, side))
                if isinstance(want, tuple):
                    assert got == want, (tol, k, side)
                else:
                    assert isinstance(got, np.ndarray), (tol, k, side, got)
                    assert np.array_equal(got, want), (tol, k, side)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (tol, k, side)
                xs = _prescaled(arg)[0]
                gram = xs.T @ xs if side == "left" else xs @ xs.T
                if isinstance(_outcome(lambda: invert(gram, tol)), np.ndarray):
                    assert pivot_rank(arg, tol) == p, (tol, k, side)


def _cr_first_pinv(x, tol):
    """``R+ C+`` with ``X`` factored before any Gram matrix is inverted, and
    ``left_inverse(C)`` at full column rank: the reference order for
    :func:`pinv_cr`."""
    x, e = _prescaled(as_matrix(x))
    tol = _as_tolerance(tol)
    n, p = x.shape
    factors = cr_decompose(x, tol)
    if factors.rank == 0:
        return np.zeros((p, n))
    if factors.rank == p:
        g = left_inverse(factors.c, tol)
    else:
        g = right_inverse(factors.r_factor, tol) @ left_inverse(factors.c, tol)
    return _in_range(g, -e, "the pseudo inverse")


@pytest.mark.parametrize("name", GRAM_FIRST_INPUTS)
def test_gram_first_pinv_cr_matches_the_cr_first_order(name):
    # a tall X is factored only when its Gram matrix fails to invert; the
    # answer, or the type and message of the error, is the CR-first one
    for tol in (1e-2, 1e-6, 1e-10):
        for k in (0, 600, -600):
            x = np.ldexp(GRAM_FIRST_INPUTS[name], k)
            for arg in (x, x.T):
                got = _outcome(lambda: pinv_cr(arg, tol))
                want = _outcome(lambda: _cr_first_pinv(arg, tol))
                if isinstance(want, tuple):
                    assert got == want, (tol, k, arg.shape)
                else:
                    assert isinstance(got, np.ndarray), (tol, k, arg.shape, got)
                    assert np.array_equal(got, want), (tol, k, arg.shape)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (tol, k, arg.shape)


def test_gram_first_routes_reduce_no_matrix_twice(monkeypatch):
    # pinv_cr of a tall full-rank X reduces only its Gram matrix, where the
    # CR-first order reduced X too.  A failed Gram inversion carries the
    # Gram matrix's pivot rank, so left_inverse then reduces X alone: 2
    # reductions, where naming the failure took 3.
    # cr_decompose calls the elimination loop through its own module
    import fourspaces.factorizations as factorizations
    import fourspaces.matrix as matrix

    calls = []
    original = matrix._eliminate

    def counted(work, tol):
        calls.append(work.shape)
        return original(work, tol)

    for module in (matrix, factorizations):
        monkeypatch.setattr(module, "_eliminate", counted)
    pinv_cr(graded(np.random.default_rng(1), 80, 60, 60, 1e3))
    assert calls == [(60, 60)]
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    # a failed Gram inversion sends pinv_cr down its one fallback, R+ C+,
    # whose left_inverse(C) names the error: after the failed Gram (2, 2)
    # come CR (3, 2), the Gram of R = I (2, 2), C's failed Gram (2, 2) and
    # pivot_rank(C) (3, 2), on an error path no benchmark operation reaches
    expected = {left_inverse: [(2, 2), (3, 2)],
                pinv_cr: [(2, 2), (3, 2), (2, 2), (2, 2), (3, 2)]}
    for route in (left_inverse, pinv_cr):
        calls.clear()
        with pytest.raises(SingularMatrixError) as info:
            route(x, 1e-2)
        assert calls == expected[route], route.__name__
        assert info.value.pivot_rank == 1
        assert str(info.value) == (
            "X has full column rank 2, but its Gram matrix is singular at the working "
            "tolerance (pivot rank 1 of 2): the normal equations square its condition number"
        )


@pytest.mark.parametrize("shape", [(8, 6), (5, 9)])
def test_rg_canonical_column_reduces_only_the_nonzero_rows(shape):
    # the rows of R past its rank are zero: they move no pivot and no
    # threshold, so the column reduction of the first max(r, 1) rows gives
    # the transform of the whole of R, bit for bit
    n, p = shape
    rng = np.random.default_rng(31)
    for rank in range(min(n, p) + 1):
        x = rank_deficient(rng, n, p, rank)
        for k in (0, 600, -600):
            reduced = rref_rows(np.ldexp(x, k)).reduced
            r = pivot_rank(np.ldexp(x, k))
            assert r == rank
            narrow = rref_cols(reduced[: max(r, 1)]).transform
            whole = rref_cols(reduced).transform
            assert np.array_equal(narrow, whole), (rank, k)
            assert np.array_equal(np.signbit(narrow), np.signbit(whole)), (rank, k)


def test_a_singular_gram_of_a_full_rank_matrix_names_squared_conditioning():
    # sigma2 / sigma1 = 0.036, so both kernels keep rank 2 at tol 1e-2, but
    # the Gram's second pivot is 4.1e-3 of its largest entry, in sigma^2 units
    from fourspaces.solve import ls_normal

    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    assert pivot_rank(x, 1e-2) == 2
    calls = ((lambda: left_inverse(x, 1e-2), "column"),
             (lambda: ls_normal(x, [1.0, 2.0, 3.0], 1e-2), "column"),
             (lambda: right_inverse(x.T, 1e-2), "row"))
    for call, dim in calls:
        with pytest.raises(SingularMatrixError) as info:
            call()
        assert info.value.code == "singular-matrix"
        assert str(info.value) == (
            f"X has full {dim} rank 2, but its Gram matrix is singular at the working "
            "tolerance (pivot rank 1 of 2): the normal equations square its condition number"
        )


def test_a_failed_gram_inversion_keeps_its_precedence(monkeypatch):
    # a short rank is named first, and a failure other than a singular Gram
    # matrix passes as the inversion raised it
    import fourspaces.inverses as inverses

    def past_the_range(a, tol):
        raise NonFiniteEntryError("the inverse lies beyond the float range")

    monkeypatch.setattr(inverses, "invert", past_the_range)
    with pytest.raises(NonFiniteEntryError, match="^the inverse lies beyond the float range$"):
        left_inverse(np.eye(3)[:, :2])
    with pytest.raises(RankDeficientError, match="^left inverse needs full column rank 2$"):
        left_inverse([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficientError, match="^right inverse needs full row rank 2$"):
        right_inverse([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])


def _padded_pinv_cr(x, tol):
    """``R'(RR')^-1 (C'C)^-1 C'`` on the prescaled input, ``(C'C)^-1 C'`` at
    full column rank: the CR route with its Gram matrices inverted by hand."""
    xs, e = _prescaled(as_matrix(x))
    n, p = xs.shape
    factors = cr_decompose(xs, tol)
    if factors.rank == 0:
        return np.zeros((p, n))
    c, rf = factors.c, factors.r_factor
    if factors.rank == p:
        g = invert(c.T @ c, tol) @ c.T
    else:
        g = rf.T @ invert(rf @ rf.T, tol) @ invert(c.T @ c, tol) @ c.T
    return _in_range(g, -e, "the pseudo inverse")


def _padded_left_family(x, y, tol):
    """``[I | Y] E`` with the identity block stored."""
    n, p = x.shape
    y = np.zeros((p, n - p)) if y is None else y
    return np.hstack([np.eye(p), y]) @ rref_rows(x, tol).transform


def _padded_right_family(x, y, tol):
    """``E [I; Y]`` with the identity block stored."""
    n, p = x.shape
    y = np.zeros((p - n, n)) if y is None else y
    return rref_cols(x, tol).transform @ np.vstack([np.eye(n), y])


def _padded_rg_canonical(x, a, b, tol):
    """``E2^-1 [I a; b ba] E1^-1`` with the p x n middle block stored."""
    n, p = x.shape
    row = rref_rows(x, tol)
    r = row.pivot_rank
    col = rref_cols(row.reduced[: max(r, 1)], tol)
    middle = np.zeros((p, n))
    middle[:r, :r] = np.eye(r)
    middle[:r, r:] = a
    middle[r:, :r] = b
    middle[r:, r:] = b @ a
    return col.transform @ middle @ row.transform


def _relative_gap(got, want):
    """``||got - want||_F / ||want||_F``, both divided by ``max|want|`` first,
    so nothing overflows or underflows at 2^+-600; ``max|got|`` where
    ``want`` is zero."""
    s = np.abs(want).max()
    if not s:
        return np.abs(got).max()
    return np.linalg.norm((got - want) / s) / np.linalg.norm(want / s)


def _parity_inputs():
    """Full column rank, full row rank, rank-deficient, graded and Kahan inputs."""
    rng = np.random.default_rng(31)
    inputs = {
        "tall": full_col_rank(rng, 12, 7),
        "square": full_col_rank(rng, 6, 6),
        "wide": full_row_rank(rng, 5, 9),
        "deficient": rank_deficient(rng, 8, 6, 3),
        "deficient_wide": rank_deficient(rng, 6, 9, 2),
        "integer": np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]),
        "signed_zeros": np.array([[0.0, -1.0], [-2.0, 0.0], [0.0, 0.0]]),
        "kahan": kahan(20, 0.3),
    }
    for k in (2, 4, 6, 8):
        inputs[f"graded_1e{k}"] = graded(rng, 30, 20, 20, 10.0**k)
        inputs[f"graded_rank12_1e{k}"] = graded(rng, 30, 20, 12, 10.0**k)
    return inputs


PARITY_INPUTS = _parity_inputs()


@pytest.mark.parametrize("name", PARITY_INPUTS)
def test_inverses_read_off_their_reductions_match_the_padded_formulas(name):
    # pinv_cr is R+ C+ through the one Gram inversion, and the families and
    # rg_canonical slice E in place of padding it with identity and zero
    # blocks: bit for bit where only C+ or a slice of E is formed, at
    # rounding level where products reassociate, same error otherwise
    rng = np.random.default_rng(7)
    for tol in (1e-10, 1e-6, 1e-2):
        for k in (0, 600, -600):
            x = np.ldexp(PARITY_INPUTS[name], k)
            n, p = x.shape
            got = _outcome(lambda: pinv_cr(x, tol))
            want = _outcome(lambda: _padded_pinv_cr(x, _as_tolerance(tol)))
            if isinstance(want, tuple):
                assert isinstance(got, tuple) and got[0] is want[0], (tol, k, got, want)
            elif cr_decompose(x, tol).rank == p:
                assert np.array_equal(got, want), (tol, k)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (tol, k)
            else:
                assert _relative_gap(got, want) <= 1e-9, (tol, k)
            for family, padded, arg in ((left_inverse_family, _padded_left_family, x),
                                        (right_inverse_family, _padded_right_family, x.T)):
                got = _outcome(lambda: family(arg, None, tol))
                if not isinstance(got, np.ndarray):
                    continue
                want = padded(arg, None, tol)
                assert np.array_equal(got, want), (family.__name__, tol, k)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (family.__name__, tol, k)
                y = rng.standard_normal((min(arg.shape), max(arg.shape) - min(arg.shape)))
                y = y if family is left_inverse_family else y.T
                got, want = family(arg, y, tol), padded(arg, y, tol)
                assert _relative_gap(got, want) <= 1e-9, (family.__name__, tol, k)
            r = pivot_rank(x, tol)
            blocks = ((np.zeros((r, n - r)), np.zeros((p - r, r))),
                      (rng.standard_normal((r, n - r)), rng.standard_normal((p - r, r))))
            for a, b in blocks:
                got, want = rg_canonical(x, a, b, tol), _padded_rg_canonical(x, a, b, tol)
                assert _relative_gap(got, want) <= 1e-9, (tol, k)
