"""Acceptance gate: nine property suites, one pass/fail line each.

Random suites draw 200 seeded trials over shapes up to 40 rows by 25
columns in three regimes (full column rank, full row rank, rank-deficient
sums of outer products).  Hand fixtures are recomputed by scripted oracles
in this file before the library is asked; no expected value is taken on
faith.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from fourspaces import (
    InconsistentSystemError,
    classify_inverse,
    column_basis_from_row_basis,
    consistent_unique_solve,
    cr_decompose,
    eig_symmetric,
    frobenius_norm,
    fundamental_bases,
    ginverse_extend,
    left_inverse,
    left_inverse_elementary,
    left_inverse_family,
    ls_normal,
    ls_svd_minnorm,
    matmul,
    observation_split,
    pinv_cr,
    pinv_svd,
    pivot_rank,
    projector_column,
    projector_diagnostics,
    projector_row,
    rank_nullity_report,
    rg_canonical,
    rg_sandwich,
    rg_via_gram,
    right_inverse,
    right_inverse_elementary,
    right_inverse_family,
    right_solve,
    rref_cols,
    rref_rows,
    similarity_check,
    subspaces_equal,
    svd_full,
    svd_reduced,
)
from fourspaces.cli import Report, _matrix_doc, emit_report, parse_matrix
from fourspaces.cli import main as cli_main
from fourspaces.cli import run_command

TRIALS = 200
REGIMES = ("full-col", "full-row", "rank-deficient")


def draw(rng, regime):
    if regime == "full-col":
        p = int(rng.integers(1, 26))
        n = int(rng.integers(p, 41))
        return rng.standard_normal((n, p))
    if regime == "full-row":
        p = int(rng.integers(1, 26))
        n = int(rng.integers(1, p + 1))
        return rng.standard_normal((n, p))
    n = int(rng.integers(1, 41))
    p = int(rng.integers(1, 26))
    m = min(n, p)
    r = 1 if m == 1 else int(rng.integers(1, m))
    x = np.zeros((n, p))
    for _ in range(r):
        x += np.outer(rng.standard_normal(n), rng.standard_normal(p))
    return x


def finish(label, start, violations, trials=TRIALS, detail=""):
    elapsed = time.perf_counter() - start
    status = "FAIL" if violations else "PASS"
    print(f"[acceptance] {label}: {status} ({trials} trials, {elapsed:.1f}s{detail})")
    assert not violations, f"{label}: first failures {violations[:5]}"
    assert elapsed < 30.0, f"{label} took {elapsed:.1f}s, budget is 30s"


def test_criterion_1_penrose_suite():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    violations = []
    worst = 0.0
    for t in range(TRIALS):
        x = draw(rng, REGIMES[t % 3])
        g = pinv_svd(x)
        rep = classify_inverse(x, g)
        scale = max(1.0, frobenius_norm(x), frobenius_norm(g))
        rel = max(rep.residuals) / scale
        worst = max(worst, rel)
        if rel > 1e-8:
            violations.append((t, "penrose", rel))
        gc = pinv_cr(x)
        agree = frobenius_norm(g - gc) / max(1.0, frobenius_norm(g), frobenius_norm(gc))
        worst = max(worst, agree)
        if agree > 1e-8:
            violations.append((t, "route-agreement", agree))
    finish("criterion 1 penrose", start, violations, detail=f", worst {worst:.2e}")


def test_criterion_2_rank_identity_suite():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    violations = []
    for t in range(TRIALS):
        x = draw(rng, REGIMES[t % 3])
        r_direct = pivot_rank(x)
        r_gram = pivot_rank(x.T @ x)
        r_svd = svd_reduced(x).rank
        if not (r_direct == r_gram == r_svd):
            violations.append((t, r_direct, r_gram, r_svd))
    finish("criterion 2 rank identities", start, violations)


def test_criterion_3_rank_nullity_suite():
    rng = np.random.default_rng(20260803)
    start = time.perf_counter()
    violations = []
    worst = 0.0
    for t in range(TRIALS):
        x = draw(rng, REGIMES[t % 3])
        n, p = x.shape
        b = fundamental_bases(x)
        if b.rank + b.null_space.shape[1] != p:
            violations.append((t, "row-side count"))
        if b.rank + b.left_null_space.shape[1] != n:
            violations.append((t, "column-side count"))
        for left, right in (
            (b.row_space, b.null_space),
            (b.column_space, b.left_null_space),
        ):
            if left.shape[1] and right.shape[1]:
                overlap = float(np.max(np.abs(left.T @ right)))
                worst = max(worst, overlap)
                if overlap > 1e-8:
                    violations.append((t, "overlap", overlap))
    finish("criterion 3 rank-nullity", start, violations, detail=f", worst {worst:.2e}")


def test_criterion_4_singular_eigen_bridge():
    rng = np.random.default_rng(20260804)
    start = time.perf_counter()
    violations = []
    worst = 0.0
    for t in range(TRIALS):
        x = draw(rng, REGIMES[t % 3])
        res = svd_reduced(x)
        lam = eig_symmetric(x.T @ x).values
        band = 1e-8 * max(1.0, lam[0])
        for i in range(res.rank):
            gap = abs(res.sigma[i] ** 2 - lam[i])
            worst = max(worst, gap / band * 1e-8)
            if gap > band:
                violations.append((t, i, gap))
    finish("criterion 4 sigma-lambda bridge", start, violations, detail=f", worst {worst:.2e}")


def test_criterion_5_inverse_hierarchy_suite():
    rng = np.random.default_rng(20260805)
    start = time.perf_counter()
    violations = []

    def penrose_rel(x, g):
        rep = classify_inverse(x, g)
        scale = max(1.0, frobenius_norm(x), frobenius_norm(g))
        return [r / scale for r in rep.residuals]

    def need_reflexive(t, who, x, g):
        c1, c2, _, _ = penrose_rel(x, g)
        if c1 > 1e-8 or c2 > 1e-8:
            violations.append((t, who, c1, c2))
        if pivot_rank(g) != pivot_rank(x):
            violations.append((t, who, "rank mismatch"))

    for t in range(TRIALS):
        regime = REGIMES[t % 3]
        x = draw(rng, regime)
        n, p = x.shape
        if regime == "full-col":
            routes = [
                ("left-normal", left_inverse(x)),
                ("left-elementary", left_inverse_elementary(x)),
                ("left-family-zero", left_inverse_family(x)),
                ("left-family", left_inverse_family(x, rng.standard_normal((p, n - p)))),
            ]
            for who, g in routes:
                gap = frobenius_norm(g @ x - np.eye(p))
                if gap > 1e-8 * max(1.0, frobenius_norm(g) * frobenius_norm(x)):
                    violations.append((t, who, gap))
        elif regime == "full-row":
            routes = [
                ("right-normal", right_inverse(x)),
                ("right-elementary", right_inverse_elementary(x)),
                ("right-family-zero", right_inverse_family(x)),
                ("right-family", right_inverse_family(x, rng.standard_normal((p - n, n)))),
            ]
            for who, g in routes:
                gap = frobenius_norm(x @ g - np.eye(n))
                if gap > 1e-8 * max(1.0, frobenius_norm(g) * frobenius_norm(x)):
                    violations.append((t, who, gap))

        r = pivot_rank(x)
        rgc = rg_canonical(x)
        need_reflexive(t, "rg-canonical", x, rgc)
        rgc2 = rg_canonical(
            x,
            rng.standard_normal((r, n - r)),
            rng.standard_normal((p - r, r)),
        )
        need_reflexive(t, "rg-canonical-blocks", x, rgc2)

        ext = ginverse_extend(x, rgc, rng.standard_normal((p, n)))
        c1 = penrose_rel(x, ext)[0]
        if c1 > 1e-8:
            violations.append((t, "ginverse-extend", c1))

        need_reflexive(t, "rg-sandwich", x, rg_sandwich(x, rgc, rgc2))
        need_reflexive(t, "rg-via-gram", x, rg_via_gram(x, rg_canonical(x.T @ x)))
    finish("criterion 5 inverse hierarchy", start, violations)


def test_criterion_6_least_squares_suite():
    rng = np.random.default_rng(20260806)
    start = time.perf_counter()
    violations = []
    for t in range(TRIALS):
        regime = REGIMES[t % 3]
        x = draw(rng, regime)
        n, p = x.shape
        y = rng.standard_normal(n)
        sol = ls_svd_minnorm(x, y)
        ortho = np.linalg.norm(x.T @ sol.residual)
        if ortho > 1e-8 * frobenius_norm(x) * np.linalg.norm(y):
            violations.append((t, "orthogonality", ortho))
        if regime == "full-col":
            direct = ls_normal(x, y)
            gap = np.linalg.norm(direct.beta_hat - sol.beta_hat)
            if gap > 1e-7 * max(1.0, np.linalg.norm(sol.beta_hat)):
                violations.append((t, "solver agreement", gap))
        if regime == "rank-deficient":
            nb = fundamental_bases(x).null_space
            if nb.shape[1]:
                shift = nb @ rng.standard_normal(nb.shape[1])
                lhs = np.linalg.norm(sol.beta_hat + shift) ** 2
                rhs = np.linalg.norm(sol.beta_hat) ** 2 + np.linalg.norm(shift) ** 2
                if abs(lhs - rhs) > 1e-7 * max(1.0, rhs):
                    violations.append((t, "pythagoras", abs(lhs - rhs)))
    finish("criterion 6 least squares", start, violations)


def test_criterion_7_projector_suite():
    rng = np.random.default_rng(20260807)
    start = time.perf_counter()
    violations = []
    for t in range(TRIALS):
        x = draw(rng, REGIMES[t % 3])
        r = pivot_rank(x)
        for proj in (projector_column(x), projector_row(x)):
            if frobenius_norm(proj @ proj - proj) > 1e-8:
                violations.append((t, "idempotent"))
            if float(np.sqrt(np.sum((proj - proj.T) ** 2))) > 1e-8:
                violations.append((t, "symmetric"))
            if abs(np.trace(proj) - r) > 1e-6:
                violations.append((t, "trace"))
            values = eig_symmetric((proj + proj.T) / 2.0).values
            if np.max(np.minimum(np.abs(values), np.abs(values - 1.0))) > 1e-6:
                violations.append((t, "spectrum"))
    finish("criterion 7 projectors", start, violations)


# ---------------------------------------------------------------------------
# criterion 8: every hand-derived fixture, oracle first


def _hand_rref_rank_one():
    # [[1,2],[2,4]]: partial pivoting swaps to put the 2 up front, scales,
    # then clears the other row; the transform is the elementary product.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    scale = np.array([[0.5, 0.0], [0.0, 1.0]])
    clear = np.array([[1.0, 0.0], [-1.0, 1.0]])
    transform = clear @ scale @ swap
    reduced = transform @ np.array([[1.0, 2.0], [2.0, 4.0]])
    return reduced, transform


def _inv2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def _eig2_symmetric(m):
    # roots of the 2x2 characteristic polynomial, descending
    a, b, c = m[0][0], m[0][1], m[1][1]
    mid = (a + c) / 2.0
    rad = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mid + rad, mid - rad


def test_criterion_8_hand_fixtures(tmp_path):
    start = time.perf_counter()
    failures = []

    def check(name, got, want, tol=1e-10):
        got_arr = np.asarray(got, dtype=float)
        want_arr = np.asarray(want, dtype=float)
        if got_arr.shape != want_arr.shape or not np.allclose(
            got_arr, want_arr, rtol=0.0, atol=tol
        ):
            failures.append(name)

    def check_true(name, flag):
        if not flag:
            failures.append(name)

    x12 = np.array([[1.0, 2.0], [2.0, 4.0]])
    ones21 = np.array([[1.0], [1.0]])

    # frobenius norm of [[3,4]] from the squares
    check("frobenius", frobenius_norm([[3.0, 4.0]]), math.sqrt(3.0**2 + 4.0**2))

    # matmul against a scripted triple loop
    rhs = np.array([[1.0], [2.0]])
    oracle = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(2):
                oracle[i, j] += x12[i, k] * rhs[k, j]
    check("matmul", matmul(x12, rhs), oracle)
    check("matmul-value", oracle, [[5.0], [10.0]])

    # row reduction of the rank-one matrix, transform included
    reduced_oracle, transform_oracle = _hand_rref_rank_one()
    check("rref-oracle-self", reduced_oracle, [[1.0, 2.0], [0.0, 0.0]])
    res = rref_rows(x12)
    check("rref-reduced", res.reduced, reduced_oracle)
    check("rref-transform", res.transform, transform_oracle)
    check_true("rref-pivots", res.pivot_cols == (0,) and res.pivot_rank == 1)

    # column reduction is the transpose route; x12 is symmetric
    check("rref-cols", rref_cols(x12).reduced, reduced_oracle.T)

    # rank from the scripted elimination
    check("pivot-rank", pivot_rank(x12), 1.0)

    # eigenpair of [[2,1],[1,2]] from the characteristic polynomial
    hi, lo = _eig2_symmetric([[2.0, 1.0], [1.0, 2.0]])
    check("eig-oracle-self", [hi, lo], [3.0, 1.0])
    eig = eig_symmetric([[2.0, 1.0], [1.0, 2.0]])
    check("eig-values", eig.values, [hi, lo])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    check("eig-vectors", eig.q, [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]])

    # conjugating diag(1,2) by a rotation preserves spectrum, rank, trace
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    diag = np.array([[1.0, 0.0], [0.0, 2.0]])
    conj_oracle = rot @ diag @ _inv2(rot)
    check("similarity-oracle-self", sorted(_eig2_symmetric(conj_oracle)), [1.0, 2.0])
    sim = similarity_check(diag, rot)
    check_true(
        "similarity-flags",
        sim.trace_match and sim.rank_match and sim.eigs_match is True,
    )

    # rank-one SVD: X = a a^T with a = (1,2), sigma = |a|^2 = 5
    a_vec = np.array([1.0, 2.0])
    sigma_oracle = float(a_vec @ a_vec)
    u_oracle = a_vec / math.sqrt(5.0)
    full = svd_full(x12)
    check("svd-sigma", full.sigma, [sigma_oracle])
    check("svd-u1", full.u[:, 0], u_oracle)
    check("svd-v1", full.v[:, 0], u_oracle)
    red = svd_reduced(x12)
    check("svd-reduced-sigma", red.sigma, [sigma_oracle])
    check("svd-reduced-u", red.u, u_oracle.reshape(2, 1))
    check("svd-reduced-v", red.v, u_oracle.reshape(2, 1))

    # ones column: X'X = [2] so sigma = sqrt(2), u = X v / sigma
    red1 = svd_reduced(ones21)
    check("svd-ones-sigma", red1.sigma, [math.sqrt(2.0)])
    check("svd-ones-u", red1.u, ones21 / math.sqrt(2.0))
    check("svd-ones-v", red1.v, [[1.0]])

    # CR factors come straight off the reduction
    fac = cr_decompose(x12)
    check("cr-c", fac.c, [[1.0], [2.0]])
    check("cr-r", fac.r_factor, reduced_oracle[:1, :])
    echelon = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
    fac2 = cr_decompose(echelon)
    check("cr-echelon-c", fac2.c, np.eye(2))
    check("cr-echelon-r", fac2.r_factor, echelon)

    # four subspaces of the rank-one matrix
    silent = np.array([2.0, -1.0]) / math.sqrt(5.0)
    bases = fundamental_bases(x12)
    check("bases-row", bases.row_space, u_oracle.reshape(2, 1))
    check("bases-col", bases.column_space, u_oracle.reshape(2, 1))
    check("bases-null", bases.null_space, silent.reshape(2, 1))
    check("bases-left-null", bases.left_null_space, silent.reshape(2, 1))

    # pushing a row-space basis through X is plain multiplication
    check(
        "column-from-row",
        column_basis_from_row_basis(x12, [[1.0], [2.0]]),
        x12 @ np.array([[1.0], [2.0]]),
    )
    check("column-from-row-value", x12 @ np.array([[1.0], [2.0]]), [[5.0], [10.0]])
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    check(
        "column-from-row-shift",
        column_basis_from_row_basis(shift, [[0.0], [1.0]]),
        [[1.0], [0.0]],
    )

    # rank-nullity accounting
    rep = rank_nullity_report(x12)
    check_true(
        "rank-nullity",
        (rep.rank, rep.dim_null, rep.dim_left_null) == (1, 1, 1),
    )

    # two spanning sets of the plane: both projector sums are the identity
    pair = np.array([[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]])
    proj_sum = np.outer(pair[:, 0], pair[:, 0]) + np.outer(pair[:, 1], pair[:, 1])
    check("span-oracle-self", proj_sum, np.eye(2))
    check_true("span-equal", subspaces_equal(pair, np.eye(2)))

    # one-sided inverses of the ones column / ones row
    check("left-normal", left_inverse(ones21), _inv2_scalar_left(ones21))
    check("right-normal", right_inverse(ones21.T), _inv2_scalar_left(ones21).T)
    check("left-elementary", left_inverse_elementary(ones21), [[1.0, 0.0]])
    check("left-elementary-scaled", left_inverse_elementary([[2.0], [0.0]]), [[0.5, 0.0]])
    check("right-elementary", right_inverse_elementary([[1.0, 1.0]]), [[1.0], [0.0]])
    check("right-elementary-scaled", right_inverse_elementary([[2.0, 0.0]]), [[0.5], [0.0]])

    # the one-parameter family [1-y, y] sweeps every left inverse
    for y_val, name in ((0.5, "half"), (1.0, "one")):
        family_oracle = np.array([[1.0 - y_val, y_val]])
        check(
            f"left-family-{name}",
            left_inverse_family(ones21, [[y_val]]),
            family_oracle,
        )
        check(
            f"right-family-{name}",
            right_inverse_family(ones21.T, [[y_val]]),
            family_oracle.T,
        )

    # canonical reflexive g-inverse of the ones column: E1 inverse route
    e1_inv = np.array([[1.0, 0.0], [-1.0, 1.0]])
    check("rg-ones-oracle-self", e1_inv[:1, :], [[1.0, 0.0]])
    check("rg-ones", rg_canonical(ones21), [[1.0, 0.0]])

    # canonical construction on the rank-one square: the no-pivot hand
    # reduction gives [[1,0],[0,0]]; pivoting reorders the elimination, so
    # equality is asserted on the defining identities, which both satisfy
    f1 = np.array([[1.0, 0.0], [-2.0, 1.0]])
    f2 = np.array([[1.0, -2.0], [0.0, 1.0]])
    middle = np.array([[1.0, 0.0], [0.0, 0.0]])
    g_oracle = f2 @ middle @ f1
    check("rg-oracle-self", g_oracle, [[1.0, 0.0], [0.0, 0.0]])
    check("rg-oracle-c1", x12 @ g_oracle @ x12, x12)
    check("rg-oracle-c2", g_oracle @ x12 @ g_oracle, g_oracle)
    g_lib = rg_canonical(x12)
    check("rg-c1", x12 @ g_lib @ x12, x12)
    check("rg-c2", g_lib @ x12 @ g_lib, g_lib)
    check("rg-rank", pivot_rank(g_lib), 1.0)

    # extending a g-inverse along a direction that the sandwich kills
    x_sel = np.array([[1.0, 0.0], [0.0, 0.0]])
    a_dir = np.array([[0.0, 0.0], [0.0, 1.0]])
    sandwich = x_sel @ x_sel @ a_dir @ x_sel @ x_sel
    check("extend-oracle-self", sandwich, np.zeros((2, 2)))
    extend_oracle = x_sel + a_dir - sandwich
    check("extend-oracle-value", extend_oracle, np.eye(2))
    check("extend", ginverse_extend(x_sel, x_sel, a_dir), extend_oracle)
    check("extend-c1", x_sel @ extend_oracle @ x_sel, x_sel)

    # sandwiching two g-inverses yields a reflexive one
    g2 = np.array([[1.0, 1.0], [0.0, 0.0]])
    sandwich_oracle = np.eye(2) @ x_sel @ g2
    check("sandwich-oracle-self", sandwich_oracle, g2)
    check("sandwich-oracle-c1", x_sel @ sandwich_oracle @ x_sel, x_sel)
    check("sandwich-oracle-c2", sandwich_oracle @ x_sel @ sandwich_oracle, sandwich_oracle)
    check("sandwich", rg_sandwich(x_sel, np.eye(2), g2), sandwich_oracle)

    # reflexive inverse through a g-inverse of the Gram matrix
    check("via-gram-ones", rg_via_gram(ones21, [[0.5]]), [[0.5, 0.5]])
    gram = x12.T @ x12
    gram_ginv = np.array([[0.2, 0.0], [0.0, 0.0]])
    check("via-gram-oracle-c1", gram @ gram_ginv @ gram, gram)
    via_oracle = gram_ginv @ x12.T
    check("via-gram-oracle-value", via_oracle, [[0.2, 0.4], [0.0, 0.0]])
    check("via-gram-oracle-xax", x12 @ via_oracle @ x12, x12)
    check("via-gram-oracle-axa", via_oracle @ x12 @ via_oracle, via_oracle)
    check("via-gram", rg_via_gram(x12, gram_ginv), via_oracle)

    # pseudo inverse of the rank-one matrix: X+ = X^T / sigma^2
    pinv_oracle = x12.T / sigma_oracle**2
    check("pinv-oracle-self", pinv_oracle, [[0.04, 0.08], [0.08, 0.16]])
    check("pinv-svd", pinv_svd(x12), pinv_oracle)
    check("pinv-cr", pinv_cr(x12), pinv_oracle)
    check("pinv-cr-ones", pinv_cr(ones21), [[0.5, 0.5]])

    # classifier flags recomputed from the defining identities
    for name, x_cls, g_cls, want_flags, want_label in (
        ("classify-g", x_sel, np.eye(2), (True, False, True, True), "g-inverse"),
        (
            "classify-reflexive",
            x12,
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            (True, True, False, False),
            "reflexive-g-inverse",
        ),
    ):
        oracle_flags = (
            bool(np.allclose(x_cls @ g_cls @ x_cls, x_cls, rtol=0, atol=1e-10)),
            bool(np.allclose(g_cls @ x_cls @ g_cls, g_cls, rtol=0, atol=1e-10)),
            bool(np.allclose((x_cls @ g_cls).T, x_cls @ g_cls, rtol=0, atol=1e-10)),
            bool(np.allclose((g_cls @ x_cls).T, g_cls @ x_cls, rtol=0, atol=1e-10)),
        )
        check_true(f"{name}-oracle-self", oracle_flags == want_flags)
        rep_cls = classify_inverse(x_cls, g_cls)
        got = (rep_cls.flags.c1, rep_cls.flags.c2, rep_cls.flags.c3, rep_cls.flags.c4)
        check_true(name, got == want_flags and rep_cls.class_label == want_label)

    # normal-equation least squares on the ones column: 2 beta = 4
    y13 = np.array([1.0, 3.0])
    beta_oracle = float((ones21.T @ y13)[0]) / float((ones21.T @ ones21)[0, 0])
    check("ls-oracle-self", beta_oracle, 2.0)
    sol = ls_normal(ones21, y13)
    check("ls-normal-beta", sol.beta_hat, [beta_oracle])
    check("ls-normal-yhat", sol.y_hat, [2.0, 2.0])
    check("ls-normal-residual", sol.residual, [-1.0, 1.0])

    # consistent overdetermined system solved through the 2x2 inverse
    x3 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y3 = np.array([1.0, 1.0, 2.0])
    beta3_oracle = _inv2(x3.T @ x3) @ (x3.T @ y3)
    check("ls3-oracle-self", beta3_oracle, [1.0, 1.0])
    check("ls-normal-consistent", ls_normal(x3, y3).beta_hat, beta3_oracle)

    # minimum-norm point on beta1 + beta2 = 2
    row = np.array([[1.0, 1.0]])
    minnorm_oracle = (row.T / float((row @ row.T)[0, 0])) @ np.array([2.0])
    check("minnorm-oracle-self", minnorm_oracle.ravel(), [1.0, 1.0])
    check("minnorm", ls_svd_minnorm(row, [2.0]).beta_hat, minnorm_oracle.ravel())
    check("minnorm-matches-normal", ls_svd_minnorm(ones21, y13).beta_hat, [beta_oracle])

    # observation split of (1,3) against the ones column
    u_ones = ones21.ravel() / math.sqrt(2.0)
    yhat_oracle = u_ones * float(u_ones @ y13)
    check("split-oracle-self", yhat_oracle, [2.0, 2.0])
    y_hat, e = observation_split(ones21, y13)
    check("split-yhat", y_hat, yhat_oracle)
    check("split-residual", e, y13 - yhat_oracle)

    # projectors are outer products of the unit spans
    h_oracle = np.outer(u_ones, u_ones)
    check("proj-oracle-self", h_oracle, [[0.5, 0.5], [0.5, 0.5]])
    check("proj-col-ones", projector_column(ones21), h_oracle)
    check("proj-row-ones", projector_row(ones21), [[1.0]])
    check("proj-col-rank-one", projector_column(x12), np.outer(u_oracle, u_oracle))
    check(
        "proj-col-rank-one-value",
        np.outer(u_oracle, u_oracle),
        [[0.2, 0.4], [0.4, 0.8]],
    )

    # projector diagnostics against scripted squares
    half = np.array([[0.5, 0.5], [0.5, 0.5]])
    check("diag-oracle-self", half @ half, half)
    diag_rep = projector_diagnostics(half)
    check_true(
        "diag-half",
        diag_rep.idempotent
        and diag_rep.symmetric
        and diag_rep.rank == 1
        and diag_rep.spectrum_binary is True,
    )
    check("diag-half-trace", diag_rep.trace, 1.0)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    check("diag-skew-oracle-self", skew @ skew, [[1.0, 2.0], [0.0, 1.0]])
    check_true("diag-skew", not projector_diagnostics(skew).idempotent)

    # unique-solution test: (2,2) lies on the span, (1,3) does not
    check("unique-consistent", consistent_unique_solve(ones21, [2.0, 2.0]).beta_hat, [2.0])
    gap_oracle = float(np.linalg.norm(y13 - yhat_oracle))
    check("unique-gap-oracle-self", gap_oracle, math.sqrt(2.0))
    with pytest.raises(InconsistentSystemError) as excinfo:
        consistent_unique_solve(ones21, y13)
    check("unique-inconsistent-residual", excinfo.value.residual_norm, gap_oracle)

    # right inverse solves underdetermined systems exactly
    check("right-solve-row", right_solve(row, [2.0]).beta_hat, [1.0, 1.0])
    sel = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    y_sel = np.array([3.0, -4.0])
    right_oracle = sel.T @ _inv2(sel @ sel.T) @ y_sel
    check("right-solve-oracle-self", right_oracle, [3.0, -4.0, 0.0])
    check("right-solve-selectors", right_solve(sel, y_sel).beta_hat, right_oracle)

    # command line hand cases
    x_file = tmp_path / "x.csv"
    x_file.write_text("1,2\n2,4\n")
    report = run_command(["rank", "--input", str(x_file)])
    check_true("cli-rank", report.payload["rank"] == 1)
    ones_file = tmp_path / "ones21.csv"
    ones_file.write_text("1\n1\n")
    y_file = tmp_path / "y13.csv"
    y_file.write_text("1\n3\n")
    out_file = tmp_path / "report.json"
    code = cli_main(
        [
            "solve",
            "--method",
            "unique",
            "--input",
            str(ones_file),
            "--y",
            str(y_file),
            "--json",
            "--out",
            str(out_file),
        ]
    )
    doc = json.loads(out_file.read_text())
    check_true(
        "cli-unique-inconsistent",
        code == 1 and doc["payload"]["error"] == "inconsistent-system",
    )

    finish("criterion 8 hand fixtures", start, failures, trials="all", detail="")


def _inv2_scalar_left(x):
    # (X'X)^{-1} X' for a single-column X, by scalar division
    gram = float((x.T @ x)[0, 0])
    return x.T / gram


# ---------------------------------------------------------------------------
# criterion 9: CLI exit codes and round-trip stability


def test_criterion_9_cli_contract(tmp_path, capsys):
    start = time.perf_counter()
    violations = []

    good = tmp_path / "x.csv"
    good.write_text("1,2\n2,4\n")
    ones = tmp_path / "ones.csv"
    ones.write_text("1\n1\n")
    y13 = tmp_path / "y13.csv"
    y13.write_text("1\n3\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")

    corpus = [
        (["rank", "--input", str(good)], 0),
        (["svd", "--input", str(good), "--json"], 0),
        (["subspaces", "--input", str(good)], 0),
        (["pinv", "--input", str(good), "--json"], 0),
        (["solve", "--input", str(ones), "--y", str(y13)], 0),
        (["project", "--input", str(ones), "--side", "row"], 0),
        (["report", "--input", str(good), "--json"], 0),
        (["rank", "--input", str(ragged)], 1),
        (["rank", "--input", str(tmp_path / "missing.csv")], 1),
        (["solve", "--method", "unique", "--input", str(ones), "--y", str(y13)], 1),
        (["solve", "--method", "normal", "--input", str(good), "--y", str(y13)], 1),
        (["leftinv", "--input", str(good.parent / "x.csv"), "--method", "normal"], 1),
        ([], 2),
        (["frobnicate", "--input", str(good)], 2),
        (["rank"], 2),
        (["rank", "--input", str(good), "--tol", "5"], 2),
        (["rank", "--input", str(good), "--format", "tsv"], 2),
        (["classify", "--input", str(good)], 2),
    ]
    for argv, want in corpus:
        got = cli_main(argv)
        if got != want:
            violations.append((argv, want, got))
    capsys.readouterr()

    # emit, reparse, emit again: identical bytes at 12 significant digits
    out1 = tmp_path / "first.json"
    cli_main(["pinv", "--input", str(good), "--json", "--out", str(out1)])
    emitted = json.loads(out1.read_text())["payload"]["pinv"]
    back = tmp_path / "back.json"
    back.write_text(json.dumps(emitted))
    reparsed = parse_matrix(str(back), "json")
    again = Report("pinv", None, 1e-10, {"pinv": _matrix_doc(reparsed)}, {})
    re_emitted = json.loads(emit_report(again, True, io.StringIO()))["payload"]["pinv"]
    if json.dumps(emitted) != json.dumps(re_emitted):
        violations.append(("round-trip bytes", emitted, re_emitted))

    finish("criterion 9 cli contract", start, violations, trials=len(corpus), detail="")
