"""Accuracy contracts of the two Jacobi routes, checked against exact oracles.

mpmath at 40 digits is the oracle here, as NumPy is elsewhere; neither is
used by the package itself.  The SVD runs one-sided Jacobi on a
column-pivoted QR factor, which computes every singular value of
``X = B D`` (``D`` diagonal) to relative error ``O(eps kappa(B))``, however
graded ``D`` is (Demmel and Veselic, SIMAX 1992; Drmac and Veselic, SIMAX
2008).  Each accepted singular value is checked to ``0.5 k eps`` relative
(worst measured 0.28 k eps), and each singular vector, ``u_i`` and ``v_i``,
to ``||v_i - s v_i*||_2 <= 0.5 k eps / relgap_i``, ``s`` the sign of
``v_i . v_i*`` and ``relgap_i = min_{j != i} |s_i - s_j| / (s_i + s_j)`` from
the oracle's values (Demmel and Veselic's bound, with ``c = 0.5``; worst
measured 0.18 k eps / relgap_i for ``u`` and 0.11 for ``v``, the same at
2^0 and 2^+-600).  The pseudo inverse ``pinv_svd`` that users read off
them, ``G = V S^-1 U'``, is checked row by row, each row within ``4 k eps``
relative of the oracle's (worst measured 2.93 k eps), and the least-squares
estimate ``ls_svd_minnorm`` component by component, ``|b_i - b_i*| <= 4 k
eps (|G*| |y|)_i`` with ``b* = G* y`` (worst measured 1.68 k eps; against
``|b_i*|`` alone it reaches 109 k eps, the cancellation in ``G* y``, not an
error of the route).  ``eig_symmetric`` runs the same kernel on
``A + 2 ||A||_F I``, so its error is absolute: ``eps ||A||`` per eigenvalue.
"""

import functools

import mpmath
import numpy as np
import pytest

from fourspaces import eig_symmetric, ls_svd_minnorm, pinv_svd, svd_reduced
from support import random_orthogonal

EPS = np.finfo(float).eps
DIGITS = 40


def _graded_product(rng, side):
    """30 x 20 standard normal ``B`` graded by a shuffled geometric ``D`` spanning
    1e7: on its columns, its rows, or 10^3.5 on each side."""
    x = rng.standard_normal((30, 20))
    span = 10.0**-3.5 if side == "both" else 1e-7
    if side in ("columns", "both"):
        x = x * rng.permutation(np.geomspace(1.0, span, 20))
    if side in ("rows", "both"):
        x = rng.permutation(np.geomspace(1.0, span, 30))[:, None] * x
    return x


def _largest_relative_error(values, oracle):
    with mpmath.workdps(DIGITS):
        return max(float(abs(mpmath.mpf(float(v)) - w) / abs(w)) for v, w in zip(values, oracle))


def _largest_vector_error(vectors, oracle, gaps):
    """The largest ``||v_i - s v_i*||_2 * relgap_i`` over the columns ``v_i`` of
    ``vectors`` and ``v_i*`` of ``oracle``, ``s`` the sign of ``v_i . v_i*``."""
    worst = 0.0
    with mpmath.workdps(DIGITS):
        for i, gap in enumerate(gaps):
            got = [mpmath.mpf(float(v)) for v in vectors[:, i]]
            exact = [oracle[j, i] for j in range(oracle.rows)]
            sign = 1 if mpmath.fdot(got, exact) >= 0 else -1
            diff = mpmath.sqrt(mpmath.fsum((g - sign * w) ** 2 for g, w in zip(got, exact)))
            worst = max(worst, float(diff) * gap)
    return worst


@functools.cache
def _oracle(side, seed):
    """The graded product of ``side`` and ``seed`` and its oracle SVD: the
    singular values in decreasing order, the singular vectors ``u`` and ``v``
    as columns in that order, and each value's relative gap."""
    x = _graded_product(np.random.default_rng(seed), side)
    with mpmath.workdps(DIGITS):
        u, s, vt = mpmath.svd_r(mpmath.matrix(x.tolist()), compute_uv=True)
        order = sorted(range(s.rows), key=lambda i: s[i], reverse=True)
        oracle = [s[i] for i in order]
        # the oracle's singular vectors as columns, in the order of oracle
        u_exact = mpmath.matrix([[u[j, i] for i in order] for j in range(u.rows)])
        v_exact = mpmath.matrix([[vt[i, j] for i in order] for j in range(vt.cols)])
        # relgap_i = min over j != i of |s_i - s_j| / (s_i + s_j)
        gaps = [float(min(abs(a - b) / (a + b) for j, b in enumerate(oracle) if j != i))
                for i, a in enumerate(oracle)]
    return x, oracle, u_exact, v_exact, gaps


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("side", ["columns", "rows", "both"])
def test_svd_keeps_every_singular_value_of_a_graded_product_to_relative_accuracy(side, seed):
    # the singular values span about 1e8, so an absolute eps * sigma_1 bound
    # would leave the smallest with no correct digit
    x, oracle, u_exact, v_exact, gaps = _oracle(side, seed)
    k = len(oracle)
    # tall X = U S V' and wide X' = V S U': the sides swap
    for shape, a, left, right in (("tall", x, u_exact, v_exact), ("wide", x.T, v_exact, u_exact)):
        for e in (0, 600, -600):
            res = svd_reduced(np.ldexp(a, e))
            assert res.rank == k, (shape, e)
            # the power-of-two scaling is exact, and so is undoing it
            error = _largest_relative_error(np.ldexp(res.sigma, -e), oracle)
            assert error <= 0.5 * k * EPS, (shape, e, error)
            # each singular vector within 0.5 k eps / relgap_i of the oracle's
            for name, vectors, exact in (("u", res.u, left), ("v", res.v, right)):
                error = _largest_vector_error(vectors, exact, gaps)
                assert error <= 0.5 * k * EPS, (shape, e, name, error / (k * EPS))


@functools.cache
def _pinv_oracle(side, seed):
    """The oracle's pseudo inverse ``G* = V S^-1 U'`` of the graded product
    of ``side`` and ``seed``, as an mpmath matrix."""
    _, oracle, u_exact, v_exact, _ = _oracle(side, seed)
    with mpmath.workdps(DIGITS):
        return v_exact * mpmath.diag([1 / s for s in oracle]) * u_exact.T


def _largest_row_error(g, oracle):
    """The largest ``||g_i - g_i*||_2 / ||g_i*||_2`` over the rows of ``g`` and
    of the mpmath matrix ``oracle``."""
    worst = 0.0
    with mpmath.workdps(DIGITS):
        for i in range(oracle.rows):
            exact = [oracle[i, j] for j in range(oracle.cols)]
            diff = mpmath.fsum((mpmath.mpf(float(v)) - w) ** 2 for v, w in zip(g[i], exact))
            worst = max(worst, float(mpmath.sqrt(diff / mpmath.fsum(w**2 for w in exact))))
    return worst


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("side", ["columns", "rows", "both"])
def test_pinv_svd_keeps_every_row_of_a_graded_product_to_relative_accuracy(side, seed):
    # the entries of G = V S^-1 U' span the grading, so a normwise eps ||G||
    # bound would leave the smallest with no correct digit; each row is held
    # to its own norm.  Worst measured 2.93 k eps (rows, seed 0, wide), the
    # same at 2^0 and 2^+-600
    x, oracle, _, _, _ = _oracle(side, seed)
    k = len(oracle)
    exact = _pinv_oracle(side, seed)
    # the wide X' has the transposed pseudo inverse
    for shape, a, g_exact in (("tall", x, exact), ("wide", x.T, exact.T)):
        for e in (0, 600, -600):
            # pinv(2^e X) = 2^-e pinv(X), and undoing the scale is exact
            g = np.ldexp(pinv_svd(np.ldexp(a, e)), e)
            error = _largest_row_error(g, g_exact)
            assert error <= 4 * k * EPS, (shape, e, error / (k * EPS))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("side", ["columns", "rows", "both"])
def test_ls_svd_minnorm_keeps_every_component_of_beta_within_its_conditioning(side, seed):
    # beta_i = sum_j G_ij y_j can cancel, so |beta_i - beta_i*| / |beta_i*|
    # reaches 109 k eps on these inputs; each component is held to the sum of
    # the sizes of its terms, (|G*| |y|)_i, which an error of 4 k eps in each
    # row of G allows.  Worst measured 1.68 k eps (columns, seed 1, wide), the
    # same at 2^0 and 2^+-600
    x, oracle, _, _, _ = _oracle(side, seed)
    k = len(oracle)
    exact = _pinv_oracle(side, seed)
    for shape, a, g_exact in (("tall", x, exact), ("wide", x.T, exact.T)):
        y = np.random.default_rng([seed, 5]).standard_normal(a.shape[0])
        with mpmath.workdps(DIGITS):
            terms = [[g_exact[i, j] * float(y[j]) for j in range(len(y))]
                     for i in range(g_exact.rows)]
            beta_exact = [mpmath.fsum(row) for row in terms]
            size = [mpmath.fsum(abs(t) for t in row) for row in terms]
        for e in (0, 600, -600):
            # beta(2^e X) = 2^-e beta(X), and undoing the scale is exact
            beta = np.ldexp(ls_svd_minnorm(np.ldexp(a, e), y).beta_hat, e)
            with mpmath.workdps(DIGITS):
                error = max(float(abs(mpmath.mpf(float(b)) - w) / m)
                            for b, w, m in zip(beta, beta_exact, size))
            assert error <= 4 * k * EPS, (shape, e, error / (k * EPS))


def _symmetric(rng, n, spectrum):
    if spectrum == "gaussian":
        g = rng.standard_normal((n, n))
        a = g + g.T
    else:
        values = np.geomspace(1.0, 1e-10, n)
        if spectrum == "indefinite":
            values[1::2] *= -1.0
        q = random_orthogonal(rng, n)
        a = (q * values) @ q.T
    # exactly symmetric, so the oracle and eig_symmetric see the same matrix
    return (a + a.T) / 2.0


@pytest.mark.parametrize("spectrum", ["gaussian", "graded", "indefinite"])
@pytest.mark.parametrize("n", [5, 12, 20])
def test_eig_symmetric_is_accurate_to_eps_times_the_norm(n, spectrum):
    # absolute, not relative: the shift by 2 ||A||_F puts every eigenvalue
    # of the shifted matrix in [||A||_F, 3 ||A||_F], so rounding there costs
    # eps ||A|| whatever the eigenvalue's own size
    a = _symmetric(np.random.default_rng([n, 7]), n, spectrum)
    values = eig_symmetric(a).values
    with mpmath.workdps(DIGITS):
        e, _ = mpmath.eigsy(mpmath.matrix(a.tolist()))
        oracle = sorted((e[i] for i in range(n)), reverse=True)
        error = max(float(abs(mpmath.mpf(float(v)) - w)) for v, w in zip(values, oracle))
    assert error <= 2 * n * EPS * float(np.sqrt(np.sum(a * a)))
