"""Shared builders and structural checks used across the test modules."""

import numpy as np


def full_col_rank(rng, n, p):
    """Random n x p with full column rank (requires n >= p)."""
    assert n >= p
    while True:
        x = rng.standard_normal((n, p))
        if np.linalg.matrix_rank(x) == p:
            return x


def full_row_rank(rng, n, p):
    """Random n x p with full row rank (requires p >= n)."""
    return full_col_rank(rng, p, n).T


def rank_deficient(rng, n, p, r):
    """Random n x p of exact rank r built as a sum of r outer products."""
    x = np.zeros((n, p))
    for _ in range(r):
        x += np.outer(rng.standard_normal(n), rng.standard_normal(p))
    return x


def graded(rng, n, p, r, cond):
    """Random n x p of rank r with singular values geometric from 1 to 1/cond."""
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    v = np.linalg.qr(rng.standard_normal((p, r)))[0]
    return (u * np.geomspace(1.0, 1.0 / cond, r)) @ v.T


def kahan(n, theta):
    """Kahan's upper triangular ``diag(s^i) (I - c U)``, ``U`` the strict upper ones;
    partial pivoting overestimates its numerical rank."""
    s, c = np.sin(theta), np.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def random_orthogonal(rng, n):
    """Haar-ish orthogonal factor from a QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def assert_echelon_structure(res, shape):
    """Exact structural checks on a row-echelon result."""
    n, p = shape
    r = res.pivot_rank
    assert r == len(res.pivot_cols)
    assert list(res.pivot_cols) == sorted(res.pivot_cols)
    # rows past the last pivot are flushed to exact zeros
    assert np.all(res.reduced[r:, :] == 0.0)
    for i, c in enumerate(res.pivot_cols):
        unit = np.zeros(n)
        unit[i] = 1.0
        assert np.array_equal(res.reduced[:, c], unit)
        # nothing survives left of a leading one
        assert np.all(res.reduced[i, :c] == 0.0)
