"""Output checks made apart from the program.

NumPy is the oracle: every product, projector and reference inverse below
is computed here from the matrix the corpus was built from, never by
``fourspaces``.  Each check returns a list of problems; an empty list means
the output is correct.  Reports carry numbers at 12 significant digits, so
bounds sit well above 1e-12 relative and well below any real defect.
"""

from __future__ import annotations

import numpy as np

ORTHO_TOL = 1e-9      # ||B'B - I||_F and cross-products of complementary bases
PROJECTOR_TOL = 1e-8  # ||P - P_numpy||_F of the column-space projector
PINV_RTOL = 1e-7      # ||G - pinv_numpy||_F / ||pinv_numpy||_F
IDENTITY_RTOL = 1e-9  # identity defects relative to the product of the norms
BETA_RTOL = 1e-8      # ||beta - beta0|| / ||beta0||
COLUMN_RTOL = 1e-10   # a column of C against the column of X it was taken from


def _matrix(doc):
    arr = np.array(doc["data"], dtype=float)
    return arr.reshape(doc["rows"], doc["cols"])


def _fro(a):
    return float(np.linalg.norm(a))


def _numpy_pinv(x, rank):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return (vt[:rank].T / s[:rank]) @ u[:, :rank].T


def _orthonormal(name, b, problems):
    defect = _fro(b.T @ b - np.eye(b.shape[1]))
    if defect > ORTHO_TOL:
        problems.append(f"{name} is not orthonormal ({defect:.2e} > {ORTHO_TOL:.2e})")


def _orthogonal(name, a, b, problems):
    overlap = _fro(a.T @ b) if a.size and b.size else 0.0
    if overlap > ORTHO_TOL:
        problems.append(f"{name} are not orthogonal ({overlap:.2e} > {ORTHO_TOL:.2e})")


def _label(payload, problems):
    if payload.get("class_label") != "pseudo-inverse":
        problems.append(f"labelled {payload.get('class_label')!r}, not 'pseudo-inverse'")


def _pinv_agrees(g, x, rank, problems):
    ref = _numpy_pinv(x, rank)
    if g.shape != ref.shape:
        problems.append(f"pinv has shape {g.shape}, expected {ref.shape}")
        return
    err = _fro(g - ref) / _fro(ref)
    if err > PINV_RTOL:
        problems.append(f"pinv differs from numpy.linalg.pinv ({err:.2e} > {PINV_RTOL:.2e})")


def check_report(op, payload):
    problems = []
    x, r = op.x, op.rank
    n, p = x.shape
    if payload.get("rank") != r:
        return [f"rank {payload.get('rank')} != constructed rank {r}"]
    if payload.get("dim_null") != p - r or payload.get("dim_left_null") != n - r:
        problems.append("subspace dimensions do not add up")
    bases = {key: _matrix(doc) for key, doc in payload["bases"].items()}
    expected = {
        "row_space": (p, r),
        "null_space": (p, p - r),
        "column_space": (n, r),
        "left_null_space": (n, n - r),
    }
    for key, shape in expected.items():
        if bases[key].shape != shape:
            problems.append(f"{key} has shape {bases[key].shape}, expected {shape}")
    if problems:
        return problems
    for key, basis in bases.items():
        _orthonormal(key, basis, problems)
    _orthogonal("row and null space", bases["row_space"], bases["null_space"], problems)
    _orthogonal(
        "column and left null space", bases["column_space"], bases["left_null_space"], problems
    )
    u = np.linalg.svd(x)[0][:, :r]
    col = bases["column_space"]
    gap = _fro(col @ col.T - u @ u.T)
    if gap > PROJECTOR_TOL:
        problems.append(f"column-space projector differs from numpy ({gap:.2e} > {PROJECTOR_TOL:.2e})")
    _pinv_agrees(_matrix(payload["pinv"]), x, r, problems)
    _label(payload, problems)
    return problems


def check_pinv(op, payload):
    problems = []
    x = op.x
    g = _matrix(payload["pinv"])
    _label(payload, problems)
    if g.shape == (x.shape[1], x.shape[0]) and np.linalg.matrix_rank(g) != x.shape[1]:
        problems.append("pinv is not of full rank")
    _pinv_agrees(g, x, x.shape[1], problems)
    return problems


def check_cr(op, payload):
    x = op.x
    c, rf = _matrix(payload["c"]), _matrix(payload["r_factor"])
    if payload.get("rank") != op.rank or c.shape[1] != op.rank or rf.shape[0] != op.rank:
        return [f"rank {payload.get('rank')} != constructed rank {op.rank}"]
    problems = []
    picked = []
    for j in range(c.shape[1]):
        dist = np.linalg.norm(x - c[:, j : j + 1], axis=0) / np.linalg.norm(x, axis=0)
        k = int(np.argmin(dist))
        if dist[k] > COLUMN_RTOL:
            problems.append(f"column {j} of C is not a column of X ({dist[k]:.2e} > {COLUMN_RTOL:.2e})")
        picked.append(k)
    if picked != sorted(set(picked)):
        problems.append("columns of C are not distinct columns of X in order")
    defect, bound = _fro(c @ rf - x), IDENTITY_RTOL * _fro(c) * _fro(rf)
    if defect > bound:
        problems.append(f"C R != X ({defect:.2e} > {bound:.2e})")
    return problems


def check_ginv(op, payload):
    x = op.x
    g = _matrix(payload["ginverse"])
    if g.shape != (x.shape[1], x.shape[0]):
        return [f"g-inverse has shape {g.shape}"]
    problems = []
    nx, ng = _fro(x), _fro(g)
    defect, bound = _fro(x @ g @ x - x), IDENTITY_RTOL * nx * nx * ng
    if defect > bound:
        problems.append(f"X G X != X ({defect:.2e} > {bound:.2e})")
    defect, bound = _fro(g @ x @ g - g), IDENTITY_RTOL * ng * ng * nx
    if defect > bound:
        problems.append(f"G X G != G ({defect:.2e} > {bound:.2e})")
    return problems


def check_leftinv(op, payload):
    x = op.x
    g = _matrix(payload["left_inverse"])
    if g.shape != (x.shape[1], x.shape[0]):
        return [f"left inverse has shape {g.shape}"]
    defect, bound = _fro(g @ x - np.eye(x.shape[1])), IDENTITY_RTOL * _fro(g) * _fro(x)
    if defect > bound:
        return [f"G X != I ({defect:.2e} > {bound:.2e})"]
    return []


def check_solve(op, payload):
    beta = np.array(payload["beta_hat"], dtype=float)
    if beta.shape != op.beta0.shape:
        return [f"beta has shape {beta.shape}"]
    err = float(np.linalg.norm(beta - op.beta0) / np.linalg.norm(op.beta0))
    if err > BETA_RTOL:
        return [f"beta differs from beta0 ({err:.2e} > {BETA_RTOL:.2e})"]
    return []


CHECKS = {
    "report": check_report,
    "pinv": check_pinv,
    "cr": check_cr,
    "ginv": check_ginv,
    "leftinv": check_leftinv,
    "solve": check_solve,
}


def check(op, exit_code, doc):
    """Problems with one CLI answer: its exit code and its JSON report."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {doc.get('payload', {}).get('error') if doc else None}"]
    if doc.get("command") != op.argv[0]:
        return [f"report is for {doc.get('command')!r}"]
    return CHECKS[op.kind](op, doc["payload"])
