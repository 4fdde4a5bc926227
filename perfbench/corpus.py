"""Seeded input corpora for the three workloads.

Each workload is one shape family.  ``build`` writes the corpus files and
returns one ``Op`` per CLI invocation of a pass; the matrices the files were
made from stay in memory for the checks, so the program sees only the files.
The same seed always gives byte-identical files.

- ``report``: 12 CSV files, 60x40, ranks 7, 8 and 9 (four of each),
  ``A @ B`` with Gaussian factors; one ``report`` per file.  Three in four
  such inputs take 7 Jacobi sweeps per eigendecomposition (rank 6 drops
  to two in three), so the median operation sits inside one class.
- ``graded``: 12 JSON files, 80x60, full rank, ``U diag(s) V'`` with
  independent random orthogonal ``U`` and ``V`` and a geometric spectrum
  from 1 down to ``1/cond``.  Nine are seeded: a core of six at cond
  24-34, which take 10 Jacobi sweeps, flanked by cond 10, 15 and 100, so
  the median sits inside the core.  Three have cond 1e4 and come from a
  fixed seed: they take 13 sweeps, so the tail (ten operations beyond it
  in a run of four or more passes) sits inside them, and the Gram-route
  SVD fails them on every run (``known_fault``).
- ``elimination``: 120x100 JSON files.  Three rank-deficient ``A @ B``
  (rank 60, 70, 80) each get ``cr`` and ``ginv``; three Gaussian
  full-column-rank matrices each get ``leftinv --method elementary`` and
  ``solve --method unique`` with ``y = X beta0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("report", "graded", "elimination")

# Seed of the cond-1e4 inputs that the Gram-route SVD mislabels; it does
# not depend on --seed, so the failures are the same on every run.
KNOWN_FAULT_SEED = 1_000_004

REPORT_SHAPE = (60, 40)
REPORT_RANKS = (7, 8, 9) * 4
GRADED_SHAPE = (80, 60)
GRADED_CONDS = (10.0, 15.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 100.0)
GRADED_FAULT_CONDS = (1e4, 1e4, 1e4)
ELIM_SHAPE = (120, 100)
ELIM_RANKS = (60, 70, 80)


@dataclass
class Op:
    """One CLI invocation and what the checks need to judge its output."""

    name: str
    kind: str
    argv: list
    x: np.ndarray
    rank: int
    beta0: np.ndarray | None = None
    known_fault: bool = False


def _write_csv(path, x):
    with open(path, "w") as handle:
        for row in x:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path, x):
    with open(path, "w") as handle:
        json.dump({"rows": x.shape[0], "cols": x.shape[1], "data": x.tolist()}, handle)


def _low_rank(rng, shape, rank):
    n, p = shape
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))


def _orthonormal(rng, n, p):
    q, r = np.linalg.qr(rng.standard_normal((n, p)))
    return q * np.sign(np.diag(r))


def graded_matrix(rng, shape, cond):
    """Full-rank matrix with singular values geometric from 1 to 1/cond."""
    n, p = shape
    sigma = np.logspace(0.0, -np.log10(cond), p)
    return (_orthonormal(rng, n, p) * sigma) @ _orthonormal(rng, p, p).T


def _rng(workload, seed):
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def build(workload, seed, outdir):
    """Write the corpus of ``workload`` for ``seed`` into ``outdir``; return its ops."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    ops = []
    if workload == "report":
        for k, rank in enumerate(REPORT_RANKS):
            x = _low_rank(rng, REPORT_SHAPE, rank)
            path = outdir / f"report_{k}.csv"
            _write_csv(path, x)
            ops.append(Op(path.stem, "report", ["report", "--input", str(path)], x, rank))
    elif workload == "graded":
        fault_rng = np.random.default_rng(KNOWN_FAULT_SEED)
        inputs = [(c, rng, False) for c in GRADED_CONDS]
        inputs += [(c, fault_rng, True) for c in GRADED_FAULT_CONDS]
        for k, (cond, source, fault) in enumerate(inputs):
            x = graded_matrix(source, GRADED_SHAPE, cond)
            path = outdir / f"graded_{k}.json"
            _write_json(path, x)
            argv = ["pinv", "--input", str(path), "--format", "json"]
            ops.append(Op(path.stem, "pinv", argv, x, GRADED_SHAPE[1], known_fault=fault))
    elif workload == "elimination":
        for k, rank in enumerate(ELIM_RANKS):
            x = _low_rank(rng, ELIM_SHAPE, rank)
            path = outdir / f"deficient_{k}.json"
            _write_json(path, x)
            for cmd in ("cr", "ginv"):
                argv = [cmd, "--input", str(path), "--format", "json"]
                ops.append(Op(f"{cmd}_{k}", cmd, argv, x, rank))
        for k in range(len(ELIM_RANKS)):
            x = rng.standard_normal(ELIM_SHAPE)
            beta0 = rng.standard_normal(ELIM_SHAPE[1])
            path = outdir / f"fullrank_{k}.json"
            ypath = outdir / f"fullrank_{k}_y.json"
            _write_json(path, x)
            _write_json(ypath, (x @ beta0)[:, None])
            common = ["--input", str(path), "--format", "json"]
            ops.append(Op(f"leftinv_{k}", "leftinv",
                          ["leftinv", "--method", "elementary", *common], x, ELIM_SHAPE[1]))
            ops.append(Op(f"solve_{k}", "solve",
                          ["solve", "--method", "unique", "--y", str(ypath), *common],
                          x, ELIM_SHAPE[1], beta0=beta0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
