"""Kernel reference sweep: single layers timed on their own.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py

Times ``matrix.rref_rows``, ``spectral.eig_symmetric``,
``factorizations.svd_reduced``, ``inverses.classify_inverse`` and
``cli.emit_report`` on seeded n x n inputs, next to ``numpy.linalg.eigh``
and ``numpy.linalg.svd`` for scale.  Prints a Markdown table of median raw
wall times and their host-normalised values, and writes the same figures
to ``.perfbench-out/sweep.json``.  These are reference figures for the
README, not benchmark metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from run import OUT, load_program  # noqa: E402

SIZES = (20, 40, 80, 160)
MIN_REPS = 3
MIN_SECONDS = 1.0


def _time(fn):
    """Median wall seconds of ``fn()`` and of the probes around it."""
    walls, probes = [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        before = hostspeed.probe()
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
        probes.append((before + hostspeed.probe()) / 2)
    return statistics.median(walls), statistics.median(probes)


def kernels(n, rng):
    import fourspaces
    from fourspaces import cli

    x = rng.standard_normal((n, n))
    sym = x.T @ x
    g = np.linalg.pinv(x)
    report = cli.Report("pinv", (n, n), 1e-10, {"pinv": cli._matrix_doc(g)}, {})
    return {
        "rref_rows": lambda: fourspaces.rref_rows(x),
        "eig_symmetric": lambda: fourspaces.eig_symmetric(sym),
        "svd_reduced": lambda: fourspaces.svd_reduced(x),
        "classify_inverse": lambda: fourspaces.classify_inverse(x, g),
        "emit_report": lambda: cli.emit_report(report, json_mode=True, stream=io.StringIO()),
        "numpy.linalg.eigh": lambda: np.linalg.eigh(sym),
        "numpy.linalg.svd": lambda: np.linalg.svd(x),
    }


def main():
    load_program()
    rng = np.random.default_rng(40)
    rows = []
    for n in SIZES:
        for name, fn in kernels(n, rng).items():
            wall, probe = _time(fn)
            rows.append({"kernel": name, "n": n, "wall_s": wall, "probe_s": probe,
                         "norm_s": hostspeed.normalise(wall, probe)})
    print("| kernel | n | median wall ms | host-normalised ms | probe ms |")
    print("|---|---|---|---|---|")
    for row in sorted(rows, key=lambda r: (r["kernel"], r["n"])):
        print(f"| `{row['kernel']}` | {row['n']} | {row['wall_s'] * 1e3:.3g} | "
              f"{row['norm_s'] * 1e3:.3g} | {row['probe_s'] * 1e3:.2f} |")
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(
        {"numpy": np.__version__, "nominal_probe_s": hostspeed.NOMINAL_PROBE_S, "rows": rows},
        indent=1))


if __name__ == "__main__":
    main()
