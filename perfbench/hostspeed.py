"""Host-speed probe and host-normalised time.

A shared host changes speed by up to 2x over minutes, so a raw wall time
cannot be compared between two runs.  The probe below runs a fixed amount of
the kinds of work ``fourspaces`` does -- interpreter-bound calls on small
NumPy arrays (the shape of one Jacobi rotation), a plain Python loop with
float formatting (the shape of parsing and report emission) and eight small
dense products -- and never calls ``fourspaces``.  A time measured next to the probe is rescaled
to what it would have been on a host where the probe takes
``NOMINAL_PROBE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Median of the run-median probe times over ten runs when the benchmark was
# introduced (4.96 ms, on a 2-vCPU x86-64 VM with single-threaded OpenBLAS),
# rounded to two digits.  Changing it rescales every time metric.
NOMINAL_PROBE_S = 0.0050

_rng = np.random.default_rng(20210809)
_SMALL = _rng.standard_normal((40, 40))
_DENSE = _rng.standard_normal((120, 120))
_ROTATIONS = 260
_LOOP = 10000
_PRODUCTS = 8


def probe():
    """Wall seconds for one fixed round of mixed work."""
    a = _SMALL.copy()
    t0 = time.perf_counter()
    for k in range(_ROTATIONS):
        i = k % 39
        j = i + 1
        ci = a[:, i].copy()
        cj = a[:, j].copy()
        a[:, i] = 0.8 * ci - 0.6 * cj
        a[:, j] = 0.6 * ci + 0.8 * cj
    acc = 0.0
    parts = []
    for k in range(_LOOP):
        acc += k * 0.5
        if k % 8 == 0:
            parts.append(f"{acc:.12g}")
    for _ in range(_PRODUCTS):
        prod = _DENSE @ _DENSE
    t1 = time.perf_counter()
    if not (np.isfinite(prod[0, 0]) and parts):
        raise RuntimeError("probe produced no result")
    return t1 - t0


def normalise(wall_s, probe_s):
    """Host-normalised seconds for a wall time measured beside a probe."""
    return wall_s * NOMINAL_PROBE_S / probe_s
