"""Spans around the public functions of each ``fourspaces`` layer.

The benchmark wraps, from its own files, the functions named in ``LAYERS``
in every ``fourspaces`` module that binds them (a ``from .x import f`` makes
a second binding) and in the module-level dicts that hold them (such as the
CLI's solver table), so calls through any module are seen.  Spans are kept in
memory as ``[name, start, end, parent, op, n3]`` and written out at the end.
``n3`` is the sum of ``n**3`` over the square matrices a call receives
(``rows * cols * min(rows, cols)`` for the others): work computed from sizes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

LAYERS = {
    "spectral": ("eig_symmetric",),
    "factorizations": ("svd_full", "svd_reduced", "cr_decompose"),
    "matrix": ("rref_rows", "invert"),
    "subspaces": ("fundamental_bases",),
    "inverses": ("pinv_svd", "pinv_cr", "classify_inverse", "rg_canonical"),
    "solve": ("consistent_unique_solve",),
    "cli": ("parse_matrix", "emit_report", "main"),
}

# The per-layer metrics the traced run reports, as named in BENCHMARK.json.
PER_LAYER = (
    "spectral.eig_symmetric.calls",
    "spectral.eig_symmetric.self_s",
    "spectral.eig_symmetric.n3",
    "factorizations.svd_full.calls",
    "factorizations.svd_full.self_s",
    "factorizations.svd_reduced.calls",
    "factorizations.svd_reduced.self_s",
    "factorizations.cr_decompose.self_s",
    "matrix.rref_rows.calls",
    "matrix.rref_rows.self_s",
    "matrix.invert.calls",
    "subspaces.fundamental_bases.calls",
    "inverses.pinv_svd.calls",
    "inverses.pinv_cr.self_s",
    "inverses.classify_inverse.self_s",
    "inverses.rg_canonical.self_s",
    "solve.consistent_unique_solve.self_s",
    "cli.parse_matrix.self_s",
    "cli.emit_report.self_s",
    "cli.main.self_s",
)
UNITS = {"calls": "count", "self_s": "s", "n3": "count"}


def _n3(args):
    total = 0
    for arg in args:
        if isinstance(arg, np.ndarray) and arg.ndim == 2:
            rows, cols = arg.shape
            total += rows * cols * min(rows, cols)
    return total


class Tracer:
    """Installs span-recording wrappers; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, _n3(args)]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "fourspaces" or key.startswith("fourspaces.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"fourspaces.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    # module attributes, and dispatch tables such as cli._SOLVERS
                    tables = [vars(mod)]
                    tables += [v for v in vars(mod).values() if isinstance(v, dict)]
                    for table in tables:
                        for key, value in list(table.items()):
                            if value is original:
                                table[key] = wrapper
                                self._patched.append((table, key, original))

    def remove(self):
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched = []

    def per_op(self, factors):
        """Per-layer metrics per operation; self times host-normalised.

        ``factors`` maps each traced operation id to its normalising factor.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, n3 in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for k, (name, start, end, parent, op, n3) in enumerate(self.spans):
            if op not in factors:
                continue
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "n3": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_time[k]) * factors[op]
            entry["n3"] += n3
        count = len(factors)
        return {
            name: {key: value / count for key, value in entry.items()}
            for name, entry in totals.items()
        }

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op, n3 in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "op": op, "n3": n3}
                handle.write(json.dumps(record) + "\n")
