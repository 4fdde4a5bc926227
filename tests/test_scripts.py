import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_output_hash(monkeypatch):
    """Import scripts/cli_output_hash.py with the environment and import path
    it sets restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "COLUMNS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("cli_output_hash", SCRIPTS / "cli_output_hash.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(mode, name, stdout, code=0):
    return {"argv": [name, "--input", "<tmp>/x.csv"], "mode": mode, "exit": code, "stdout": stdout}


def test_output_hash_comparison_counts_three_kinds(monkeypatch):
    hashing = _load_output_hash(monkeypatch)
    earlier = [
        _record("json", "same", '{"sigma": [1.5, 2]}'),
        _record("json", "floats", '{"sigma": [1.5, 2], "rank": 2}'),
        _record("text", "floats", "sigma: 1.5 2"),
        _record("json", "ints", '{"sigma": [1.5, 2], "rank": 2}'),
        _record("text", "ints", "rank: 2"),
        _record("json", "exit", '{"sigma": [1.5]}'),
        _record("text", "exit", "sigma: 1.5"),
        _record("json", "gone", "{}"),
        _record("usage", "help", "usage: fourspaces"),
    ]
    records = [
        _record("json", "same", '{"sigma": [1.5, 2]}'),
        # a float moves: float-only, and the text twin with it
        _record("json", "floats", '{"sigma": [1.25, 2], "rank": 2}'),
        _record("text", "floats", "sigma: 1.25 2"),
        # an integer moves: other, and the text twin too
        _record("json", "ints", '{"sigma": [1.5, 2], "rank": 1}'),
        _record("text", "ints", "rank: 1"),
        # a float-only JSON twin does not excuse a changed exit code
        _record("json", "exit", '{"sigma": [1.25]}'),
        _record("text", "exit", "sigma: 1.25", code=1),
        _record("json", "new", "{}"),
        _record("usage", "help", "usage: fourspaces [-h]"),
    ]
    kinds = hashing.compare(records, earlier)
    tail = ("--input", "<tmp>/x.csv")
    assert kinds == {
        ("json", "same", *tail): "identical",
        ("json", "floats", *tail): "float-only",
        ("text", "floats", *tail): "float-only",
        ("json", "ints", *tail): "other",
        ("text", "ints", *tail): "other",
        ("json", "exit", *tail): "float-only",
        ("text", "exit", *tail): "other",
        ("json", "gone", *tail): "other",
        ("json", "new", *tail): "other",
        ("usage", "help", *tail): "other",
    }


def test_output_hash_reports_the_largest_float_drift(monkeypatch):
    hashing = _load_output_hash(monkeypatch)

    def doc(sigma, data, rank=2):
        payload = {"rank": rank, "sigma": sigma, "pinv": {"rows": 2, "cols": 1, "data": data}}
        return json.dumps({"payload": payload, "residuals": {"gap": 0.5}})

    earlier = [
        _record("json", "small", doc([3.0, 4.0], [[1.0], [2.0]])),
        _record("json", "large", doc([5e307, -5e307], [[1.0], [0.0]])),
        _record("json", "moved", doc([1.0, 2.0], [[1.0], [1.0]])),
        _record("json", "ints", doc([1.0, 2.0], [[1.0], [1.0]])),
    ]
    records = [
        # a change of 1e-12 in norm: ||(0, 5e-12)|| / ||(3, 4)||
        _record("json", "small", doc([3.0, 4.0 + 5e-12], [[1.0], [2.0]])),
        # entries near the float range: the difference and the norms stay finite
        _record("json", "large", doc([5e307, -4e307], [[1.0], [0.0]])),
        # only a residual moves, and no payload list does
        _record("json", "moved", doc([1.0, 2.0], [[1.0], [1.0]]).replace("0.5", "0.25")),
        # an integer moves: other, so its lists are not read
        _record("json", "ints", doc([9.0, 2.0], [[1.0], [1.0]], rank=1)),
    ]
    kinds = hashing.compare(records, earlier)
    assert sorted(kinds.values()) == ["float-only"] * 3 + ["other"]
    change, key, path = hashing.largest_drift(records, earlier, kinds)
    assert (key[1], path) == ("large", "payload.sigma")
    assert change == pytest.approx(1e307 / math.hypot(5e307, 5e307), rel=1e-12)
    small = [rec for rec in records if rec["argv"][0] != "large"]
    change, key, path = hashing.largest_drift(small, earlier, kinds)
    assert (key[1], path) == ("small", "payload.sigma")
    assert change == pytest.approx(1e-12, rel=1e-3)
    # equal lists read 0, the first of them named
    moved = ("json", *small[1]["argv"])
    assert hashing.largest_drift(small[1:], earlier, kinds) == (0.0, moved, "payload.sigma")
    assert hashing.largest_drift([], earlier, kinds) is None


def test_float_drift_reads_flat_lists_of_one_length_on_one_scale(monkeypatch):
    hashing = _load_output_hash(monkeypatch)
    # a residual at rounding level moves by its own size, which is nothing on
    # the scale of the fitted values; beta has another length and its own scale
    old = {"beta": [1.0, 2.0, 2.0], "y_hat": [3.0, 4.0], "residual": [1e-16, 0.0]}
    new = {"beta": [1.0, 2.0, 2.0 + 3e-13], "y_hat": [3.0, 4.0], "residual": [-1e-16, 1e-16]}
    drifts = {path: change for change, path in hashing._drifts(new, old)}
    assert drifts["payload.y_hat"] == 0.0
    assert drifts["payload.beta"] == pytest.approx(1e-13, rel=1e-3)
    assert drifts["payload.residual"] == pytest.approx(math.hypot(2e-16, 1e-16) / 5.0, rel=1e-12)
    # subnormal entries are scaled exactly, not rounded by a halving
    tiny = {"sigma": [2.0**-1040 * 3, 2.0**-1040]}
    assert dict((p, c) for c, p in hashing._drifts(tiny, tiny)) == {"payload.sigma": 0.0}
    moved = {"sigma": [2.0**-1040 * 3, 2.0**-1039]}
    change = dict((p, c) for c, p in hashing._drifts(moved, tiny))["payload.sigma"]
    assert change == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-12)
