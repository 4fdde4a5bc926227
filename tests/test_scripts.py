import importlib.util
import sys
from pathlib import Path

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
