"""Hash every output of the ``fourspaces`` command line over a fixed input set.

Usage, from the root of a checkout:

    python3 scripts/cli_output_hash.py [--dump FILE] [--against FILE]

Two sets of invocations run in-process through ``fourspaces.cli.main``:

- the three benchmark corpora of ``perfbench/corpus.py`` at seed 1, read
  as they are;
- a fixed set of small inputs drawn from ``numpy.random.default_rng(11)``
  (tall, wide, square, rank-deficient, zero, 1 x 1, single row and column,
  identity, integer, a column of float literals that ``%.12g`` and
  ``repr`` write differently, a 6 x 4 matrix scaled by 2^600 whose
  ``X'r`` in ``solve`` passes the float range, and the same matrix, drawn afresh
  from ``default_rng(3)``, scaled by 5e307, where its Frobenius norm and
  largest singular value pass the float range, Kahan's 20 x 20 matrix
  at theta = 0.3, where the SVD's two QRs keep 20 and 19 directions for
  a numerical rank of 11 and the CR route of ``pinv`` fails, and the same
  ``default_rng(3)`` matrix scaled by 2^-1040, whose entries are subnormal
  and whose pseudo inverse lies past the float range), each through all 12
  subcommands, every ``--method`` (``family`` with and without ``--y``),
  both ``--side`` values, and ``ginv`` with and without free blocks;
- four malformed files through ``rank`` (a JSON ``data`` that is a number,
  a JSON integer past the float range, a CSV file that is not UTF-8 and
  JSON nested 200,000 deep), the non-UTF-8 one also as the ``--g`` of
  ``classify``.

Each invocation runs in JSON mode and in text mode.  Every output is one
record of argv, mode, exit code and standard output, with the temporary
directory replaced by ``<tmp>``.  An exception that escapes ``cli.main``
is recorded too, as ``raised``: its type and message.

A third set, in ``usage`` mode, records what the argument parser itself
prints: ``--help`` of the root parser and of each subcommand, and the
usage errors of an unknown subcommand and of an unknown ``--method`` for
``solve`` and for ``leftinv``.  These records also hold standard error.
Help is wrapped at a fixed width of 80 columns.

The script prints the number of outputs, how many JSON- and text-mode runs
raised, how many wrote to standard error (a warning, say; every warning is
shown, and standard error is not part of those records), then the mode and
argv of each such run, one a line, so a change in that count can be traced
to the runs behind it, and the sha256 of the sorted records: of the
JSON-mode ones, of the text-mode ones, of the usage-mode ones, and of all.
``--dump FILE`` also writes the records as JSON lines, so two checkouts can
be diffed.  ``--against FILE`` compares the records with those of an
earlier ``--dump``, matched by mode and argv, and counts three kinds:
identical; float-only, where a JSON-mode record equals its earlier self
once every float in its document is masked, and a text-mode record has a
float-only JSON twin and the same exit code; and other, listed by mode and
argv, one a line.  A record present on one side only counts as other.
Last comes the largest float drift: the largest normwise relative change
``||new - old||_F / ||old||_F`` of any float list or matrix in the payload
of a float-only JSON-mode record, with its argv and key.  Flat lists of one
length in one payload are read on one scale, the largest of their norms,
so the residual of a consistent system, a vector at rounding level, is
measured against the fitted values and not against itself.  The norms are
taken at a power-of-two scale, so inputs near the float range do not
overflow them.

A refactor that claims unchanged output should give the same sha256 on both
sides.  The hash depends on the BLAS build, so it compares two checkouts on
one machine; it is no fixed reference value.
"""

import os

# one BLAS thread, as in perfbench/run.py: products then round the same way
# on every run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# argparse wraps help at the terminal width; pin it
os.environ["COLUMNS"] = "80"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from fourspaces import cli  # noqa: E402

CORPUS_SEED = 1
SMALL_SEED = 11
SUBCOMMANDS = tuple(cli._HANDLERS)


def small_inputs(rng):
    """Named small matrices covering the shapes and ranks the CLI branches on."""
    return {
        "tall": rng.standard_normal((6, 4)),
        "wide": rng.standard_normal((4, 6)),
        "square": rng.standard_normal((5, 5)),
        "deficient_tall": rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5)),
        "deficient_wide": rng.standard_normal((4, 2)) @ rng.standard_normal((2, 7)),
        "zero": np.zeros((3, 4)),
        "one_by_one": np.array([[rng.standard_normal()]]),
        "one_by_one_zero": np.zeros((1, 1)),
        "single_row": rng.standard_normal((1, 5)),
        "single_column": rng.standard_normal((5, 1)),
        "identity": np.eye(4),
        "integer_rank_one": np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 2.0, 0.0]),
        "sparse_diagonal": np.diag([3.0, 0.0, 1e-3, 2.0]),
        "integer_2x3": np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        "integer_3x2": np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]),
        # rank 1; cr writes the first column as C, literals where "%.12g"
        # and repr part ways (exponents 12 to 15, subnormal, -0.0, integers)
        "edge_literals": np.array(
            [[1e13, 1], [123456789012345, 2.5], [5e-324, 3], [-0.0, 4], [1e-5, 100], [100, 7]]
        ),
        # ||X'r|| passes the float range, so solve reports a non-finite path
        "scaled_2^600": np.ldexp(np.random.default_rng(3).standard_normal((6, 4)), 600),
        # ||X||_F and sigma_1 pass the float range: typed failures, no warning
        "scaled_5e307": np.random.default_rng(3).standard_normal((6, 4)) * 5e307,
        # numerical rank 11, but 19 directions above rounding: the SVD's
        # QRs keep them all and the cutoff alone sets the rank
        "kahan_20": kahan(20, 0.3),
        # subnormal entries: projectors answer, a pseudo inverse past the
        # float range fails typed
        "scaled_2^-1040": np.ldexp(np.random.default_rng(3).standard_normal((6, 4)), -1040),
    }


def kahan(n, theta):
    """Kahan's upper triangular matrix ``diag(s^i) (I - c U)``, ``U`` the strict upper ones."""
    s, c = np.sin(theta), np.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


# files the parser must turn into a typed failure, by name and format
MALFORMED = {
    "data_not_array": ("json", b'{"rows":1,"cols":1,"data":5}'),
    "int_past_float_range": ("json", b'{"rows":1,"cols":1,"data":[[1' + b"0" * 400 + b"]]}"),
    "not_utf8": ("csv", b"1,2\n3,\xff\n"),
    "nested_deep": ("json", b"[" * 200_000 + b"]" * 200_000),
}


def malformed_invocations(tmp):
    """Argument vectors reading each malformed file."""
    fixed = _write_csv(tmp / "malformed_x.csv", np.eye(2))
    invocations = []
    for name, (fmt, content) in MALFORMED.items():
        path = tmp / f"{name}.{fmt}"
        path.write_bytes(content)
        invocations.append(["rank", "--input", str(path), "--format", fmt])
    invocations.append(["classify", "--input", fixed, "--g", str(tmp / "not_utf8.csv")])
    return invocations


def _write_csv(path, x):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
    return str(path)


def small_invocations(rng, tmp):
    """Argument vectors running every subcommand on every small input."""
    invocations = []
    for name, x in small_inputs(rng).items():
        n, p = x.shape
        r = int(np.linalg.matrix_rank(x))
        src = _write_csv(tmp / f"{name}.csv", x)
        common = ["--input", src]
        for cmd in ("rank", "svd", "cr", "subspaces", "pinv", "ginv", "report"):
            invocations.append([cmd, *common])
        a = _write_csv(tmp / f"{name}_a.csv", rng.standard_normal((r, n - r))) if r and n > r else None
        b = _write_csv(tmp / f"{name}_b.csv", rng.standard_normal((p - r, r))) if r and p > r else None
        if a or b:
            invocations.append(["ginv", *common]
                               + (["--a", a] if a else []) + (["--b", b] if b else []))
        # x * x overflows for the 2^600 input, whose candidate is then zero
        with np.errstate(over="ignore"):
            g = _write_csv(tmp / f"{name}_g.csv", x.T / (1.0 + float(np.sum(x * x))))
        invocations.append(["classify", *common, "--g", g])
        for side in ("col", "row"):
            invocations.append(["project", *common, "--side", side])
        y_left = _write_csv(tmp / f"{name}_yl.csv", rng.standard_normal((p, max(n - p, 1))))
        y_right = _write_csv(tmp / f"{name}_yr.csv", rng.standard_normal((max(p - n, 1), n)))
        for cmd, y_block in (("leftinv", y_left), ("rightinv", y_right)):
            for method in ("normal", "elementary", "family"):
                invocations.append([cmd, *common, "--method", method])
            invocations.append([cmd, *common, "--method", "family", "--y", y_block])
        # a consistent right-hand side, so "unique" gets past its check
        y = _write_csv(tmp / f"{name}_y.csv", (x @ rng.standard_normal(p))[:, None])
        for method in ("normal", "svd", "unique", "right"):
            invocations.append(["solve", *common, "--method", method, "--y", y])
    return invocations


def corpus_invocations(tmp):
    """Argument vectors of every operation of the three benchmark corpora."""
    return [op.argv for w in corpus.WORKLOADS for op in corpus.build(w, CORPUS_SEED, tmp / w)]


def usage_invocations(tmp):
    """Argument vectors of every help page and of three usage errors."""
    src = _write_csv(tmp / "usage.csv", np.eye(2))
    return [
        ["--help"],
        *([cmd, "--help"] for cmd in SUBCOMMANDS),
        ["frobnicate", "--input", src],
        ["solve", "--input", src, "--y", src, "--method", "bogus"],
        ["leftinv", "--input", src, "--method", "bogus"],
    ]


def run_usage(argv, tmp):
    """One parser-level run as a record holding both output streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    mask = str(tmp)
    return {
        "argv": [a.replace(mask, "<tmp>") for a in argv],
        "mode": "usage",
        "exit": code,
        "stdout": out.getvalue().replace(mask, "<tmp>"),
        "stderr": err.getvalue().replace(mask, "<tmp>"),
    }


def run(argv, json_mode, tmp):
    """One in-process CLI run as a record and whether it wrote to standard
    error; the temporary path is masked, and standard error is not hashed.
    An exception escaping ``cli.main`` leaves exit code None and is recorded."""
    full = argv + (["--json"] if json_mode else [])
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(full)
        except Exception as exc:
            raised = f"{type(exc).__name__}: {exc}"
    mask = str(tmp)
    record = {
        "argv": [a.replace(mask, "<tmp>") for a in argv],
        "mode": "json" if json_mode else "text",
        "exit": code,
        "stdout": out.getvalue().replace(mask, "<tmp>"),
    }
    if raised is not None:
        record["raised"] = raised.replace(mask, "<tmp>")
    return record, bool(err.getvalue())


def _masked(obj):
    """``obj`` with every float replaced by a placeholder, containers walked."""
    if isinstance(obj, float):
        return "<float>"
    if isinstance(obj, dict):
        return {key: _masked(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_masked(value) for value in obj]
    return obj


def _float_masked(record):
    """A JSON-mode record with its document parsed and every float masked."""
    try:
        doc = json.loads(record["stdout"])
    except json.JSONDecodeError:
        doc = record["stdout"]
    return _masked({**record, "stdout": doc})


def compare(records, earlier):
    """Kind of each record against ``earlier``, keyed by mode and argv:
    ``identical``, ``float-only`` or ``other``, as the module docstring says."""
    before = {(rec["mode"], *rec["argv"]): rec for rec in earlier}
    now = {(rec["mode"], *rec["argv"]): rec for rec in records}
    kinds = {key: "other" for key in before.keys() - now.keys()}
    # JSON-mode records first, so a text-mode record finds its twin's kind
    for key in sorted(now, key=lambda key: key[0] != "json"):
        rec, old = now[key], before.get(key)
        if rec == old:
            kinds[key] = "identical"
        elif old is None:
            kinds[key] = "other"
        elif rec["mode"] == "json" and _float_masked(rec) == _float_masked(old):
            kinds[key] = "float-only"
        elif (rec["mode"] == "text" and rec["exit"] == old["exit"]
              and kinds.get(("json", *key[1:])) == "float-only"):
            kinds[key] = "float-only"
        else:
            kinds[key] = "other"
    return kinds


def _numeric(obj):
    """Whether ``obj`` is a nonempty list of numbers, or of such lists of one
    length: a float list, or the ``data`` of a matrix."""
    if not isinstance(obj, list) or not obj:
        return False
    if all(isinstance(v, list) for v in obj):
        return all(_numeric(v) and len(v) == len(obj[0]) for v in obj)
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)


def _log2_norm(a):
    """``log2`` of the Frobenius norm of ``a``, ``-inf`` for zero, taken at the
    power of two that brings the largest entry into [0.5, 1), so entries
    near either end of the float range neither overflow nor underflow."""
    top = float(np.max(np.abs(a)))
    if top == 0.0:
        return -math.inf
    e = int(np.frexp(top)[1])
    scaled = np.ldexp(a, -e)
    return e + math.log2(math.sqrt(float(np.sum(scaled * scaled))))


def _log2_change(new, old):
    """:func:`_log2_norm` of ``new - old``, the two first scaled by one power
    of two, so the difference of entries near the float range is finite."""
    top = max(float(np.max(np.abs(new))), float(np.max(np.abs(old))))
    if top == 0.0:
        return -math.inf
    e = int(np.frexp(top)[1])
    return e + _log2_norm(np.ldexp(new, -e) - np.ldexp(old, -e))


def _lists(new, old, path):
    """``(path, new, old)`` of every float list and matrix ``data`` of ``new``
    and its place in ``old``; both documents have one structure."""
    if _numeric(new) and _numeric(old):
        yield path, np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    elif isinstance(new, dict) and isinstance(old, dict):
        for key, value in new.items():
            yield from _lists(value, old.get(key), f"{path}.{key}")
    elif isinstance(new, list) and isinstance(old, list):
        for i, (value, before) in enumerate(zip(new, old)):
            yield from _lists(value, before, f"{path}[{i}]")


def _drifts(new, old):
    """``(change, path)`` of every float list and matrix of two payloads.

    The change is ``||new - old||_F`` over the scale of the list: its own
    norm for a matrix and, for a flat list, the largest norm among the flat
    lists of its length in the payload, which are vectors of one space.  So
    a residual at rounding level is read on the scale of the fitted values
    it is the remainder of, not on its own.
    """
    found = list(_lists(new, old, "payload"))
    space = {}
    for _, _, before in found:
        if before.ndim == 1:
            space[len(before)] = max(space.get(len(before), -math.inf), _log2_norm(before))
    for path, now, before in found:
        scale = space[len(before)] if before.ndim == 1 else _log2_norm(before)
        change = _log2_change(now, before)
        if change == -math.inf:
            yield 0.0, path
        else:
            yield (math.inf if change - scale >= 1024 else 2.0 ** (change - scale)), path


def largest_drift(records, earlier, kinds):
    """The largest change of :func:`_drifts` over the float-only JSON-mode
    records, as ``(change, key, path)``, or None when none holds a list."""
    before = {(rec["mode"], *rec["argv"]): rec for rec in earlier}
    drifts = []
    for rec in records:
        key = (rec["mode"], *rec["argv"])
        if rec["mode"] == "json" and kinds.get(key) == "float-only":
            new = json.loads(rec["stdout"]).get("payload")
            old = json.loads(before[key]["stdout"]).get("payload")
            drifts += [(change, key, path) for change, path in _drifts(new, old)]
    return max(drifts, default=None, key=lambda drift: drift[0])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="FILE", help="also write the records as JSON lines")
    parser.add_argument("--against", metavar="FILE",
                        help="compare the records with an earlier --dump")
    args = parser.parse_args(argv)
    # every warning reaches standard error, not only its first occurrence
    warnings.simplefilter("always")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        invocations = corpus_invocations(tmp)
        invocations += small_invocations(np.random.default_rng(SMALL_SEED), tmp)
        invocations += malformed_invocations(tmp)
        runs = [run(a, mode, tmp) for a in invocations for mode in (True, False)]
        records = [rec for rec, _ in runs]
        usage = usage_invocations(tmp)
        records += [run_usage(a, tmp) for a in usage]
    lines = {mode: sorted(json.dumps(rec, sort_keys=True) for rec in records if rec["mode"] == mode)
             for mode in ("json", "text", "usage")}
    lines["all"] = sorted(lines["json"] + lines["text"] + lines["usage"])
    if args.dump:
        Path(args.dump).write_text("\n".join(lines["all"]) + "\n")
    failed = sum(rec["exit"] not in (0, None) for rec in records)
    raised = sum("raised" in rec for rec in records)
    print(f"{len(invocations) + len(usage)} invocations, {len(records)} outputs, "
          f"{failed} with nonzero exit, {raised} json and text runs raising, "
          f"{sum(wrote for _, wrote in runs)} json and text runs writing to standard error")
    for rec, wrote in runs:
        if wrote:
            print(f"standard error: {rec['mode']:4} {' '.join(rec['argv'])}")
    for mode, kept in lines.items():
        digest = hashlib.sha256("\n".join(kept).encode()).hexdigest()
        print(f"sha256 {mode:5} {digest}")
    if args.against:
        earlier = [json.loads(line) for line in Path(args.against).read_text().splitlines()]
        kinds = compare(records, earlier)
        counts = {kind: sum(k == kind for k in kinds.values())
                  for kind in ("identical", "float-only", "other")}
        print(f"against {args.against}: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
        for key in sorted(key for key, kind in kinds.items() if kind == "other"):
            print(f"other: {key[0]:5} {' '.join(key[1:])}")
        drift = largest_drift(records, earlier, kinds)
        if drift:
            change, key, path = drift
            print(f"largest float drift: {change:.3e} in {' '.join(key[1:])} at {path}")


if __name__ == "__main__":
    main()
