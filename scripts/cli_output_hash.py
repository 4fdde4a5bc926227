"""Hash every output of the ``fourspaces`` command line over a fixed input set.

Usage, from the root of a checkout:

    python3 scripts/cli_output_hash.py [--dump FILE] [--against FILE] [--outcomes FILE]

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
  a numerical rank of 16 and the CR route of ``pinv`` fails, and the same
  ``default_rng(3)`` matrix scaled by 2^-1040, whose entries are subnormal
  and whose pseudo inverse lies past the float range, and three sign
  matrices scaled by 2^1023, whose eliminations and ``C R`` would overflow
  at the input's scale: the rank-2 3 x 3
  ``[[-1, -1, -1], [-1, -1, -1], [-1, 0, 1]]``, the nonsingular 2 x 2
  ``[[1, 1], [-1, 1]]`` and the rank-2 2 x 3 ``[[-1, -1, -1], [0, -1, 1]]``),
  each through all 12 subcommands, every ``--method`` (``family`` with and
  without ``--y``), both ``--side`` values, and ``ginv`` with and without
  free blocks, and then, on the same files, ``leftinv`` and ``rightinv
  --method normal`` and ``solve --method normal``, ``unique`` and ``right``
  again at ``--tol 1e-2`` and ``--tol 1e-6``, so the labels of the
  normal-equation inverses are seen where a looser cutoff refuses the Gram
  matrix of a full-rank ``X`` (the 3 x 2 integer matrix at ``1e-2``), and
  last the 3 x 2 ``[[1, 0], [0, 2^-520], [0, 0]]`` at ``--tol 1e-320``,
  whose Gram matrix keeps the subnormal pivot 2^-1040, through ``leftinv``
  and ``rightinv --method normal``, ``solve --method normal``, ``unique``
  and ``right``, ``pinv`` and ``report``, and the 2 x 3
  ``[[1, 0, 0], [0, 2^-1040, 1]]`` at ``--tol 1e-320``, whose subnormal
  pivot puts its echelon form past the float range, through ``cr``,
  ``ginv``, ``rank``, ``subspaces`` and ``pinv``, and the rank-2 6 x 5
  product of ``default_rng(0)`` 6 x 2 and 2 x 5 draws through ``ginv
  --a A --b B`` with both free blocks filled with 1e200, which puts the
  reflexive g-inverse past the float range;
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
usage errors of an unknown subcommand, of an unknown ``--method`` for
``solve`` and for ``leftinv``, and of a ``--y`` outside ``--method family``
for ``leftinv --method normal`` and ``rightinv --method elementary``.  These
records also hold standard error.
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
once every float in its document is masked, with its keys in the same
order, and a text-mode record has a float-only JSON twin and the same exit
code; and other, listed by mode and argv, one a line.  A record present
on one side only counts as other, and any other record makes the script
exit 1, where it exits 0 otherwise.
Last comes the largest float drift: the largest normwise relative change
``||new - old||_F / ||old||_F`` of any float list or matrix in the payload
of a float-only JSON-mode record, with its argv and key.  Flat lists of one
length in one payload are read on one scale, the largest of their norms,
so the residual of a consistent system, a vector at rounding level, is
measured against the fitted values and not against itself.  The norms are
taken at a power-of-two scale, so inputs near the float range do not
overflow them.

``--outcomes FILE`` writes what each JSON-mode record decided, and no
float: its argv, its exit code and the entries of its payload that are a
string, bool, int or null (an error code and message, a label, a rank, a
method), with the ``flags`` dict.  The file is a JSON list, one record a
line, sorted by argv, so two of them diff record by record.
``tests/data/cli_outcomes.json`` is such a file, and the suite compares a
fresh one with it.

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
LOOSE_TOLS = ("1e-2", "1e-6")
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
        # ||X||_F and sigma_1 pass the float range: svd, pinv, report, ginv and
        # classify fail typed, the SVD's other consumers answer, none warns
        "scaled_5e307": np.random.default_rng(3).standard_normal((6, 4)) * 5e307,
        # numerical rank 11, but 19 directions above rounding: the SVD's
        # QRs keep them all and the cutoff alone sets the rank
        "kahan_20": kahan(20, 0.3),
        # subnormal entries: projectors answer, a pseudo inverse past the
        # float range fails typed
        "scaled_2^-1040": np.ldexp(np.random.default_rng(3).standard_normal((6, 4)), -1040),
        # sign matrices at the top of the float range: every elimination and
        # C R must run prescaled
        "sign_3x3_2^1023": np.ldexp(np.array([[-1.0, -1, -1], [-1, -1, -1], [-1, 0, 1]]), 1023),
        "sign_2x2_2^1023": np.ldexp(np.array([[1.0, 1], [-1, 1]]), 1023),
        "sign_2x3_2^1023": np.ldexp(np.array([[-1.0, -1, -1], [0, -1, 1]]), 1023),
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
        # a consistent right-hand side, so "unique" gets past its check;
        # beta is halved, exactly, until X beta lies within the float range
        beta = rng.standard_normal(p)
        with np.errstate(over="ignore", invalid="ignore"):
            while not np.all(np.isfinite(x @ beta)):
                beta /= 2
        y = _write_csv(tmp / f"{name}_y.csv", (x @ beta)[:, None])
        for method in ("normal", "svd", "unique", "right"):
            invocations.append(["solve", *common, "--method", method, "--y", y])
        # the normal-equation commands again, on the files above, at two
        # looser tolerances, where their rank decisions can fall the other way
        for tol in LOOSE_TOLS:
            for cmd in ("leftinv", "rightinv"):
                invocations.append([cmd, *common, "--method", "normal", "--tol", tol])
            for method in ("normal", "unique", "right"):
                invocations.append(["solve", *common, "--method", method, "--y", y, "--tol", tol])
    # at --tol 1e-320 the Gram matrix of this 3 x 2 keeps its subnormal
    # pivot 2^-1040, whose row the elimination divides past the float range
    x = np.array([[1.0, 0.0], [0.0, 2.0**-520], [0.0, 0.0]])
    common = ["--input", _write_csv(tmp / "subnormal_pivot.csv", x)]
    y = _write_csv(tmp / "subnormal_pivot_y.csv", x @ np.ones((2, 1)))
    tiny = ["--tol", "1e-320"]
    for cmd in ("leftinv", "rightinv"):
        invocations.append([cmd, *common, "--method", "normal", *tiny])
    for method in ("normal", "unique", "right"):
        invocations.append(["solve", *common, "--method", method, "--y", y, *tiny])
    invocations += [["pinv", *common, *tiny], ["report", *common, *tiny]]
    # at --tol 1e-320 the subnormal pivot of this 2 x 3 divides its row's
    # last entry past the float range, so its echelon form R holds inf
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0**-1040, 1.0]])
    common = ["--input", _write_csv(tmp / "subnormal_echelon.csv", x)]
    for cmd in ("cr", "ginv", "rank", "subspaces", "pinv"):
        invocations.append([cmd, *common, *tiny])
    # free blocks of 1e200 put the reflexive g-inverse of this rank-2 6 x 5
    # past the float range; drawn from its own rng, so no record above moves
    rng0 = np.random.default_rng(0)
    x = rng0.standard_normal((6, 2)) @ rng0.standard_normal((2, 5))
    common = ["--input", _write_csv(tmp / "huge_blocks.csv", x)]
    a = _write_csv(tmp / "huge_blocks_a.csv", np.full((2, 4), 1e200))
    b = _write_csv(tmp / "huge_blocks_b.csv", np.full((3, 2), 1e200))
    invocations.append(["ginv", *common, "--a", a, "--b", b])
    return invocations


def corpus_invocations(tmp):
    """Argument vectors of every operation of the three benchmark corpora."""
    return [op.argv for w in corpus.WORKLOADS for op in corpus.build(w, CORPUS_SEED, tmp / w)]


def usage_invocations(tmp):
    """Argument vectors of every help page and of five usage errors."""
    src = _write_csv(tmp / "usage.csv", np.eye(2))
    return [
        ["--help"],
        *([cmd, "--help"] for cmd in SUBCOMMANDS),
        ["frobnicate", "--input", src],
        ["solve", "--input", src, "--y", src, "--method", "bogus"],
        ["leftinv", "--input", src, "--method", "bogus"],
        ["leftinv", "--input", src, "--method", "normal", "--y", src],
        ["rightinv", "--input", src, "--method", "elementary", "--y", src],
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
    """``obj`` with every float replaced by a placeholder, containers walked,
    and each dict turned into its list of items, so that a key that moves
    is a change."""
    if isinstance(obj, float):
        return "<float>"
    if isinstance(obj, dict):
        return [(key, _masked(value)) for key, value in obj.items()]
    if isinstance(obj, list):
        return [_masked(value) for value in obj]
    return obj


def _float_masked(record):
    """A JSON-mode record with its document parsed and every float masked;
    the record's own keys, which a dump writes sorted, keep no order."""
    try:
        doc = json.loads(record["stdout"])
    except json.JSONDecodeError:
        doc = record["stdout"]
    return {**record, "stdout": _masked(doc)}


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


def outcome(record):
    """The argv, exit code and float-free payload entries of a JSON-mode
    record, as ``--outcomes`` writes them."""
    payload = json.loads(record["stdout"])["payload"]
    kept = {key: value for key, value in payload.items()
            if key == "flags" or value is None or isinstance(value, (str, int))}
    return {"argv": record["argv"], "exit": record["exit"], "payload": kept}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="FILE", help="also write the records as JSON lines")
    parser.add_argument("--against", metavar="FILE",
                        help="compare the records with an earlier --dump")
    parser.add_argument("--outcomes", metavar="FILE",
                        help="write the exit code, labels and flags of each JSON-mode record")
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
    if args.outcomes:
        kept = sorted(json.dumps(outcome(rec), sort_keys=True)
                      for rec in records if rec["mode"] == "json")
        Path(args.outcomes).write_text("[\n" + ",\n".join(kept) + "\n]\n")
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
        return 1 if counts["other"] else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
