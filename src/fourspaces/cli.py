"""Command-line front end: file ingestion, dispatch, report emission.

This is the only module that touches files.  Matrices travel as CSV (one
row per line) or JSON (an object with ``rows``, ``cols``, ``data``); every
command answers with a single report carrying the command name, the input
shape, the tolerance in force, a payload, and a block of named residuals
that scripted callers can gate on.  Numbers are emitted at 12 significant
digits, which makes the JSON emit/parse round trip reproduce matrices
bit for bit.

Exit codes: 0 success, 1 domain error (the report names the error code),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from .errors import (
    MatrixError,
    NonFiniteEntryError,
    ParseError,
    RaggedRowsError,
)
from .factorizations import cr_decompose, svd_full
from .inverses import (
    classify_inverse,
    left_inverse,
    left_inverse_family,
    pinv_cr,
    pinv_svd,
    rg_canonical,
    right_inverse,
    right_inverse_family,
)
from .matrix import (
    DEFAULT_TOL,
    Tolerance,
    _defect,
    _in_range,
    _prescaled,
    as_matrix,
    as_vector,
    frobenius_norm,
    pivot_rank,
)
from .solve import (
    consistent_unique_solve,
    ls_normal,
    ls_svd_minnorm,
    projector_column,
    projector_diagnostics,
    projector_row,
    right_solve,
)
from .subspaces import SubspaceBases, fundamental_bases, rank_nullity_report

__all__ = ["Report", "parse_matrix", "parse_vector", "run_command", "emit_report", "main"]


@dataclass(frozen=True)
class Report:
    """One command's structured answer.

    ``payload`` is command specific, its matrices as :func:`_matrix_doc`
    holds them and its vectors as float64 NumPy arrays;
    ``residuals`` is always present, a flat mapping of named nonnegative
    reals.
    """

    command: str
    input_shape: tuple | None
    tolerance: float
    payload: dict
    residuals: dict

    def to_document(self):
        """The report as the document :func:`emit_report` writes, the
        payload's arrays handed on as they are."""
        return {
            "command": self.command,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "tolerance": self.tolerance,
            "payload": self.payload,
            "residuals": self.residuals,
        }


# ---------------------------------------------------------------------------
# ingestion


def _csv_cell(lineno, colno, cell):
    """One CSV cell as a float, or a ``ParseError`` naming its line and column."""
    try:
        return float(cell.strip())
    except ValueError:
        raise ParseError(
            f"line {lineno}, column {colno}: {cell.strip()!r} is not a number"
        ) from None


def _rows_from_csv(text):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            vals = list(map(float, cells))
        except ValueError:
            # float() strips the padding strip() does, except U+001F
            vals = [_csv_cell(lineno, j, cell) for j, cell in enumerate(cells, start=1)]
        if rows and len(vals) != len(rows[0]):
            raise RaggedRowsError(
                f"line {lineno} has {len(vals)} entries, previous rows have {len(rows[0])}"
            )
        rows.append(vals)
    if not rows:
        raise ParseError("no rows found")
    return rows


_NUMBER_TYPES = {int, float}


def _json_int(literal):
    # an integer past the float range reads as inf, as 1e999 does; int() would
    # overflow on the way to float, and refuses literals past 4300 digits
    value = float(literal)
    return int(literal) if math.isfinite(value) else value


def _rows_from_json(text):
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict) or not {"rows", "cols", "data"} <= set(doc):
        raise ParseError('expected an object with "rows", "cols" and "data"')
    rows_n, cols_n, data = doc["rows"], doc["cols"], doc["data"]
    if type(rows_n) is not int or type(cols_n) is not int:  # bool is an int subclass
        raise ParseError('"rows" and "cols" must be integers')
    if not isinstance(data, list) or len(data) != rows_n:
        got = len(data) if isinstance(data, list) else "no array"
        raise ParseError(f'"data" must hold {rows_n} rows, got {got}')
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols_n:
            raise RaggedRowsError(
                f"data row {i} has {len(row) if isinstance(row, list) else 'no'} "
                f"entries, header declares {cols_n}"
            )
        # a whole row at once; json.loads yields no other number types, and
        # true/false (type bool) fail here and are named below
        if set(map(type, row)) <= _NUMBER_TYPES:
            continue
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ParseError(f"data[{i}][{j}] is not a number")
    return data


def parse_matrix(path, format="csv"):
    """Read a UTF-8 matrix file, a leading byte-order mark skipped.

    CSV is one row per line of comma-separated decimal literals with a
    uniform column count; JSON is an object with ``rows``, ``cols`` and
    ``data`` (an array of row arrays).
    """
    if format not in ("csv", "json"):
        raise ParseError(f"unknown format {format!r}")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        rows = _rows_from_csv(text) if format == "csv" else _rows_from_json(text)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ParseError(f"unreadable {format} file: {exc}") from None
    return as_matrix(np.array(rows, dtype=float), name=str(path))


def parse_vector(path, format="csv", length=None):
    """Read a vector file; orientation (row or column) is auto-detected."""
    return as_vector(parse_matrix(path, format), length=length, name=str(path))


# ---------------------------------------------------------------------------
# payload builders


def _matrix_doc(arr):
    """A matrix payload: its shape, and its entries as a float64 array,
    which the emitter writes as a list of rows."""
    arr = np.asarray(arr, dtype=float)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": arr,
    }


def _penrose_residuals(rep):
    """The four defect norms behind the flags, under the flags' own names."""
    return {f.name: float(r) for f, r in zip(fields(rep.flags), rep.residuals)}


def _max_abs_dot(a, b):
    return float(np.max(np.abs(a.T @ b), initial=0.0))


def _pinv_section(x, g, tol):
    """Payload fields and residuals of a pseudo inverse: Penrose audit, CR route gap.

    The CR route only cross-checks ``g``: when it fails, its error code goes
    into the payload as ``route_check`` and ``route_agreement`` is left out.
    """
    rep = classify_inverse(x, g, tol)
    payload = {
        "pinv": _matrix_doc(g),
        "flags": asdict(rep.flags),
        "class_label": rep.class_label,
    }
    residuals = _penrose_residuals(rep)
    try:
        residuals["route_agreement"] = frobenius_norm(g - pinv_cr(x, tol))
    except MatrixError as exc:
        payload["route_check"] = exc.code
    return payload, residuals


def _bases_section(bases):
    """Payload fields and overlap residuals of the four subspace bases."""
    payload = {
        "row_space": _matrix_doc(bases.row_space),
        "null_space": _matrix_doc(bases.null_space),
        "column_space": _matrix_doc(bases.column_space),
        "left_null_space": _matrix_doc(bases.left_null_space),
    }
    residuals = {
        "row_null_overlap": _max_abs_dot(bases.row_space, bases.null_space),
        "column_left_null_overlap": _max_abs_dot(
            bases.column_space, bases.left_null_space
        ),
    }
    return payload, residuals


def _cmd_rank(x, args, tol):
    """rank and nullity accounting"""
    rep = rank_nullity_report(x, tol)
    return asdict(rep), {"kernel_rank_gap": float(abs(pivot_rank(x, tol) - rep.rank))}


def _cmd_svd(x, args, tol):
    """full singular value decomposition"""
    res = svd_full(x, tol)
    n, p = x.shape
    payload = {
        "u": _matrix_doc(res.u),
        "sigma": res.sigma,
        "v": _matrix_doc(res.v),
        "rank": res.rank,
        "form": res.form,
    }
    residuals = {
        "reconstruction": _defect(res.u @ res.sigma_matrix(), res.v.T, x),
        "left_orthogonality": frobenius_norm(res.u.T @ res.u - np.eye(n)),
        "right_orthogonality": frobenius_norm(res.v.T @ res.v - np.eye(p)),
    }
    return payload, residuals


def _cmd_cr(x, args, tol):
    """pivot-column times echelon-row factorization"""
    fac = cr_decompose(x, tol)
    payload = {
        "c": _matrix_doc(fac.c),
        "r_factor": _matrix_doc(fac.r_factor),
        "rank": fac.rank,
    }
    return payload, {"reconstruction": _defect(fac.c, fac.r_factor, x)}


def _cmd_subspaces(x, args, tol):
    """orthonormal bases of the four subspaces"""
    bases = fundamental_bases(x, tol)
    payload, residuals = _bases_section(bases)
    return {"rank": bases.rank, **payload}, residuals


def _cmd_pinv(x, args, tol):
    """pseudo inverse with Penrose flags"""
    return _pinv_section(x, pinv_svd(x, tol), tol)


def _cmd_ginv(x, args, tol):
    """reflexive generalized inverse"""
    a = parse_matrix(args.a, args.format) if args.a else None
    b = parse_matrix(args.b, args.format) if args.b else None
    g = rg_canonical(x, a, b, tol)
    rep = classify_inverse(x, g, tol)
    payload = {
        "ginverse": _matrix_doc(g),
        "class_label": rep.class_label,
        "flags": asdict(rep.flags),
    }
    return payload, _penrose_residuals(rep)


def _one_sided_inverse(x, args, tol, normal, family):
    """The route ``--method`` names: ``normal``, or ``family`` with no free
    block (``elementary``, as the ``*_elementary`` aliases do) or with ``--y``."""
    if args.method == "normal":
        return normal(x, tol)
    y = parse_matrix(args.y, args.format) if args.y else None
    return family(x, y, tol)


def _cmd_leftinv(x, args, tol):
    """left inverse"""
    g = _one_sided_inverse(x, args, tol, left_inverse, left_inverse_family)
    payload = {"left_inverse": _matrix_doc(g), "method": args.method}
    return payload, {"left_identity": _defect(g, x, np.eye(x.shape[1]))}


def _cmd_rightinv(x, args, tol):
    """right inverse"""
    g = _one_sided_inverse(x, args, tol, right_inverse, right_inverse_family)
    payload = {"right_inverse": _matrix_doc(g), "method": args.method}
    return payload, {"right_identity": _defect(x, g, np.eye(x.shape[0]))}


def _cmd_classify(x, args, tol):
    """Penrose classification of a candidate"""
    g = parse_matrix(args.g, args.format)
    rep = classify_inverse(x, g, tol)
    payload = asdict(rep)  # InverseReport's fields are the payload's keys, in order
    del payload["residuals"]
    return payload, _penrose_residuals(rep)


_SOLVERS = {
    "normal": ls_normal,
    "svd": ls_svd_minnorm,
    "unique": consistent_unique_solve,
    "right": right_solve,
}


def _cmd_solve(x, args, tol):
    """least squares / linear solve"""
    y = parse_vector(args.y, args.format, length=x.shape[0])
    sol = _SOLVERS[args.method](x, y, tol)
    payload = asdict(sol)  # LsSolution's fields are the payload's keys, in order
    residuals = {
        "residual_norm": float(sol.residual_norm),
        "normal_equation_gap": _normal_equation_gap(x, y, sol.beta_hat, sol.residual),
    }
    return payload, residuals


def _normal_equation_gap(x, y, beta_hat, r):
    """``||X'r|| / (||X||_F (||X||_F ||beta_hat|| + ||y||))``, 0.0 when the scale is 0.

    The scale is that of the rounding in ``X'(y - X beta_hat)``, so a
    consistent system, whose ``r`` is rounding noise, reads at rounding
    level.  Formed from prescaled ``X`` and ``y``, ``r`` at ``2**-ey`` and
    ``beta_hat`` at ``2**(ex - ey)``, every term in the pair's units, so it
    is finite at every scale and unchanged by scaling ``X`` or ``y`` by 2^k.
    """
    (xs, ex), (ys, ey) = _prescaled(x), _prescaled(y)
    nx = frobenius_norm(xs)
    scale = nx * (nx * frobenius_norm(np.ldexp(beta_hat, ex - ey)) + frobenius_norm(ys))
    return float(frobenius_norm(xs.T @ np.ldexp(r, -ey)) / scale) if scale else 0.0


def _cmd_project(x, args, tol):
    """orthogonal projector"""
    proj = projector_column(x, tol) if args.side == "col" else projector_row(x, tol)
    diag = asdict(projector_diagnostics(proj, tol))  # its fields in the payload's order
    residuals = {key: diag.pop(key) for key in ("idempotency", "symmetry")}
    return {"projector": _matrix_doc(proj), "side": args.side, **diag}, residuals


def _cmd_report(x, args, tol):
    """rank, subspace bases, pseudo inverse and Penrose self-check"""
    # one full SVD, of the prescaled x, feeds both sections
    xs, e = _prescaled(x)
    res = svd_full(xs, tol)
    pinv, pinv_residuals = _pinv_section(x, _in_range(res.pinv(), -e, "the pseudo inverse"), tol)
    bases, bases_residuals = _bases_section(SubspaceBases.from_svd(res))
    n, p = x.shape
    payload = {
        "rank": res.rank,
        "dim_null": p - res.rank,
        "dim_left_null": n - res.rank,
        **pinv,
        "penrose_ok": all(pinv["flags"].values()),
        "bases": bases,
    }
    return payload, {**pinv_residuals, **bases_residuals}


_HANDLERS = {
    "rank": _cmd_rank,
    "svd": _cmd_svd,
    "cr": _cmd_cr,
    "subspaces": _cmd_subspaces,
    "pinv": _cmd_pinv,
    "ginv": _cmd_ginv,
    "leftinv": _cmd_leftinv,
    "rightinv": _cmd_rightinv,
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "project": _cmd_project,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument grammar


def _tol_arg(text):
    try:
        return Tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser():
    # built once per process; help still reads COLUMNS when it is formatted
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, metavar="FILE", help="matrix file")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL, metavar="REAL")
    common.add_argument("--out", metavar="FILE", help="write the report here")
    common.add_argument(
        "--json", dest="json_mode", action="store_true", help="machine-readable report"
    )

    parser = argparse.ArgumentParser(
        prog="fourspaces",
        description="Rank, factorizations, subspaces, inverses and least squares "
        "for dense real matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # one subcommand per handler, its docstring as the help line
    cmd = {
        name: sub.add_parser(name, parents=[common], help=handler.__doc__)
        for name, handler in _HANDLERS.items()
    }
    cmd["ginv"].add_argument("--a", metavar="FILE", help="free block, rank x (n - rank)")
    cmd["ginv"].add_argument("--b", metavar="FILE", help="free block, (p - rank) x rank")
    for name in ("leftinv", "rightinv"):
        cmd[name].add_argument(
            "--method", choices=("normal", "elementary", "family"), default="normal"
        )
        cmd[name].add_argument("--y", metavar="FILE", help="free block; only with --method family")
    cmd["classify"].add_argument("--g", required=True, metavar="FILE", help="candidate inverse")
    cmd["solve"].add_argument("--method", choices=tuple(_SOLVERS), default="svd")
    cmd["solve"].add_argument("--y", required=True, metavar="FILE", help="observation vector")
    cmd["project"].add_argument("--side", choices=("col", "row"), default="col")
    return parser


def _dispatch(args):
    x = parse_matrix(args.input, args.format)
    shape = (int(x.shape[0]), int(x.shape[1]))
    try:
        payload, residuals = _HANDLERS[args.command](x, args, args.tol)
    except MatrixError as exc:
        exc.input_shape = shape
        raise
    return Report(args.command, shape, args.tol.relative, payload, residuals)


def _parse(argv):
    """``argv`` parsed; ``leftinv``/``rightinv --y`` needs ``--method family``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("leftinv", "rightinv") and args.y is not None and args.method != "family":
        parser.error(f"{args.command}: argument --y: only --method family takes a free block")
    return args


def run_command(argv):
    """Parse an argument vector and produce the corresponding report."""
    return _dispatch(_parse(argv))


# ---------------------------------------------------------------------------
# emission


def _screen(obj, where):
    """Raise :class:`NonFiniteEntryError` naming the first NaN or infinity in
    ``obj`` by its path; an array is tested whole, walked only to name it."""
    if isinstance(obj, np.ndarray) and not np.isfinite(obj).all():
        _screen(obj.tolist(), where)
    elif isinstance(obj, dict):
        for key, val in obj.items():
            _screen(val, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _screen(val, f"{where}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise NonFiniteEntryError(f"{where} is not finite")


def _json_literal(s):
    # s is "%.12g" of a finite float, and the literal is repr(float(s)): the
    # value rounded to 12 significant digits.  Two decimals of at most 12
    # digits never round to one normal double, so repr writes s's own
    # digits, in the same notation except for exponents 12 to 15 ("%g" turns
    # scientific at 1e12, repr at 1e16), subnormals (repr can be shorter) and
    # integers (repr adds ".0")
    if "e+1" in s or "e-3" in s:
        return repr(float(s))
    if "." in s or "e" in s:
        return s
    return s + ".0"


_MATRIX_KEYS = {"rows", "cols", "data"}
# "%.01f" is "%.1f" at the width of "%.12g": the codes differ in "12g"/"01f"
_F_DIGITS = np.frombuffer(b"01f", np.uint8)


def _whole_entries(a):
    """Screen a finite float64 array once: a mask of its exact integers, or
    None if it holds a literal where ``"%.12g"`` and ``repr`` part ways
    beyond the ``".0"`` of an integer: |v| >= 1e11, nonzero |v| < 1e-298,
    or a non-integer that ``"%.12g"`` rounds to an integer."""
    size, frac = np.abs(a), np.abs(a - np.rint(a))
    # frac < size * 1e-11 holds for every non-integer that "%.12g" rounds
    # to an integer, and for a few neighbours, which the walk writes alike
    rare = (size >= 1e11) | ((0 < size) & (size < 1e-298)) | ((0 < frac) & (frac < size * 1e-11))
    return None if rare.any() else frac == 0


def _json_floats(a, pad):
    """A float64 vector or matrix as ``_json`` writes it ``pad`` deep, a
    matrix as a list of rows, formatted by one bytes ``%`` call; None when
    the walk must write it.

    Entries are ``"%.12g"`` literals, except exact integers, which take
    ``"%.1f"`` for the ``".0"`` that ``repr`` writes.  The walk takes an
    empty array, one of another dtype or rank, and whatever
    :func:`_whole_entries` screens out.
    """
    if a.dtype != np.float64 or not a.size or a.ndim not in (1, 2):
        return None
    whole = _whole_entries(a)
    if whole is None:
        return None
    inner = pad + "  "
    if a.ndim == 2:
        (r, c), cell = a.shape, inner + "  "
        head, tail = f"{inner}[\n{cell}", f"\n{inner}]"
    else:
        r, c, cell, head, tail = 1, a.size, inner, inner, ""
    row = head + f",\n{cell}".join(["%.12g"] * c) + tail
    layout = bytearray("[\n" + ",\n".join([row] * r) + f"\n{pad}]", "ascii")
    # the "12g" of each entry's code, as an r x c x 3 view of the layout
    first, step = len(f"[\n{head}%."), len(f"%.12g,\n{cell}")
    codes = np.ndarray((r, c, 3), np.uint8, layout, first, (len(row) + 2, step, 1))
    codes[whole.reshape(r, c)] = _F_DIGITS
    return (layout % tuple(a.ravel().tolist())).decode()


def _json(obj, pad=""):
    """``obj``, screened finite, as ``json.dumps(obj, indent=2)`` writes it
    ``pad`` deep, with each float rounded to 12 significant digits.  Each
    array goes through :func:`_json_floats` first; if it declines, the walk
    takes it whole, as nested lists."""
    if isinstance(obj, np.ndarray):
        return _json_floats(obj, pad) or _json(obj.tolist(), pad)
    inner = pad + "  "
    sep = f",\n{inner}"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(f"{_json_string(key)}: " + _json(val, inner) for key, val in obj.items())
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        body = sep.join(_json(val, inner) for val in obj)
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _json_literal(f"{obj:.12g}")
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "n/a"
    if isinstance(value, float):
        # "%.12g" of a finite float is also "%.12g" of the rounded value
        # except in the subnormal range, where doubles are sparser than
        # 12-digit decimals
        s = f"{value:.12g}"
        return f"{float(s):.12g}" if "e-3" in s else s
    return str(value)


def _text_row(row):
    """A row as text, an array or a list, each item through :func:`_fmt`."""
    row = row.tolist() if isinstance(row, np.ndarray) else row
    return " ".join(map(_fmt, row))


def _render_entry(lines, key, value, indent):
    pad = "  " * indent
    if isinstance(value, dict) and _MATRIX_KEYS <= value.keys():
        lines.append(f"{pad}{key} ({value['rows']} x {value['cols']}):")
        for row in value["data"]:
            lines.append("  " * (indent + 1) + _text_row(row))
    elif isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for sub_key, sub_val in value.items():
            _render_entry(lines, sub_key, sub_val, indent + 1)
    elif isinstance(value, (list, np.ndarray)):
        lines.append(f"{pad}{key}: " + _text_row(value))
    else:
        lines.append(f"{pad}{key}: {_fmt(value)}")


def _render_text(doc):
    shape = doc["input_shape"]
    lines = [
        f"command: {doc['command']}",
        "input shape: " + (f"{shape[0]} x {shape[1]}" if shape else "unknown"),
        f"tolerance: {_fmt(doc['tolerance'])}",
    ]
    for key, value in doc["payload"].items():
        _render_entry(lines, key, value, 0)
    _render_entry(lines, "residuals", doc["residuals"], 0)
    return "\n".join(lines) + "\n"


def emit_report(report, json_mode=False, stream=None):
    """Render a report to the stream (standard output by default).

    The document is screened once, before either renderer runs, by
    :func:`_screen`: a NaN or infinity is rejected before anything is
    written, with the same entry named in both modes.  Payload matrices and
    vectors are float64 arrays.  Text mode writes every float through one
    formatter, :func:`_fmt`.  JSON mode has one bulk path beside the walk:
    each array is written by a single bytes ``%`` call, and one it declines
    (a literal where ``"%.12g"`` and ``repr`` part ways) goes through the
    walk whole, as a plain list always does.  Returns the rendered text.
    """
    doc = report.to_document()
    _screen(doc, "report")
    text = _json(doc) + "\n" if json_mode else _render_text(doc)
    (stream or sys.stdout).write(text)
    return text


def _write_report(report, json_mode, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            emit_report(report, json_mode, handle)
    else:
        emit_report(report, json_mode)


def _failure_report(args, report, exc):
    code = exc.code if isinstance(exc, MatrixError) else "io-error"
    # what a typed error measured: how far an inconsistent system missed, or
    # where a Jacobi iteration stopped
    keys = ("residual_norm", "sweeps", "offdiag_norm")
    residuals = {key: getattr(exc, key) for key in keys if hasattr(exc, key)}
    return Report(
        command=args.command,
        input_shape=report.input_shape if report else getattr(exc, "input_shape", None),
        tolerance=args.tol.relative,
        payload={"error": code, "message": str(exc)},
        residuals=residuals,
    )


def main(argv=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    report = None
    try:
        report = _dispatch(args)
        _write_report(report, args.json_mode, args.out)
    except (MatrixError, OSError) as exc:
        try:
            _write_report(_failure_report(args, report, exc), args.json_mode, args.out)
        except OSError as out_exc:
            # --out itself cannot be written; say so on stdout instead
            emit_report(_failure_report(args, report, out_exc), args.json_mode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
