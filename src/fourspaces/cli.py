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
import json
import math
import sys
from dataclasses import dataclass
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
    left_inverse_elementary,
    left_inverse_family,
    pinv_cr,
    pinv_svd,
    rg_canonical,
    right_inverse,
    right_inverse_elementary,
    right_inverse_family,
)
from .matrix import (
    Tolerance,
    _prescaled,
    _vector_norm,
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

    ``payload`` is command specific; ``residuals`` is always present, a flat
    mapping of named nonnegative reals.
    """

    command: str
    input_shape: tuple | None
    tolerance: float
    payload: dict
    residuals: dict

    def to_document(self):
        return {
            "command": self.command,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "tolerance": self.tolerance,
            "payload": self.payload,
            "residuals": self.residuals,
        }


# ---------------------------------------------------------------------------
# ingestion


def _rows_from_csv(text):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        vals = []
        for colno, cell in enumerate(line.split(","), start=1):
            try:
                vals.append(float(cell.strip()))
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {colno}: {cell.strip()!r} is not a number"
                ) from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise RaggedRowsError(
                f"line {lineno} has {len(vals)} entries, previous rows have {width}"
            )
        rows.append(vals)
    if not rows:
        raise ParseError("no rows found")
    return rows


def _rows_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict) or not {"rows", "cols", "data"} <= set(doc):
        raise ParseError('expected an object with "rows", "cols" and "data"')
    rows_n, cols_n, data = doc["rows"], doc["cols"], doc["data"]
    if not isinstance(rows_n, int) or not isinstance(cols_n, int):
        raise ParseError('"rows" and "cols" must be integers')
    if not isinstance(data, list) or len(data) != rows_n:
        raise ParseError(f'"data" must hold {rows_n} rows, got {len(data)}')
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols_n:
            raise RaggedRowsError(
                f"data row {i} has {len(row) if isinstance(row, list) else 'no'} "
                f"entries, header declares {cols_n}"
            )
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ParseError(f"data[{i}][{j}] is not a number")
    return data


def parse_matrix(path, format="csv"):
    """Read a matrix file in the named format.

    CSV is one row per line of comma-separated decimal literals with a
    uniform column count; JSON is an object with ``rows``, ``cols`` and
    ``data`` (an array of row arrays).
    """
    if format not in ("csv", "json"):
        raise ParseError(f"unknown format {format!r}")
    text = Path(path).read_text()
    rows = _rows_from_csv(text) if format == "csv" else _rows_from_json(text)
    return as_matrix(np.array(rows, dtype=float), name=str(path))


def parse_vector(path, format="csv", length=None):
    """Read a vector file; orientation (row or column) is auto-detected."""
    return as_vector(parse_matrix(path, format), length=length, name=str(path))


# ---------------------------------------------------------------------------
# payload builders


def _matrix_doc(arr):
    arr = np.asarray(arr, dtype=float)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": arr.tolist(),
    }


def _vector_doc(arr):
    return np.asarray(arr, dtype=float).tolist()


def _flags_doc(flags):
    return {"c1": flags.c1, "c2": flags.c2, "c3": flags.c3, "c4": flags.c4}


def _penrose_residuals(rep):
    return {
        "c1": float(rep.residuals[0]),
        "c2": float(rep.residuals[1]),
        "c3": float(rep.residuals[2]),
        "c4": float(rep.residuals[3]),
    }


def _max_abs_dot(a, b):
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(a.T @ b)))


def _cmd_rank(x, args, tol):
    rep = rank_nullity_report(x, tol)
    payload = {
        "rank": rep.rank,
        "n_rows": rep.n_rows,
        "n_cols": rep.n_cols,
        "dim_null": rep.dim_null,
        "dim_left_null": rep.dim_left_null,
    }
    # Gauss-Jordan rank is blind to a power-of-two scale, and the prescaled
    # X'X neither overflows nor underflows
    xs, _ = _prescaled(x)
    gram_gap = abs(pivot_rank(xs.T @ xs, tol) - rep.rank)
    return payload, {"gram_rank_gap": float(gram_gap)}


def _cmd_svd(x, args, tol):
    res = svd_full(x, tol)
    n, p = x.shape
    payload = {
        "u": _matrix_doc(res.u),
        "sigma": _vector_doc(res.sigma),
        "v": _matrix_doc(res.v),
        "rank": res.rank,
        "form": res.form,
    }
    residuals = {
        "reconstruction": frobenius_norm(res.u @ res.sigma_matrix() @ res.v.T - x),
        "left_orthogonality": frobenius_norm(res.u.T @ res.u - np.eye(n)),
        "right_orthogonality": frobenius_norm(res.v.T @ res.v - np.eye(p)),
    }
    return payload, residuals


def _cmd_cr(x, args, tol):
    fac = cr_decompose(x, tol)
    payload = {
        "c": _matrix_doc(fac.c),
        "r_factor": _matrix_doc(fac.r_factor),
        "rank": fac.rank,
    }
    return payload, {"reconstruction": frobenius_norm(fac.c @ fac.r_factor - x)}


def _cmd_subspaces(x, args, tol):
    bases = fundamental_bases(x, tol)
    payload = {
        "rank": bases.rank,
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


def _cmd_pinv(x, args, tol):
    g = pinv_svd(x, tol)
    rep = classify_inverse(x, g, tol)
    payload = {
        "pinv": _matrix_doc(g),
        "flags": _flags_doc(rep.flags),
        "class_label": rep.class_label,
    }
    residuals = _penrose_residuals(rep)
    residuals["route_agreement"] = frobenius_norm(g - pinv_cr(x, tol))
    return payload, residuals


def _cmd_ginv(x, args, tol):
    a = parse_matrix(args.a, args.format) if args.a else None
    b = parse_matrix(args.b, args.format) if args.b else None
    g = rg_canonical(x, a, b, tol)
    rep = classify_inverse(x, g, tol)
    payload = {
        "ginverse": _matrix_doc(g),
        "class_label": rep.class_label,
        "flags": _flags_doc(rep.flags),
    }
    return payload, _penrose_residuals(rep)


def _cmd_leftinv(x, args, tol):
    if args.method == "normal":
        g = left_inverse(x, tol)
    elif args.method == "elementary":
        g = left_inverse_elementary(x, tol)
    else:
        y = parse_matrix(args.y, args.format) if args.y else None
        g = left_inverse_family(x, y, tol)
    payload = {"left_inverse": _matrix_doc(g), "method": args.method}
    defect = frobenius_norm(g @ x - np.eye(x.shape[1]))
    return payload, {"left_identity": defect}


def _cmd_rightinv(x, args, tol):
    if args.method == "normal":
        g = right_inverse(x, tol)
    elif args.method == "elementary":
        g = right_inverse_elementary(x, tol)
    else:
        y = parse_matrix(args.y, args.format) if args.y else None
        g = right_inverse_family(x, y, tol)
    payload = {"right_inverse": _matrix_doc(g), "method": args.method}
    defect = frobenius_norm(x @ g - np.eye(x.shape[0]))
    return payload, {"right_identity": defect}


def _cmd_classify(x, args, tol):
    g = parse_matrix(args.g, args.format)
    rep = classify_inverse(x, g, tol)
    payload = {
        "class_label": rep.class_label,
        "flags": _flags_doc(rep.flags),
        "is_left_inverse": rep.is_left_inverse,
        "is_right_inverse": rep.is_right_inverse,
    }
    return payload, _penrose_residuals(rep)


_SOLVERS = {
    "normal": ls_normal,
    "svd": ls_svd_minnorm,
    "unique": consistent_unique_solve,
    "right": right_solve,
}


def _cmd_solve(x, args, tol):
    y = parse_vector(args.y, args.format, length=x.shape[0])
    sol = _SOLVERS[args.method](x, y, tol)
    payload = {
        "beta_hat": _vector_doc(sol.beta_hat),
        "y_hat": _vector_doc(sol.y_hat),
        "residual": _vector_doc(sol.residual),
        "residual_norm": float(sol.residual_norm),
        "rank_used": sol.rank_used,
        "method": sol.method,
    }
    residuals = {
        "residual_norm": float(sol.residual_norm),
        "normal_equation_gap": _vector_norm(x.T @ sol.residual),
    }
    return payload, residuals


def _cmd_project(x, args, tol):
    proj = projector_column(x, tol) if args.side == "col" else projector_row(x, tol)
    diag = projector_diagnostics(proj, tol)
    payload = {
        "projector": _matrix_doc(proj),
        "side": args.side,
        "trace": diag.trace,
        "rank": diag.rank,
        "idempotent": diag.idempotent,
        "symmetric": diag.symmetric,
        "spectrum_binary": diag.spectrum_binary,
    }
    residuals = {
        "idempotency": frobenius_norm(proj @ proj - proj),
        "symmetry": float(np.sqrt(np.sum((proj - proj.T) ** 2))),
    }
    return payload, residuals


def _cmd_report(x, args, tol):
    res = svd_full(x, tol)
    bases = SubspaceBases.from_svd(res)
    g = res.pinv()
    cls = classify_inverse(x, g, tol)
    n, p = x.shape
    payload = {
        "rank": res.rank,
        "dim_null": p - res.rank,
        "dim_left_null": n - res.rank,
        "pinv": _matrix_doc(g),
        "flags": _flags_doc(cls.flags),
        "class_label": cls.class_label,
        "penrose_ok": cls.flags.all_four(),
        "bases": {
            "row_space": _matrix_doc(bases.row_space),
            "null_space": _matrix_doc(bases.null_space),
            "column_space": _matrix_doc(bases.column_space),
            "left_null_space": _matrix_doc(bases.left_null_space),
        },
    }
    residuals = _penrose_residuals(cls)
    residuals["route_agreement"] = frobenius_norm(g - pinv_cr(x, tol))
    residuals["row_null_overlap"] = _max_abs_dot(bases.row_space, bases.null_space)
    residuals["column_left_null_overlap"] = _max_abs_dot(
        bases.column_space, bases.left_null_space
    )
    return payload, residuals


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
        value = float(text)
        Tolerance(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, metavar="FILE", help="matrix file")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=_tol_arg, default=1e-10, metavar="REAL")
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

    sub.add_parser("rank", parents=[common], help="rank and nullity accounting")
    sub.add_parser("svd", parents=[common], help="full singular value decomposition")
    sub.add_parser("cr", parents=[common], help="pivot-column times echelon-row factorization")
    sub.add_parser("subspaces", parents=[common], help="orthonormal bases of the four subspaces")
    sub.add_parser("pinv", parents=[common], help="pseudo inverse with Penrose flags")

    ginv = sub.add_parser("ginv", parents=[common], help="reflexive generalized inverse")
    ginv.add_argument("--a", metavar="FILE", help="free block, rank x (n - rank)")
    ginv.add_argument("--b", metavar="FILE", help="free block, (p - rank) x rank")

    for name, role in (("leftinv", "left"), ("rightinv", "right")):
        one_sided = sub.add_parser(name, parents=[common], help=f"{role} inverse")
        one_sided.add_argument(
            "--method", choices=("normal", "elementary", "family"), default="normal"
        )
        one_sided.add_argument("--y", metavar="FILE", help="free block for --method family")

    classify = sub.add_parser("classify", parents=[common], help="Penrose classification of a candidate")
    classify.add_argument("--g", required=True, metavar="FILE", help="candidate inverse")

    solve = sub.add_parser("solve", parents=[common], help="least squares / linear solve")
    solve.add_argument("--method", choices=("normal", "svd", "unique", "right"), default="svd")
    solve.add_argument("--y", required=True, metavar="FILE", help="observation vector")

    project = sub.add_parser("project", parents=[common], help="orthogonal projector")
    project.add_argument("--side", choices=("col", "row"), default="col")

    sub.add_parser(
        "report",
        parents=[common],
        help="rank, subspace bases, pseudo inverse and Penrose self-check",
    )
    return parser


def _dispatch(args):
    x = parse_matrix(args.input, args.format)
    tol = Tolerance(args.tol)
    try:
        payload, residuals = _HANDLERS[args.command](x, args, tol)
    except MatrixError as exc:
        exc.input_shape = (int(x.shape[0]), int(x.shape[1]))
        raise
    return Report(
        command=args.command,
        input_shape=(int(x.shape[0]), int(x.shape[1])),
        tolerance=float(args.tol),
        payload=payload,
        residuals=residuals,
    )


def run_command(argv):
    """Parse an argument vector and produce the corresponding report."""
    return _dispatch(_build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# emission


def _round_floats(obj, where="report"):
    # 12 significant digits; idempotent, so emit/parse/emit is bit-stable.
    # A NaN or infinity raises, naming its path in the document.
    if isinstance(obj, dict):
        return {key: _round_floats(val, f"{where}.{key}") for key, val in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(val, f"{where}[{i}]") for i, val in enumerate(obj)]
    if isinstance(obj, bool) or not isinstance(obj, float):
        return obj
    if not math.isfinite(obj):
        raise NonFiniteEntryError(f"{where} is not finite")
    return float(f"{obj:.12g}")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _is_matrix_doc(value):
    return isinstance(value, dict) and {"rows", "cols", "data"} <= set(value)


def _render_entry(lines, key, value, indent):
    pad = "  " * indent
    if _is_matrix_doc(value):
        lines.append(f"{pad}{key} ({value['rows']} x {value['cols']}):")
        for row in value["data"]:
            lines.append("  " * (indent + 1) + " ".join(_fmt(v) for v in row))
    elif isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for sub_key, sub_val in value.items():
            _render_entry(lines, sub_key, sub_val, indent + 1)
    elif isinstance(value, list):
        lines.append(f"{pad}{key}: " + " ".join(_fmt(v) for v in value))
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
    lines.append("residuals:")
    for key, value in doc["residuals"].items():
        _render_entry(lines, key, value, 1)
    return "\n".join(lines) + "\n"


def emit_report(report, json_mode=False, stream=None):
    """Render a report to the stream (standard output by default).

    A payload holding NaN or infinity is rejected before anything is
    written.  Returns the rendered text.
    """
    doc = _round_floats(report.to_document())
    if json_mode:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        text = _render_text(doc)
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
    residuals = {}
    if hasattr(exc, "residual_norm"):
        residuals["residual_norm"] = float(exc.residual_norm)
    return Report(
        command=args.command,
        input_shape=report.input_shape if report else getattr(exc, "input_shape", None),
        tolerance=float(args.tol),
        payload={"error": code, "message": str(exc)},
        residuals=residuals,
    )


def main(argv=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
