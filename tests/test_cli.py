"""Command-line contract: parsing, dispatch, emission, exit codes."""

import argparse
import contextlib
import io
import json
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourspaces import (
    InverseReport,
    LsSolution,
    NonFiniteEntryError,
    ParseError,
    ProjectorReport,
    RaggedRowsError,
    RankNullityReport,
    ShapeError,
    cli,
    errors,
    factorizations,
    matrix,
    pivot_rank,
    spectral,
)
from fourspaces.cli import (
    Report,
    _matrix_doc,
    emit_report,
    main,
    parse_matrix,
    parse_vector,
    run_command,
)
from fourspaces.inverses import pinv_svd, rg_canonical
from fourspaces.subspaces import fundamental_bases

from support import graded, kahan


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def write_matrix(tmp_path, name, x):
    return write(tmp_path, name, "".join(",".join(map(repr, row)) + "\n" for row in x.tolist()))


# ---------------------------------------------------------------------------
# parse_matrix / parse_vector


def test_parse_csv_identity(tmp_path):
    path = write(tmp_path, "id.csv", "1,0\n0,1\n")
    assert np.array_equal(parse_matrix(path), np.eye(2))


def test_parse_csv_allows_blank_lines_and_spaces(tmp_path):
    path = write(tmp_path, "m.csv", " 1 , 2 \n\n3,4\n")
    assert np.array_equal(parse_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_parse_json_document(tmp_path):
    path = write(tmp_path, "m.json", '{"rows":2,"cols":2,"data":[[1,2],[2,4]]}')
    assert np.array_equal(parse_matrix(path, "json"), [[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.parametrize(
    "fmt, text",
    [("csv", "1,-2.5\n3,4e-3\n"), ("json", '{"rows":2,"cols":2,"data":[[1,-2.5],[3,4e-3]]}')],
    ids=["csv", "json"],
)
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, fmt, text):
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert np.array_equal(parse_matrix(marked, fmt), parse_matrix(plain, fmt))
    assert np.array_equal(parse_matrix(marked, fmt), [[1.0, -2.5], [3.0, 4e-3]])


def test_parse_csv_ragged_rows(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3\n")
    with pytest.raises(RaggedRowsError):
        parse_matrix(path)


def test_parse_csv_bad_literal_names_line_and_column(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3,x\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        parse_matrix(path)
    # the first bad cell past the first, a blank cell and a trailing comma
    for text, message in [
        ("1,2,x,y\n", "line 1, column 3: 'x' is not a number"),
        ("1,2,3\n1, ,2\n", "line 2, column 2: '' is not a number"),
        ("\n1,2,\n", "line 2, column 3: '' is not a number"),
    ]:
        path = write(tmp_path, "bad.csv", text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_matrix(path)


def test_parse_csv_rejects_nan_entries(tmp_path):
    path = write(tmp_path, "bad.csv", "1,nan\n2,3\n")
    with pytest.raises(NonFiniteEntryError):
        parse_matrix(path)


# padding float() and strip() both remove; U+001F only strip() does
CSV_PADDING = st.text(" \t\x1f\xa0\u3000", max_size=2)
CSV_CELLS = st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-7, 1e300]),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from([repr, "{:.12g}".format, "{:.17e}".format, "{:E}".format]),
    CSV_PADDING,
    CSV_PADDING,
)


@given(
    st.integers(1, 4).flatmap(
        lambda p: st.lists(
            st.tuples(st.lists(st.sampled_from(["", " ", "\t \x1f"]), max_size=2),
                      st.lists(CSV_CELLS, min_size=p, max_size=p)),
            min_size=1, max_size=4,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_parse_csv_reads_each_cell_as_float_of_its_stripped_text(tmp_path_factory, rows):
    lines = []
    for blanks, cells in rows:
        lines += blanks
        lines.append(",".join(lead + fmt(v) + trail for v, fmt, lead, trail in cells))
    path = tmp_path_factory.getbasetemp() / "padded.csv"
    path.write_text("\n".join(lines) + "\n")
    want = np.array([[float(cell.strip()) for cell in line.split(",")]
                     for line in lines if line.strip()])
    got = parse_matrix(str(path))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_parse_empty_file(tmp_path):
    path = write(tmp_path, "empty.csv", "\n")
    with pytest.raises(ParseError):
        parse_matrix(path)


def test_parse_json_syntax_error_names_position(tmp_path):
    path = write(tmp_path, "bad.json", '{"rows":2,')
    with pytest.raises(ParseError, match="line"):
        parse_matrix(path, "json")


def test_parse_json_requires_header_fields(tmp_path):
    path = write(tmp_path, "bad.json", '{"data":[[1]]}')
    with pytest.raises(ParseError, match="rows"):
        parse_matrix(path, "json")


@pytest.mark.parametrize("header", ['"rows":true,"cols":2', '"rows":1.5,"cols":2', '"rows":1,"cols":2.0'])
def test_parse_json_header_counts_must_be_integers(tmp_path, header):
    # true is an int to isinstance; it must not pass for the row count 1
    path = write(tmp_path, "bad.json", f'{{{header},"data":[[1,2]]}}')
    with pytest.raises(ParseError, match='"rows" and "cols" must be integers'):
        parse_matrix(path, "json")


def test_parse_json_ragged_data(tmp_path):
    path = write(tmp_path, "bad.json", '{"rows":2,"cols":2,"data":[[1,2],[3]]}')
    with pytest.raises(RaggedRowsError):
        parse_matrix(path, "json")


def test_parse_json_row_count_mismatch(tmp_path):
    path = write(tmp_path, "bad.json", '{"rows":3,"cols":1,"data":[[1],[2]]}')
    with pytest.raises(ParseError):
        parse_matrix(path, "json")


def test_parse_json_non_numeric_cell(tmp_path):
    path = write(tmp_path, "bad.json", '{"rows":1,"cols":1,"data":[["a"]]}')
    with pytest.raises(ParseError):
        parse_matrix(path, "json")


@pytest.mark.parametrize("cell", ['"a"', "true", "false", "null", "[1]", "{}"])
def test_parse_json_names_the_first_bad_cell(tmp_path, cell):
    text = f'{{"rows":2,"cols":3,"data":[[1,2.5,-3],[4e2,0,{cell}]]}}'
    path = write(tmp_path, "bad.json", text)
    with pytest.raises(ParseError, match=re.escape("data[1][2] is not a number")):
        parse_matrix(path, "json")


def test_parse_unknown_format(tmp_path):
    path = write(tmp_path, "m.csv", "1\n")
    with pytest.raises(ParseError):
        parse_matrix(path, "tsv")


def test_parse_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        parse_matrix(str(tmp_path / "nope.csv"))


def test_parse_vector_accepts_both_orientations(tmp_path):
    row = write(tmp_path, "row.csv", "1,3\n")
    col = write(tmp_path, "col.csv", "1\n3\n")
    assert np.array_equal(parse_vector(row), [1.0, 3.0])
    assert np.array_equal(parse_vector(col), [1.0, 3.0])


def test_parse_vector_rejects_full_matrices(tmp_path):
    path = write(tmp_path, "m.csv", "1,2\n3,4\n")
    with pytest.raises(ShapeError):
        parse_vector(path)


# ---------------------------------------------------------------------------
# command dispatch


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_rank_command_on_rank_one_matrix(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 0
    assert doc["command"] == "rank"
    assert doc["input_shape"] == [2, 2]
    assert doc["payload"]["rank"] == 1
    assert doc["payload"]["dim_null"] == 1
    assert doc["payload"]["dim_left_null"] == 1
    assert doc["residuals"]["kernel_rank_gap"] == 0.0


def test_rank_command_text_mode(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    assert main(["rank", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "command: rank" in out
    assert "rank: 1" in out
    assert "residuals:" in out


def test_svd_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    code, doc = run_json(capsys, ["svd", "--input", path])
    assert code == 0
    assert doc["payload"]["rank"] == 1
    assert doc["payload"]["sigma"] == [5.0]
    assert doc["residuals"]["reconstruction"] <= 1e-8


def test_cr_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    code, doc = run_json(capsys, ["cr", "--input", path])
    assert code == 0
    assert doc["payload"]["c"]["data"] == [[1.0], [2.0]]
    assert doc["payload"]["r_factor"]["data"] == [[1.0, 2.0]]


def test_subspaces_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    code, doc = run_json(capsys, ["subspaces", "--input", path])
    assert code == 0
    assert doc["payload"]["rank"] == 1
    assert doc["payload"]["row_space"]["cols"] == 1
    assert doc["payload"]["null_space"]["cols"] == 1
    assert doc["residuals"]["row_null_overlap"] <= 1e-8


def test_pinv_command_on_identity(tmp_path, capsys):
    path = write(tmp_path, "id.csv", "1,0\n0,1\n")
    code, doc = run_json(capsys, ["pinv", "--input", path])
    assert code == 0
    assert doc["payload"]["pinv"]["data"] == [[1.0, 0.0], [0.0, 1.0]]
    assert doc["payload"]["flags"] == {"c1": True, "c2": True, "c3": True, "c4": True}
    assert doc["payload"]["class_label"] == "pseudo-inverse"
    assert doc["residuals"]["route_agreement"] <= 1e-8


def test_ginv_command_default_blocks(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    code, doc = run_json(capsys, ["ginv", "--input", path])
    assert code == 0
    assert doc["payload"]["flags"]["c1"] is True
    assert doc["payload"]["flags"]["c2"] is True


def test_ginv_command_with_block_files(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1\n1\n")
    a = write(tmp_path, "a.csv", "0.5\n")
    code, doc = run_json(capsys, ["ginv", "--input", path, "--a", a])
    assert code == 0
    assert doc["payload"]["flags"]["c1"] is True
    assert doc["payload"]["flags"]["c2"] is True


def test_ginv_whose_penrose_products_overflow_fails_without_a_warning(tmp_path, capsys):
    # X G X = X is finite at 2^600, but with a unit free block its partial
    # products pass the float range; RuntimeWarning is an error under pytest
    x = np.ldexp(np.random.default_rng(3).standard_normal((6, 4)), 600)
    path = write_matrix(tmp_path, "x.csv", x)
    a = write_matrix(tmp_path, "a.csv", np.ones((4, 2)))
    code, doc = run_json(capsys, ["ginv", "--input", path, "--a", a])
    assert code == 1
    assert doc["payload"]["error"] == "non-finite-entry"


def test_leftinv_methods(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1\n1\n")
    code, doc = run_json(capsys, ["leftinv", "--input", path])
    assert code == 0
    assert doc["payload"]["left_inverse"]["data"] == [[0.5, 0.5]]

    code, doc = run_json(capsys, ["leftinv", "--input", path, "--method", "elementary"])
    assert code == 0
    assert doc["payload"]["left_inverse"]["data"] == [[1.0, 0.0]]

    y = write(tmp_path, "y.csv", "1\n")
    code, doc = run_json(
        capsys, ["leftinv", "--input", path, "--method", "family", "--y", y]
    )
    assert code == 0
    assert doc["payload"]["left_inverse"]["data"] == [[0.0, 1.0]]
    assert doc["residuals"]["left_identity"] <= 1e-8


def test_rightinv_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,1\n")
    code, doc = run_json(capsys, ["rightinv", "--input", path])
    assert code == 0
    assert doc["payload"]["right_inverse"]["data"] == [[0.5], [0.5]]
    assert doc["residuals"]["right_identity"] <= 1e-8


def test_classify_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,0\n0,1\n")
    g = write(tmp_path, "g.csv", "1,0\n0,1\n")
    code, doc = run_json(capsys, ["classify", "--input", path, "--g", g])
    assert code == 0
    assert doc["payload"]["class_label"] == "pseudo-inverse"
    assert doc["payload"]["is_left_inverse"] is True
    assert doc["payload"]["is_right_inverse"] is True


def test_solve_command_minnorm_default(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1\n1\n")
    y = write(tmp_path, "y.csv", "1\n3\n")
    code, doc = run_json(capsys, ["solve", "--input", path, "--y", y])
    assert code == 0
    assert doc["payload"]["beta_hat"] == [2.0]
    assert doc["payload"]["y_hat"] == [2.0, 2.0]
    assert doc["payload"]["method"] == "svd-minnorm"
    assert doc["payload"]["residual_norm"] == pytest.approx(np.sqrt(2.0), rel=1e-11)


def test_solve_command_row_vector_y(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1\n1\n")
    y = write(tmp_path, "y.csv", "1,3\n")
    code, doc = run_json(capsys, ["solve", "--input", path, "--y", y])
    assert code == 0
    assert doc["payload"]["beta_hat"] == [2.0]


def test_solve_unique_inconsistent_exits_one(tmp_path, capsys):
    path = write(tmp_path, "ones21.csv", "1\n1\n")
    y = write(tmp_path, "y13.csv", "1\n3\n")
    code, doc = run_json(
        capsys, ["solve", "--method", "unique", "--input", path, "--y", y]
    )
    assert code == 1
    assert doc["payload"]["error"] == "inconsistent-system"
    assert doc["input_shape"] == [2, 1]
    assert doc["residuals"]["residual_norm"] == pytest.approx(np.sqrt(2.0), rel=1e-11)


def test_solve_normal_on_rank_deficient_exits_one(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    y = write(tmp_path, "y.csv", "1\n1\n")
    code, doc = run_json(
        capsys, ["solve", "--method", "normal", "--input", path, "--y", y]
    )
    assert code == 1
    assert doc["payload"]["error"] == "rank-deficient"


def test_project_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1\n1\n")
    code, doc = run_json(capsys, ["project", "--input", path])
    assert code == 0
    assert doc["payload"]["projector"]["data"] == [[0.5, 0.5], [0.5, 0.5]]
    assert doc["payload"]["idempotent"] is True
    assert doc["payload"]["spectrum_binary"] is True

    code, doc = run_json(capsys, ["project", "--input", path, "--side", "row"])
    assert code == 0
    assert doc["payload"]["projector"]["data"] == [[1.0]]


_PROJECTOR_KEYS = ["projector", "side", "trace", "rank", "idempotent", "symmetric", "spectrum_binary"]


@pytest.mark.parametrize(
    "argv, keys, record, lead, dropped",
    [
        (["rank"], ["rank", "n_rows", "n_cols", "dim_null", "dim_left_null"],
         RankNullityReport, [], []),
        (["project", "--side", "col"], _PROJECTOR_KEYS,
         ProjectorReport, ["projector", "side"], ["idempotency", "symmetry"]),
        (["project", "--side", "row"], _PROJECTOR_KEYS,
         ProjectorReport, ["projector", "side"], ["idempotency", "symmetry"]),
        (["classify", "--g", "g.csv"], ["class_label", "flags", "is_left_inverse", "is_right_inverse"],
         InverseReport, [], ["residuals"]),
        (["solve", "--y", "y.csv"],
         ["beta_hat", "y_hat", "residual", "residual_norm", "rank_used", "method"],
         LsSolution, [], []),
    ],
    ids=["rank", "project-col", "project-row", "classify", "solve"],
)
def test_payload_keys_are_the_record_fields_in_order(
    tmp_path, capsys, argv, keys, record, lead, dropped
):
    x = write(tmp_path, "x.csv", "1,2\n2,4\n3,7\n")
    write(tmp_path, "g.csv", "1,0,0\n0,1,0\n")
    write(tmp_path, "y.csv", "1\n2\n3\n")
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    code, doc = run_json(capsys, [argv[0], "--input", x, *argv[1:]])
    assert code == 0
    assert list(doc["payload"]) == keys
    assert list(doc["payload"]) == lead + [f.name for f in fields(record) if f.name not in dropped]


def test_report_command(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    code, doc = run_json(capsys, ["report", "--input", path])
    assert code == 0
    assert doc["payload"]["rank"] == 1
    assert doc["payload"]["penrose_ok"] is True
    assert doc["payload"]["class_label"] == "pseudo-inverse"
    assert set(doc["payload"]["bases"]) == {
        "row_space",
        "null_space",
        "column_space",
        "left_null_space",
    }


def test_report_decomposes_once_and_rank_never_completes(tmp_path, monkeypatch):
    counts = {"_jacobi_rows": 0, "_complete_basis": 0}
    jacobi_orders = []

    def counted(name):
        original = getattr(factorizations, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "_jacobi_rows":
                jacobi_orders.append(args[0].shape[0])
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(factorizations, name, counted(name))
    # rank 2, with a null space of dimension 1 and a left null space of 2
    path = write(tmp_path, "x.csv", "1,2,3\n2,4,6\n1,0,1\n0,1,1\n")

    def run_counted(command):
        counts.update(_jacobi_rows=0, _complete_basis=0)
        report = run_command([command, "--input", path])
        return report.payload, (counts["_jacobi_rows"], counts["_complete_basis"])

    payload, calls = run_counted("report")
    assert calls == (1, 2)
    # the pivoted QR stops after 2 columns, so Jacobi rotates the 2 rows of R
    assert jacobi_orders == [2]
    assert run_counted("rank")[1] == (1, 0)
    x = parse_matrix(path)
    assert np.array_equal(payload["pinv"]["data"], pinv_svd(x))
    bases = fundamental_bases(x)
    for name in ("row_space", "null_space", "column_space", "left_null_space"):
        doc = payload["bases"][name]
        got = np.array(doc["data"]).reshape(doc["rows"], doc["cols"])
        assert np.array_equal(got, getattr(bases, name))


def test_each_op_runs_its_listed_decompositions(tmp_path, capsys, monkeypatch):
    """One rank-revealing decomposition per matrix, counted per op on small
    analogues of the three benchmark corpora: the Jacobi calls, and the
    shape of each array that Gauss-Jordan elimination reduces.  A change
    that moves a count edits this table and says why."""
    calls = []

    def counted(kind, original):
        def wrapper(work, *rest):
            calls.append((kind, work.shape))
            return original(work, *rest)

        return wrapper

    for module in (matrix, factorizations):
        monkeypatch.setattr(module, "_eliminate", counted("elimination", module._eliminate))
    for module in (spectral, factorizations):
        monkeypatch.setattr(module, "_jacobi_rows", counted("jacobi", module._jacobi_rows))
    rng = np.random.default_rng(5)
    draw = rng.standard_normal
    low_rank = write_matrix(tmp_path, "low.csv", draw((12, 3)) @ draw((3, 8)))
    tall = write_matrix(tmp_path, "graded.csv", graded(rng, 16, 12, 12, 30.0))
    deficient = write_matrix(tmp_path, "deficient.csv", draw((24, 12)) @ draw((12, 20)))
    x = draw((24, 20))
    full = write_matrix(tmp_path, "full.csv", x)
    y = write_matrix(tmp_path, "y.csv", x @ draw((20, 1)))
    # argv: (Jacobi calls, shapes eliminated); low_rank is 12 x 8 of rank 3,
    # tall 16 x 12 of full rank, deficient 24 x 20 of rank 12, full 24 x 20
    expected = {
        # the (p, p) Gram that fails, (n, p) for C R, the (r, r) Grams of R and C
        ("report", "--input", low_rank): (1, [(8, 8), (12, 8), (3, 3), (3, 3)]),
        # the (p, p) Gram
        ("pinv", "--input", tall): (1, [(12, 12)]),
        ("cr", "--input", deficient): (0, [(24, 20)]),
        # (n, p), then the column reduction of the r echelon rows, (p, r)
        ("ginv", "--input", deficient): (0, [(24, 20), (20, 12)]),
        ("leftinv", "--method", "elementary", "--input", full): (0, [(24, 20)]),
        # the (p, p) Gram
        ("solve", "--method", "unique", "--y", y, "--input", full): (0, [(20, 20)]),
    }
    for argv, (jacobi, eliminated) in expected.items():
        calls.clear()
        assert main([*argv, "--json"]) == 0
        capsys.readouterr()
        got = sum(kind == "jacobi" for kind, _ in calls)
        shapes = [shape for kind, shape in calls if kind == "elimination"]
        assert (got, shapes) == (jacobi, eliminated), argv[0]


@pytest.mark.parametrize(
    "scale", [1e160, 1e-200, 2.0**600, 2.0**-600], ids=["1e160", "1e-200", "2^600", "2^-600"]
)
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_commands_are_scale_safe(tmp_path, capsys, wide, scale):
    # C'C in pinv_cr and the squared entries in every Frobenius norm
    # overflowed or underflowed here before prescaling
    x = np.random.default_rng(3).standard_normal((6, 4)) * scale
    x = x.T if wide else x
    path = write_matrix(tmp_path, "x.csv", x)
    g = write_matrix(tmp_path, "g.csv", pinv_svd(x))
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 0, doc["payload"]
    assert doc["payload"]["rank"] == 4
    assert doc["residuals"]["kernel_rank_gap"] == 0.0
    for argv in (["pinv"], ["report"], ["classify", "--g", g]):
        code, doc = run_json(capsys, [*argv, "--input", path])
        assert code == 0, doc["payload"]
        assert doc["payload"]["class_label"] == "pseudo-inverse"
    code, doc = run_json(capsys, ["ginv", "--input", path])
    assert code == 0, doc["payload"]
    assert doc["payload"]["flags"]["c1"] and doc["payload"]["flags"]["c2"]

    # the normal-equation routes fail only where the reference route of the
    # same command fails (--method elementary for the one-sided inverses,
    # --method svd for solve), or where their rank condition does not hold
    def outcome(argv):
        code, doc = run_json(capsys, [*argv, "--input", path])
        return code, doc["payload"].get("error")

    for cmd in ("leftinv", "rightinv"):
        assert outcome([cmd, "--method", "normal"]) == outcome([cmd, "--method", "elementary"])
    y = write_matrix(tmp_path, "y.csv", (x @ np.arange(1.0, x.shape[1] + 1))[:, None])
    reference = outcome(["solve", "--y", y, "--method", "svd"])
    # the relative normal-equation gap is finite at every scale; the absolute
    # ||X'r|| lay past the float range at 2^600
    assert reference == (0, None)
    for method, applies in (("normal", not wide), ("unique", not wide), ("right", wide)):
        expected = reference if applies else (1, "rank-deficient")
        assert outcome(["solve", "--y", y, "--method", method]) == expected


@pytest.mark.parametrize("k", [-1000, -600, -1, 1, 600, 1000])
def test_normal_equation_gap_is_relative_and_blind_to_powers_of_two(k):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    b = rng.standard_normal(4)
    r = rng.standard_normal(6)
    gap = cli._normal_equation_gap(x, y, b, r)
    nx = np.linalg.norm(x)
    oracle = np.linalg.norm(x.T @ r) / (nx * (nx * np.linalg.norm(b) + np.linalg.norm(y)))
    assert gap == pytest.approx(oracle, rel=1e-14)
    # X 2^k takes beta_hat to beta_hat 2^-k; y 2^k takes beta_hat and r to 2^k
    assert cli._normal_equation_gap(np.ldexp(x, k), y, np.ldexp(b, -k), r) == gap
    assert cli._normal_equation_gap(x, np.ldexp(y, k), np.ldexp(b, k), np.ldexp(r, k)) == gap
    assert cli._normal_equation_gap(np.ldexp(x, k), np.ldexp(y, k), b, np.ldexp(r, k)) == gap
    assert cli._normal_equation_gap(x, y, b, np.zeros(6)) == 0.0
    assert cli._normal_equation_gap(np.zeros((6, 4)), y, b, r) == 0.0
    assert cli._normal_equation_gap(x, np.zeros(6), np.zeros(4), r) == 0.0


def test_normal_equation_gap_reads_rounding_level_on_a_consistent_system(tmp_path, capsys):
    # the ratio ||X'r|| / (||X|| ||r||) read 0.60 (svd) and 0.44 (right) here,
    # r being rounding noise
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 7))
    y = x @ rng.standard_normal(7)
    path = write_matrix(tmp_path, "x.csv", x)
    y_path = write_matrix(tmp_path, "y.csv", y[:, None])
    for method in ("svd", "right"):
        code, doc = run_json(capsys, ["solve", "--input", path, "--y", y_path, "--method", method])
        assert code == 0
        assert doc["residuals"]["normal_equation_gap"] < 1e-15
        # a perturbed solution is read as one
        off = np.array(doc["payload"]["beta_hat"]) + 1e-3 * rng.standard_normal(7)
        assert cli._normal_equation_gap(x, y, off, y - x @ off) > 1e-5


@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_commands_past_the_top_of_the_float_range_fail_typed(tmp_path, capsys, wide):
    # ||X||_F and sigma_1 of X * 5e307 lie past the float range.  They came
    # back inf after an overflow warning: rank and subspaces answered, ginv
    # passed c1 against an infinite threshold, and project built a rank-3
    # projector of this rank-4 input
    x = np.random.default_rng(3).standard_normal((6, 4)) * 5e307
    x = x.T if wide else x
    path = write_matrix(tmp_path, "x.csv", x)
    zero = write_matrix(tmp_path, "g.csv", np.zeros(x.T.shape))
    y = write_matrix(tmp_path, "y.csv", x[:, :1])

    def outcome(*argv):
        code, doc = run_json(capsys, [*argv, "--input", path])
        return code, doc["payload"].get("error")

    past_range = (1, "non-finite-entry")
    for argv in (["svd"], ["pinv"], ["report"], ["ginv"], ["classify", "--g", zero]):
        assert outcome(*argv) == past_range, argv
    # the rank, bases, projectors and minimum-norm estimate do not grow with
    # sigma_1; read off the SVD of the prescaled X, they are NumPy's there
    def answer(*argv):
        code, doc = run_json(capsys, [*argv, "--input", path])
        assert code == 0, argv
        return doc["payload"]

    (xs, ex), (ys, ey) = (matrix._prescaled(a) for a in (x, x[:, 0]))
    u, _, vt = np.linalg.svd(xs)
    column, row = u[:, :4] @ u[:, :4].T, vt[:4].T @ vt[:4]
    assert answer("rank")["rank"] == 4
    bases = answer("subspaces")
    assert bases["rank"] == 4
    for key, want in (("column_space", column), ("row_space", row)):
        basis = np.array(bases[key]["data"])
        assert np.allclose(basis @ basis.T, want, rtol=0, atol=1e-10), key
    for side, want in (("col", column), ("row", row)):
        got = np.array(answer("project", "--side", side)["projector"]["data"])
        assert np.allclose(got, want, rtol=0, atol=1e-10), side
    beta = np.array(answer("solve", "--y", y, "--method", "svd")["beta_hat"])
    want = np.ldexp(np.linalg.lstsq(xs, ys)[0], ey - ex)
    assert np.linalg.norm(beta - want) <= 1e-10 * np.linalg.norm(want)
    # elimination answers wherever its rank condition holds
    assert outcome("cr") == (0, None)
    for cmd, applies in (("leftinv", not wide), ("rightinv", wide)):
        for method in ("normal", "elementary", "family"):
            expected = (0, None) if applies else (1, "rank-deficient")
            assert outcome(cmd, "--method", method) == expected
    # so do the elimination routes of solve: their relative normal-equation
    # gap is finite, where the absolute ||X'r|| lay past the float range
    for method, applies in (("normal", not wide), ("unique", not wide), ("right", wide)):
        expected = (0, None) if applies else (1, "rank-deficient")
        assert outcome("solve", "--y", y, "--method", method) == expected


def test_sign_matrices_at_the_top_of_the_float_range_end_without_warning(tmp_path, capsys):
    # entries of +-2^1023: the rank checks reduced the raw input, overflowed
    # with a warning and read the rank-2 3 x 3 matrix as rank 3, so the
    # normal-equation routes went on to fail singular; cr's C R - X
    # overflowed to a non-finite-entry failure
    y = str(tmp_path / "y.csv")

    def outcome(x, *argv):
        path = write_matrix(tmp_path, "x.csv", x)
        write_matrix(tmp_path, "y.csv", x[:, :1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--input", path, "--json"])
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == [] and err == "", argv
        payload = json.loads(out)["payload"]
        return code, payload.get("error"), payload.get("rank")

    deficient = np.ldexp(np.array([[-1.0, -1, -1], [-1, -1, -1], [-1, 0, 1]]), 1023)
    assert outcome(deficient, "cr") == (0, None, 2)
    for argv in (["leftinv", "--method", "normal"], ["rightinv", "--method", "normal"],
                 ["solve", "--y", y, "--method", "normal"],
                 ["solve", "--y", y, "--method", "unique"]):
        assert outcome(deficient, *argv) == (1, "rank-deficient", None), argv
    nonsingular = np.ldexp(np.array([[1.0, 1], [-1, 1]]), 1023)
    assert outcome(nonsingular, "rank") == (0, None, 2)
    assert outcome(nonsingular, "cr") == (0, None, 2)
    for cmd in ("leftinv", "rightinv"):
        for method in ("normal", "elementary", "family"):
            assert outcome(nonsingular, cmd, "--method", method) == (0, None, None)
    wide = np.ldexp(np.array([[-1.0, -1, -1], [0, -1, 1]]), 1023)
    assert outcome(wide, "cr") == (0, None, 2)
    _, doc = run_json(capsys, ["cr", "--input", write_matrix(tmp_path, "x.csv", wide)])
    assert doc["residuals"]["reconstruction"] == 0.0
    # the identity defects x g and g x were formed at the input's scale,
    # where they overflowed with a warning into a non-finite-entry failure
    block = str(tmp_path / "block.csv")
    for x, cmd, shape in ((wide, "rightinv", (1, 2)), (wide.T, "leftinv", (2, 1))):
        write_matrix(tmp_path, "block.csv", np.ones(shape))
        assert outcome(x, cmd, "--method", "family", "--y", block) == (0, None, None), cmd


def test_right_solve_past_the_top_of_the_float_range_ends_without_warning(tmp_path, capsys):
    # X beta is about y, but its partial sums at the input's scale overflowed,
    # and the warning escaped main in place of a report
    x = np.random.default_rng(3).standard_normal((6, 4)) * 5e307
    path = write_matrix(tmp_path, "x.csv", x.T)
    y = write_matrix(tmp_path, "y.csv", x[:4, :1])
    code, doc = run_json(capsys, ["solve", "--input", path, "--y", y, "--method", "right"])
    if code == 0:
        assert all(math.isfinite(v) for v in doc["payload"]["y_hat"])
    else:
        assert (code, doc["payload"]["error"]) == (1, "non-finite-entry")


@pytest.mark.parametrize(
    "x",
    [kahan(20, 0.3), graded(np.random.default_rng(7), 80, 60, 60, 1e7)],
    ids=["kahan_20", "graded_1e7"],
)
@pytest.mark.parametrize("cmd", ["pinv", "report"])
def test_failing_cr_route_is_reported_not_a_veto(tmp_path, capsys, cmd, x):
    # pinv_cr raises singular-matrix on both; it only cross-checks the SVD's
    # answer, which exists, and once ended the whole command in exit 1
    path = write_matrix(tmp_path, "x.csv", x)
    code, doc = run_json(capsys, [cmd, "--input", path])
    assert code == 0, doc["payload"]
    assert doc["payload"]["route_check"] == "singular-matrix"
    assert "route_agreement" not in doc["residuals"]
    assert (doc["payload"]["pinv"]["rows"], doc["payload"]["pinv"]["cols"]) == x.T.shape


@pytest.mark.parametrize("cmd", ["pinv", "report"])
def test_succeeding_cr_route_keeps_route_agreement(tmp_path, capsys, cmd):
    path = write_matrix(tmp_path, "x.csv", np.random.default_rng(3).standard_normal((6, 4)))
    code, doc = run_json(capsys, [cmd, "--input", path])
    assert code == 0
    assert "route_check" not in doc["payload"]
    assert doc["residuals"]["route_agreement"] <= 1e-12


@pytest.mark.parametrize(
    "scale", [1e-310, 2.0**-1030, 2.0**-1040], ids=["1e-310", "2^-1030", "2^-1040"]
)
def test_subnormal_input_projects_and_its_pinv_fails_typed(tmp_path, capsys, scale):
    # a projector is dimensionless, and the pseudo inverse lies past the
    # float range; through 1/sigma all four commands warned of an overflow
    # and ended in non-finite-entry.  RuntimeWarning is an error under pytest
    path = write_matrix(tmp_path, "x.csv", np.random.default_rng(3).standard_normal((6, 4)) * scale)
    for side in ("col", "row"):
        code, doc = run_json(capsys, ["project", "--input", path, "--side", side])
        assert code == 0, doc["payload"]
        payload = doc["payload"]
        assert payload["rank"] == 4
        assert payload["idempotent"] and payload["symmetric"] and payload["spectrum_binary"]
    for cmd in ("pinv", "report"):
        code, doc = run_json(capsys, [cmd, "--input", path])
        assert (code, doc["payload"]["error"]) == (1, "non-finite-entry")


def test_a_subnormal_pivot_at_a_tiny_tolerance_ends_without_warning(tmp_path, capsys):
    # at --tol 1e-320 the Gram matrix of [[1, 0], [0, 2^-520], [0, 0]] keeps
    # its subnormal pivot 2^-1040, and the elimination warned "overflow
    # encountered in divide" before each command ended.  RuntimeWarning is an
    # error under pytest
    path = write_matrix(tmp_path, "x.csv", np.array([[1.0, 0.0], [0.0, 2.0**-520], [0.0, 0.0]]))
    y = write_matrix(tmp_path, "y.csv", np.array([[1.0], [2.0**-520], [0.0]]))
    expected = {
        ("leftinv", "--method", "normal"): (1, "non-finite-entry"),
        ("rightinv", "--method", "normal"): (1, "rank-deficient"),
        ("solve", "--y", y, "--method", "normal"): (1, "non-finite-entry"),
        ("solve", "--y", y, "--method", "unique"): (1, "non-finite-entry"),
        ("solve", "--y", y, "--method", "right"): (1, "rank-deficient"),
        ("pinv",): (0, None),
        ("report",): (0, None),
    }
    for argv, outcome in expected.items():
        code, doc = run_json(capsys, [*argv, "--input", path, "--tol", "1e-320"])
        assert (code, doc["payload"].get("error")) == outcome, argv
        if code == 0:
            assert doc["payload"]["route_check"] == "non-finite-entry", argv


def test_an_echelon_form_past_the_float_range_is_named_not_blamed_on_the_input(
        tmp_path, capsys):
    # at tol 1e-320 the prescaled pivot 2^-1041 of [[1, 0, 0], [0, 2^-1040, 1]]
    # is accepted and divides its row's 0.5 to 2^1040, past the float range:
    # cr and ginv said "matrix contains NaN or infinite entries" of a finite
    # input.  The SVD commands still answer
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0**-1040, 1.0]])
    path = write_matrix(tmp_path, "x.csv", x)
    message = "the echelon form lies beyond the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (factorizations.cr_decompose, rg_canonical):
            with pytest.raises(NonFiniteEntryError) as info:
                route(x, tol=1e-320)
            assert str(info.value) == message, route.__name__
        for cmd in ("cr", "ginv", "rank", "subspaces"):
            code, doc = run_json(capsys, [cmd, "--input", path, "--tol", "1e-320"])
            if cmd in ("cr", "ginv"):
                assert code == 1, cmd
                assert doc["payload"] == {"error": "non-finite-entry", "message": message}, cmd
            else:
                assert (code, doc["payload"]["rank"]) == (0, 2), cmd
            assert capsys.readouterr().err == "", cmd


def test_y_outside_method_family_is_a_usage_error(tmp_path, capsys):
    # leftinv and rightinv read --y only as the free block of --method family;
    # elsewhere it was ignored and the inverse printed with exit code 0
    x = write(tmp_path, "x.csv", "1,2\n3,4\n5,7\n")
    y = write(tmp_path, "y.csv", "1\n2\n")
    for cmd in ("leftinv", "rightinv"):
        for method in ("normal", "elementary"):
            assert main([cmd, "--input", x, "--method", method, "--y", y]) == 2, (cmd, method)
            err = capsys.readouterr().err
            assert f"{cmd}: argument --y: only --method family takes a free block" in err
        with pytest.raises(SystemExit):
            run_command([cmd, "--input", x, "--method", "normal", "--y", y])
        capsys.readouterr()
    # --method family and solve still read it
    code, doc = run_json(capsys, ["leftinv", "--input", x, "--method", "family", "--y", y])
    assert (code, doc["payload"]["method"]) == (0, "family")
    b = write(tmp_path, "b.csv", "1\n3\n5\n")
    assert run_json(capsys, ["solve", "--input", x, "--y", b])[0] == 0


# Scaling X by 2^k is exact, so every answer scales by 2^(d k), d the degree
# of its field: 1 for sigma, the columns C of CR and a reconstruction
# residual, 0 for bases, projectors and every other field here
SCALE_INPUTS = {
    "tall": np.random.default_rng(3).standard_normal((6, 4)),
    "wide": np.random.default_rng(3).standard_normal((6, 4)).T,
    # rank 2, so the SVD takes the rank-sized route
    "deficient": np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
}
SCALE_DEGREE = {"sigma": 1, "c": 1, "reconstruction": 1}
EQUIVARIANT = (["rank"], ["svd"], ["cr"], ["subspaces"],
               ["project", "--side", "col"], ["project", "--side", "row"])
# "{g}", "{y}", "{y_left}" and "{y_right}" name the companion files of
# _companions
ANSWER_OR_TYPED = (["rank"], ["svd"], ["cr"], ["subspaces"], ["project", "--side", "col"],
                   ["project", "--side", "row"], ["pinv"], ["report"],
                   ["leftinv", "--method", "normal"], ["rightinv", "--method", "normal"],
                   ["ginv"], ["leftinv", "--method", "elementary"],
                   ["rightinv", "--method", "elementary"], ["classify", "--g", "{g}"],
                   *(["solve", "--method", m, "--y", "{y}"]
                     for m in ("svd", "normal", "unique", "right")),
                   ["leftinv", "--method", "family"],
                   ["leftinv", "--method", "family", "--y", "{y_left}"],
                   ["rightinv", "--method", "family"],
                   ["rightinv", "--method", "family", "--y", "{y_right}"])
# below 2^-960 a residual of 1e-16 relative is no longer a normal float
NORMAL_K = range(-960, 1001)
TYPED_CODES = {getattr(errors, name).code for name in errors.__all__}


def _run(argv):
    """Exit code and JSON document of one run; a RuntimeWarning is an error
    under pytest, so none can pass unseen."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, json.loads(out.getvalue())


def _companions(tmp, name, x, k):
    """Side files for ``x * 2^k``: the candidate ``g`` of ``classify``, the
    pseudo inverse scaled by ``2^-k`` and held inside the float range; a
    consistent ``y`` for ``solve``; and free blocks for the family methods."""
    n, p = x.shape
    rng = np.random.default_rng(5)
    files = {
        "g": np.ldexp(pinv_svd(x), -max(k, -1000)),
        "y": np.ldexp(x @ np.arange(1.0, p + 1), k)[:, None],
        "y_left": rng.standard_normal((p, max(n - p, 1))),
        "y_right": rng.standard_normal((max(p - n, 1), n)),
    }
    return {key: write_matrix(tmp, f"scale_{name}_{k}_{key}.csv", v) for key, v in files.items()}


def _assert_scaled(base, got, k, degree=0):
    """``got`` is ``base`` with each float times ``2^(degree k)``, to the
    12 significant digits each was written with."""
    if isinstance(base, dict):
        assert base.keys() == got.keys()
        for key in base:
            _assert_scaled(base[key], got[key], k, SCALE_DEGREE.get(key, degree))
    elif isinstance(base, list):
        assert len(base) == len(got)
        for a, b in zip(base, got):
            _assert_scaled(a, b, k, degree)
    elif isinstance(base, float):
        assert math.isclose(got, math.ldexp(base, degree * k), rel_tol=1e-11, abs_tol=0.0)
    else:
        assert got == base


@given(name=st.sampled_from(sorted(SCALE_INPUTS)), k=st.integers(-1080, 1000))
@example(name="tall", k=-1040)
@example(name="wide", k=-1030)
@example(name="deficient", k=1000)
# sigma accepted at the prescaled size that scales back to 0.0
@example(name="deficient", k=-1076)
@example(name="tall", k=-1074)
@example(name="wide", k=-1074)
@settings(max_examples=40, deadline=None)
def test_scaling_by_a_power_of_two_is_exact_or_fails_typed(tmp_path_factory, name, k):
    tmp = tmp_path_factory.getbasetemp()
    x = SCALE_INPUTS[name]
    base_path = write_matrix(tmp, f"scale_{name}.csv", x)
    path = write_matrix(tmp, f"scale_{name}_k.csv", np.ldexp(x, k))
    files = _companions(tmp, name, x, k)
    for argv in ANSWER_OR_TYPED:
        code, doc = _run([a.format(**files) for a in argv] + ["--input", path])
        assert code == 0 or (code == 1 and doc["payload"]["error"] in TYPED_CODES), (argv, doc)
    if k not in NORMAL_K:
        return
    for argv in EQUIVARIANT:
        base_code, base = _run([*argv, "--input", base_path])
        code, doc = _run([*argv, "--input", path])
        assert code == base_code == 0, (argv, doc["payload"])
        _assert_scaled(base["payload"], doc["payload"], k)
        _assert_scaled(base["residuals"], doc["residuals"], k)


def test_convergence_failure_report_carries_sweeps_and_offdiag_norm(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    path = write(tmp_path, "x.csv", "2,1\n1,3\n0,1\n")
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 1
    assert doc["payload"]["error"] == "non-convergence"
    assert doc["residuals"]["sweeps"] == 0
    assert doc["residuals"]["offdiag_norm"] > 0.0


def test_parser_lists_each_handler_once_with_its_docstring():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._HANDLERS)
    helps = {action.dest: action.help for action in sub._choices_actions}
    assert helps == {name: handler.__doc__ for name, handler in cli._HANDLERS.items()}
    solve = sub.choices["solve"]
    method = next(a for a in solve._actions if a.dest == "method")
    assert method.choices == tuple(cli._SOLVERS)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_non_finite_report_becomes_failure_report(tmp_path, capsys, monkeypatch, to_file):
    monkeypatch.setitem(
        cli._HANDLERS, "rank", lambda x, args, tol: ({"rank": 1}, {"gap": float("nan")})
    )
    path = write(tmp_path, "x.csv", "1,2\n2,4\n3,6\n")
    out = tmp_path / "report.json"
    out.write_text("stale")
    argv = ["rank", "--input", path, "--json"] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 1
    printed = capsys.readouterr().out
    doc = json.loads(out.read_text() if to_file else printed)
    if to_file:
        assert printed == ""
    else:
        assert out.read_text() == "stale"
    assert doc["payload"] == {
        "error": "non-finite-entry",
        "message": "report.residuals.gap is not finite",
    }
    assert doc["input_shape"] == [3, 2]


def test_run_command_returns_report_object(tmp_path):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    report = run_command(["rank", "--input", path])
    assert isinstance(report, Report)
    assert report.payload["rank"] == 1
    assert report.input_shape == (2, 2)


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,2\n2,4\n")
    out = tmp_path / "report.json"
    assert main(["rank", "--input", path, "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["payload"]["rank"] == 1


@pytest.mark.parametrize("text", ["1,2\n2,4\n", "1,2\n3\n"], ids=["valid", "ragged"])
def test_unwritable_out_reports_io_error_on_stdout(tmp_path, capsys, text):
    path = write(tmp_path, "x.csv", text)
    out = tmp_path / "missing" / "r.json"
    assert main(["rank", "--input", path, "--json", "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["error"] == "io-error"
    assert str(out) in doc["payload"]["message"]
    assert not out.parent.exists()


def test_missing_input_file_maps_to_io_error(tmp_path, capsys):
    code, doc = run_json(capsys, ["rank", "--input", str(tmp_path / "nope.csv")])
    assert code == 1
    assert doc["payload"]["error"] == "io-error"
    assert doc["input_shape"] is None


def test_parse_error_maps_to_exit_one(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "1,2\n3\n")
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 1
    assert doc["payload"]["error"] == "ragged-rows"


# integers past the float range, and past the 4300 digits int() accepts
BIG_INT = b"1" + b"0" * 400
LONG_INT = b"1" + b"0" * 5000


@pytest.mark.parametrize(
    "name, content, error, message",
    [
        ("scalar.json", b'{"rows":1,"cols":1,"data":5}', "parse-error",
         '"data" must hold 1 rows, got no array'),
        ("string.json", b'{"rows":3,"cols":1,"data":"abc"}', "parse-error",
         '"data" must hold 3 rows, got no array'),
        ("object.json", b'{"rows":1,"cols":1,"data":{"a":[1]}}', "parse-error",
         '"data" must hold 1 rows, got no array'),
        ("big.json", b'{"rows":1,"cols":1,"data":[[' + BIG_INT + b"]]}", "non-finite-entry",
         "{path} contains NaN or infinite entries"),
        ("long.json", b'{"rows":1,"cols":1,"data":[[-' + LONG_INT + b"]]}", "non-finite-entry",
         "{path} contains NaN or infinite entries"),
        ("long_header.json", b'{"rows":' + LONG_INT + b',"cols":1,"data":[[1]]}', "parse-error",
         '"rows" and "cols" must be integers'),
        ("latin1.csv", b"1,2\n3,\xff\n", "parse-error",
         "unreadable csv file: 'utf-8' codec can't decode byte 0xff in position 6: "
         "invalid start byte"),
        ("deep.json", b"[" * 200_000 + b"]" * 200_000, "parse-error",
         "unreadable json file: maximum recursion depth exceeded"),
    ],
    ids=["data-not-array", "data-string", "data-object", "int-past-float-range",
         "int-past-4300-digits", "header-past-4300-digits", "not-utf8", "nested-200000-deep"],
)
def test_malformed_input_file_ends_as_typed_failure(tmp_path, capsys, name, content, error, message):
    path = tmp_path / name
    path.write_bytes(content)
    fmt = path.suffix[1:]
    code, doc = run_json(capsys, ["rank", "--input", str(path), "--format", fmt])
    assert code == 1
    assert doc["payload"]["error"] == error
    # the recursion error's own wording varies across Python versions
    assert doc["payload"]["message"].startswith(message.format(path=path))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--y", "{bad}"],
        ["classify", "--g", "{bad}"],
        ["ginv", "--a", "{bad}"],
        ["ginv", "--b", "{bad}"],
        ["leftinv", "--method", "family", "--y", "{bad}"],
    ],
    ids=["solve-y", "classify-g", "ginv-a", "ginv-b", "leftinv-y"],
)
def test_non_utf8_side_file_is_a_parse_error(tmp_path, capsys, argv):
    x = write(tmp_path, "x.csv", "1,0\n0,0\n0,0\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xfe\n")
    cmd, *rest = argv
    code, doc = run_json(capsys, [cmd, "--input", x, *(a.format(bad=bad) for a in rest)])
    assert code == 1
    assert doc["payload"]["error"] == "parse-error"
    assert doc["input_shape"] == [3, 2]


@given(st.binary(max_size=48))
@settings(max_examples=200, deadline=None)
def test_any_input_bytes_end_in_a_report(tmp_path_factory, content):
    # every failure is typed: whatever the file holds, main returns 0 or 1
    tmp = tmp_path_factory.getbasetemp()
    x = tmp / "fixed.csv"
    x.write_text("1,2\n3,4\n")
    path = tmp / "any.bin"
    path.write_bytes(content)
    runs = [
        ["rank", "--input", str(path)],
        ["rank", "--input", str(path), "--format", "json"],
        ["classify", "--input", str(x), "--g", str(path)],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 1)


def test_usage_errors_exit_two(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1\n")
    assert main([]) == 2
    assert main(["frobnicate", "--input", path]) == 2
    assert main(["rank"]) == 2
    assert main(["rank", "--input", path, "--tol", "5"]) == 2
    assert main(["rank", "--input", path, "--format", "tsv"]) == 2
    capsys.readouterr()


def test_loose_tolerance_flag_reaches_the_library(tmp_path, capsys):
    path = write(tmp_path, "x.csv", "1,0\n0,0.0001\n")
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 0 and doc["payload"]["rank"] == 2
    code, doc = run_json(capsys, ["rank", "--input", path, "--tol", "0.01"])
    assert code == 0 and doc["payload"]["rank"] == 1


def test_tolerance_flag_moves_the_rank_of_a_graded_input(tmp_path, capsys):
    # a floor of 1e-6 * sigma_1 on the cutoff held the rank at 36 for all
    # three; NumPy counts sigma above tol * max(n, p) * sigma_1
    x = graded(np.random.default_rng(7), 80, 60, 60, 1e10)
    path = write_matrix(tmp_path, "x.csv", x)
    s = np.linalg.svd(x, compute_uv=False)
    ranks = []
    for tol in (1e-12, 1e-10, 1e-8):
        code, doc = run_json(capsys, ["rank", "--input", path, "--tol", repr(tol)])
        assert code == 0
        assert doc["payload"]["rank"] == int(np.sum(s > tol * 80 * s[0]))
        ranks.append(doc["payload"]["rank"])
    assert ranks == [60, 48, 36]


def test_kernel_rank_gap_shows_where_partial_pivoting_overestimates_rank(tmp_path, capsys):
    # Gauss-Jordan with partial pivoting accepts 19 pivots on Kahan's matrix,
    # where the SVD counts 16 singular values above its cutoff
    x = kahan(20, 0.3)
    path = write_matrix(tmp_path, "x.csv", x)
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 0 and doc["payload"]["rank"] == 16
    assert doc["residuals"]["kernel_rank_gap"] == abs(pivot_rank(x) - 16) == 3.0


# ---------------------------------------------------------------------------
# emission


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "posinf", "neginf"])
@pytest.mark.parametrize(
    "where",
    [
        "report.payload.pinv.data[1][0]",
        "report.payload.beta_hat[2]",
        "report.payload.stats.trace",
        "report.residuals.c1",
    ],
    ids=["matrix", "vector", "nested", "residual"],
)
def test_emit_report_rejects_nan_payload(where, value):
    pinv, beta = np.eye(2), np.arange(3.0)
    stats, residuals = {"trace": 2.0}, {"c1": 0.0}
    if "pinv" in where:
        pinv[1, 0] = value
    elif "beta_hat" in where:
        beta[2] = value
    elif "stats" in where:
        stats["trace"] = value
    else:
        residuals["c1"] = value
    payload = {"pinv": _matrix_doc(pinv), "beta_hat": np.asarray(beta, dtype=float), "stats": stats}
    report = Report("pinv", (2, 2), 1e-10, payload, residuals)
    # one screen ahead of both renderers names the same entry in both modes
    for json_mode in (True, False):
        stream = io.StringIO()
        with pytest.raises(NonFiniteEntryError, match=f"^{re.escape(where)} is not finite$"):
            emit_report(report, json_mode=json_mode, stream=stream)
        assert stream.getvalue() == ""


def test_emit_report_twelve_significant_digits():
    report = Report("rank", (1, 1), 1e-10, {"value": 1.0 / 3.0}, {})
    text = emit_report(report, json_mode=True, stream=io.StringIO())
    assert "0.333333333333" in text
    assert "0.3333333333333333" not in text


def test_emit_parse_round_trip_is_bit_stable(tmp_path):
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    report = Report("pinv", (2, 2), 1e-10, {"pinv": _matrix_doc(pinv_svd(x))}, {})
    first = emit_report(report, json_mode=True, stream=io.StringIO())

    matrix_doc = json.loads(first)["payload"]["pinv"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_doc))
    back = parse_matrix(str(path), "json")

    again = Report("pinv", (2, 2), 1e-10, {"pinv": _matrix_doc(back)}, {})
    second = emit_report(again, json_mode=True, stream=io.StringIO())
    assert second == first


def test_text_mode_renders_matrices_with_shape_header(capsys):
    report = Report(
        "pinv",
        (2, 2),
        1e-10,
        {"pinv": _matrix_doc(np.eye(2)), "flags": {"c1": True}},
        {"c1": 0.0},
    )
    text = emit_report(report, json_mode=False, stream=io.StringIO())
    assert "pinv (2 x 2):" in text
    assert "1 0" in text
    assert "c1: true" in text


# ---------------------------------------------------------------------------
# the two-pass emitter that emit_report's one walk replaced, kept as its
# oracle: a rounded copy of the document, then json.dumps or the text layout


def _round_floats(obj, where="report"):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _round_floats(val, f"{where}.{key}") for key, val in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(val, f"{where}[{i}]") for i, val in enumerate(obj)]
    if isinstance(obj, bool) or not isinstance(obj, float):
        return obj
    if not math.isfinite(obj):
        raise NonFiniteEntryError(f"{where} is not finite")
    return float(f"{obj:.12g}")


def _two_pass_fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _two_pass_entry(lines, key, value, indent):
    pad = "  " * indent
    if isinstance(value, dict) and {"rows", "cols", "data"} <= set(value):
        lines.append(f"{pad}{key} ({value['rows']} x {value['cols']}):")
        for row in value["data"]:
            lines.append("  " * (indent + 1) + " ".join(_two_pass_fmt(v) for v in row))
    elif isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for sub_key, sub_val in value.items():
            _two_pass_entry(lines, sub_key, sub_val, indent + 1)
    elif isinstance(value, list):
        lines.append(f"{pad}{key}: " + " ".join(_two_pass_fmt(v) for v in value))
    else:
        lines.append(f"{pad}{key}: {_two_pass_fmt(value)}")


def two_pass_emit(report, json_mode):
    doc = _round_floats(report.to_document())
    if json_mode:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    shape = doc["input_shape"]
    lines = [
        f"command: {doc['command']}",
        "input shape: " + (f"{shape[0]} x {shape[1]}" if shape else "unknown"),
        f"tolerance: {_two_pass_fmt(doc['tolerance'])}",
    ]
    for key, value in doc["payload"].items():
        _two_pass_entry(lines, key, value, 0)
    lines.append("residuals:")
    for key, value in doc["residuals"].items():
        _two_pass_entry(lines, key, value, 1)
    return "\n".join(lines) + "\n"


# literals where "%.12g" and repr part ways: integers, exponents 12 to 15,
# subnormals, and the edges of the float range
EDGE_FLOATS = [
    1e12, 999999999999.5, 9999999999999999.0, 1e13, 123456789012345.0, 1e15, 1e16,
    1e-5, 1.5e-7, 0.0, -0.0, 100.0, -2.5, 1.0 / 3.0, 2.0 / 3.0 * 1e-300,
    5e-324, 1.000000000003e-312, 2.2250738585072014e-308, 1.797e308, -1.797e308,
]


def edge_report():
    payload = {
        "literals": EDGE_FLOATS,
        "matrix": _matrix_doc(np.array(EDGE_FLOATS).reshape(4, 5)),
        "empty_matrix": _matrix_doc(np.zeros((2, 0))),
        "flat_matrix": _matrix_doc(np.zeros((0, 3))),
        "vector": np.asarray(EDGE_FLOATS[::-1], dtype=float),
        "mixed": [1, 2.5, -3, 0.0, 10**20, 1e13, True, None],
        # rows of floats outside a matrix document, and a vector of exact
        # integers that the one-call path writes as "%.1f"
        "float_rows": [[1.5, -2.25, 0.1], [2.0, 1e-5, -0.0]],
        "whole_vector": [3.0, -0.0, 0.0, -12.0, 1e10],
        "empty_list": [],
        "flags": {"c1": True, "c2": False, "none": None},
        "empty_dict": {},
        "trace": np.float64(1.0 / 7.0),
        "rank": 3,
        "label": "Zeilenraum \u2013 Spaltenraum \u2205 \"quoted\"\n",
    }
    residuals = {"c1": np.float64(1e-20), "gap": 5e-324, "norm": 1e300}
    return Report("edge", (4, 5), 1e-10, payload, residuals)


def test_emitter_matches_two_pass_oracle_on_edge_literals():
    report = edge_report()
    nested = {"nested": [[1.5, 2], {"a": [0.1, 1e14]}, [[]], [{}]], "ints": [[1, 2], [3]]}
    deep = Report("edge", None, 1e-10, {**report.payload, **nested}, report.residuals)
    for rep in (report, deep):
        assert emit_report(rep, json_mode=True, stream=io.StringIO()) == two_pass_emit(rep, True)
    # text mode: the same document, whose layouts are those reports have
    assert emit_report(report, json_mode=False, stream=io.StringIO()) == two_pass_emit(report, False)
    # a value json.dumps cannot write raises its TypeError, word for word
    odd = Report("edge", None, 1e-10, {"set": {1.5}}, {})
    with pytest.raises(TypeError) as oracle:
        two_pass_emit(odd, True)
    with pytest.raises(TypeError, match=f"^{re.escape(str(oracle.value))}$"):
        emit_report(odd, json_mode=True, stream=io.StringIO())


def test_text_rows_match_the_per_item_rewrite():
    # only a literal with an exponent from e-3xx can need rewriting in text
    # mode (a subnormal, written as the value "%.12g" rounds it to);
    # integer-valued and e+1x literals are kept as "%.12g" writes them.  Each
    # row, as a list and as an array, against its text written out in full
    rows = [
        ([1.0, -2.0, 0.0, 100.0], "1 -2 0 100"),
        ([1e12, 1e15, 123456789012345.0, 2.5], "1e+12 1e+15 1.23456789012e+14 2.5"),
        (
            [5e-324, 1.000000000003e-312, 2.2250738585072014e-308, 1e-30],
            "4.94065645841e-324 9.99999999998e-313 2.22507385851e-308 1e-30",
        ),
        ([3.0, 1e13, 5e-324, 0.25, -0.0], "3 1e+13 4.94065645841e-324 0.25 -0"),
        (
            EDGE_FLOATS,
            "1e+12 1e+12 1e+16 1e+13 1.23456789012e+14 1e+15 1e+16 1e-05 1.5e-07 0 -0 "
            "100 -2.5 0.333333333333 6.66666666667e-301 4.94065645841e-324 "
            "9.99999999998e-313 2.22507385851e-308 1.797e+308 -1.797e+308",
        ),
    ]
    for row, text in rows:
        assert cli._text_row(row) == text
        assert cli._text_row(np.array(row)) == text


def test_json_screen_accepts_benchmark_shaped_outputs():
    # a matrix the screen declines is walked whole, at the walk's speed; the
    # outputs the benchmark writes, a pseudo inverse of an 80 x 60 graded to
    # cond 1e4 and a reflexive inverse of a rank-70 120 x 100, take the bulk path
    rng = np.random.default_rng(0)
    product = rng.standard_normal((120, 70)) @ rng.standard_normal((70, 100))
    for g in (pinv_svd(graded(rng, 80, 60, 60, 1e4)), rg_canonical(product)):
        assert cli._json_floats(g, "") is not None


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
)
@settings(max_examples=300, deadline=None)
def test_emitter_matches_two_pass_oracle_on_any_finite_float(values, scalar):
    payload = {
        "v": values,
        "a": np.asarray(values, dtype=float),
        "m": _matrix_doc(np.array([values])),
        "s": scalar,
        "mixed": [1, scalar],
    }
    report = Report("prop", (1, len(values)), 1e-10, payload, {"r": scalar})
    for json_mode in (True, False):
        text = emit_report(report, json_mode=json_mode, stream=io.StringIO())
        assert text == two_pass_emit(report, json_mode)


# literals the matrix path must screen out or write as "%.1f": non-integers
# that "%.12g" rounds to an integer, and the edges of the 1e11 bound
MATRIX_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS + [100000000000.5, 0.99999999999995, 999999999999.5, -0.0,
                                   0.0, 1.0, 99999999999.0, 1e11]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(1, 5).flatmap(
            lambda p: st.lists(st.lists(MATRIX_FLOATS, min_size=p, max_size=p),
                               min_size=n, max_size=n)
        )
    )
)
@example(rows=[[0.99999999999995, 1.0, -0.0], [100000000000.5, 99999999999.0, 2.5]])
@settings(max_examples=300, deadline=None)
def test_emitter_matches_two_pass_oracle_on_many_rows(rows):
    x = np.array(rows)
    # a transpose and a strided view: the bulk path reads any layout
    payload = {"m": _matrix_doc(x), "t": _matrix_doc(x.T), "s": _matrix_doc(x[:, ::2])}
    report = Report("prop", x.shape, 1e-10, payload, {})
    for json_mode in (True, False):
        text = emit_report(report, json_mode=json_mode, stream=io.StringIO())
        assert text == two_pass_emit(report, json_mode)


def test_emit_report_names_a_nan_in_a_later_row():
    x = np.arange(12.0).reshape(3, 4)
    x[2, 1] = np.nan
    report = Report("pinv", (3, 4), 1e-10, {"pinv": _matrix_doc(x)}, {})
    for json_mode in (True, False):
        stream = io.StringIO()
        where = re.escape("report.payload.pinv.data[2][1]")
        with pytest.raises(NonFiniteEntryError, match=f"^{where} is not finite$"):
            emit_report(report, json_mode=json_mode, stream=stream)
        assert stream.getvalue() == ""
