"""Command-line contract: parsing, dispatch, emission, exit codes."""

import io
import json
import re

import numpy as np
import pytest

from fourspaces import (
    NonFiniteEntryError,
    ParseError,
    RaggedRowsError,
    ShapeError,
    cli,
    factorizations,
)
from fourspaces.cli import (
    Report,
    _matrix_doc,
    _vector_doc,
    emit_report,
    main,
    parse_matrix,
    parse_vector,
    run_command,
)
from fourspaces.inverses import pinv_svd
from fourspaces.subspaces import fundamental_bases


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


def test_parse_csv_ragged_rows(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3\n")
    with pytest.raises(RaggedRowsError):
        parse_matrix(path)


def test_parse_csv_bad_literal_names_line_and_column(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3,x\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        parse_matrix(path)


def test_parse_csv_rejects_nan_entries(tmp_path):
    path = write(tmp_path, "bad.csv", "1,nan\n2,3\n")
    with pytest.raises(NonFiniteEntryError):
        parse_matrix(path)


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
    assert doc["residuals"]["gram_rank_gap"] == 0.0


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
    counts = {"eig_symmetric": 0, "_complete_basis": 0}

    def counted(name):
        original = getattr(factorizations, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(factorizations, name, counted(name))
    # rank 2, with a null space of dimension 1 and a left null space of 2
    path = write(tmp_path, "x.csv", "1,2,3\n2,4,6\n1,0,1\n0,1,1\n")

    def run_counted(command):
        counts.update(eig_symmetric=0, _complete_basis=0)
        report = run_command([command, "--input", path])
        return report.payload, (counts["eig_symmetric"], counts["_complete_basis"])

    payload, calls = run_counted("report")
    assert calls == (1, 2)
    assert run_counted("rank")[1] == (1, 0)
    x = parse_matrix(path)
    assert np.array_equal(payload["pinv"]["data"], pinv_svd(x))
    bases = fundamental_bases(x)
    for name in ("row_space", "null_space", "column_space", "left_null_space"):
        doc = payload["bases"][name]
        got = np.array(doc["data"]).reshape(doc["rows"], doc["cols"])
        assert np.array_equal(got, getattr(bases, name))


@pytest.mark.parametrize(
    "scale", [1e160, 1e-200, 2.0**600, 2.0**-600], ids=["1e160", "1e-200", "2^600", "2^-600"]
)
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_commands_are_scale_safe(tmp_path, capsys, wide, scale):
    # C'C in pinv_cr, X'X behind gram_rank_gap and the squared entries in
    # every Frobenius norm overflowed or underflowed here before prescaling
    x = np.random.default_rng(3).standard_normal((6, 4)) * scale
    x = x.T if wide else x
    path = write_matrix(tmp_path, "x.csv", x)
    g = write_matrix(tmp_path, "g.csv", pinv_svd(x))
    code, doc = run_json(capsys, ["rank", "--input", path])
    assert code == 0, doc["payload"]
    assert doc["payload"]["rank"] == 4
    assert doc["residuals"]["gram_rank_gap"] == 0.0
    for argv in (["pinv"], ["report"], ["classify", "--g", g]):
        code, doc = run_json(capsys, [*argv, "--input", path])
        assert code == 0, doc["payload"]
        assert doc["payload"]["class_label"] == "pseudo-inverse"
    code, doc = run_json(capsys, ["ginv", "--input", path])
    assert code == 0, doc["payload"]
    assert doc["payload"]["flags"]["c1"] and doc["payload"]["flags"]["c2"]


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
    payload = {"pinv": _matrix_doc(pinv), "beta_hat": _vector_doc(beta), "stats": stats}
    report = Report("pinv", (2, 2), 1e-10, payload, residuals)
    stream = io.StringIO()
    with pytest.raises(NonFiniteEntryError, match=f"^{re.escape(where)} is not finite$"):
        emit_report(report, json_mode=True, stream=stream)
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
