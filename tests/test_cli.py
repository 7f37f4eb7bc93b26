"""Command-line interface: fit, simulate, expectile, transform."""

import codecs
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erfe
from erfe.cli import _build_parser, main
from erfe.errors import NonincreasingTausError
from erfe.panel import stack_panels, write_table

import oracles


def _write_panel_csv(path, panel, extra=None):
    names = list(panel.column_names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["id", "y", *names]
        if extra is not None:
            header.append("zconst")
        writer.writerow(header)
        for i in range(panel.n_obs):
            row = [panel.subject_ids[i], repr(float(panel.y[i]))]
            row += [repr(float(v)) for v in panel.X[i]]
            if extra is not None:
                row.append(repr(float(extra[i])))
            writer.writerow(row)
    return str(path)


@pytest.fixture
def panel_csv(tmp_path):
    rng = np.random.default_rng(90)
    panel, _, _ = oracles.random_panel(rng, 15, 4, 2)
    path = _write_panel_csv(tmp_path / "panel.csv", panel)
    return path, panel


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("args, golden", [
    (["fit", "--tau", "0.2,0.5,0.8"], "golden_fit.csv"),
    (["fit", "--tau", "0.2,0.8", "--joint"], "golden_fit_joint.csv"),
    (["transform", "--tau", "0.5,0.8"], "golden_transform.csv"),
])
def test_csv_output_bytes_are_pinned(args, golden, tmp_path):
    # small_panel.csv has interleaved subjects, a blank line, quoted labels
    # holding a comma and a quote, a padded label and a subject-constant
    # column.  The golden files pin the output bytes: regenerate them only
    # for a deliberate change of the output.
    out = tmp_path / "out.csv"
    code = main([*args, "--input", str(DATA / "small_panel.csv"),
                 "--subject-col", "id", "--response-col", "y",
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


# A UTF-8 byte-order mark, as spreadsheet programs write, and blank lines.
_PREFIXES = pytest.mark.parametrize("prefix", [codecs.BOM_UTF8, b"\r\n\n"],
                                    ids=["bom", "blank-lines"])


def _prefixed(prefix, tmp_path):
    path = tmp_path / "prefixed.csv"
    path.write_bytes(prefix + (DATA / "small_panel.csv").read_bytes())
    return str(path)


@_PREFIXES
def test_what_comes_before_the_header_changes_no_byte(prefix, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["fit", "--tau", "0.2,0.5,0.8", "--input", _prefixed(prefix, tmp_path),
                 "--subject-col", "id", "--response-col", "y", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_fit.csv").read_bytes()


@_PREFIXES
def test_expectile_reads_past_what_comes_before_the_header(prefix, tmp_path, capsys):
    # The column read is the first, on which a byte-order mark would sit.
    path = tmp_path / "two.csv"
    path.write_bytes(prefix + b"v,w\n0,a\n1,b\n")
    assert main(["expectile", "--input", str(path), "--response-col", "v",
                 "--tau", "0.9"]) == 0
    expected = "tau,expectile\n0.90000000000000002,0.90000000000000002\n"
    assert capsys.readouterr().out == expected


def _json_reference(csv_path):
    """json.dumps of the CSV table's records: NA as null, iterations as
    integers, labels and flags as strings, every other cell a float."""
    def cell(key, text):
        if text == "NA":
            return None
        if key == "iterations":
            return int(text)
        if key in ("term", "subject", "converged"):
            return text
        return float(text)
    records = [{key: cell(key, text) for key, text in row.items()}
               for row in _read_rows(csv_path)]
    return json.dumps(records, indent=2) + "\n"


@pytest.mark.parametrize("block_rows", [65536, 3, 1])
@pytest.mark.parametrize("args", [["fit", "--tau", "0.2,0.5,0.8"],
                                  ["transform", "--tau", "0.5,0.8"]])
def test_json_output_is_one_dump_of_the_records(args, block_rows, tmp_path,
                                                monkeypatch):
    # Records are written a block of rows at a time; the bytes must equal
    # one json.dumps of the whole table, whatever the block size.  The
    # subject-constant column gives NA (null) rows in the fit output.
    monkeypatch.setattr("erfe.panel._BLOCK_ROWS", block_rows)
    common = [*args, "--input", str(DATA / "small_panel.csv"),
              "--subject-col", "id", "--response-col", "y"]
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([*common, "--out", str(csv_out)]) == 0
    assert main([*common, "--format", "json", "--out", str(json_out)]) == 0
    expected = _json_reference(csv_out)
    assert json_out.read_text(encoding="utf-8") == expected
    if args[0] == "fit":
        assert "null" in expected


def test_json_output_of_an_empty_table():
    out = io.StringIO()
    write_table(out, ["tau", "expectile"], [[], []], "json")
    assert out.getvalue() == json.dumps([], indent=2) + "\n" == "[]\n"


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308,
                   1e308, 1.7976931348623157e308]
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "%", "a", "Z", "7", "é",
                                 "名", "🙂"]), max_size=5)


@st.composite
def _column(draw, n):
    """A column of n rows of a drawn kind, as the reference takes it (a
    list, or an array of the special floats) and as the package's producers
    hand it, a numpy array."""
    column = functools.partial(st.lists, min_size=n, max_size=n)
    kind = draw(st.sampled_from(["float", "special", "int", "bool", "text", "label"]))
    if kind == "float":
        values = draw(column(st.floats()))
        return values, np.array(values, dtype=float)
    if kind == "special":
        # Finite floats with special values in a few rows, so that a block
        # holding NaN or ±inf can sit next to one that holds none.
        values = draw(column(st.floats(allow_nan=False, allow_infinity=False)))
        for i, value in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                                st.sampled_from(_SPECIAL_FLOATS)),
                                      max_size=n)):
            values[i] = value
        return np.array(values), np.array(values)
    if kind == "int":
        values = draw(column(st.integers(-2 ** 63, 2 ** 63 - 1)))
        return values, np.array(values, dtype=np.int64)
    if kind == "bool":
        values = draw(column(st.booleans()))
        return values, np.array(values, dtype=bool)
    if kind == "text":
        values = draw(column(_TEXT))
        return values, np.array(values, dtype=str)
    labels = draw(st.lists(_TEXT, min_size=1, max_size=4))
    codes = draw(column(st.integers(0, len(labels) - 1)))
    return [labels[c] for c in codes], np.array(labels, dtype=object)[codes]


@st.composite
def _tables(draw):
    """A header, which may repeat a name, and the columns of a table of one
    to six columns: as the reference takes them, and as numpy arrays."""
    n = draw(st.integers(0, 20))
    width = draw(st.integers(1, 6))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    reference, arrays = zip(*(draw(_column(n)) for _ in range(width)))
    return header, list(reference), list(arrays)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
@settings(max_examples=40, deadline=None)
@given(_tables())
# csv.writer writes the empty field of a one-field row as "", and no other.
@example(([""], [["", "a", ""]], [np.array(["", "a", ""])]))
@example((["", ""], [["", "a"], [""] * 2], [np.array(["", "a"]), np.array(["", ""])]))
def test_write_table_matches_the_per_cell_reference(block_rows, fmt, table):
    header, reference, arrays = table
    expected = io.StringIO()
    oracles.write_table_reference(expected, header, reference, fmt)
    got = io.StringIO()
    with mock.patch("erfe.panel._BLOCK_ROWS", block_rows):
        write_table(got, header, arrays, fmt)
    assert got.getvalue() == expected.getvalue()


# ---------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------

def test_fit_midpoint_matches_within_ols(panel_csv, tmp_path):
    path, panel = panel_csv
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.5", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    ols = erfe.within_ols(panel)
    estimates = {r["term"]: float(r["estimate"]) for r in rows}
    for j, name in enumerate(panel.column_names):
        assert estimates[name] == pytest.approx(ols.beta[j], abs=1e-8)
    assert all(r["converged"] == "true" for r in rows)


def test_fit_multiple_taus_rows_and_positive_ci(panel_csv, tmp_path):
    path, panel = panel_csv
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.1,0.5,0.9",
                 "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 3 * panel.n_regressors
    for r in rows:
        assert float(r["ci_upper"]) > float(r["ci_lower"])
        assert float(r["std_error"]) > 0


def test_fit_drops_subject_constant_column(tmp_path, capsys):
    rng = np.random.default_rng(91)
    panel, _, _ = oracles.random_panel(rng, 12, 4, 2)
    const = rng.standard_normal(panel.n_subjects)[panel.codes]
    path = _write_panel_csv(tmp_path / "panel.csv", panel, extra=const)
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "zconst" in captured.err and "constant within subjects" in captured.err
    rows = {r["term"]: r for r in _read_rows(out)}
    assert rows["zconst"]["estimate"] == "NA"
    assert rows["zconst"]["std_error"] == "NA"
    assert rows["x1"]["estimate"] != "NA"


def test_transform_warning_promises_no_na(tmp_path, capsys):
    # transform writes the dropped column's transformed values, not NA.
    assert main(["transform", "--tau", "0.5,0.8", *_SMALL,
                 "--out", str(tmp_path / "t.csv")]) == 0
    err = capsys.readouterr().err
    assert "zconst" in err and "dropped from estimation" in err
    assert "reported as NA" not in err


@pytest.mark.parametrize("joint", [[], ["--joint"]])
def test_dropping_a_column_does_not_demean_again(joint, tmp_path, monkeypatch):
    # small_panel.csv's zconst is dropped; the reduced stack takes its
    # demeaned rows from the full panel's instead of demeaning again.
    passes = []
    demean = erfe.panel._demean
    monkeypatch.setattr(erfe.panel, "_demean",
                        lambda *args: passes.append(1) or demean(*args))
    code = main(["fit", "--tau", "0.2,0.8", *joint,
                 "--input", str(DATA / "small_panel.csv"), "--subject-col", "id",
                 "--response-col", "y", "--out", str(tmp_path / "out.csv")])
    assert code == 0
    assert len(passes) == 1


_SMALL = ["--input", str(DATA / "small_panel.csv"), "--subject-col", "id",
          "--response-col", "y"]
_SIMULATE = ["simulate", "--n", "25", "--m", "4", "--tau", "0.1,0.5,0.9",
             "--replications", str(erfe.montecarlo.BLOCK)]


@pytest.mark.parametrize("command", [
    ["fit", "--tau", "0.2,0.5,0.8", *_SMALL],
    ["fit", "--tau", "0.2,0.5,0.8", "--format", "json", *_SMALL],
    ["fit", "--tau", "0.2,0.8", "--joint", *_SMALL],
    ["transform", "--tau", "0.5,0.8", *_SMALL],
    [*_SIMULATE, "--dump-estimates", "{tmp}/estimates.csv"],
    ["expectile", "--input", str(DATA / "small_panel.csv"), "--response-col", "y",
     "--tau", "0.1,0.9"],
], ids=["fit", "fit-json", "fit-joint", "transform", "simulate", "expectile"])
def test_every_table_reaches_write_table_as_numpy_columns(command, tmp_path, monkeypatch):
    tables = []
    monkeypatch.setattr("erfe.cli.write_table",
                        lambda fh, header, columns, fmt: tables.append((header, columns)))
    assert main([arg.format(tmp=tmp_path) for arg in command]) == 0
    assert len(tables) == (2 if command[0] == "simulate" else 1)
    for header, columns in tables:
        assert len(columns) == len(header)
        assert all(isinstance(col, np.ndarray) and col.ndim == 1 for col in columns)
        assert len({col.shape for col in columns}) == 1


@pytest.mark.parametrize("command", [
    ["fit", "--tau", "0.1,0.5,0.9", *_SMALL],
    ["fit", "--tau", "0.1,0.5,0.9", "--joint", *_SMALL],
    ["transform", "--tau", "0.1,0.9", *_SMALL],
    _SIMULATE,
    [*_SIMULATE, "--joint"],
])
def test_a_command_runs_one_within_round(command, tmp_path, monkeypatch):
    # Every tau of a command, or of a simulate block, starts from one
    # within round: the round does not depend on tau.
    rounds = []
    within_round = erfe.estimator._within_round
    monkeypatch.setattr(erfe.estimator, "_within_round",
                        lambda *args: rounds.append(1) or within_round(*args))
    assert main([*command, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(rounds) == 1


@pytest.mark.parametrize("weights", [
    ["--tau", "0.5", "--v", "1"],
    ["--tau", "0.2,0.8", "--v", "1,1"],
    ["--tau", "0.2,0.8", "--joint", "--v", "1"],
    ["--tau", "0.5", "--joint", "--v", "1,2"],
])
def test_fit_v_needs_joint_and_one_weight_per_tau(weights, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["fit", *weights, *_SMALL, "--out", str(out)]) == 1
    assert "influence weights" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weights", ["nan,1", "inf,1"])
def test_fit_v_must_be_finite(weights, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["fit", "--tau", "0.2,0.8", "--joint", "--v", weights, *_SMALL,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "influence weights must be finite and strictly positive" in err
    assert not out.exists()


def test_fit_v_parse_error_names_the_value(capsys):
    assert main(["fit", "--tau", "0.2,0.8", "--joint", "--v", "a,b", *_SMALL]) == 1
    err = capsys.readouterr().err
    assert "argument --v: could not convert string to float: 'a'" in err
    assert "_parse" not in err


@pytest.mark.parametrize("weights", [
    ["--tau", "0.3", "--v", "1"],
    ["--tau", "0.2,0.8", "--joint", "--v", "1"],
    ["--tau", "0.2,0.8", "--joint", "--v", "nan,1"],
])
def test_fit_v_misuse_fails_before_reading(weights, tmp_path, capsys):
    # The influence weights are checked before the input is opened: a
    # missing file is not reported.
    code = main(["fit", *weights, "--input", str(tmp_path / "nope.csv"),
                 "--subject-col", "id", "--response-col", "y"])
    assert code == 1
    err = capsys.readouterr().err
    assert "influence weights" in err and "nope.csv" not in err


@pytest.mark.parametrize("command", [
    ["fit", "--seed", "1", *_SMALL],
    ["transform", "--seed", "1", *_SMALL],
    ["expectile", "--workers", "1", "--input", str(DATA / "small_panel.csv"),
     "--response-col", "y"],
])
def test_flags_are_declared_only_where_read(command, capsys):
    assert main(command) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", [["fit", *_SMALL], ["transform", *_SMALL], _SIMULATE])
def test_workers_must_be_a_positive_integer(command, workers, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*command, f"--workers={workers}", "--out", str(out)]) == 1
    assert "argument --workers: " in capsys.readouterr().err
    assert not out.exists()


def test_joint_fit_at_one_tau_is_the_plain_fit(tmp_path):
    plain, joint = tmp_path / "plain.csv", tmp_path / "joint.csv"
    assert main(["fit", "--tau", "0.8", *_SMALL, "--out", str(plain)]) == 0
    assert main(["fit", "--tau", "0.8", "--joint", "--v", "1", *_SMALL,
                 "--out", str(joint)]) == 0
    assert joint.read_bytes() == plain.read_bytes()


def test_kept_regressors_keep_their_demeaned_rows():
    rng = np.random.default_rng(92)
    panel, _, _ = oracles.random_panel(rng, 9, 4, 3)
    reduced = stack_panels([panel]).keep_regressors([2, 0])
    fresh = erfe.build_panel(zip(panel.subject_ids, panel.y, panel.X[:, [2, 0]]),
                             ["x3", "x1"])
    fresh = stack_panels([fresh])
    assert reduced.column_names == fresh.column_names == ("x3", "x1")
    assert np.array_equal(reduced.X, fresh.X)
    assert np.array_equal(reduced.demeaned, fresh.demeaned)
    assert np.array_equal(reduced.constant, fresh.constant)
    assert reduced.X.flags.c_contiguous and not reduced.X.flags.writeable
    assert reduced.demeaned.flags.c_contiguous and not reduced.demeaned.flags.writeable
    assert not reduced.constant.flags.writeable


def test_fit_joint_mode(panel_csv, tmp_path):
    path, panel = panel_csv
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.3,0.7", "--joint",
                 "--v", "1.0,1.0", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 2 * panel.n_regressors
    fit = erfe.fit_erfe_multi(panel, [0.3, 0.7], [1.0, 1.0])
    got = {(r["tau"], r["term"]): float(r["estimate"]) for r in rows}
    for k, tau in enumerate((0.3, 0.7)):
        for j, name in enumerate(panel.column_names):
            key = (format(tau, ".17g"), name)
            assert got[key] == pytest.approx(fit.betas[k, j], abs=1e-10)


def test_fit_missing_file_exits_one(tmp_path):
    code = main(["fit", "--input", str(tmp_path / "nope.csv"),
                 "--subject-col", "id", "--response-col", "y"])
    assert code == 1


def test_fit_bad_column_exits_one(panel_csv, tmp_path, capsys):
    path, _ = panel_csv
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "missing"])
    assert code == 1
    # A header may name a column once only.
    path = tmp_path / "dup.csv"
    path.write_text("id,y,x,x\n1,1.0,2.0,3.0\n1,2.0,1.0,0.0\n"
                    "2,3.0,2.5,1.0\n2,1.0,0.5,2.0\n")
    out = tmp_path / "out.csv"
    code = main(["fit", "--input", str(path), "--subject-col", "id",
                 "--response-col", "y", "--out", str(out)])
    assert code == 1
    assert "dup.csv: column 'x' appears more than once in header" in capsys.readouterr().err
    assert not out.exists()


def test_fit_all_constant_design_exits_one(tmp_path, capsys):
    codes = np.repeat(np.arange(5), 3)
    x = np.repeat(np.arange(5.0), 3)
    y = np.arange(15.0)
    panel = erfe.build_panel(
        [(int(codes[i]), float(y[i]), [x[i]]) for i in range(15)])
    path = _write_panel_csv(tmp_path / "panel.csv", panel)
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.5"])
    assert code == 1
    assert "no estimable regressors" in capsys.readouterr().err


def test_fit_and_transform_report_a_singular_fit_alike(tmp_path, capsys):
    # x2 = 2 x1 exactly: both commands stop on the same singular fit, with
    # one line naming the regressors involved.
    path = _write_panel_csv(tmp_path / "panel.csv", oracles.collinear_panel(3, 0.0))
    lines = []
    for command in ("fit", "transform"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--input", path, "--subject-col", "id",
                     "--response-col", "y", "--tau", "0.3", "--out", str(out)]) == 1
        lines.append(capsys.readouterr().err)
        assert not out.exists()
    assert lines[0] == lines[1]
    assert lines[0].startswith(
        "error: singular weighted Gram matrix involving columns ['x1', 'x2']: ")
    assert lines[0].count("\n") == 1


def test_fit_partial_convergence_exits_two(panel_csv, tmp_path, monkeypatch):
    # One round stops every fit short but the one at tau = 0.5, whose within
    # start is already its fixed point.
    path, _ = panel_csv
    out = tmp_path / "out.csv"
    monkeypatch.setattr(erfe.expectiles, "MAX_ROUNDS", 1)
    args = ["--input", path, "--subject-col", "id", "--response-col", "y",
            "--out", str(out)]
    code = main(["fit", *args, "--tau", "0.9"])
    assert code == 2
    rows = _read_rows(out)
    assert all(r["converged"] == "false" for r in rows)
    assert all(r["std_error"] == "NA" for r in rows)

    assert main(["fit", *args, "--tau", "0.1,0.5,0.9"]) == 2
    for r in _read_rows(out):
        done = r["tau"] == "0.5"
        assert r["converged"] == str(done).lower()
        assert all((r[key] != "NA") == done
                   for key in ("std_error", "ci_lower", "ci_upper"))
        assert r["estimate"] != "NA"

    assert main(["fit", *args, "--tau", "0.1,0.5,0.9", "--joint"]) == 2
    for r in _read_rows(out):
        assert r["converged"] == "false"
        assert all(r[key] == "NA" for key in ("std_error", "ci_lower", "ci_upper"))

    assert main(["transform", *args, "--tau", "0.5,0.9"]) == 2


def test_fit_invalid_tau_is_usage_error(panel_csv):
    path, _ = panel_csv
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "1.5"])
    assert code == 1
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.9,0.5"])
    assert code == 1


@pytest.mark.parametrize("level, message", [
    ("1.5", "confidence level must lie in (0, 1)"),
    ("0", "confidence level must lie in (0, 1)"),
    ("nan", "confidence level must lie in (0, 1)"),
    ("abc", "could not convert string to float"),
])
def test_fit_invalid_level_fails_before_reading(level, message, tmp_path, capsys):
    # The level is checked when the arguments are parsed: a missing input
    # is not even opened.
    code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--subject-col", "id",
                 "--response-col", "y", "--level", level])
    assert code == 1
    err = capsys.readouterr().err
    assert f"argument --level: {message}" in err and "nope.csv" not in err


def test_fit_repeated_tau_fails_with_library_message(panel_csv, capsys):
    path, panel = panel_csv
    with pytest.raises(NonincreasingTausError) as excinfo:
        erfe.fit_erfe_multi(panel, (0.5, 0.5))
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.5,0.5"])
    assert code == 1
    assert str(excinfo.value) in capsys.readouterr().err


def test_fit_json_and_csv_carry_identical_values(panel_csv, tmp_path):
    path, _ = panel_csv
    csv_out = tmp_path / "fit.csv"
    json_out = tmp_path / "fit.json"
    args = ["fit", "--input", path, "--subject-col", "id",
            "--response-col", "y", "--tau", "0.2,0.8"]
    assert main(args + ["--out", str(csv_out)]) == 0
    assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
    csv_rows = _read_rows(csv_out)
    json_rows = json.loads(json_out.read_text())
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        for key in ("estimate", "std_error", "ci_lower", "ci_upper", "tau"):
            assert float(c[key]) == j[key]


# ---------------------------------------------------------------------
# expectile
# ---------------------------------------------------------------------

def test_expectile_midpoint_is_mean(panel_csv, tmp_path, capsys):
    path, panel = panel_csv
    code = main(["expectile", "--input", path, "--response-col", "y",
                 "--tau", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.strip().split("\n")[1].split(",")[1])
    assert value == pytest.approx(float(np.mean(panel.y)), abs=1e-10)


def test_expectile_two_point_file(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("v\n0\n1\n", encoding="utf-8")
    code = main(["expectile", "--input", str(path), "--response-col", "v",
                 "--tau", "0.9"])
    assert code == 0
    out = capsys.readouterr().out
    assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(0.9)


@pytest.mark.parametrize("value, message", [
    ("abc", "column 'v': cannot parse 'abc' as a number"),
    ("nan", "column 'v': non-finite value nan"),
])
def test_expectile_bad_value_names_line(tmp_path, capsys, value, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"v\n0\n1\n{value}\n", encoding="utf-8")
    code = main(["expectile", "--input", str(path), "--response-col", "v"])
    assert code == 1
    assert f"bad.csv:4: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # Line 3 lacks the column that expectile does not read.
    ("v,w\n0,a\n1\n2,c\n", "bad.csv:3: 1 fields, expected 2"),
    ("v,w\n", "bad.csv: no data rows"),
    ("v,w\n\n\r\n", "bad.csv: no data rows"),
])
def test_expectile_reader_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    code = main(["expectile", "--input", str(path), "--response-col", "v"])
    assert code == 1
    assert message in capsys.readouterr().err


def test_expectile_outputs_nondecreasing(panel_csv, capsys):
    path, _ = panel_csv
    code = main(["expectile", "--input", path, "--response-col", "y",
                 "--tau", "0.1,0.5,0.9"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    values = [float(line.split(",")[1]) for line in lines]
    assert values == sorted(values)


# ---------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------

def test_transform_midpoint_is_demeaning(panel_csv, tmp_path):
    path, panel = panel_csv
    out = tmp_path / "tr.csv"
    code = main(["transform", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.5", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    means = np.bincount(panel.codes, weights=panel.y) / panel.counts
    expected = panel.y - means[panel.codes]
    got = np.array([float(r["y_star"]) for r in rows])
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_transform_zeroes_subject_constant_column(tmp_path):
    rng = np.random.default_rng(92)
    panel, _, _ = oracles.random_panel(rng, 10, 4, 2)
    const = rng.standard_normal(panel.n_subjects)[panel.codes]
    path = _write_panel_csv(tmp_path / "panel.csv", panel, extra=const)
    out = tmp_path / "tr.csv"
    code = main(["transform", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.8", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert max(abs(float(r["zconst_star"])) for r in rows) <= 1e-12


def test_transform_round_trip_reproduces_fit(panel_csv, tmp_path):
    # Weighted least squares on the emitted transform, with the check
    # weights frozen at the emitted residuals, must reproduce the fit
    # command's coefficients.
    path, panel = panel_csv
    tau = 0.8
    tr_out = tmp_path / "tr.csv"
    fit_out = tmp_path / "fit.csv"
    assert main(["transform", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", str(tau),
                 "--out", str(tr_out)]) == 0
    assert main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", str(tau),
                 "--out", str(fit_out)]) == 0
    beta_cli = np.array([float(r["estimate"]) for r in _read_rows(fit_out)])
    rows = _read_rows(tr_out)
    y_star = np.array([float(r["y_star"]) for r in rows])
    x_star = np.array([[float(r["x1_star"]), float(r["x2_star"])] for r in rows])
    resid = y_star - x_star @ beta_cli
    w = oracles.psi_ref(resid, tau)
    refit = np.linalg.solve(x_star.T @ (x_star * w[:, None]),
                            x_star.T @ (w * y_star))
    assert np.max(np.abs(refit - beta_cli)) <= 1e-6


def test_transform_multiple_taus_stacked(panel_csv, tmp_path):
    path, panel = panel_csv
    out = tmp_path / "tr.csv"
    assert main(["transform", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.3,0.7",
                 "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2 * panel.n_obs
    assert len({r["tau"] for r in rows}) == 2


def test_transform_labels_read_back_as_written(tmp_path):
    # Labels that csv.writer must quote, and text that is not ASCII, which
    # JSON escapes: both outputs read back to the input's labels.
    labels = ["a,b", 'say "hi"', "Zürich", "名前", '🙂,"x"\u00e9', "s5"]
    panel, _, _ = oracles.random_panel(np.random.default_rng(91), len(labels), 4, 2)
    rows = [labels[c] for c in panel.codes]
    path = tmp_path / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "y", *panel.column_names])
        writer.writerows([label, repr(float(y)), *map(repr, x.tolist())]
                         for label, y, x in zip(rows, panel.y, panel.X))
    common = ["transform", "--input", str(path), "--subject-col", "id",
              "--response-col", "y", "--tau", "0.5,0.8"]
    assert main([*common, "--out", str(tmp_path / "tr.csv")]) == 0
    assert main([*common, "--format", "json", "--out", str(tmp_path / "tr.json")]) == 0
    assert [r["subject"] for r in _read_rows(tmp_path / "tr.csv")] == rows * 2
    records = json.loads((tmp_path / "tr.json").read_text(encoding="utf-8"))
    assert [r["subject"] for r in records] == rows * 2


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

def test_simulate_deterministic_across_seeds_and_workers(tmp_path):
    # Two blocks, so that --workers 2 starts a pool of two processes.
    args = ["simulate", "--n", "20", "--m", "4", "--replications", "20",
            "--seed", "3", "--tau", "0.3,0.7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


def test_simulate_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["simulate"])
    config = erfe.SimulationConfig()
    for field in dataclasses.fields(config):
        name = "tau" if field.name == "taus" else field.name
        assert getattr(args, name) == getattr(config, field.name), field.name


def test_simulate_single_replication(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["simulate", "--n", "15", "--m", "3", "--replications", "1",
                 "--seed", "8", "--tau", "0.5", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert all(float(r["sd"]) == 0.0 for r in rows)


def test_simulate_dump_estimates(tmp_path):
    out = tmp_path / "metrics.csv"
    dump = tmp_path / "reps.csv"
    assert main(["simulate", "--n", "15", "--m", "3", "--replications", "4",
                 "--seed", "8", "--tau", "0.5", "--out", str(out),
                 "--dump-estimates", str(dump)]) == 0
    rows = _read_rows(dump)
    assert len(rows) == 4 * 1 * 2
    assert {r["coefficient"] for r in rows} == {"x1", "x2"}


def test_simulate_json_matches_csv_values(tmp_path):
    base = ["simulate", "--n", "15", "--m", "3", "--replications", "4",
            "--seed", "8", "--tau", "0.3,0.7"]
    csv_out = tmp_path / "m.csv"
    json_out = tmp_path / "m.json"
    assert main(base + ["--out", str(csv_out)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
    csv_rows = _read_rows(csv_out)
    json_rows = json.loads(json_out.read_text())
    for c, j in zip(csv_rows, json_rows):
        assert float(c["mean_estimate"]) == j["mean_estimate"]
        assert float(c["sd"]) == j["sd"]


_GOLDEN_SIMULATE = ["simulate", "--n", "15", "--m", "3", "--gamma", "0.3",
                    "--error-dist", "chi2_3", "--replications", "20", "--seed", "8",
                    "--tau", "0.3,0.7"]
# 21 replications: a full block and a short one.
_GOLDEN_DRAWS = ["simulate", "--n", "12", "--m", "4", "--replications", "21",
                 "--seed", "9", "--tau", "0.2,0.8"]


def _assert_simulate_pinned(tmp_path, args, golden):
    # The summary in both formats and the estimate dump: regenerate the
    # golden files only for a deliberate change of the output.
    out, dump = tmp_path / "m.csv", tmp_path / "reps.csv"
    assert main([*args, "--out", str(out), "--dump-estimates", str(dump)]) == 0
    assert out.read_bytes() == (DATA / f"{golden}.csv").read_bytes()
    assert dump.read_bytes() == (DATA / f"{golden}_estimates.csv").read_bytes()
    assert main([*args, "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{golden}.json").read_bytes()


def test_simulate_bytes_are_pinned(tmp_path):
    _assert_simulate_pinned(tmp_path, _GOLDEN_SIMULATE, "golden_simulate")


@pytest.mark.parametrize("flags, golden", [
    (["--error-dist", "gaussian", "--gamma", "0.0"], "golden_simulate_gaussian"),
    (["--error-dist", "student_t3", "--gamma", "0.5", "--joint"],
     "golden_simulate_t3_joint"),
])
def test_simulate_draws_are_pinned(tmp_path, flags, golden):
    _assert_simulate_pinned(tmp_path, [*_GOLDEN_DRAWS, *flags], golden)


def test_simulate_json_keys_are_the_csv_header():
    records = json.loads((DATA / "golden_simulate.json").read_text(encoding="utf-8"))
    with open(DATA / "golden_simulate.csv", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    assert records and all(list(record) == header for record in records)


def test_simulate_budget_guard(tmp_path, monkeypatch):
    monkeypatch.setenv("ERFE_MAX_BUDGET", "10")
    code = main(["simulate", "--n", "20", "--m", "4", "--replications", "5",
                 "--tau", "0.5"])
    assert code == 1


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def _fresh_env():
    """Environment for a fresh interpreter that imports this checkout's erfe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(erfe.__file__).parent.parent),
         *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("v\n0\n1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "erfe.cli", "expectile", "--input", str(path),
         "--response-col", "v", "--tau", "0.9"],
        capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1].startswith("0.9")


# Imports erfe, runs the command given on its command line, if any, and
# prints the scipy modules the interpreter then holds.
_SCIPY_PROBE = """\
import sys
import erfe
if sys.argv[1:]:
    from erfe.cli import main
    assert main(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("command", [
    [],
    ["transform", "--tau", "0.1,0.9", *_SMALL],
    ["expectile", "--input", str(DATA / "small_panel.csv"), "--response-col", "y",
     "--tau", "0.1,0.5,0.9"],
    ["fit", "--tau", "0.1,0.5,0.9", *_SMALL],
    ["fit", "--tau", "0.1,0.5,0.9", "--joint", *_SMALL],
    *[["simulate", "--n", "15", "--m", "3", "--gamma", "0.3", "--error-dist", law,
       "--replications", "4", "--tau", "0.1,0.5,0.9"]
      for law in ("gaussian", "student_t3", "chi2_3")],
], ids=["import", "transform", "expectile", "fit", "fit-joint", "simulate-gaussian",
        "simulate-student_t3", "simulate-chi2_3"])
def test_scipy_is_imported_only_where_used(command, tmp_path):
    # scipy.stats alone takes longer to import than erfe with numpy: no
    # command loads any scipy module, the error laws' expectiles and the
    # intervals' normal quantile included.
    out = ["--out", str(tmp_path / "out.csv")] if command else []
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *command, *out],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_help_exits_zero():
    assert main(["--help"]) == 0
