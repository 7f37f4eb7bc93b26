"""Command-line interface: fit, simulate, expectile, transform."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erfe
from erfe.cli import _write_json, main
from erfe.errors import NoConvergenceError, NonincreasingTausError

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
    monkeypatch.setattr("erfe.cli._BLOCK_ROWS", block_rows)
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
    _write_json(out, ["tau", "expectile"], [[], []])
    assert out.getvalue() == json.dumps([], indent=2) + "\n" == "[]\n"


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


def test_fit_bad_column_exits_one(panel_csv):
    path, _ = panel_csv
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "missing"])
    assert code == 1


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


def test_fit_partial_convergence_exits_two(panel_csv, tmp_path, monkeypatch):
    path, panel = panel_csv
    out = tmp_path / "fit.csv"

    def fake_fit(panel_arg, tau, config=None):
        result = erfe.FitResult(
            tau=tau, beta=np.zeros(panel_arg.n_regressors),
            alpha=np.zeros(panel_arg.n_subjects),
            residuals_star=np.zeros(panel_arg.n_obs), iterations=100,
            converged=False, objective_value=0.0)
        raise NoConvergenceError("forced", result=result)

    monkeypatch.setattr("erfe.cli.fit_erfe_single", fake_fit)
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.5", "--out", str(out)])
    assert code == 2
    rows = _read_rows(out)
    assert all(r["converged"] == "false" for r in rows)
    assert all(r["std_error"] == "NA" for r in rows)


def test_fit_invalid_tau_is_usage_error(panel_csv):
    path, _ = panel_csv
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "1.5"])
    assert code == 1
    code = main(["fit", "--input", path, "--subject-col", "id",
                 "--response-col", "y", "--tau", "0.9,0.5"])
    assert code == 1


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


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

def test_simulate_deterministic_across_seeds_and_workers(tmp_path):
    args = ["simulate", "--n", "20", "--m", "4", "--replications", "6",
            "--seed", "3", "--tau", "0.3,0.7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


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


def test_simulate_budget_guard(tmp_path, monkeypatch):
    monkeypatch.setenv("ERFE_MAX_BUDGET", "10")
    code = main(["simulate", "--n", "20", "--m", "4", "--replications", "5",
                 "--tau", "0.5"])
    assert code == 1


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("v\n0\n1\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(erfe.__file__).parent.parent),
         *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "erfe.cli", "expectile", "--input", str(path),
         "--response-col", "v", "--tau", "0.9"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1].startswith("0.9")


def test_help_exits_zero():
    assert main(["--help"]) == 0
