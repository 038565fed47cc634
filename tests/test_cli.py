"""End-to-end command-line tests: files in, files out, exit codes."""

import datetime as dt
import dataclasses
import gc
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import synthctl
from helpers import count_calls
from synthctl import (Regularization, StudySpec, build_design, ingest_panel, load_predictors,
                      logistic_predict, placebo_run)
from synthctl import cli, engine
from synthctl.cli import main
from synthctl.engine import OUTCOME_MEAN_NAME, placebo_design

START = dt.date(2021, 3, 1)
DEMO_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_demo_data.py"


def _dates(n):
    return [(START + dt.timedelta(days=i)).isoformat() for i in range(n)]


def _long_csv(path, series_by_unit):
    lines = ["unit,date,value"]
    for unit, series in series_by_unit.items():
        for day, value in zip(_dates(len(series)), series):
            lines.append(f"{unit},{day},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _wide_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _study_files(tmp_path, n_donors=4, T=40, seed=0):
    rng = np.random.default_rng(seed)
    donors = {f"{20000 + 2 * j:05d}": 30 + rng.normal(0, 1, T).cumsum()
              for j in range(n_donors)}
    w = rng.dirichlet(np.ones(n_donors))
    treated = sum(wi * np.array(s) for wi, s in zip(w, donors.values()))
    series = {"10001": treated, **donors}
    outcomes = _long_csv(tmp_path / "outcomes.csv", series)
    units = list(series)
    X = rng.normal(size=(len(units), 3))
    predictors = _wide_csv(tmp_path / "predictors.csv", ["unit", "a", "b", "c"],
                           [[u, *map(str, X[i])] for i, u in enumerate(units)])
    return outcomes, predictors


def _constant_row_predictors(tmp_path, n_donors=4, seed=5, value="2.5"):
    """A predictor table for _study_files' units whose column c is `value` in each."""
    units = ["10001"] + [f"{20000 + 2 * j:05d}" for j in range(n_donors)]
    X = np.random.default_rng(seed).normal(size=(len(units), 2))
    return _wide_csv(tmp_path / "constant.csv", ["unit", "a", "b", "c"],
                     [[u, *map(str, X[i]), value] for i, u in enumerate(units)])


def test_fit_writes_result_and_curve(tmp_path):
    outcomes, predictors = _study_files(tmp_path)
    out = tmp_path / "out"
    code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["treated"] == "10001"
    assert sum(result["w"].values()) == pytest.approx(1.0, abs=1e-8)
    assert set(result["mspe"]) == {"train", "validation", "pre"}
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "date,actual,synthetic,gap"
    assert len(curve) == 41


def test_fit_identity_donor_reproduces_actual(tmp_path):
    series = {"10001": np.linspace(5, 25, 30), "20002": np.linspace(5, 25, 30)}
    outcomes = _long_csv(tmp_path / "o.csv", series)
    out = tmp_path / "out"
    code = main(["fit", "--outcomes", outcomes, "--treated", "10001",
                 "--t0", _dates(30)[20], "--out", str(out)])
    assert code == 0
    for line in (out / "curve.csv").read_text().splitlines()[1:]:
        _, actual, synthetic, gap = line.split(",")
        assert actual == synthetic
        assert float(gap) == 0.0


def test_fit_missing_predictor_file_exits_2(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    code = main(["fit", "--outcomes", outcomes,
                 "--predictors", str(tmp_path / "nope.csv"),
                 "--treated", "10001", "--t0", _dates(40)[25],
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_fit_missing_required_flag_exits_2(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    code = main(["fit", "--outcomes", outcomes, "--t0", _dates(40)[25]])
    assert code == 2
    assert "--treated" in capsys.readouterr().err


def test_fit_bad_flag_value_exits_2(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    code = main(["fit", "--outcomes", outcomes, "--treated", "10001",
                 "--t0", _dates(40)[25], "--l1", "abc"])
    assert code == 2
    assert "--l1" in capsys.readouterr().err


def test_fit_repeat_is_byte_identical(tmp_path):
    outcomes, predictors = _study_files(tmp_path, seed=3)
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                     "--treated", "10001", "--t0", _dates(40)[25], "--out", str(out)])
        assert code == 0
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_supplies_options_and_flags_win(tmp_path):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    cfg_out = tmp_path / "from_config"
    flag_out = tmp_path / "from_flag"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"treated=10001\nt0={_dates(40)[25]}\nout={cfg_out}\n"
        "# comment line\n"
    )
    assert main(["fit", "--outcomes", outcomes, "--config", str(cfg)]) == 0
    assert (cfg_out / "result.json").exists()
    assert main(["fit", "--outcomes", outcomes, "--config", str(cfg),
                 "--out", str(flag_out)]) == 0
    assert (flag_out / "result.json").exists()


def test_l2_flag_exits_2(tmp_path, capsys):
    # the sum of the donor weights is always 1, so a 1-norm penalty is no option
    outcomes, _ = _study_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--outcomes", outcomes, "--treated", "10001",
              "--t0", _dates(40)[25], "--l2", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --l2 5" in capsys.readouterr().err


def _selection_files(tmp_path):
    rng = np.random.default_rng(2)
    units = [f"{60000 + 2 * i:05d}" for i in range(30)]
    X = rng.normal(size=(30, 4))
    predictors = _wide_csv(tmp_path / "p.csv", ["unit", "a", "b", "c", "d"],
                           [[u, *map(str, X[i])] for i, u in enumerate(units)])
    blocks = _wide_csv(tmp_path / "b.csv", ["block", "predictor"],
                       [["demo", "a"], ["demo", "b"], ["econ", "c"], ["econ", "d"]])
    return predictors, blocks


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--seed"),
    ("ingest", "--predictors"),
    ("select-predictors", "--outcomes"),
    ("select-predictors", "--seed"),
    ("fit", "--seed"),
    ("placebo", "--seed"),
    ("sweep", "--seed"),
    ("logistic", "--seed"),
    ("fit", "--filter"),
    ("placebo", "--filter"),
    # predictor rows are always z-scored
    ("fit", "--no-standardize"),
    ("placebo", "--no-standardize"),
])
def test_flags_a_command_never_reads_exit_2(tmp_path, capsys, command, flag):
    outcomes, _ = _study_files(tmp_path)
    predictors, blocks = _selection_files(tmp_path)
    given = [flag] + {"--seed": ["1"], "--predictors": [predictors], "--outcomes": [outcomes],
                      "--filter": ["cluster"], "--no-standardize": []}[flag]
    inputs = {"ingest": ["--outcomes", outcomes],
              "select-predictors": ["--predictors", predictors, "--blocks", blocks],
              "logistic": ["--outcomes", outcomes, "--predictors", predictors]}.get(
        command, ["--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25],
                  "--t-fit", "10"])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, *given, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(given)}" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_the_command_lacks_is_ignored(tmp_path):
    # only logistic takes --bins, but a config file shared with it may set it
    outcomes, predictors = _study_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bins = 3\n")
    runs = {"ingest": (["--outcomes", outcomes], ("panel_clean.csv", "dropped.csv")),
            "fit": (["--outcomes", outcomes, "--predictors", predictors, "--treated", "10001",
                     "--t0", _dates(40)[25]], ("result.json", "curve.csv"))}
    for command, (argv, written) in runs.items():
        plain, from_cfg = tmp_path / command / "plain", tmp_path / command / "cfg"
        assert main([command, *argv, "--out", str(plain)]) == 0
        assert main([command, *argv, "--config", str(cfg), "--out", str(from_cfg)]) == 0
        for name in written:
            assert (from_cfg / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("key, value", [
    ("l2", "5"),
    # the side tables pick the donor filters; no key names one
    ("filter", "cluster"),
    # predictor rows are always z-scored
    ("no_standardize", "true"),
])
def test_removed_config_key_exits_2(tmp_path, capsys, key, value):
    outcomes, _ = _study_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code = main(["fit", "--outcomes", outcomes, "--treated", "10001",
                 "--t0", _dates(40)[25], "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown option '{key}'\n"
    assert not (tmp_path / "out").exists()


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("treated=10001\nwhatever=1\n")
    code = main(["fit", "--outcomes", outcomes, "--config", str(cfg)])
    assert code == 2
    assert "whatever" in capsys.readouterr().err


def test_config_file_takes_the_options_of_every_subcommand(tmp_path):
    keys = ["outcomes", "predictors", "metadata", "clusters", "adjacency", "blocks",
            "treated", "t0", "t_fit", "l1", "v_mode", "train_placement", "placebo_t0",
            "bins", "jobs", "out"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key.replace('_', '-')} = 1\n" for key in keys))
    entries = cli._read_config(str(cfg), cli.build_parser())
    assert sorted(entries) == sorted(keys)
    assert set(entries.values()) == {"1"}
    for key in ("help", "config"):
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(cli.ConfigError, match=f"unknown option '{key}'"):
            cli._read_config(str(cfg), cli.build_parser())


@pytest.mark.parametrize("command, key, value", [
    ("placebo", "jobs", "0"),
    ("fit", "l1", "abc"),
    ("fit", "l1", "-1"),
    ("fit", "l1", "nan"),
    ("fit", "l1", "inf"),
    ("fit", "v_mode", "bogus"),
    ("fit", "t0", "2021-13-01"),
    ("fit", "t_fit", "0"),
    ("sweep", "t_fit", "0,10"),
])
def test_config_values_get_the_flags_checks(tmp_path, capsys, command, key, value):
    # no outcome panel can be read from this file: each value is checked first
    outcomes = tmp_path / "o.csv"
    outcomes.write_text("not a panel\n")
    out = tmp_path / "out"
    argv = [command, "--outcomes", str(outcomes), "--out", str(out)]
    if command != "logistic":
        argv += ["--treated", "10001"]
    flag = "--" + key.replace("_", "-")
    assert main([*argv, flag, value]) == 2
    from_flag = capsys.readouterr().err
    assert from_flag.startswith(f"error: {flag} must be ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == from_flag
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "placebo"])
def test_help_states_the_library_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo the help's line wrapping
    spec = StudySpec(treated="10001", donors=("20000",), T0=30)
    stated = {flag: re.search(rf"{flag} [A-Z0-9_]+ (?:(?!--)[^()])*\(default (\S+)\)", text)
              for flag in ("--l1", "--t-fit", "--train-placement", "--v-mode")}
    assert {flag: match and match[1] for flag, match in stated.items()} == {
        "--l1": str(Regularization().l1), "--t-fit": str(spec.t_fit),
        "--train-placement": spec.train_placement, "--v-mode": spec.v_mode}
    assert "--seed" not in text
    assert spec.train_placement == "tail" and spec.v_mode == "optimized"


def test_placebo_outputs_and_parallel_determinism(tmp_path):
    outcomes, predictors = _study_files(tmp_path, n_donors=4, seed=5)
    # with a constant predictor row no inverse-variance vector exists, and the
    # importance search's second start comes from the rows that vary
    for table in (predictors, _constant_row_predictors(tmp_path)):
        payloads = []
        for jobs in ("1", "2"):
            out = tmp_path / pathlib.Path(table).stem / f"j{jobs}"
            code = main(["placebo", "--outcomes", outcomes, "--predictors", table,
                         "--treated", "10001", "--t0", _dates(40)[25],
                         "--out", str(out), "--jobs", jobs])
            assert code == 0
            payloads.append(((out / "placebo.json").read_bytes(),
                             (out / "pvalues.csv").read_bytes()))
        assert payloads[0] == payloads[1]
        doc = json.loads(payloads[0][0])
        assert doc["treated"] == "10001"
        assert 0.0 <= doc["p_value"] <= 1.0
        assert len(doc["entries"]) == 5
        header, row = payloads[0][1].decode().splitlines()
        assert header == "treated,p_value,n_valid,n_skipped"
        assert row.startswith("10001,")


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--jobs", "0"),
    ("placebo", "--jobs", "0"),
    ("logistic", "--bins", "0"),
])
def test_out_of_range_flag_exits_2(tmp_path, capsys, command, flag, value):
    outcomes, predictors = _study_files(tmp_path, seed=5)
    out = tmp_path / "out"
    argv = [command, "--outcomes", outcomes, "--predictors", predictors, flag, value,
            "--out", str(out)]
    if command != "logistic":
        argv += ["--treated", "10001", "--t0", _dates(40)[25], "--t-fit", "10"]
    assert main(argv) == 2
    assert f"{flag} must be at least" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_inverse_variance_names_the_constant_predictor(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path, n_donors=4, seed=5)
    constant = _constant_row_predictors(tmp_path)
    study = ["--outcomes", outcomes, "--predictors", constant,
             "--treated", "10001", "--t0", _dates(40)[25], "--v-mode", "inverse-variance"]
    complaint = f"{constant}: predictor 'c' is constant across units"
    assert main(["fit", *study, "--out", str(tmp_path / "fit")]) == 3
    assert capsys.readouterr().err == f"error: {complaint}\n"
    assert main(["placebo", *study, "--out", str(tmp_path / "placebo")]) == 3
    assert capsys.readouterr().err.splitlines()[:-1] == [
        f"warning: placebo {unit} skipped: {complaint}"
        for unit in ("10001", "20000", "20002", "20004", "20006")]


def test_inverse_variance_names_the_outcomes_file_for_a_constant_training_mean(tmp_path,
                                                                               capsys):
    # every unit has the same series, so the training-mean row is constant;
    # the predictor column c holds 0.1 in 6 units, whose float variance is not 0
    series = 30 + np.random.default_rng(3).normal(0, 1, 40).cumsum()
    units = ["10001"] + [f"{20000 + 2 * j:05d}" for j in range(5)]
    outcomes = _long_csv(tmp_path / "same.csv", {u: series for u in units})
    predictors = _constant_row_predictors(tmp_path, n_donors=5, value="0.1")
    for table, source, name in ((predictors, predictors, "c"),
                                (_study_files(tmp_path, n_donors=5)[1], outcomes,
                                 OUTCOME_MEAN_NAME)):
        assert main(["fit", "--outcomes", outcomes, "--predictors", table,
                     "--treated", "10001", "--t0", _dates(40)[25],
                     "--v-mode", "inverse-variance", "--out", str(tmp_path / "fit")]) == 3
        assert capsys.readouterr().err == (
            f"error: {source}: predictor {name!r} is constant across units\n")


def test_placebo_entries_say_why_a_placebo_was_skipped(tmp_path, capsys):
    # with one donor, the donor's placebo has no donors of its own, so no
    # placebo is left to rank the treated unit against
    outcomes, predictors = _study_files(tmp_path, n_donors=1, seed=5)
    out = tmp_path / "out"
    assert main(["placebo", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: no placebo of treated unit 10001 has a fit (1 skipped); no p-value exists")
    assert not any(out.iterdir())

    spec = StudySpec(treated="10001", donors=("20000",), T0=25)
    design = build_design(ingest_panel(outcomes), load_predictors(predictors), spec)
    treated, donor = placebo_run(spec, design).entries
    assert donor.unit == "20000" and donor.skipped
    assert donor.reason == "donor pool must be non-empty"
    assert np.isnan([donor.r, donor.R_pre, donor.R_post]).all()
    assert donor.pre_floored is False and donor.converged is None
    # the treated unit copies its one donor exactly
    assert treated.unit == "10001" and not treated.skipped
    assert treated.reason is None
    assert treated.pre_floored is True
    assert treated.converged is True


def test_placebo_warns_about_skipped_and_unconverged_placebos(tmp_path, capsys, monkeypatch):
    outcomes, predictors = _study_files(tmp_path, n_donors=1, seed=5)
    assert main(["placebo", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25],
                 "--out", str(tmp_path / "one")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "warning: placebo 20000 skipped: donor pool must be non-empty",
        "error: no placebo of treated unit 10001 has a fit (1 skipped); no p-value exists"]

    out = tmp_path / "capped"
    assert main(["placebo", *_capped_study(tmp_path), "--l1", "0", "--out", str(out)]) == 0
    entries = json.loads((out / "placebo.json").read_text())["entries"]
    assert all(e["converged"] for e in entries)
    assert capsys.readouterr().err == ""

    _uncertified_solves(monkeypatch)
    assert main(["placebo", *_capped_study(tmp_path), "--jobs", "1",
                 "--out", str(tmp_path / "uncertified")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: donor weights for {unit} are not certified optimal (Frank-Wolfe gap 0.25)"
        for unit in ["10001", "20000", "20002", "20004", "20006"]]


@pytest.mark.parametrize("day", [4, 10])
def test_placebo_t0_inside_the_training_window_exits_2(tmp_path, capsys, day):
    outcomes, predictors = _study_files(tmp_path, seed=5)
    out = tmp_path / "out"
    assert main(["placebo", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25],
                 "--placebo-t0", _dates(40)[day], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--placebo-t0 {_dates(40)[day]} leaves too short a pre-period" in err
    assert f"got t_fit=10 T0={day}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "placebo", "sweep"])
def test_missing_outcome_names_unit_and_date_exits_3(tmp_path, capsys, command):
    outcomes, predictors = _study_files(tmp_path, seed=5)
    path = pathlib.Path(outcomes)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith(f"20002,{_dates(40)[10]},")))
    t_fits = ["--t-fit", "10,20"] if command == "sweep" else []
    assert main([command, "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], *t_fits,
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"error: outcome series contain missing values, first unit 20002 on "
        f"{_dates(40)[10]}; clean the panel first\n")


@pytest.mark.parametrize("command", ["fit", "placebo", "sweep"])
def test_missing_outcome_fails_before_the_output_directory_is_made(tmp_path, command):
    outcomes, predictors = _study_files(tmp_path, seed=5)
    path = pathlib.Path(outcomes)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith(f"20002,{_dates(40)[10]},")))
    t_fits = ["--t-fit", "10,20"] if command == "sweep" else []
    out = tmp_path / "out"
    assert main([command, "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], *t_fits, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command, t_fits", [("fit", "10"), ("placebo", "10"),
                                             ("sweep", "5,10,20")])
def test_each_study_command_builds_its_design_once(tmp_path, monkeypatch, command, t_fits):
    outcomes, predictors = _study_files(tmp_path, T=60, seed=6)
    calls = count_calls(monkeypatch, engine, "build_design")
    assert main([command, "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(60)[40], "--t-fit", t_fits,
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_sweep_writes_sorted_rows(tmp_path):
    outcomes, predictors = _study_files(tmp_path, T=60, seed=6)
    out = tmp_path / "out"
    code = main(["sweep", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(60)[40],
                 "--t-fit", "20,10", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "t_fit,pre_deviation,p_value"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [10, 20]


def test_sweep_warns_why_a_row_failed(tmp_path, capsys):
    # seed 1: one placebo fit of the t_fit=10 row is uncertified
    outcomes, predictors = _study_files(tmp_path, T=60, seed=1)
    out = tmp_path / "out"
    code = main(["sweep", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(60)[40],
                 "--t-fit", "10,40,500", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: t_fit=40: need 1 <= t_fit < T0, got t_fit=40 T0=40" in err
    assert "warning: t_fit=500: need 1 <= t_fit < T0, got t_fit=500 T0=40" in err
    # the row that fits skips no placebo, and warns only of its uncertified fits
    lines = [line for line in err.splitlines() if "t_fit=10" in line]
    assert lines and all(line.startswith("warning: t_fit=10: donor weights for ")
                         for line in lines)
    assert (out / "sweep.csv").read_text().splitlines()[2:] == ["40,,", "500,,"]


def test_sweep_jobs_do_not_change_output(tmp_path):
    outcomes, predictors = _study_files(tmp_path, T=60, seed=6)
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert main(["sweep", "--outcomes", outcomes, "--predictors", predictors,
                     "--treated", "10001", "--t0", _dates(60)[40], "--t-fit", "20,10",
                     "--jobs", jobs, "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]


def test_uncertified_sweep_placebo_has_optimal_weights(tmp_path):
    # sweep --t-fit 10 on this study warns that the placebo fit of donor
    # 20002 is uncertified; its importance vector has collapsed onto one row,
    # and no point of a 1/400 grid over its three donors' simplex beats the
    # weights it kept
    outcomes, predictors = _study_files(tmp_path, n_donors=4, T=60, seed=15)
    panel, table = ingest_panel(outcomes), load_predictors(predictors)
    spec = StudySpec(treated="10001", donors=("20000", "20002", "20004", "20006"),
                     T0=40, t_fit=10)
    placebo = dataclasses.replace(spec, treated="20002", donors=("20000", "20004", "20006"))
    design = placebo_design(synthctl.build_design(panel, table, spec), 1, placebo)
    result = synthctl.fit_synth(placebo, design)
    assert np.sort(result.v_star)[-2] < 1e-20
    n = 400
    a, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    inside = a + b <= n
    W = np.column_stack([a[inside], b[inside], n - a[inside] - b[inside]]) / n
    R = design.X1[:, None] - design.X0 @ W.T
    scanned = np.sqrt(result.v_star @ (R * R)) + placebo.reg.l1 * np.linalg.norm(W, axis=1)
    assert scanned.min() > result.objective


def test_logistic_fits_and_failures(tmp_path):
    T = 60
    t = np.arange(T, dtype=float)
    # distinct rates: an exact fit of one shared rate leaves the nu
    # regressions undefined (constant parameter)
    series = {
        f"{40000 + 2 * i:05d}": logistic_predict(k, nu, 1.0, t)
        for i, (k, nu) in enumerate(((50.0, 0.12), (60.0, 0.15), (70.0, 0.18), (80.0, 0.21)))
    }
    series["49999"] = np.full(T, 25.0)  # constant: flagged, not fitted
    outcomes = _long_csv(tmp_path / "o.csv", series)
    units = list(series)
    themes = _wide_csv(tmp_path / "themes.csv", ["unit", "theme1", "global"],
                       [[u, str(0.1 * i), str(0.05 * i)]
                        for i, u in enumerate(units)])
    out = tmp_path / "out"
    code = main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--out", str(out)])
    assert code == 0
    fits = (out / "fits.csv").read_text().splitlines()
    assert fits[0] == "unit,K,nu,p0,sse,quadrant"
    assert len(fits) == 5  # four fitted units
    failures = (out / "fit_failures.csv").read_text().splitlines()
    assert len(failures) == 2
    assert failures[1].startswith("49999,")
    regression = (out / "ccvi_regression.csv").read_text().splitlines()
    assert regression[0] == "theme,param,slope,corr"
    assert len(regression) == 5  # 2 themes x {K, nu}
    deciles = (out / "deciles.csv").read_text().splitlines()
    assert deciles[0] == "theme,param,bin,mean,std"


def _logistic_files(tmp_path, indexed):
    """Five fittable uptake series, and an index table with rows for `indexed` units."""
    t = np.arange(60, dtype=float)
    series = {f"{40000 + 2 * i:05d}": logistic_predict(50.0 + 10 * i, 0.12 + 0.03 * i, 1.0, t)
              for i in range(5)}
    themes = _wide_csv(tmp_path / "themes.csv", ["unit", "theme1"],
                       [[u, str(0.1 * i)] for i, u in enumerate(indexed)])
    return _long_csv(tmp_path / "o.csv", series), themes


def test_logistic_names_the_outcome_units_it_leaves_out(tmp_path, capsys):
    outcomes, themes = _logistic_files(tmp_path, ["40008", "40002", "40004", "09999"])
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--bins", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: predictor table lacks 2 outcome unit(s), left out: 40000, 40006\n")
    fitted = [line.split(",")[0] for line in (out / "fits.csv").read_text().splitlines()]
    assert fitted == ["unit", "40002", "40004", "40008"]


def test_logistic_lists_a_unit_with_too_few_points_in_the_failures(tmp_path):
    units = ["40000", "40002", "40004", "40006", "40008", "49999"]
    outcomes, themes = _logistic_files(tmp_path, units)
    with open(outcomes, "a") as fh:  # 49999 has rows for its first 8 days only
        fh.writelines(f"49999,{day},{1.0 + i}\n" for i, day in enumerate(_dates(8)))
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--bins", "2", "--out", str(out)]) == 0
    assert (out / "fit_failures.csv").read_text().splitlines() == [
        "unit,reason", '49999,"need at least 10 usable points, have 8"']
    assert len((out / "fits.csv").read_text().splitlines()) == 6


def test_logistic_warns_about_each_unconverged_fit_and_keeps_it(tmp_path, capsys,
                                                                 monkeypatch):
    units = ["40000", "40002", "40004", "40006", "40008"]
    outcomes, themes = _logistic_files(tmp_path, units)
    monkeypatch.setattr(synthctl.logistic, "LM_MAX_ITERS", 3)
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--bins", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"warning: growth curve for {u} stopped at its iteration cap without converging\n"
        for u in units)
    fits = (out / "fits.csv").read_text().splitlines()
    assert fits[0] == "unit,K,nu,p0,sse,quadrant"
    assert [line.split(",")[0] for line in fits[1:]] == units


def test_logistic_skips_the_regressions_of_an_index_of_equal_values(tmp_path, capsys):
    # 0.1 in 7 units has a float variance of 2e-34, not 0
    t = np.arange(60, dtype=float)
    series = {f"{40000 + 2 * i:05d}": logistic_predict(50.0 + 5 * i, 0.12 + 0.01 * i, 1.0, t)
              for i in range(7)}
    themes = _wide_csv(tmp_path / "themes.csv", ["unit", "flat"],
                       [[u, "0.1"] for u in series])
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", _long_csv(tmp_path / "o.csv", series),
                 "--predictors", themes, "--bins", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"warning: skipping regression flat/{param}: index values are constant\n"
        for param in ("K", "nu"))
    assert (out / "ccvi_regression.csv").read_text() == "theme,param,slope,corr\n"


def test_logistic_fits_units_with_equal_series_alike(tmp_path):
    # a fit depends on the series alone, not on the unit's code
    t = np.arange(120, dtype=float)
    noise = np.random.default_rng(7).normal(0.0, 0.3, size=t.size)
    y = np.maximum.accumulate(np.maximum(logistic_predict(70.0, 0.06, 1.0, t) + noise, 0.01))
    units = ["40000", "40002", "40004"]
    outcomes = _long_csv(tmp_path / "o.csv", {u: y for u in units})
    themes = _wide_csv(tmp_path / "themes.csv", ["unit", "theme1"],
                       [[u, str(0.1 * i)] for i, u in enumerate(units)])
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--bins", "1", "--out", str(out)]) == 0
    rows = (out / "fits.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == units
    assert len({row.split(",", 1)[1] for row in rows}) == 1


def test_logistic_with_no_shared_unit_exits_3(tmp_path, capsys):
    outcomes, themes = _logistic_files(tmp_path, ["09999"])
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: no unit of --outcomes {outcomes} appears in "
                                       f"--predictors {themes}\n")
    assert not out.exists()


def test_logistic_majority_failure_exits_3(tmp_path, capsys):
    T = 30
    series = {"50001": np.full(T, 10.0), "50003": np.full(T, 20.0)}
    outcomes = _long_csv(tmp_path / "o.csv", series)
    themes = _wide_csv(tmp_path / "t.csv", ["unit", "theme1"],
                       [["50001", "0.2"], ["50003", "0.4"]])
    out = tmp_path / "out"
    code = main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--out", str(out)])
    assert code == 3
    failures = (out / "fit_failures.csv").read_text().splitlines()
    assert len(failures) == 3  # both units listed, files still written


def test_select_predictors_cli(tmp_path):
    predictors, blocks = _selection_files(tmp_path)
    out = tmp_path / "out"
    code = main(["select-predictors", "--predictors", predictors,
                 "--blocks", blocks, "--out", str(out)])
    assert code == 0
    lines = (out / "selected.csv").read_text().splitlines()
    assert lines[0] == "block,predictor"
    assert len(lines) == 5  # two per block


def test_select_predictors_warns_about_a_short_block(tmp_path, capsys):
    predictors, _ = _selection_files(tmp_path)
    lines = pathlib.Path(predictors).read_text().splitlines()
    # column b copies a, so the correlation cap strikes it once a is picked
    rows = [",".join(cells[:2] + [cells[1]] + cells[3:])
            for cells in (line.split(",") for line in lines[1:])]
    pathlib.Path(predictors).write_text("\n".join([lines[0], *rows]) + "\n")
    blocks = _wide_csv(tmp_path / "blocks.csv", ["block", "predictor"],
                       [["demo", "a"], ["demo", "b"], ["econ", "c"], ["econ", "d"]])
    out = tmp_path / "out"
    assert main(["select-predictors", "--predictors", predictors, "--blocks", blocks,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == \
        "warning: block demo has fewer compliant predictors than requested\n"
    assert (out / "selected.csv").read_text().splitlines() == [
        "block,predictor", "demo,a", "econ,c", "econ,d"]


def test_select_predictors_constant_column_exits_3_naming_it_and_the_file(tmp_path, capsys):
    predictors, blocks = _selection_files(tmp_path)
    lines = pathlib.Path(predictors).read_text().splitlines()
    rows = [",".join(cells[:3] + ["1.5"] + cells[4:])
            for cells in (line.split(",") for line in lines[1:])]
    pathlib.Path(predictors).write_text("\n".join([lines[0], *rows]) + "\n")
    out = tmp_path / "out"
    assert main(["select-predictors", "--predictors", predictors, "--blocks", blocks,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        f"error: --predictors {predictors}: predictor 'c' is constant; correlation undefined\n"
    assert not out.exists()


def test_ingest_cleans_and_reports(tmp_path):
    good = np.linspace(1, 20, 21)
    bad = good.copy()
    bad[5:10] = 0.0  # five zeros after the first positive: 25% bad
    outcomes = _long_csv(tmp_path / "o.csv", {"70001": good, "70003": bad})
    out = tmp_path / "out"
    code = main(["ingest", "--outcomes", outcomes, "--out", str(out)])
    assert code == 0
    dropped = (out / "dropped.csv").read_text().splitlines()
    assert len(dropped) == 2
    assert dropped[1].startswith("70003,")
    clean = (out / "panel_clean.csv").read_text().splitlines()
    assert clean[0] == "unit,date,value"
    assert len(clean) == 22  # one kept unit, 21 days


def test_study_commands_write_the_same_bytes_with_or_without_the_panel_sidecar(
        tmp_path, monkeypatch):
    outcomes, predictors = _study_files(tmp_path)
    first, again = tmp_path / "ingest", tmp_path / "again"
    for out in (first, again):
        assert main(["ingest", "--outcomes", outcomes, "--out", str(out)]) == 0
    grid = first / "panel_clean.csv.grid"
    assert grid.read_bytes() == (again / "panel_clean.csv.grid").read_bytes()
    parses = count_calls(monkeypatch, synthctl.panel, "_parse_long_csv")
    study = ["--outcomes", str(first / "panel_clean.csv"), "--predictors", predictors,
             "--treated", "10001", "--t0", _dates(40)[25]]
    runs = {"fit": [], "placebo": ["--jobs", "2"]}

    def outputs(tag):
        written = {}
        for command, flags in runs.items():
            out = tmp_path / f"{command}-{tag}"
            assert main([command, *study, *flags, "--out", str(out)]) == 0
            written[command] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return written

    from_sidecar = outputs("sidecar")
    assert parses == []  # both commands read the sidecar
    grid.unlink()
    assert outputs("parsed") == from_sidecar
    assert len(parses) == len(runs)


def test_ingest_bad_value_cell_exits_3(tmp_path, capsys):
    path = tmp_path / "o.csv"
    _long_csv(path, {"70001": np.linspace(1, 20, 21)})
    lines = path.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",abc"
    path.write_text("\n".join(lines) + "\n")
    code = main(["ingest", "--outcomes", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "cannot parse 'abc' as a number in column 'value' for unit 70001" in err
    assert f"on line 5 of {path}" in err


def test_ingest_infinite_value_cell_exits_3(tmp_path, capsys):
    # 1e400 reads as inf; cleaning would have interpolated over it and exited 0
    path = tmp_path / "o.csv"
    path.write_text("unit,date,value\n01001,2021-01-01,1e400\n01001,2021-01-02,2\n")
    out = tmp_path / "out"
    assert main(["ingest", "--outcomes", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: non-finite value '1e400' in column 'value' "
                                       f"for unit 01001 on line 2 of {path}\n")
    assert not (out / "panel_clean.csv").exists()


def test_ingest_exits_3_when_smoothing_overflows(tmp_path, capsys):
    # 1e306 * (day + 1) is finite on every day, but its running sum is not
    series = {"10001": np.arange(1.0, 41.0), "20001": np.arange(2.0, 42.0),
              "30001": np.arange(3.0, 43.0), "71003": 1e306 * np.arange(1.0, 41.0)}
    outcomes = _long_csv(tmp_path / "o.csv", series)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the test
        code = main(["ingest", "--outcomes", outcomes, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: {outcomes}: smoothing the series of unit 71003 overflows the float range\n"
    assert not (out / "panel_clean.csv").exists()


def test_ingest_dropping_every_unit_exits_3_naming_the_file(tmp_path, capsys):
    outcomes = _long_csv(tmp_path / "o.csv", {"70001": np.full(21, np.nan)})
    out = tmp_path / "out"
    assert main(["ingest", "--outcomes", outcomes, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {outcomes}: cleaning dropped every unit\n"
    assert not (out / "panel_clean.csv").exists()


def _fit_outputs(out, *argv):
    """The bytes of result.json and curve.csv from a fit that must succeed."""
    assert main(["fit", *argv, "--treated", "10001", "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("result.json", "curve.csv")]


def test_fit_ignores_metadata_columns_no_command_reads(tmp_path):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    t0 = _dates(40)[25]
    plain = _wide_csv(tmp_path / "plain.csv", ["unit", "treated", "t0"],
                      [["10001", "1", t0], ["20002", "0", ""]])
    extra = _wide_csv(tmp_path / "extra.csv",
                      ["unit", "treated", "t0", "cluster", "incentive_category"],
                      [["10001", "1", t0, "a", "2"], ["20002", "0", "", "", "x"]])
    study = ["--outcomes", outcomes, "--predictors", predictors, "--metadata"]
    assert (_fit_outputs(tmp_path / "extra", *study, extra)
            == _fit_outputs(tmp_path / "plain", *study, plain))


@pytest.mark.parametrize("column, cell, message", [
    ("treated", "maybe", "unreadable treated flag 'maybe' in column 'treated' for unit 20002"),
    ("t0", "2021-13-01", "cannot parse date '2021-13-01' for unit 20002"),
])
def test_fit_bad_metadata_cell_exits_3(tmp_path, capsys, column, cell, message):
    # every row's cells are checked, a donor's as well as the treated unit's
    outcomes, _ = _study_files(tmp_path, seed=4)
    row = {"unit": "20002", "treated": "0", "t0": "", column: cell}
    metadata = _wide_csv(tmp_path / "m.csv", ["unit", "treated", "t0"],
                         [["10001", "1", _dates(40)[25]], list(row.values())])
    code = main(["fit", "--outcomes", outcomes, "--metadata", metadata,
                 "--treated", "10001", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and str(metadata) in err


def _state_study(tmp_path):
    """Outcomes for treated unit 10001 and donors in states 20, 30 and 40 (two units)."""
    rng = np.random.default_rng(5)
    units = ("10001", "20001", "30001", "40001", "40003")
    return _long_csv(tmp_path / "outcomes.csv",
                     {u: 30 + rng.normal(0, 1, 40).cumsum() for u in units})


@pytest.mark.parametrize("source", ["--t0", "metadata"])
def test_fit_t0_outside_the_panel_exits_2_naming_its_source(tmp_path, capsys, source):
    outcomes = _state_study(tmp_path)
    late = "2021-06-01"  # the panel ends on 2021-04-09
    metadata = _wide_csv(tmp_path / "m.csv", ["unit", "treated", "t0"],
                         [["10001", "1", late if source == "metadata" else ""]])
    flags = ["--t0", late] if source == "--t0" else []
    code = main(["fit", "--outcomes", outcomes, "--metadata", metadata, "--treated", "10001",
                 *flags, "--out", str(tmp_path / "out")])
    assert code == 2
    named = "--t0" if source == "--t0" else metadata
    assert (f"error: intervention date {late} of treated unit 10001 (from {named}) "
            "is outside the panel's date range") in capsys.readouterr().err


def test_fit_t0_flag_wins_over_an_unusable_metadata_t0(tmp_path):
    outcomes = _state_study(tmp_path)
    runs = []
    for name, cell in (("late", "2021-06-01"), ("blank", "")):
        metadata = _wide_csv(tmp_path / f"{name}.csv", ["unit", "treated", "t0"],
                             [["10001", "1", cell]])
        runs.append(_fit_outputs(tmp_path / name, "--outcomes", outcomes, "--metadata",
                                 metadata, "--t0", _dates(40)[25]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("other_t0", ["", "2021-06-01"])
def test_fit_another_treated_units_t0_is_not_read(tmp_path, other_t0):
    # 40001 is treated too, with no t0 or one after the panel ends (a later
    # adopter): the fit still runs, and its state is still left out of the pool
    outcomes = _state_study(tmp_path)
    metadata = _wide_csv(tmp_path / "m.csv", ["unit", "treated", "t0"],
                         [["10001", "1", _dates(40)[25]], ["40001", "1", other_t0]])
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--metadata", metadata,
                 "--treated", "10001", "--out", str(out)]) == 0
    assert set(json.loads((out / "result.json").read_text())["w"]) == {"20001", "30001"}


@pytest.mark.parametrize("with_metadata", [False, True])
def test_fit_without_any_t0_exits_2(tmp_path, capsys, with_metadata):
    outcomes = _state_study(tmp_path)
    flags = []
    if with_metadata:
        flags = ["--metadata", _wide_csv(tmp_path / "m.csv", ["unit", "treated", "t0"],
                                         [["10001", "1", ""]])]
    code = main(["fit", "--outcomes", outcomes, *flags, "--treated", "10001",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: --t0 is required" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, message", [
    ("fit", ["--config", "{tmp}/missing.cfg"], "config file not found: {tmp}/missing.cfg"),
    ("fit", ["--config", "{garbled}"], "{garbled}:1: expected key=value, got 'garbage'"),
    # both spellings name one option
    ("fit", ["--config", "{repeated}"],
     "{repeated}:3: option 't_fit' is set twice (first on line 1)"),
    ("fit", ["--treated", "99999"], "treated unit '99999' is not in the outcome panel"),
    # every donor shares a state with 20000, which the metadata marks treated
    ("fit", ["--metadata", "{state_20_treated}"], "no donors remain for treated unit 10001"),
    ("placebo", ["--placebo-t0", "2021-06-01"],
     "placebo date 2021-06-01 is outside the panel's date range"),
    ("sweep", ["--t-fit", "5,x"],
     "--t-fit must be a comma-separated list of integers, got '5,x'"),
    ("sweep", ["--t-fit", ","], "--t-fit selected no window lengths"),
    ("fit", ["--t-fit", "500"],
     "--t-fit 500 does not fit the pre-period: need 1 <= t_fit < T0, got t_fit=500 T0=25"),
], ids=["config-missing", "config-line", "config-repeat", "treated-absent", "no-donors",
        "placebo-t0-outside", "t-fit-not-integers", "t-fit-empty", "t-fit-too-long"])
def test_study_defects_exit_2_with_their_message(tmp_path, capsys, command, flags, message):
    outcomes, predictors = _study_files(tmp_path)
    garbled = tmp_path / "garbled.cfg"
    garbled.write_text("garbage\n")
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("t-fit = 5\nl1 = 0\nt_fit = 20\n")
    paths = {"tmp": str(tmp_path), "garbled": str(garbled), "repeated": str(repeated),
             "state_20_treated": _wide_csv(tmp_path / "m.csv", ["unit", "treated"],
                                           [["20000", "1"]])}
    out = tmp_path / "out"
    assert main([command, "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25],
                 *(flag.format(**paths) for flag in flags), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


@pytest.mark.parametrize("table", ["outcomes", "predictors", "metadata"])
def test_bad_unit_code_names_file_line_and_column_exits_3(tmp_path, capsys, table):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    metadata = _wide_csv(tmp_path / "m.csv", ["unit", "treated", "t0"],
                         [["10001", "1", _dates(40)[25]], ["20002", "0", ""]])
    path = {"outcomes": outcomes, "predictors": predictors, "metadata": metadata}[table]
    lines = pathlib.Path(path).read_text().splitlines()
    lines[2] = "1001" + lines[2][5:]  # a 4-digit code on line 3
    pathlib.Path(path).write_text("\n".join(lines) + "\n")
    code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--metadata", metadata, "--treated", "10001",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert ("numeric unit code '1001' must be a 5-digit FIPS code "
            f"in column 'unit' on line 3 of {path}") in err


@pytest.mark.parametrize("table, complaint", [
    ("clusters", "numeric unit code '1001' must be a 5-digit FIPS code in column 'fips'"),
    ("cluster label", "blank cluster for unit 20000"),
    ("adjacency", "blank state or neighbor"),
    ("blocks", "blank block or predictor"),
])
def test_donor_and_block_tables_name_the_bad_line_exits_3(tmp_path, capsys, table, complaint):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    fit = ["fit", "--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25]]
    header, rows, argv = {
        "clusters": (["fips", "cluster"], [["10001", "a"], ["1001", "a"]],
                     [*fit, "--clusters"]),
        "cluster label": (["fips", "cluster"], [["10001", "a"], ["20000", ""]],
                          [*fit, "--clusters"]),
        "adjacency": (["state", "neighbor"], [["10", "20"], ["20", ""]],
                      [*fit, "--adjacency"]),
        "blocks": (["block", "predictor"], [["demo", "a"], ["", "b"]],
                   ["select-predictors", "--predictors", predictors, "--blocks"]),
    }[table]
    path = _wide_csv(tmp_path / f"{table}.csv", header, rows)
    code = main([*argv, path, "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{complaint} on line 3 of {path}" in capsys.readouterr().err


SIDE_TABLE_DEFECTS = {
    "missing column": "must carry column(s)",
    "repeated column": "appears twice in the header",
    "header only": "contains no data rows",
    "repeated unit": "listed twice in column",
}


@pytest.mark.parametrize("table, defect", [
    (table, defect)
    for table, keyed in [("predictors", True), ("metadata", True), ("clusters", True),
                         ("adjacency", False), ("blocks", False)]
    for defect in SIDE_TABLE_DEFECTS if keyed or defect != "repeated unit"
])
def test_side_table_defects_name_the_file_exits_3(tmp_path, capsys, table, defect):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    fit = ["fit", "--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25]]
    units = ["10001", "20000", "20002", "20004", "20006"]
    header, rows, argv = {
        "predictors": (["unit", "a"], [[u, "1.5"] for u in units], [*fit, "--predictors"]),
        # repeating the last column gives the metadata two 'treated' columns
        "metadata": (["unit", "treated"], [[u, "0"] for u in units], [*fit, "--metadata"]),
        "clusters": (["fips", "cluster"], [[u, "a"] for u in units],
                     [*fit, "--clusters"]),
        "adjacency": (["state", "neighbor"], [["10", "20"]],
                      [*fit, "--adjacency"]),
        "blocks": (["block", "predictor"], [["demo", "a"], ["demo", "b"]],
                   ["select-predictors", "--predictors", predictors, "--blocks"]),
    }[table]
    if defect == "missing column":
        header, rows = header[1:], [row[1:] for row in rows]
    elif defect == "repeated column":
        header, rows = header + header[-1:], [row + row[-1:] for row in rows]
    elif defect == "header only":
        rows = []
    else:
        rows = rows + rows[1:2]
    path = _wide_csv(tmp_path / f"{table}.csv", header, rows)
    code = main([*argv, path, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert SIDE_TABLE_DEFECTS[defect] in err and path in err


def test_outcomes_header_repeating_a_column_exits_3(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path, seed=4)
    path = pathlib.Path(outcomes)
    lines = path.read_text().splitlines()
    path.write_text("".join(f"{line},{line.rsplit(',', 1)[1]}\n" for line in lines))
    out = tmp_path / "out"
    assert main(["ingest", "--outcomes", outcomes, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: column 'value' appears twice in the header of {outcomes}\n")
    assert not out.exists()


def _capped_study(tmp_path):
    """Study options whose final weight solve the earlier descent solver left
    at its iteration cap under --l1 0.

    Nearly collinear predictors and a treated unit inside the donor hull.
    """
    rng = np.random.default_rng(1)
    J, T = 4, 40
    level = rng.normal(size=J)
    w = rng.dirichlet(np.ones(J))
    donors = 30 + 5 * level[:, None] + rng.normal(0, 0.1, size=(J, T))
    P0 = level[None, :] + 1e-3 * rng.normal(size=(2, J))
    units = ["10001"] + [f"{20000 + 2 * j:05d}" for j in range(J)]
    outcomes = _long_csv(tmp_path / "o.csv", dict(zip(units, np.vstack([w @ donors, donors]))))
    X = np.hstack([(P0 @ w)[:, None], P0])
    predictors = _wide_csv(tmp_path / "p.csv", ["unit", "a", "b"],
                           [[u, *map(str, X[:, i])] for i, u in enumerate(units)])
    return ["--outcomes", outcomes, "--predictors", predictors, "--treated", "10001",
            "--t0", _dates(T)[30], "--v-mode", "uniform"]


def _uncertified_solves(monkeypatch):
    """Make every weight solve report the weights it finds as uncertified."""
    from synthctl import engine

    solve_w = engine.solve_w

    def uncertified(*args, **kwargs):
        return dataclasses.replace(solve_w(*args, **kwargs), converged=False, fw_gap=0.25)

    monkeypatch.setattr(engine, "solve_w", uncertified)


def test_fit_warns_when_final_weights_do_not_converge(tmp_path, capsys, monkeypatch):
    argv = ["fit", *_capped_study(tmp_path)]
    # the exact solve certifies this study with and without the penalty
    assert main([*argv, "--l1", "0", "--out", str(tmp_path / "out")]) == 0
    assert main([*argv, "--out", str(tmp_path / "out2")]) == 0
    assert "warning" not in capsys.readouterr().err

    _uncertified_solves(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out3")]) == 0
    err = capsys.readouterr().err
    assert ("warning: donor weights for 10001 are not certified optimal "
            "(Frank-Wolfe gap 0.25) (objective ") in err


def test_sweep_warns_about_each_rows_unconverged_placebos(tmp_path, capsys, monkeypatch):
    _uncertified_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", *_capped_study(tmp_path), "--t-fit", "10,5",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: t_fit={t_fit}: donor weights for {unit} are not certified optimal "
        "(Frank-Wolfe gap 0.25)"
        for t_fit in (5, 10) for unit in ["10001", "20000", "20002", "20004", "20006"]]
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_fit_cluster_filter_falls_back_when_empty(tmp_path, capsys):
    outcomes, predictors = _study_files(tmp_path, seed=8)
    clusters = _wide_csv(tmp_path / "c.csv", ["fips", "cluster"],
                         [["10001", "Solo"], ["20000", "Other"],
                          ["20002", "Other"], ["20004", "Other"],
                          ["20006", "Other"]])
    out = tmp_path / "out"
    code = main(["fit", "--outcomes", outcomes, "--treated", "10001",
                 "--t0", _dates(40)[25], "--clusters", clusters, "--out", str(out)])
    assert code == 0
    assert "cluster filter left no donors" in capsys.readouterr().err


def test_fit_neighbors_filter_keeps_donors_of_bordering_states(tmp_path, capsys):
    outcomes = _state_study(tmp_path)
    adjacency = _wide_csv(tmp_path / "a.csv", ["state", "neighbor"],
                          [["10", "30"], ["10", "40"], ["20", "10"]])
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25],
                 "--adjacency", adjacency, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert list(json.loads((out / "result.json").read_text())["w"]) == \
        ["30001", "40001", "40003"]


def _state_clusters(tmp_path, labels):
    return _wide_csv(tmp_path / "c.csv", ["fips", "cluster"], list(labels.items()))


def test_fit_clusters_alone_keep_donors_of_the_treated_cluster(tmp_path, capsys):
    outcomes = _state_study(tmp_path)
    clusters = _state_clusters(tmp_path, {"10001": "a", "20001": "a", "30001": "b",
                                          "40001": "a", "40003": "b"})
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25],
                 "--clusters", clusters, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert list(json.loads((out / "result.json").read_text())["w"]) == ["20001", "40001"]


def test_fit_clusters_then_adjacency_narrow_the_pool_in_turn(tmp_path, capsys):
    outcomes = _state_study(tmp_path)
    clusters = _state_clusters(tmp_path, {"10001": "a", "20001": "a", "30001": "a",
                                          "40001": "a", "40003": "b"})
    adjacency = _wide_csv(tmp_path / "a.csv", ["state", "neighbor"],
                          [["10", "30"], ["10", "40"]])
    argv = ["fit", "--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25]]
    donors = {}
    for name, tables in {"both": ["--clusters", clusters, "--adjacency", adjacency],
                         "reversed": ["--adjacency", adjacency, "--clusters", clusters]}.items():
        out = tmp_path / name
        assert main([*argv, *tables, "--out", str(out)]) == 0
        donors[name] = list(json.loads((out / "result.json").read_text())["w"])
    assert donors == {"both": ["30001", "40001"], "reversed": ["30001", "40001"]}

    # a table that would empty what the other left is not applied
    lone = _wide_csv(tmp_path / "lone.csv", ["state", "neighbor"], [["10", "50"]])
    out = tmp_path / "lone"
    assert main([*argv, "--clusters", clusters, "--adjacency", lone, "--out", str(out)]) == 0
    assert capsys.readouterr().err == \
        "warning: neighbor filter left no donors for 10001; using the cluster filter's pool\n"
    assert list(json.loads((out / "result.json").read_text())["w"]) == \
        ["20001", "30001", "40001"]


@pytest.mark.parametrize("flag, header, rows, complaint", [
    ("--clusters", ["fips", "cluster"], [["20001", "a"], ["30001", "a"]],
     "unit '10001' has no cluster label"),
    ("--adjacency", ["state", "neighbor"], [["20", "30"]],
     "no adjacency entry for state '10'"),
], ids=["clusters", "adjacency"])
def test_side_table_without_the_treated_unit_exits_2_naming_flag_and_file(
        tmp_path, capsys, flag, header, rows, complaint):
    outcomes = _state_study(tmp_path)
    table = _wide_csv(tmp_path / "table.csv", header, rows)
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--treated", "10001", "--t0", _dates(40)[25],
                 flag, table, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} {table}: {complaint}\n"
    assert not out.exists()


def test_fit_uniform_v_mode(tmp_path):
    outcomes, predictors = _study_files(tmp_path, seed=9)
    out = tmp_path / "out"
    code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25],
                 "--v-mode", "uniform", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    v = list(result["v"].values())
    assert v == pytest.approx([0.25, 0.25, 0.25, 0.25])


def _demo_files(out, *flags):
    subprocess.run([sys.executable, str(DEMO_SCRIPT), "--out", str(out), *flags],
                   check=True, capture_output=True)
    return ["--outcomes", str(out / "outcomes.csv"), "--predictors",
            str(out / "predictors.csv"), "--metadata", str(out / "metadata.csv")]


@pytest.mark.parametrize("cell, complaint", [("nan", "non-finite value 'nan'"),
                                             ("n/a", "cannot parse 'n/a'")])
def test_fit_bad_predictor_cell_exits_3(tmp_path, capsys, cell, complaint):
    data = tmp_path / "demo"
    files = _demo_files(data)
    predictors = data / "predictors.csv"
    lines = predictors.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")  # donor 21001
    row[header.index("level_d018")] = cell
    lines[3] = ",".join(row)
    predictors.write_text("\n".join(lines) + "\n")
    code = main(["fit", *files, "--treated", "10001", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert complaint in err
    assert "'level_d018'" in err and "21001" in err and str(predictors) in err


def test_demo_data_with_100_donors_passes_fit(tmp_path):
    data = tmp_path / "demo"
    files = _demo_files(data, "--donors", "100")
    out = tmp_path / "out"
    code = main(["fit", *files, "--treated", "10001", "--v-mode", "uniform",
                 "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert len(result["w"]) == 100


def test_predictor_table_needs_rows_only_for_the_units_a_fit_reads(tmp_path):
    # 10003 shares treated unit 10001's state, so it is never a donor, and
    # the predictor table needs no row for it
    small = ("--donors", "4", "--days", "60", "--t0-index", "40")
    plain = _demo_files(tmp_path / "plain", *small)
    extra = _demo_files(tmp_path / "extra", *small)
    outcomes = pathlib.Path(extra[1])
    treated_rows = [line for line in outcomes.read_text().splitlines(True)
                    if line.startswith("10001,")]
    with open(outcomes, "a") as fh:  # 10003's outcomes copy 10001's
        fh.writelines("10003," + line.removeprefix("10001,") for line in treated_rows)
    runs = {"fit": [], "placebo": [], "sweep": ["--t-fit", "10,20"]}
    for command, flags in runs.items():
        written = []
        for name, files in (("plain", plain), ("extra", extra)):
            out = tmp_path / name / command
            assert main([command, *files, "--treated", "10001", "--v-mode", "uniform", *flags,
                         "--out", str(out)]) == 0
            written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert written[0] == written[1]


def test_predictor_table_lacking_a_donor_exits_2_naming_it_and_the_file(tmp_path, capsys):
    files = _demo_files(tmp_path / "demo")
    predictors = pathlib.Path(files[3])
    predictors.write_text("".join(line for line in predictors.read_text().splitlines(True)
                                  if not line.startswith("21001,")))
    assert main(["fit", *files, "--treated", "10001", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        f"error: predictor table {predictors} lacks units: 21001\n"


def test_quick_start_fit_runs_clean(tmp_path, capsys):
    # the fit command that make_demo_data.py prints, as the README's quick start runs it
    printed = subprocess.run([sys.executable, str(DEMO_SCRIPT), "--out", str(tmp_path)],
                             check=True, capture_output=True, text=True).stdout
    command = next(line for line in printed.splitlines()
                   if line.strip().startswith("synthctl fit "))
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "results" / "result.json").exists()


def _src_env():
    """The environment with this checkout's synthctl first on PYTHONPATH."""
    src = str(pathlib.Path(synthctl.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_demo_study_script_runs(tmp_path):
    # the library walk-through that the README points to
    proc = subprocess.run([sys.executable, str(DEMO_SCRIPT.with_name("run_demo_study.py"))],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _scipy_free_run(script, *argv, absent=()):
    """Run script in a fresh interpreter that then must hold no scipy module,
    no numpy.random (no command draws a random number) and no module named
    in absent."""
    script = textwrap.dedent(script) + textwrap.dedent(f"""
        loaded = sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m.startswith("numpy.random")
                        or m in {tuple(absent)!r})
        assert not loaded, loaded
    """)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_ingest_and_inverse_variance_fit_never_import_scipy(tmp_path):
    # scipy costs about half a second per launch, and no command needs it
    files = _demo_files(tmp_path / "demo")
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        out, files = sys.argv[1], sys.argv[2:]
        assert main(["ingest", *files[:2], *files[4:], "--out", out + "/ingest"]) == 0
        assert main(["fit", *files, "--treated", "10001", "--v-mode", "inverse-variance",
                     "--out", out + "/fit"]) == 0
    """, str(tmp_path / "out"), *files)
    assert (tmp_path / "out" / "fit" / "result.json").exists()


# the modules that only the study commands (fit, placebo, sweep) run
FITTING_MODULES = ("synthctl.engine", "synthctl.weights", "synthctl.inference",
                   "concurrent.futures")


def test_ingest_loads_only_the_modules_it_runs(tmp_path):
    files = _demo_files(tmp_path / "demo")
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        out, files = sys.argv[1], sys.argv[2:]
        assert main(["ingest", *files, "--out", out]) == 0
    """, str(tmp_path / "out"), *files[:2], *files[4:],
        absent=FITTING_MODULES + ("synthctl.logistic", "synthctl.donors"))
    assert (tmp_path / "out" / "panel_clean.csv").exists()


def test_select_predictors_loads_no_fitting_module(tmp_path):
    predictors, blocks = _selection_files(tmp_path)
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        assert main(["select-predictors", *sys.argv[1:]]) == 0
    """, "--predictors", predictors, "--blocks", blocks, "--out", str(tmp_path / "out"),
        absent=FITTING_MODULES + ("synthctl.logistic",))
    assert (tmp_path / "out" / "selected.csv").exists()


@pytest.mark.parametrize("command", [[]] + [[name] for name in cli.COMMANDS],
                         ids=["synthctl"] + list(cli.COMMANDS))
def test_help_loads_no_module_a_command_runs(command):
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        try:
            main(sys.argv[1:])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        else:
            raise AssertionError("--help returned")
    """, *command, "--help",
        absent=FITTING_MODULES + ("synthctl.logistic", "synthctl.donors"))


def test_study_commands_never_import_scipy(tmp_path):
    # the importance search runs its own Nelder-Mead
    demo = _demo_files(tmp_path / "demo")
    small, _ = _study_files(tmp_path)
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        out, small, demo = sys.argv[1], sys.argv[2], sys.argv[3:]
        study = [*demo, "--treated", "10001"]
        assert main(["fit", *study, "--out", out + "/fit"]) == 0
        assert main(["placebo", *study, "--jobs", "2", "--out", out + "/placebo"]) == 0
        assert main(["sweep", "--outcomes", small, "--treated", "10001",
                     "--t0", "2021-03-26", "--t-fit", "10", "--jobs", "2",
                     "--out", out + "/sweep"]) == 0
    """, str(tmp_path / "out"), small, *demo)
    for name in ("fit/result.json", "placebo/placebo.json", "sweep/sweep.csv"):
        assert (tmp_path / "out" / name).exists()


def test_logistic_never_imports_scipy(tmp_path):
    # growth curves are fit by the package's own Levenberg-Marquardt, and
    # neither the placebo runs nor the donor pools load for them
    outcomes, themes = _logistic_files(tmp_path, ["40000", "40002", "40004", "40006", "40008"])
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        out, outcomes, themes = sys.argv[1:]
        assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                     "--bins", "2", "--out", out]) == 0
    """, str(tmp_path / "out"), outcomes, themes,
        absent=FITTING_MODULES + ("synthctl.donors",))
    assert len((tmp_path / "out" / "fits.csv").read_text().splitlines()) == 6


def test_entrypoint_freezes_the_heap_once_before_main(monkeypatch):
    freezes, seen = [], []
    freeze = gc.freeze

    def counted_freeze():
        freezes.append(1)
        freeze()

    def recording_main():
        seen.append((len(freezes), gc.get_freeze_count()))
        return 3

    monkeypatch.setattr(gc, "freeze", counted_freeze)
    monkeypatch.setattr(cli, "main", recording_main)
    try:
        with pytest.raises(SystemExit) as info:
            cli.entrypoint()
    finally:
        gc.unfreeze()
    assert info.value.code == 3
    assert len(seen) == 1 and seen[0][0] == 1 and seen[0][1] > 0
    assert len(freezes) == 1


def test_module_launch_keeps_main_exit_codes_and_streams(tmp_path, capsys, monkeypatch):
    # `python -m synthctl.cli` runs entrypoint: the same code, stdout and
    # stderr as main in this process, for a fit, a --help, a configuration
    # error (2) and a computation error (3)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    outcomes, predictors = _study_files(tmp_path)
    infinite = tmp_path / "inf.csv"
    infinite.write_text("unit,date,value\n01001,2021-01-01,1e400\n01001,2021-01-02,2\n")
    runs = {
        0: ["fit", "--outcomes", outcomes, "--predictors", predictors, "--treated", "10001",
            "--t0", _dates(40)[25], "--out", str(tmp_path / "out")],
        2: ["fit", "--outcomes", str(tmp_path / "nope.csv"), "--treated", "10001"],
        3: ["ingest", "--outcomes", str(infinite), "--out", str(tmp_path / "ingest")],
    }
    for code, argv in [*runs.items(), (0, ["fit", "--help"])]:
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        expected = capsys.readouterr()
        assert expected.out or expected.err
        proc = subprocess.run([sys.executable, "-m", "synthctl.cli", *argv],
                              env=_src_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, expected.out, expected.err), argv


def test_fit_pool_leaves_out_the_treated_units_state(tmp_path):
    # the metadata marks another unit treated; --treated picks 40001, whose
    # state 40 must still be left out of its donor pool
    rng = np.random.default_rng(2)
    units = ["10001", "20001", "30001", "40001", "40003"]
    outcomes = _long_csv(tmp_path / "o.csv",
                         {u: 30 + rng.normal(size=40).cumsum() for u in units})
    metadata = _wide_csv(tmp_path / "m.csv", ["unit", "treated", "t0"],
                         [["10001", "1", _dates(40)[25]]])
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--metadata", metadata, "--treated", "40001",
                 "--t0", "2021-03-26", "--out", str(out)]) == 0
    assert list(json.loads((out / "result.json").read_text())["w"]) == ["20001", "30001"]


def _die(unit):
    os._exit(1)


def test_placebo_exits_3_when_a_worker_process_dies(tmp_path, capsys, monkeypatch):
    from synthctl import inference

    monkeypatch.setattr(inference, "_fit_ratio_task", _die)
    outcomes, predictors = _study_files(tmp_path, seed=5)
    assert main(["placebo", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], "--jobs", "2",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the placebo fit of unit 10001 was lost: a worker process died")
    assert "Traceback" not in err


def test_uncertified_singular_solve_warns_and_keeps_the_placebo_entries(tmp_path, capsys,
                                                                        monkeypatch):
    from synthctl import weights

    # every KKT solve "fails", so each takes the lstsq fallback, and no
    # weights pass the certificate
    monkeypatch.setattr(weights._Solver, "_linsolve", lambda self, K, rhs: None)
    monkeypatch.setattr(weights._Solver, "certified", lambda self, f, gap: False)
    outcomes, predictors = _study_files(tmp_path, seed=5)
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], "--v-mode", "uniform",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: donor weights for 10001 are not certified optimal "
                          "(Frank-Wolfe gap ") and err.count("\n") == 1
    assert sum(json.loads((out / "result.json").read_text())["w"].values()) == \
        pytest.approx(1.0, abs=1e-8)

    spec = StudySpec(treated="10001", donors=("20000", "20002", "20004", "20006"), T0=25,
                     v_mode="uniform")
    design = build_design(ingest_panel(outcomes), load_predictors(predictors), spec)
    entries = placebo_run(spec, design).entries
    assert len(entries) == 5
    assert all(not e.skipped and e.converged is False and e.fw_gap > 0.0 for e in entries)


@pytest.mark.parametrize("seed", [2, 6])
def test_placebo_keeps_every_donor_whose_probe_solves_were_uncertified(tmp_path, capsys, seed):
    # the importance search of the treated fit (seed 2) and of donor 20004's
    # placebo fit (seed 6) meets a probe whose lstsq fallback is not certified
    outcomes, predictors = _study_files(tmp_path, T=60, seed=seed)
    argv = ["--outcomes", outcomes, "--predictors", predictors,
            "--treated", "10001", "--t0", _dates(60)[40]]
    assert main(["fit", *argv, "--out", str(tmp_path / "fit")]) == 0
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert main(["placebo", *argv, "--jobs", jobs, "--out", str(out)]) == 0
        assert (out / "pvalues.csv").read_text().splitlines()[1].endswith(",5,0")
        written.append([(out / name).read_bytes() for name in ("placebo.json", "pvalues.csv")])
    assert "skipped" not in capsys.readouterr().err
    assert written[0] == written[1]


def test_fit_on_non_numeric_unit_codes_takes_every_other_unit_as_donor(tmp_path):
    # a code that is not a 5-digit FIPS code is its own state
    rng = np.random.default_rng(3)
    series = {code: 30 + rng.normal(0, 1, 40).cumsum() for code in ("CA", "NY", "TX", "WA")}
    outcomes = _long_csv(tmp_path / "o.csv", series)
    out = tmp_path / "out"
    assert main(["fit", "--outcomes", outcomes, "--treated", "NY", "--t0", _dates(40)[25],
                 "--out", str(out)]) == 0
    assert list(json.loads((out / "result.json").read_text())["w"]) == ["CA", "TX", "WA"]


def test_predictor_table_not_led_by_unit_exits_3_naming_the_file(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    predictors = _wide_csv(tmp_path / "lead.csv", ["a", "unit"],
                           [["1.0", u] for u in ("10001", "20000", "20002", "20004", "20006")])
    assert main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25],
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {predictors} must start with a 'unit' column")
