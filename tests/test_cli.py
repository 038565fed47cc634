"""End-to-end command-line tests: files in, files out, exit codes."""

import datetime as dt
import dataclasses
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import synthctl
from synthctl import (Regularization, StudySpec, ingest_panel, load_predictors, logistic_predict,
                      placebo_run)
from synthctl import cli
from synthctl.cli import main

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


def test_fit_writes_result_and_curve(tmp_path):
    outcomes, predictors = _study_files(tmp_path)
    out = tmp_path / "out"
    code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25],
                 "--out", str(out), "--seed", "7"])
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


def test_fit_seed_repeat_is_byte_identical(tmp_path):
    outcomes, predictors = _study_files(tmp_path, seed=3)
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                     "--treated", "10001", "--t0", _dates(40)[25],
                     "--out", str(out), "--seed", "7"])
        assert code == 0
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_supplies_options_and_flags_win(tmp_path):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    cfg_out = tmp_path / "from_config"
    flag_out = tmp_path / "from_flag"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"treated=10001\nt0={_dates(40)[25]}\nout={cfg_out}\nseed=7\n"
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
])
def test_flags_a_command_never_reads_exit_2(tmp_path, capsys, command, flag):
    outcomes, _ = _study_files(tmp_path)
    predictors, blocks = _selection_files(tmp_path)
    value = {"--seed": "1", "--predictors": predictors, "--outcomes": outcomes}[flag]
    inputs = (["--outcomes", outcomes] if command == "ingest"
              else ["--predictors", predictors, "--blocks", blocks])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_the_command_lacks_is_ignored(tmp_path):
    # ingest takes no --seed, but a config file shared with fit may set one
    outcomes, _ = _study_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    assert main(["ingest", "--outcomes", outcomes, "--out", str(tmp_path / "plain")]) == 0
    assert main(["ingest", "--outcomes", outcomes, "--config", str(cfg),
                 "--out", str(tmp_path / "cfg")]) == 0
    for name in ("panel_clean.csv", "dropped.csv"):
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_l2_config_key_exits_2(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("l2 = 5\n")
    code = main(["fit", "--outcomes", outcomes, "--treated", "10001",
                 "--t0", _dates(40)[25], "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown option 'l2'\n"


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    outcomes, _ = _study_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("treated=10001\nwhatever=1\n")
    code = main(["fit", "--outcomes", outcomes, "--config", str(cfg)])
    assert code == 2
    assert "whatever" in capsys.readouterr().err


def test_config_boolean_must_read_true_or_false(tmp_path, capsys):
    outcomes, predictors = _study_files(tmp_path, seed=4)
    argv = ["fit", "--outcomes", outcomes, "--predictors", predictors,
            "--treated", "10001", "--t0", _dates(40)[25]]

    def result(name, *extra):
        assert main([*argv, *extra, "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "result.json").read_bytes()

    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_standardize = on\n")
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert f"no_standardize must be true or false, got 'on' in {cfg}" in \
        capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    plain, raw = result("plain"), result("raw", "--no-standardize")
    assert plain != raw
    # the spellings a metadata file's treated column accepts
    for word, expected in (("Yes", raw), ("t", raw), ("FALSE", plain), ("0", plain)):
        cfg.write_text(f"no_standardize = {word}\n")
        assert result(word, "--config", str(cfg)) == expected


def test_config_file_takes_the_options_of_every_subcommand(tmp_path):
    keys = ["outcomes", "predictors", "metadata", "clusters", "adjacency", "blocks",
            "treated", "t0", "t_fit", "l1", "v_mode", "train_placement", "placebo_t0",
            "bins", "jobs", "seed", "out", "no_standardize", "filter"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key.replace('_', '-')} = 1\n" for key in keys))
    entries = cli._read_config(str(cfg), cli.build_parser())
    assert sorted(entries) == sorted(keys)
    assert entries["no_standardize"] is True and entries["jobs"] == "1"
    for key in ("help", "config"):
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(cli.ConfigError, match=f"unknown option '{key}'"):
            cli._read_config(str(cfg), cli.build_parser())


@pytest.mark.parametrize("command, key, value", [
    ("placebo", "jobs", "0"),
    ("fit", "seed", "-1"),
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
    argv = [command, "--outcomes", str(outcomes), "--treated", "10001", "--out", str(out)]
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
              for flag in ("--l1", "--t-fit", "--train-placement", "--v-mode", "--seed")}
    assert {flag: match and match[1] for flag, match in stated.items()} == {
        "--l1": str(Regularization().l1), "--t-fit": str(spec.t_fit),
        "--train-placement": spec.train_placement, "--v-mode": spec.v_mode, "--seed": "42"}
    assert spec.train_placement == "tail" and spec.v_mode == "optimized"


def test_placebo_outputs_and_parallel_determinism(tmp_path):
    outcomes, predictors = _study_files(tmp_path, n_donors=4, seed=5)
    payloads = []
    for jobs, name in (("1", "j1"), ("2", "j2")):
        out = tmp_path / name
        code = main(["placebo", "--outcomes", outcomes, "--predictors", predictors,
                     "--treated", "10001", "--t0", _dates(40)[25],
                     "--out", str(out), "--seed", "11", "--jobs", jobs])
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
    ("fit", "--seed", "-1"),
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


def test_placebo_no_standardize_reaches_every_worker(tmp_path):
    outcomes, predictors = _study_files(tmp_path, n_donors=4, seed=5)
    study = ["placebo", "--outcomes", outcomes, "--predictors", predictors,
             "--treated", "10001", "--t0", _dates(40)[25], "--seed", "11"]
    written = {}
    for name, flags in (("raw1", ["--no-standardize", "--jobs", "1"]),
                        ("raw2", ["--no-standardize", "--jobs", "2"]),
                        ("scaled", ["--jobs", "2"])):
        out = tmp_path / name
        assert main([*study, *flags, "--out", str(out)]) == 0
        written[name] = (out / "placebo.json").read_bytes()
    assert written["raw1"] == written["raw2"]
    assert written["raw1"] != written["scaled"]


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
    treated, donor = placebo_run(spec, ingest_panel(outcomes), load_predictors(predictors),
                                 seed=42).entries
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
    outcomes, predictors = _study_files(tmp_path, T=60, seed=6)
    out = tmp_path / "out"
    code = main(["sweep", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(60)[40],
                 "--t-fit", "10,40,500", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: t_fit=40: need 1 <= t_fit < T0, got t_fit=40 T0=40" in err
    assert "warning: t_fit=500: need 1 <= t_fit < T0, got t_fit=500 T0=40" in err
    assert "t_fit=10" not in err
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
                 "--out", str(out), "--seed", "3"])
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


def test_logistic_with_no_shared_unit_exits_3(tmp_path, capsys):
    outcomes, themes = _logistic_files(tmp_path, ["09999"])
    out = tmp_path / "out"
    assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: no unit appears in every table\n"
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
                     [*fit, "--filter", "cluster", "--clusters"]),
        "cluster label": (["fips", "cluster"], [["10001", "a"], ["20000", ""]],
                          [*fit, "--filter", "cluster", "--clusters"]),
        "adjacency": (["state", "neighbor"], [["10", "20"], ["20", ""]],
                      [*fit, "--filter", "neighbors", "--adjacency"]),
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
                     [*fit, "--filter", "cluster", "--clusters"]),
        "adjacency": (["state", "neighbor"], [["10", "20"]],
                      [*fit, "--filter", "neighbors", "--adjacency"]),
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


def test_fit_cluster_filter_falls_back_when_empty(tmp_path, capsys):
    outcomes, predictors = _study_files(tmp_path, seed=8)
    clusters = _wide_csv(tmp_path / "c.csv", ["fips", "cluster"],
                         [["10001", "Solo"], ["20000", "Other"],
                          ["20002", "Other"], ["20004", "Other"],
                          ["20006", "Other"]])
    out = tmp_path / "out"
    code = main(["fit", "--outcomes", outcomes, "--treated", "10001",
                 "--t0", _dates(40)[25], "--filter", "cluster",
                 "--clusters", clusters, "--out", str(out)])
    assert code == 0
    assert "cluster filter left no donors" in capsys.readouterr().err


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


def test_quick_start_fit_runs_clean(tmp_path, capsys):
    # the fit command that make_demo_data.py prints, as the README's quick start runs it
    printed = subprocess.run([sys.executable, str(DEMO_SCRIPT), "--out", str(tmp_path)],
                             check=True, capture_output=True, text=True).stdout
    command = next(line for line in printed.splitlines()
                   if line.strip().startswith("synthctl fit "))
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "results" / "result.json").exists()


def _scipy_free_run(script, *argv):
    """Run script in a fresh interpreter that then must hold no scipy module."""
    script = textwrap.dedent(script) + textwrap.dedent("""
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    src = str(pathlib.Path(synthctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True)
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
    # growth curves are fit by the package's own Levenberg-Marquardt
    outcomes, themes = _logistic_files(tmp_path, ["40000", "40002", "40004", "40006", "40008"])
    _scipy_free_run("""
        import sys
        from synthctl.cli import main
        out, outcomes, themes = sys.argv[1:]
        assert main(["logistic", "--outcomes", outcomes, "--predictors", themes,
                     "--bins", "2", "--out", out]) == 0
    """, str(tmp_path / "out"), outcomes, themes)
    assert len((tmp_path / "out" / "fits.csv").read_text().splitlines()) == 6


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


def test_uncertified_singular_solve_fails_the_fit_and_skips_the_placebo(tmp_path, capsys,
                                                                         monkeypatch):
    from synthctl import weights

    # every KKT solve "fails", so each takes the lstsq fallback, and no
    # weights pass the certificate
    monkeypatch.setattr(weights._Solver, "_linsolve", lambda self, K, rhs: None)
    monkeypatch.setattr(weights._Solver, "certified", lambda self, f, gap: False)
    outcomes, predictors = _study_files(tmp_path, seed=5)
    assert main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                 "--treated", "10001", "--t0", _dates(40)[25], "--v-mode", "uniform",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: donor weight KKT system is singular") and "Traceback" not in err

    spec = StudySpec(treated="10001", donors=("20000", "20002", "20004", "20006"), T0=25,
                     v_mode="uniform")
    entries = placebo_run(spec, ingest_panel(outcomes), load_predictors(predictors)).entries
    assert all(e.skipped and e.reason.startswith("donor weight KKT system is singular")
               for e in entries)
