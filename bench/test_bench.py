"""Tests of the benchmark itself: the checks reject corrupted outputs, placebo
output does not depend on --jobs, traced counts repeat, and BENCHMARK.json
lists what run.py reports.

Run from the root of a source checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402


def program(argv: list[str]) -> None:
    with open(os.devnull, "w") as devnull:
        result = run.launch(argv, devnull)
    assert result.returncode == 0, argv


def rejects(check, match: str) -> None:
    with pytest.raises(CheckFailed, match=match):
        check()


def copy_out(src: str, dst) -> str:
    dst = str(dst)
    shutil.copytree(src, dst)
    return dst


def read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_json(path: str, change) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# study-placebo
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def study(tmp_path_factory):
    base = tmp_path_factory.mktemp("study")
    truth = gen.gen_study(str(base / "in"), 3, n_donors=5, n_predictors=6,
                          days=120, t0_index=80)
    outs = {}
    for jobs in (1, 2):
        outs[jobs] = str(base / f"out{jobs}")
        program(run._study_commands(str(base / "in"), outs[jobs], truth, jobs)[0])
    return truth, outs


def test_study_output_is_the_same_for_any_job_count(study):
    _, outs = study
    assert run.output_digest(outs[1]) == run.output_digest(outs[2])
    assert len(run.output_digest(outs[1])) == 2


def test_study_checks_reject_corrupted_outputs(study, tmp_path):
    truth, outs = study
    checks.check_study(truth, outs[1])
    n = 0

    def corrupt(change_json=None, change_csv=None):
        nonlocal n
        n += 1
        out = copy_out(outs[1], tmp_path / f"c{n}")
        if change_json:
            edit_json(os.path.join(out, "placebo.json"), change_json)
        if change_csv:
            path = os.path.join(out, "pvalues.csv")
            rows = read_rows(path)
            change_csv(rows)
            write_rows(path, rows)
        return lambda: checks.check_study(truth, out)

    def donor(doc):
        return next(e for e in doc["entries"] if e["unit"] != truth.treated)

    rejects(corrupt(lambda d: d["entries"].pop()), "entries")
    rejects(corrupt(lambda d: donor(d).update(skipped=True)), "skipped")
    rejects(corrupt(lambda d: donor(d).update(r=donor(d)["r"] * 1.001)), "R_post/R_pre")
    rejects(corrupt(lambda d: donor(d).update(R_pre=-1.0)), "R_pre")
    rejects(corrupt(lambda d: d.update(p_value=0.5)), "p_value")
    rejects(corrupt(change_csv=lambda rows: rows[1].__setitem__(1, "0.5")), "pvalues.csv")

    def outrank(doc):
        # a placebo that beats the treated ratio, with p-values to match
        top = max(e["r"] for e in doc["entries"])
        e = donor(doc)
        e["R_post"] = 2.0 * top * e["R_pre"]
        e["r"] = e["R_post"] / e["R_pre"]
        doc["p_value"] = 1 / len(doc["entries"])
    rejects(corrupt(outrank, lambda rows: rows[1].__setitem__(
        1, repr(1 / (len(truth.donors) + 1)))), "rank first")


# ---------------------------------------------------------------------------
# county-panel
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def county(tmp_path_factory):
    base = tmp_path_factory.mktemp("county")
    truth = gen.gen_county(str(base / "in"), 3, n_units=150, days=160, t0_index=120)
    out = str(base / "out")
    for argv in run._county_commands(str(base / "in"), out, truth, 2):
        program(argv)
    return truth, out


def test_county_checks_reject_corrupted_outputs(county, tmp_path):
    truth, good = county
    checks.check_county(truth, f"{good}/ingest", f"{good}/fit")
    n = 0

    def corrupt(change):
        nonlocal n
        n += 1
        out = copy_out(good, tmp_path / f"c{n}")
        change(out)
        return lambda: checks.check_county(truth, f"{out}/ingest", f"{out}/fit")

    def edit_csv(path, change):
        rows = read_rows(path)
        change(rows)
        write_rows(path, rows)

    rejects(corrupt(lambda o: edit_csv(f"{o}/ingest/dropped.csv", lambda r: r.pop())),
            "dropped.csv")

    def alter_cell(rows):
        rows[500][2] = repr(float(rows[500][2]) + 1e-6)
    rejects(corrupt(lambda o: edit_csv(f"{o}/ingest/panel_clean.csv", alter_cell)),
            "panel_clean.csv value")

    def move_weight(doc):
        top = max(doc["w"], key=doc["w"].get)
        other = next(u for u in doc["w"] if u != top)
        doc["w"][other] += 0.5 * doc["w"][top]
        doc["w"][top] *= 0.5
    rejects(corrupt(lambda o: edit_json(f"{o}/fit/result.json", move_weight)),
            "curve.csv synthetic")
    rejects(corrupt(lambda o: edit_json(
        f"{o}/fit/result.json", lambda d: d["w"].update(
            {next(iter(d["w"])): -1e-3}))), "simplex")
    rejects(corrupt(lambda o: edit_json(
        f"{o}/fit/result.json", lambda d: d["v"].update(income=d["v"]["income"] * 1.01))),
        "result.json v")
    rejects(corrupt(lambda o: edit_json(
        f"{o}/fit/result.json", lambda d: d["mspe"].update(pre=d["mspe"]["pre"] * 1.01))),
        "mspe.pre")

    def alter_gap(rows):
        rows[-1][3] = repr(float(rows[-1][3]) + 1e-3)
    rejects(corrupt(lambda o: edit_csv(f"{o}/fit/curve.csv", alter_gap)), "curve.csv gap")

    def worse_weights(out):
        # weights on the simplex, and a curve and MSPEs that agree with them,
        # but away from the optimum: only the Frank-Wolfe gap can tell
        path = f"{out}/fit/result.json"
        with open(path) as fh:
            doc = json.load(fh)
        donors = list(doc["w"])
        w = 0.5 * np.array([doc["w"][u] for u in donors]) + 0.5 / len(donors)
        doc["w"] = dict(zip(donors, w.tolist()))
        clean = checks.check_ingest(truth, f"{out}/ingest")
        kept = [u for u in truth.units if u not in truth.dropped]
        rows_of = {u: i for i, u in enumerate(kept)}
        y1 = clean[rows_of[truth.treated]]
        synthetic = w @ clean[[rows_of[u] for u in donors]]
        gap = y1 - synthetic
        T0 = truth.T0
        doc["mspe"] = {"train": float(gap[T0 - 10:T0] @ gap[T0 - 10:T0]),
                       "validation": float(gap[:T0 - 10] @ gap[:T0 - 10]),
                       "pre": float(gap[:T0] @ gap[:T0])}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        write_rows(f"{out}/fit/curve.csv", [["date", "actual", "synthetic", "gap"]] + [
            [d, repr(float(a)), repr(float(s)), repr(float(g))]
            for d, a, s, g in zip(truth.dates, y1, synthetic, gap)])
    rejects(corrupt(worse_weights), "Frank-Wolfe")


# ---------------------------------------------------------------------------
# growth-curves
# ---------------------------------------------------------------------------

BINS = 2


@pytest.fixture(scope="module")
def growth(tmp_path_factory):
    base = tmp_path_factory.mktemp("growth")
    truth = gen.gen_growth(str(base / "in"), 3, n_units=5, days=90)
    out = str(base / "out")
    argv = run._growth_commands(str(base / "in"), out, truth, 1)[0]
    argv[argv.index("--bins") + 1] = str(BINS)
    program(argv)
    return truth, str(base / "in"), out


def test_growth_checks_reject_corrupted_outputs(growth, tmp_path):
    truth, _, good = growth
    checks.check_growth(truth, good, BINS)
    n = 0
    t = np.arange(truth.y.shape[1], dtype=float)

    def corrupt(path, change):
        nonlocal n
        n += 1
        out = copy_out(good, tmp_path / f"c{n}")
        rows = read_rows(os.path.join(out, path))
        change(rows)
        write_rows(os.path.join(out, path), rows)
        return lambda: checks.check_growth(truth, out, BINS)

    def refit(rows, K=None, nu_scale=1.0):
        # replace unit 0's parameters and give it the SSE that matches them
        head = rows[0]
        row = rows[1]
        K = float(row[head.index("K")]) if K is None else K
        nu = float(row[head.index("nu")]) * nu_scale
        p0 = float(row[head.index("p0")])
        resid = truth.y[0] - gen.logistic_curve(K, nu, p0, t)
        row[head.index("K")], row[head.index("nu")] = repr(K), repr(nu)
        row[head.index("sse")] = repr(float(resid @ resid))

    def nudge_k(rows):
        rows[1][1] = repr(float(rows[1][1]) * 1.001)
    rejects(corrupt("fits.csv", nudge_k), "sse of")
    rejects(corrupt("fits.csv", lambda rows: refit(rows, K=float(truth.y[0].max()) - 1.0)),
            "outside")
    rejects(corrupt("fits.csv", lambda rows: refit(rows, nu_scale=1.2)), "at the truth")

    def swap_quadrant(rows):
        rows[1][5] = "LoK_LoV" if rows[1][5] != "LoK_LoV" else "HiK_HiV"
    rejects(corrupt("fits.csv", swap_quadrant), "quadrants")
    rejects(corrupt("fits.csv", lambda rows: rows.pop()), "unit list")

    def nudge(col):
        def change(rows):
            rows[1][col] = repr(float(rows[1][col]) * 1.01 + 1e-6)
        return change
    rejects(corrupt("ccvi_regression.csv", nudge(2)), "ccvi_regression.csv")
    rejects(corrupt("deciles.csv", nudge(3)), "deciles.csv")
    rejects(corrupt("fit_failures.csv", lambda rows: rows.append(["30001", "x"])),
            "fit_failures.csv")


# ---------------------------------------------------------------------------
# tracing, BENCHMARK.json and the run without sources
# ---------------------------------------------------------------------------

def test_traced_counts_repeat(growth, tmp_path):
    sys.path.insert(0, run.SRC)
    from synthctl import cli

    from tracing import Tracer
    truth, inp, _ = growth
    argv = run._growth_commands(inp, str(tmp_path / "t"), truth, 1)[0]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert tracer.main(cli, argv) == 0
        finally:
            tracer.uninstall()
        counts.append(tracer.count_values())
        assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
        assert all(0 <= parent < i for i, (_, _, _, parent) in
                   enumerate(tracer.spans) if i > 0)
    assert counts[0] == counts[1]
    assert counts[0]["logistic.fit_logistic.calls"] == len(truth.units)
    assert counts[0]["logistic.nm_runs"] == 11 * len(truth.units)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb"}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "growth-curves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
