"""Acceptance criteria, one test per criterion.

Each test prints one unbuffered PASS/FAIL line (bypassing capture) so the
full-suite log always carries a per-criterion verdict, then asserts.
"""

import datetime as dt
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from helpers import combo_study, grid_simplex_3, make_panel, make_predictors, unit_codes
from synthctl import (
    PlaceboEnsemble,
    PlaceboEntry,
    Regularization,
    StudySpec,
    abs_correlation,
    build_design,
    clean_panel,
    enforce_monotone,
    fit_logistic,
    fit_synth,
    logistic_predict,
    p_value,
    placebo_run,
    repair_series,
    select_predictors_naive,
    solve_w,
)
from synthctl.cli import main


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. weight recovery
# ---------------------------------------------------------------------------

def test_criterion_01_weight_recovery(capsys):
    rng = np.random.default_rng(7)
    panel, predictors, units, w_true, T0 = combo_study(rng, n_distractors=10, k=14)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="optimized", reg=Regularization(0.0))
    start = time.perf_counter()
    result = fit_synth(spec, build_design(panel, predictors, spec))
    elapsed = time.perf_counter() - start
    linf = float(np.max(np.abs(result.w_star - w_true)))
    pre_rmse = float(np.sqrt(np.mean(result.gap[:T0] ** 2)))
    ok = linf < 1e-3 and pre_rmse < 1e-6 and elapsed < 5.0
    _report(capsys, "criterion 1 weight recovery", ok,
            f"Linf={linf:.2e} preRMSE={pre_rmse:.2e} t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence(capsys):
    grid = grid_simplex_3(1e-3)
    norms2 = np.linalg.norm(grid, axis=1)
    start = time.perf_counter()
    worst = -np.inf
    for case in range(50):
        rng = np.random.default_rng(20_000 + case)
        X1 = rng.normal(size=2) * rng.uniform(0.5, 3.0)
        X0 = rng.normal(size=(2, 3)) * rng.uniform(0.5, 3.0)
        v = rng.uniform(0.2, 2.0, size=2)
        if case % 2 == 0:
            reg = Regularization(0.0)
        else:
            reg = Regularization(float(rng.uniform(0, 1)))
            rng.uniform(0, 1)  # drawn for the former 1-norm penalty; keeps the cases as they were
        resid = X1[:, None] - X0 @ grid.T
        disc = np.sqrt(v @ (resid ** 2))
        oracle = float((disc + reg.l1 * norms2).min())
        got = solve_w(X1, X0, v, reg).objective
        worst = max(worst, got - oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(capsys, "criterion 2 oracle equivalence", ok,
            f"max(solver-oracle)={worst:.2e} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. simplex feasibility fuzz
# ---------------------------------------------------------------------------

def test_criterion_03_feasibility_fuzz(capsys):
    worst_sum = 0.0
    worst_neg = 0.0
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        J = int(rng.integers(1, 9))
        X1 = rng.normal(size=k) * rng.uniform(0.01, 100)
        X0 = rng.normal(size=(k, J)) * rng.uniform(0.01, 100)
        v = rng.uniform(0.01, 5.0, size=k)
        reg = Regularization(float(rng.uniform(0, 3)))
        rng.uniform(0, 3)  # drawn for the former 1-norm penalty; keeps the cases as they were
        rng.integers(2 ** 31)  # drawn for the former restart seed; keeps the cases as they were
        w = solve_w(X1, X0, v, reg).w
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        worst_neg = min(worst_neg, float(w.min()))
    ok = worst_sum <= 1e-8 and worst_neg >= 0.0
    _report(capsys, "criterion 3 feasibility fuzz", ok,
            f"1000 calls, |sum-1|<={worst_sum:.1e} min(w)={worst_neg:.1e}")


# ---------------------------------------------------------------------------
# 4. p-value exactness
# ---------------------------------------------------------------------------

def _rank_ensemble(rs):
    units = unit_codes(len(rs))
    entries = tuple(PlaceboEntry(unit=u, r=float(r), R_pre=1.0, R_post=float(r),
                                 skipped=False)
                    for u, r in zip(units, rs))
    return PlaceboEnsemble(treated=units[0], entries=entries, treated_index=0)


def test_criterion_04_p_value_exactness(capsys):
    checked = 0
    for n in range(2, 9):
        ranks = [float(i + 1) for i in range(n)]
        for perm in itertools.permutations(ranks):
            expected = sum(1 for r in perm[1:] if r > perm[0]) / n
            if p_value(_rank_ensemble(perm)) != pytest.approx(expected, abs=1e-15):
                _report(capsys, "criterion 4 p-value exactness", False,
                        f"mismatch at n={n} perm={perm}")
            checked += 1
    _report(capsys, "criterion 4 p-value exactness", True,
            f"{checked} permutations enumerated, all exact")


# ---------------------------------------------------------------------------
# 5. null uniformity
# ---------------------------------------------------------------------------

def _null_sim(sim: int) -> float:
    base = 5000
    rng = np.random.default_rng(base + sim)
    n, T, T0 = 10, 80, 50
    values = 30 + rng.normal(0, 1, size=(n, T)).cumsum(axis=1)
    panel = make_panel(values)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=T0,
                     t_fit=10, v_mode="optimized", reg=Regularization())
    ensemble = placebo_run(spec, build_design(panel, None, spec), jobs=1)
    return p_value(ensemble)


def test_criterion_05_null_uniformity(capsys):
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=8) as pool:
        ps = np.array(list(pool.map(_null_sim, range(200), chunksize=5)))
    elapsed = time.perf_counter() - start
    sorted_p = np.sort(ps)
    n = sorted_p.size
    ks = float(max(np.max(np.abs(np.arange(1, n + 1) / n - sorted_p)),
                   np.max(np.abs(sorted_p - np.arange(0, n) / n))))
    ok = ks < 0.15 and elapsed < 300.0
    _report(capsys, "criterion 5 null uniformity", ok,
            f"KS={ks:.3f} over 200 sims, t={elapsed:.0f}s at parallelism 8")


# ---------------------------------------------------------------------------
# 6. effect detection
# ---------------------------------------------------------------------------

def test_criterion_06_effect_detection(capsys):
    rng = np.random.default_rng(60)
    J, T, T0 = 9, 60, 40
    donors_y = 30 + rng.normal(0, 1, size=(J, T)).cumsum(axis=1)
    treated_y = donors_y[0].copy()
    treated_y[T0:] += 5.0  # the injected effect
    units = unit_codes(J + 1)
    panel = make_panel(np.vstack([treated_y, donors_y]), units)
    snapshots = panel.values[:, [5, 15, 25, 35]].T  # pre-period outcome rows
    predictors = make_predictors(snapshots, units)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="inverse-variance", reg=Regularization(0.0))
    design = build_design(panel, predictors, spec)
    result = fit_synth(spec, design)
    mean_gap = float(result.gap[T0:].mean())
    ensemble = placebo_run(spec, design)
    p = p_value(ensemble)
    ok = 4.5 <= mean_gap <= 5.5 and p == 0.0
    _report(capsys, "criterion 6 effect detection", ok,
            f"mean post gap={mean_gap:.3f} p={p} with 9 placebos")


# ---------------------------------------------------------------------------
# 7. logistic round-trip
# ---------------------------------------------------------------------------

def test_criterion_07_logistic_round_trip(capsys):
    t = np.arange(365, dtype=float)
    worst = 0.0
    for K in (30.0, 60.0, 90.0):
        for nu in (0.01, 0.05, 0.1):
            for p0 in (0.5, 2.0):
                fit = fit_logistic(logistic_predict(K, nu, p0, t))
                rel = max(abs(fit.K - K) / K, abs(fit.nu - nu) / nu,
                          abs(fit.p0 - p0) / p0)
                worst = max(worst, rel)
    clean = logistic_predict(70.0, 0.05, 1.0, t)
    hits = 0
    for s in range(50):
        rng = np.random.default_rng(9000 + s)
        noisy = np.maximum(clean + rng.normal(0, 0.1, size=t.size), 1e-6)
        fit = fit_logistic(noisy)
        hits += abs(fit.K - 70.0) / 70.0 <= 0.05
    ok = worst <= 0.01 and hits >= 45
    _report(capsys, "criterion 7 logistic round-trip", ok,
            f"noiseless worst rel={worst:.2e}, noisy K hits={hits}/50")


# ---------------------------------------------------------------------------
# 8. cleaning invariants
# ---------------------------------------------------------------------------

def test_criterion_08_cleaning_invariants(capsys):
    # exact linear restore
    x = 3.0 * np.arange(40, dtype=float) + 2.0
    holed = x.copy()
    holed[[3, 4, 17, 30, 31, 32]] = np.nan
    restored = repair_series(holed)
    linear_ok = bool(np.array_equal(restored, x))

    # monotone fuzz
    rng = np.random.default_rng(88)
    monotone_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        series = rng.normal(0, 10, size=n)
        series[rng.random(n) < 0.2] = np.nan
        out = enforce_monotone(series)
        finite = out[np.isfinite(out)]
        if finite.size > 1 and not (np.diff(finite) >= 0).all():
            monotone_ok = False
            break

    # threshold boundary: 20 cells after the first positive
    base = np.linspace(1, 20, 21)
    at_limit = base.copy()
    at_limit[[4, 9]] = np.nan          # 2/20 = 0.10 exactly
    over_limit = base.copy()
    over_limit[[4, 9, 14]] = np.nan    # 3/20 = 0.15
    boundary = make_panel(np.vstack([at_limit, over_limit]))
    cleaned, report = clean_panel(boundary)
    boundary_ok = (cleaned.units == boundary.units[:1]
                   and report == [(boundary.units[1], "bad fraction 0.1500 exceeds 0.1000")])

    ok = linear_ok and monotone_ok and boundary_ok
    _report(capsys, "criterion 8 cleaning invariants", ok,
            f"linear={linear_ok} monotone_fuzz={monotone_ok} boundary={boundary_ok}")


# ---------------------------------------------------------------------------
# 9. predictor selection
# ---------------------------------------------------------------------------

def test_criterion_09_predictor_selection(capsys):
    corr = np.array([
        [1.0, 0.9, 0.2],
        [0.9, 1.0, 0.3],
        [0.2, 0.3, 1.0],
    ])
    hand = select_predictors_naive(corr, ["a", "b", "c"], {"demo": ["a", "b", "c"]})
    hand_ok = hand.selected == ("b", "c")

    names = [f"p{i}" for i in range(12)]
    blocks = {f"block{b}": names[2 * b: 2 * b + 2] for b in range(6)}
    wide = select_predictors_naive(np.eye(12), names, blocks)
    count_ok = len(wide.selected) == 12

    ok = hand_ok and count_ok
    _report(capsys, "criterion 9 predictor selection", ok,
            f"hand fixture -> {hand.selected}, six blocks -> {len(wide.selected)}")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _cli_study(tmp_path):
    rng = np.random.default_rng(10)
    T = 40
    start = dt.date(2021, 3, 1)
    days = [(start + dt.timedelta(days=i)).isoformat() for i in range(T)]
    series = {f"{21000 + 2 * j:05d}": 30 + rng.normal(0, 1, T).cumsum()
              for j in range(6)}
    treated = 0.4 * series["21000"] + 0.6 * series["21002"]
    series = {"10001": treated, **series}
    lines = ["unit,date,value"]
    for unit, values in series.items():
        lines.extend(f"{unit},{d},{float(v)!r}" for d, v in zip(days, values))
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("\n".join(lines) + "\n")
    units = list(series)
    X = rng.normal(size=(len(units), 4))
    plines = ["unit,a,b,c,d"]
    plines.extend(f"{u}," + ",".join(repr(float(x)) for x in X[i])
                  for i, u in enumerate(units))
    predictors = tmp_path / "predictors.csv"
    predictors.write_text("\n".join(plines) + "\n")
    return str(outcomes), str(predictors), days[28]


def test_criterion_10_cli_determinism(tmp_path, capsys):
    outcomes, predictors, t0 = _cli_study(tmp_path)
    fit_payloads = []
    for run in ("f1", "f2"):
        out = tmp_path / run
        code = main(["fit", "--outcomes", outcomes, "--predictors", predictors,
                     "--treated", "10001", "--t0", t0, "--out", str(out)])
        assert code == 0
        fit_payloads.append((out / "result.json").read_bytes()
                            + (out / "curve.csv").read_bytes())
    placebo_payloads = []
    for run, jobs in (("p1", "1"), ("p2", "1"), ("p8", "8")):
        out = tmp_path / run
        code = main(["placebo", "--outcomes", outcomes, "--predictors", predictors,
                     "--treated", "10001", "--t0", t0,
                     "--jobs", jobs, "--out", str(out)])
        assert code == 0
        placebo_payloads.append((out / "placebo.json").read_bytes()
                                + (out / "pvalues.csv").read_bytes())
    fit_ok = fit_payloads[0] == fit_payloads[1]
    rerun_ok = placebo_payloads[0] == placebo_payloads[1]
    jobs_ok = placebo_payloads[0] == placebo_payloads[2]
    ok = fit_ok and rerun_ok and jobs_ok
    _report(capsys, "criterion 10 CLI determinism", ok,
            f"fit repeat={fit_ok} placebo repeat={rerun_ok} jobs 1 vs 8={jobs_ok}")


# ---------------------------------------------------------------------------
# 11. performance floor
# ---------------------------------------------------------------------------

def test_criterion_11_performance_floor(capsys):
    rng = np.random.default_rng(11)
    J, T, T0, k = 40, 450, 300, 30
    values = 30 + rng.normal(0, 1, size=(J + 1, T)).cumsum(axis=1)
    panel = make_panel(values)
    predictors = make_predictors(rng.normal(size=(k, J + 1)), panel.units)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=T0,
                     t_fit=10, v_mode="optimized", reg=Regularization())

    start = time.perf_counter()
    fit_synth(spec, build_design(panel, predictors, spec))
    fit_seconds = time.perf_counter() - start

    start = time.perf_counter()
    ensemble = placebo_run(spec, build_design(panel, predictors, spec), jobs=8)
    ensemble_seconds = time.perf_counter() - start
    n_fits = len(ensemble.entries)

    per_fit = ensemble_seconds / n_fits
    extrapolated_hours = per_fit * 2000 / 3600.0
    ok = fit_seconds < 10.0 and ensemble_seconds < 120.0 and extrapolated_hours < 4.0
    _report(capsys, "criterion 11 performance floor", ok,
            f"fit={fit_seconds:.2f}s ensemble({n_fits} fits, jobs=8)="
            f"{ensemble_seconds:.1f}s -> 2000 units ~ {extrapolated_hours:.2f}h")
