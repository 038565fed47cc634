"""Placebo-permutation inference tests."""

import concurrent.futures
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import count_calls, make_predictors, random_walk_panel, unit_codes
from synthctl import (
    PlaceboEnsemble,
    PlaceboEntry,
    Regularization,
    StudySpec,
    build_design,
    fit_synth,
    p_value,
    placebo_run,
    training_sweep,
)
from synthctl import engine, inference
from synthctl.errors import InvalidSplit


# ---------------------------------------------------------------------------
# p-value formula
# ---------------------------------------------------------------------------

def _ensemble(rs, treated_index=0, skipped=None):
    skipped = skipped or set()
    units = unit_codes(len(rs))
    entries = tuple(
        PlaceboEntry(unit=u, r=float("nan") if i in skipped else r,
                     R_pre=1.0, R_post=r if i not in skipped else float("nan"),
                     skipped=i in skipped,
                     reason="failed" if i in skipped else None)
        for i, (u, r) in enumerate(zip(units, rs))
    )
    return PlaceboEnsemble(treated=units[treated_index], entries=entries,
                           treated_index=treated_index)


def test_p_value_hand_fixture():
    # ratios 1.0 and 3.0 exceed the treated 2.0; denominator counts all four
    ens = _ensemble([2.0, 1.0, 3.0, 2.5])
    assert p_value(ens) == pytest.approx(2.0 / 4.0)


def test_p_value_most_extreme_treated_is_zero():
    ens = _ensemble([9.0, 1.0, 2.0, 3.0])
    assert p_value(ens) == 0.0


def test_p_value_ties_do_not_count():
    ens = _ensemble([2.0, 2.0, 2.0])
    assert p_value(ens) == 0.0


def test_p_value_skipped_units_drop_from_both_sides():
    ens = _ensemble([2.0, 5.0, 1.0, 4.0], skipped={3})
    assert p_value(ens) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("rs, skipped", [([2.0], set()), ([2.0, 1.0], {1})])
def test_p_value_without_a_fitted_placebo_raises(rs, skipped):
    ens = _ensemble(rs, skipped=skipped)
    with pytest.raises(ValueError, match=rf"no placebo of treated unit 10001 has a fit "
                                         rf"\({len(skipped)} skipped\)"):
        p_value(ens)


def test_p_value_skipped_treated_raises():
    ens = _ensemble([2.0, 1.0], skipped={0})
    with pytest.raises(ValueError, match=r"treated unit 10001 has no fit \(failed\)"):
        p_value(ens)


@pytest.mark.parametrize("n", range(2, 9))
def test_p_value_matches_exhaustive_enumeration(n):
    # for every permutation of distinct ranks, the strict-count formula
    ranks = [float(i + 1) for i in range(n)]
    for perm in itertools.permutations(ranks):
        ens = _ensemble(list(perm))
        expected = sum(1 for r in perm[1:] if r > perm[0]) / n
        assert p_value(ens) == pytest.approx(expected)


@given(st.lists(st.floats(min_value=0.01, max_value=100, allow_nan=False),
                min_size=2, max_size=12))
@example(rs=[99.99999999999999, 100.0])
def test_p_value_range_and_monotone_invariance(rs):
    ens = _ensemble(rs)
    p = p_value(ens)
    assert 0.0 <= p <= (len(rs) - 1) / len(rs)
    # any strictly increasing transform of all ratios preserves p; scaling by
    # a power of two is exact in doubles, so it stays strictly increasing there
    transformed = _ensemble([r * 8.0 for r in rs])
    assert p_value(transformed) == p


# ---------------------------------------------------------------------------
# placebo runs
# ---------------------------------------------------------------------------

def _null_study(seed=0, n=6, T=40, T0=25):
    rng = np.random.default_rng(seed)
    panel = random_walk_panel(rng, n, T)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=T0,
                     t_fit=10, v_mode="optimized", reg=Regularization())
    return panel, spec


def test_placebo_run_covers_every_unit_sorted():
    panel, spec = _null_study()
    ens = placebo_run(spec, build_design(panel, None, spec))
    assert tuple(e.unit for e in ens.entries) == tuple(sorted(panel.units))
    assert ens.entries[ens.treated_index].unit == spec.treated
    assert all(not e.skipped for e in ens.entries)
    assert all(e.r > 0 for e in ens.entries)


def test_placebo_pools_exclude_treated_unit():
    # the treated unit must never help synthesize a placebo: a placebo run on
    # a panel where the treated unit IS one donor's twin cannot achieve a
    # perfect pre-fit through it
    rng = np.random.default_rng(4)
    panel = random_walk_panel(rng, 5, 40)
    values = panel.values.copy()
    values[1] = values[0]  # donor 1 duplicates the treated series
    twin_panel = dataclasses.replace(panel, values=values)
    spec = StudySpec(treated=twin_panel.units[0], donors=twin_panel.units[1:],
                     T0=25, t_fit=10, v_mode="optimized",
                     reg=Regularization(0.0))
    ens = placebo_run(spec, build_design(twin_panel, None, spec))
    twin_entry = next(e for e in ens.entries if e.unit == twin_panel.units[1])
    # donors for the twin exclude the treated unit, so its pre-fit is imperfect
    assert twin_entry.R_pre > 1e-6


def test_placebo_jobs_parallel_matches_serial():
    panel, spec = _null_study(seed=3)
    design = build_design(panel, None, spec)
    serial = placebo_run(spec, design, jobs=1)
    parallel = placebo_run(spec, design, jobs=4)
    # repr spells out every field of every entry, floats exactly
    assert repr(serial) == repr(parallel)


def test_placebo_pool_starts_no_more_workers_than_units(monkeypatch):
    # a forked pool starts all of its max_workers at the first task
    spawned = []
    spawn = concurrent.futures.ProcessPoolExecutor._spawn_process

    def counted(pool):
        spawned.append(pool)
        spawn(pool)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "_spawn_process", counted)
    panel, spec = _null_study(seed=3, n=3)
    design = build_design(panel, None, spec)
    parallel = placebo_run(spec, design, jobs=6)
    assert 1 <= len(spawned) <= 3
    assert repr(parallel) == repr(placebo_run(spec, design, jobs=1))


def test_placebo_custom_t0_applies_to_placebos_only():
    panel, spec = _null_study(seed=6, T=50, T0=30)
    design = build_design(panel, None, spec)
    ens = placebo_run(spec, design, placebo_T0=20)
    treated = ens.entries[ens.treated_index]
    # the treated fit keeps spec.T0: its ratio is the study's own fit's
    pre = fit_synth(spec, design).gap[:spec.T0]
    assert treated.R_pre == np.sqrt(np.mean(pre * pre))
    assert all(not e.skipped for e in ens.entries)


def test_placebo_perfect_pre_fit_floors_ratio():
    # donors 1 and 2 agree exactly before T0 and diverge after; each one's
    # placebo pool is just the other (treated excluded), so the single-donor
    # shortcut makes the pre-fit exact and R_pre is literally zero
    rng = np.random.default_rng(8)
    T, T0 = 40, 25
    base = random_walk_panel(rng, 4, T)
    values = base.values.copy()
    values[2, :T0] = values[1, :T0]
    values[2, T0:] = values[1, T0:] + 5.0
    panel = dataclasses.replace(base, values=values)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:3], T0=T0,
                     t_fit=10, v_mode="uniform",
                     reg=Regularization(0.0))
    ens = placebo_run(spec, build_design(panel, None, spec))
    floored = [e for e in ens.entries if e.pre_floored]
    assert len(floored) == 2
    for e in floored:
        assert not e.skipped
        assert e.R_pre == 0.0
        assert e.r >= 1e6  # enormous but finite


def test_placebo_run_and_training_sweep_build_no_design(monkeypatch):
    panel, spec = _null_study(seed=21)
    design = build_design(panel, None, spec)
    calls = count_calls(monkeypatch, engine, "build_design")
    ens = placebo_run(spec, design)
    (row,) = training_sweep(spec, [10], design)
    assert calls == []
    assert not any(e.skipped for e in ens.entries)
    assert not row.failed


@pytest.mark.parametrize("constant_row", [True, False])
@pytest.mark.parametrize("placement", ["head", "tail"])
@pytest.mark.parametrize("placebo_T0", [None, 30])
def test_placebo_designs_equal_build_design(monkeypatch, constant_row, placement, placebo_T0):
    # 13 donors, outcome-level and covariate predictors of mixed scale: a
    # placebo design whose predictor block is not in C order standardizes
    # its rows with sums in another order, which shows here; a constant
    # row must z-score to the same zeros in every placebo design
    rng = np.random.default_rng(22)
    panel = random_walk_panel(rng, 14, 60)
    X = np.vstack([panel.values[:, 5:45:8].T, rng.normal(55, 8, size=(1, 14)),
                   rng.lognormal(4, 1, size=(1, 14))])
    if constant_row:
        X[-2] = 55.0
    predictors = make_predictors(X, panel.units)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=45, t_fit=10,
                     train_placement=placement)
    seen = []

    def recorded(spec, design):
        seen.append((spec, design))
        raise ValueError("recorded")

    monkeypatch.setattr(inference, "fit_synth", recorded)
    placebo_run(spec, build_design(panel, predictors, spec), placebo_T0=placebo_T0)
    assert sorted(s.treated for s, _ in seen) == sorted(panel.units)
    for placebo_spec, design in seen:
        if placebo_spec.treated != spec.treated:
            assert placebo_spec.T0 == (placebo_T0 or spec.T0)
        expected = build_design(panel, predictors, placebo_spec)
        for field in dataclasses.fields(design):
            assert np.array_equal(getattr(design, field.name), getattr(expected, field.name))


def test_placebo_t0_inside_the_training_window_raises_before_any_fit(monkeypatch):
    panel, spec = _null_study(seed=23, T=50, T0=30)
    design = build_design(panel, None, spec)
    monkeypatch.setattr(inference, "fit_synth", None)  # any fit would fail loudly
    for T0 in (spec.t_fit, 4):
        with pytest.raises(InvalidSplit, match=f"got t_fit=10 T0={T0}"):
            placebo_run(spec, design, placebo_T0=T0)
    with pytest.raises(ValueError, match="T0=50 leaves no post-period in a 50-day panel"):
        placebo_run(spec, design, placebo_T0=50)


@pytest.mark.parametrize("jobs", [0, -1])
def test_placebo_run_rejects_jobs_below_one(monkeypatch, jobs):
    panel, spec = _null_study()
    design = build_design(panel, None, spec)
    monkeypatch.setattr(inference, "fit_synth", None)  # raised before any fit
    with pytest.raises(ValueError) as raised:
        placebo_run(spec, design, jobs=jobs)
    assert raised.type is ValueError and raised.value.args == ("jobs must be at least 1",)



def test_p_value_on_null_panel_is_rational():
    panel, spec = _null_study(seed=10, n=7)
    ens = placebo_run(spec, build_design(panel, None, spec))
    p = p_value(ens)
    assert p in {i / 7 for i in range(8)}


# ---------------------------------------------------------------------------
# training sweep
# ---------------------------------------------------------------------------

def test_training_sweep_rows_sorted_and_complete():
    panel, spec = _null_study(seed=12, T=70, T0=55)
    rows = training_sweep(spec, [20, 10, 40], build_design(panel, None, spec))
    assert tuple(r.t_fit for r in rows) == (10, 20, 40)
    for row in rows:
        assert not row.failed
        assert row.pre_deviation >= 0
        assert 0.0 <= row.p_value <= 1.0


def test_training_sweep_marks_impossible_windows():
    panel, spec = _null_study(seed=14, T=40, T0=25)
    rows = training_sweep(spec, [10, 25], build_design(panel, None, spec))
    by_t = {r.t_fit: r for r in rows}
    assert not by_t[10].failed
    assert by_t[25].failed
    assert by_t[25].reason
    assert np.isnan(by_t[25].p_value)


def test_placebo_tasks_send_no_panel_data(monkeypatch):
    sizes = []
    task = inference._fit_ratio_task

    def measured(*args):
        sizes.append(len(pickle.dumps(args)))
        return task(*args)

    monkeypatch.setattr(inference, "_fit_ratio_task", measured)
    for T in (40, 400):
        panel, spec = _null_study(seed=16, n=4, T=T, T0=25)
        placebo_run(spec, build_design(panel, None, spec))
    short, long = sizes[:4], sizes[4:]
    assert max(long) <= max(short)


def test_placebo_task_is_the_units_column_index(monkeypatch):
    # index 0 is the treated unit and index i is donor i-1
    tasks, units = [], []
    task = inference._fit_ratio_task

    def recorded(index):
        entry = task(index)
        tasks.append(index)
        units.append(entry.unit)
        return entry

    monkeypatch.setattr(inference, "_fit_ratio_task", recorded)
    panel, spec = _null_study(seed=16, n=5)
    placebo_run(spec, build_design(panel, None, spec))
    assert all(type(index) is int for index in tasks)
    assert tasks == list(range(len(panel.units)))
    assert tuple(units) == (spec.treated,) + spec.donors


def _sweep_study():
    rng = np.random.default_rng(18)
    panel = random_walk_panel(rng, 5, 40)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=25,
                     t_fit=10, v_mode="inverse-variance")
    return panel, spec


def test_training_sweep_fits_each_unit_once(monkeypatch):
    panel, spec = _sweep_study()
    calls = []
    fit = inference.fit_synth

    def counted(*args, **kwargs):
        calls.append(args[0].treated)
        return fit(*args, **kwargs)

    monkeypatch.setattr(inference, "fit_synth", counted)
    training_sweep(spec, [10], build_design(panel, None, spec))
    assert sorted(calls) == sorted(panel.units)


def test_training_sweep_row_comes_from_the_placebo_run():
    panel, spec = _null_study(seed=20, n=5)
    design = build_design(panel, None, spec)
    (row,) = training_sweep(spec, [10], design)
    ensemble = placebo_run(spec, design)
    assert row.p_value == p_value(ensemble)
    treated_fit = fit_synth(spec, design)
    assert row.pre_deviation == pytest.approx(treated_fit.pre_mspe, rel=1e-12, abs=0)


def test_training_sweep_marks_a_skipped_treated_fit():
    # a defect of the study, unlike a window that does not fit, fails the sweep
    panel, spec = _sweep_study()
    values = panel.values.copy()
    values[0, 3] = np.nan
    # a missing outcome fails where the study's design is built, before any sweep
    with pytest.raises(ValueError, match="missing values, first unit 10001 on 2021-01-04"):
        build_design(dataclasses.replace(panel, values=values), None, spec)
    # a predictor constant across units skips the treated fit of inverse-variance mode
    constant = make_predictors(np.full((1, len(panel.units)), 2.5), panel.units)
    with pytest.raises(ValueError, match=r"treated unit 10001 has no fit \(predictor 'p0' "
                                         r"is constant across units\)"):
        training_sweep(spec, [10], build_design(panel, constant, spec))


def test_training_sweep_rejects_jobs_below_one():
    panel, spec = _sweep_study()
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        training_sweep(spec, [10, 20], build_design(panel, None, spec), jobs=0)
