"""Study assembly and nested-optimization tests."""

import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import combo_study, make_panel, make_predictors, random_walk_panel, unit_codes
from synthctl import (
    Regularization,
    StudySpec,
    build_design,
    fit_synth,
    ingest_panel,
    load_predictors,
    solve_v,
    solve_w,
    split_pre_period,
)
from synthctl import engine
from synthctl.engine import OUTCOME_MEAN_NAME, _nelder_mead, window_design
from synthctl.errors import InvalidSplit, SynthctlError

GEN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"


# ---------------------------------------------------------------------------
# window arithmetic
# ---------------------------------------------------------------------------

def test_split_tail_anchors_training_at_intervention():
    train, val = split_pre_period(30, 10, "tail")
    assert list(train) == list(range(20, 30))
    assert list(val) == list(range(0, 20))


def test_split_head_puts_training_first():
    train, val = split_pre_period(30, 10, "head")
    assert list(train) == list(range(0, 10))
    assert list(val) == list(range(10, 30))


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=1, max_value=199),
       st.sampled_from(["head", "tail"]))
def test_split_partitions_pre_period(T0, t_fit, placement):
    if not t_fit < T0:
        return
    train, val = split_pre_period(T0, t_fit, placement)
    assert sorted(set(train) | set(val)) == list(range(T0))
    assert not set(train) & set(val)
    assert len(train) == t_fit


def test_split_rejects_degenerate_windows():
    with pytest.raises(InvalidSplit):
        split_pre_period(10, 10, "tail")
    with pytest.raises(InvalidSplit):
        split_pre_period(10, 0, "tail")


@pytest.mark.parametrize("call, message", [
    (lambda: StudySpec("10001", ("20000", "20000"), T0=20), "donor pool contains duplicates"),
    (lambda: StudySpec("10001", ("20000",), T0=20, train_placement="middle"),
     "train_placement must be one of ('head', 'tail')"),
    (lambda: split_pre_period(20, 5, "middle"), "unknown placement 'middle'"),
], ids=["repeated-donor", "spec-placement", "split-placement"])
def test_spec_checks_raise_with_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError and raised.value.args == (message,)



# ---------------------------------------------------------------------------
# importance vectors
# ---------------------------------------------------------------------------

def test_inverse_variance_hand_value():
    # raw rows [1, -1] (a predictor) and [2, -2] (the training means) have
    # variances 1 and 4 -> importances 0.8 and 0.2
    panel = make_panel(np.array([[2.0] * 6, [-2.0] * 6]))
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=4, t_fit=2,
                     v_mode="inverse-variance")
    design = build_design(panel, make_predictors([[1.0, -1.0]], panel.units), spec)
    assert np.allclose(solve_v(spec, design), [0.8, 0.2])


# ---------------------------------------------------------------------------
# design assembly
# ---------------------------------------------------------------------------

def _small_study(rng, k=3, J=4, T=40, T0=25):
    panel = random_walk_panel(rng, J + 1, T)
    units = panel.units
    predictors = make_predictors(rng.normal(size=(k, J + 1)), units)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="optimized", reg=Regularization(0.0))
    return panel, predictors, spec


def test_design_appends_outcome_mean_row(rng):
    panel, predictors, spec = _small_study(rng)
    design = build_design(panel, predictors, spec)
    assert design.names == predictors.names + (OUTCOME_MEAN_NAME,)
    train, _ = split_pre_period(spec.T0, spec.t_fit, spec.train_placement)
    expected = panel.series(spec.treated)[list(train)].mean()
    assert design.raw[-1, 0] == pytest.approx(expected)
    assert design.raw.shape == (4, 5)


def test_design_standardizes_rows_across_all_units(rng):
    panel, predictors, spec = _small_study(rng)
    design = build_design(panel, predictors, spec)
    full = np.column_stack([design.X1, design.X0])
    assert np.allclose(full.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(full.std(axis=1), 1.0, atol=1e-12)


def test_design_reserves_outcome_mean_name(rng):
    panel, _, spec = _small_study(rng)
    bad = make_predictors(rng.normal(size=(1, 5)), panel.units,
                          names=(OUTCOME_MEAN_NAME,))
    with pytest.raises(ValueError):
        build_design(panel, bad, spec)


def test_design_keeps_outcome_rows(rng):
    panel, predictors, spec = _small_study(rng)
    design = build_design(panel, predictors, spec)
    assert np.array_equal(design.Y1, panel.series(spec.treated))
    assert np.array_equal(design.Y0, np.stack([panel.series(d) for d in spec.donors]))


def test_design_checks_the_study_against_the_panel(rng):
    panel, predictors, spec = _small_study(rng, T=40, T0=25)
    with pytest.raises(KeyError, match="not in panel"):
        build_design(panel, predictors, StudySpec(
            treated=spec.treated, donors=spec.donors[:-1] + ("99999",), T0=25))
    with pytest.raises(InvalidSplit, match="does not fit a panel of 40 days"):
        build_design(panel, predictors, StudySpec(
            treated=spec.treated, donors=spec.donors, T0=41))


@pytest.mark.parametrize("placement", ["head", "tail"])
@pytest.mark.parametrize("constant_row", [True, False])
def test_window_design_equals_build_design(rng, placement, constant_row):
    # the design recut to each window holds build_design's arrays bit for bit
    panel, predictors, spec = _small_study(rng, k=3, J=6, T=50, T0=35)
    if constant_row:
        values = predictors.values.copy()
        values[1] = 0.1
        predictors = make_predictors(values, predictors.units)
    spec = dataclasses.replace(spec, train_placement=placement, t_fit=5)
    design = build_design(panel, predictors, spec)
    for t_fit in (5, 10, 20, 34):
        window = dataclasses.replace(spec, t_fit=t_fit)
        recut, expected = window_design(design, window), build_design(panel, predictors, window)
        for field in dataclasses.fields(recut):
            assert np.array_equal(getattr(recut, field.name), getattr(expected, field.name))


@pytest.mark.parametrize("n_donors", [3, 5])
def test_fit_synth_rejects_a_design_of_another_donor_count(rng, n_donors):
    # the design has 4 donor columns; weights would be zipped onto the wrong donors
    panel, predictors, spec = _small_study(rng)
    design = build_design(panel, predictors, spec)
    other = StudySpec(treated="99999", donors=unit_codes(n_donors, base=20001), T0=spec.T0)
    with pytest.raises(ValueError, match=f"the design has 4 donor columns but the spec "
                                         f"names {n_donors} donors"):
        fit_synth(other, design)


def test_design_requires_finite_outcomes(rng):
    panel, predictors, spec = _small_study(rng)
    values = panel.values.copy()
    values[2, 3] = values[3, 5] = np.nan  # the first missing cell in study order
    dirty = dataclasses.replace(panel, values=values)
    with pytest.raises(ValueError, match=f"first unit {spec.donors[1]} on 2021-01-04; clean"):
        build_design(dirty, predictors, spec)


# ---------------------------------------------------------------------------
# the importance search
# ---------------------------------------------------------------------------

def test_fit_synth_never_loses_to_uniform(rng):
    # on z-scored rows the inverse-variance vector of the rows the weights see
    # is uniform, so uniform is the one baseline
    panel, predictors, spec = _small_study(rng, k=4, J=6, T=60, T0=40)
    design = build_design(panel, predictors, spec)
    v_star = fit_synth(spec, design).v_star
    k = v_star.size

    def validation_error(v):
        return design.validation_error(solve_w(design.X1, design.X0, v, spec.reg).w)

    assert validation_error(v_star) <= validation_error(np.ones(k) / k)


def _count_final_solves(monkeypatch) -> tuple[list[bool], list]:
    """Record, for each solve_w call of engine, whether the importance search
    made it, and the start it was given."""
    calls, starts, searching = [], [], [False]

    def counted(*args, **kwargs):
        calls.append(searching[0])
        starts.append(kwargs.get("start"))
        return solve_w(*args, **kwargs)

    def search(*args, **kwargs):
        searching[0] = True
        try:
            return solve_v(*args, **kwargs)
        finally:
            searching[0] = False

    monkeypatch.setattr(engine, "solve_w", counted)
    monkeypatch.setattr(engine, "solve_v", search)
    return calls, starts


@pytest.mark.parametrize("v_mode, constant_row, full_solves", [
    # fit_synth solves solve_v's vector once, whatever the mode
    ("optimized", False, 1),
    ("optimized", True, 1),
    ("inverse-variance", False, 1),
    ("uniform", False, 1),
    ("uniform", True, 1),
])
def test_fit_synth_solves_each_candidate_once(
        rng, monkeypatch, v_mode, constant_row, full_solves):
    panel, predictors, spec = _small_study(rng)
    if constant_row:
        values = predictors.values.copy()
        values[1] = 2.5
        predictors = make_predictors(values, predictors.units)
    spec = dataclasses.replace(spec, v_mode=v_mode)
    design = build_design(panel, predictors, spec)
    calls, starts = _count_final_solves(monkeypatch)
    result = fit_synth(spec, design)
    assert calls.count(False) == full_solves
    # the final solve is the last, and cold: solving its v again gives the same weights
    assert not calls[-1] and starts[-1] is None
    again = solve_w(design.X1, design.X0, result.v_star, spec.reg)
    assert np.array_equal(result.w_star, again.w)


def test_fit_synth_solves_a_uniform_search_winner_once(rng, monkeypatch):
    # one donor: every v gives the same weights, so solve_v returns the
    # uniform vector unsearched, and fit_synth solves it once
    panel, predictors, spec = _small_study(rng, J=1)
    design = build_design(panel, predictors, spec)
    calls, starts = _count_final_solves(monkeypatch)
    result = fit_synth(spec, design)
    assert calls == [False] and starts == [None]
    assert np.array_equal(solve_v(spec, design), np.full(4, 0.25))
    assert np.array_equal(result.v_star, np.full(4, 0.25))


@pytest.mark.parametrize("constant_row", [False, True])
def test_search_starts_each_weight_solve_from_the_previous_one(rng, monkeypatch, constant_row):
    # a constant predictor row z-scores to zeros, which the warm starts must carry
    panel, predictors, spec = _small_study(rng)
    if constant_row:
        values = predictors.values.copy()
        values[1] = 2.5
        predictors = make_predictors(values, predictors.units)
    spec = dataclasses.replace(spec, reg=Regularization())
    design = build_design(panel, predictors, spec)
    starts, results = [], []

    def recorded(*args, **kwargs):
        starts.append(kwargs.get("start"))
        results.append(solve_w(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(engine, "solve_w", recorded)
    for _ in range(2):  # warm state never crosses solve_v calls
        starts.clear()
        results.clear()
        solve_v(spec, design)
        assert starts[0] is None
        assert len(starts) > 1
        assert all(s is r for s, r in zip(starts[1:], results))
        assert any(r.mu > 0.0 for r in results)  # so later solves start warm


def _search_starts(monkeypatch, spec, design) -> list[np.ndarray]:
    """The points solve_v starts its Nelder-Mead runs from, in order."""
    starts = []

    def recorded(x0, *args, **kwargs):
        starts.append(x0.copy())
        return _nelder_mead(x0, *args, **kwargs)

    monkeypatch.setattr(engine, "_nelder_mead", recorded)
    solve_v(spec, design)
    return starts


def test_search_starts_once_from_the_uniform_vector_on_z_scored_rows(rng, monkeypatch):
    panel, predictors, spec = _small_study(rng)
    starts = _search_starts(monkeypatch, spec, build_design(panel, predictors, spec))
    assert len(starts) == 1 and np.array_equal(starts[0], np.zeros(4))


def _evaluations_per_start(monkeypatch, spec, design) -> tuple[list[int], int]:
    """How many points solve_v scores from each of its starts, and how many
    weight solves it makes besides."""
    counts, solves = [], [0]

    def started(*args, **kwargs):
        counts.append(0)
        search, f = _nelder_mead(*args, **kwargs), None
        while True:
            try:
                point = search.send(f)
            except StopIteration:
                return
            counts[-1] += 1
            f = yield point

    def counted(*args, **kwargs):
        solves[0] += 1
        return solve_w(*args, **kwargs)

    monkeypatch.setattr(engine, "_nelder_mead", started)
    monkeypatch.setattr(engine, "solve_w", counted)
    solve_v(spec, design)
    return counts, solves[0] - sum(counts)


@pytest.mark.parametrize("k, J, per_start", [
    # one donor: every vector gives the same weights, so no search runs
    (3, 1, []),
    # three donors: the one start on z-scored rows runs to the budget,
    # max(60, 4k) at k = 4
    (3, 3, [60]),
    # one predictor and the outcome mean (k = 2), six donors: the simplex
    # shrinks within both tolerances after 43 points, short of the budget
    # of 60 and of the 1 + _V_STALL_EVALS points a stall takes
    (1, 6, [43]),
])
def test_search_stops_at_its_tolerances_its_stall_and_its_budget(
        rng, monkeypatch, k, J, per_start):
    panel, predictors, spec = _small_study(rng, k=k, J=J)
    design = build_design(panel, predictors, spec)
    # nothing besides the search's points is scored
    assert _evaluations_per_start(monkeypatch, spec, design) == (per_start, 0)


def test_search_stalls_where_every_vector_validates_alike(rng, monkeypatch):
    # three donors with one outcome path over the validation window: vectors
    # differ in their weights but not in their error. The simplex is wider
    # than xatol, so the one start stalls: its first point sets the best
    # error, and the next _V_STALL_EVALS do not improve on it. The search
    # then returns its first point, the uniform vector bit for bit
    panel, predictors, spec = _small_study(rng, J=3)
    design = build_design(panel, predictors, spec)
    Y0 = design.Y0.copy()
    Y0[:, design.val] = Y0[0, design.val]
    design = dataclasses.replace(design, Y0=Y0)
    assert _evaluations_per_start(monkeypatch, spec, design) == ([1 + engine._V_STALL_EVALS], 0)
    assert np.array_equal(solve_v(spec, design), np.full(4, 1 / 4))


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("row", range(3))
def test_default_fit_does_not_depend_on_the_predictors_units(rng, row, scale):
    # z-scoring makes every row the weights see units-free, and the search
    # reads nothing else of the raw values
    panel, predictors, spec = _small_study(rng)
    spec = dataclasses.replace(spec, reg=Regularization())
    values = predictors.values.copy()
    values[row] *= scale
    rescaled = make_predictors(values, predictors.units)
    w = fit_synth(spec, build_design(panel, predictors, spec)).w_star
    w_rescaled = fit_synth(spec, build_design(panel, rescaled, spec)).w_star
    assert np.abs(w - w_rescaled).max() <= 1e-12


def test_search_moves_v_away_from_uniform_at_30_predictors(tmp_path, monkeypatch):
    # a factor-model study of the benchmark's generator: 40 donors, 450
    # days, the intervention on day 300 and 30 predictor rows (k = 31)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # keep bench/ free of caches
    loader = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclasses look it up
    loader.loader.exec_module(gen)
    truth = gen.gen_study(str(tmp_path), 1, n_donors=40, days=450, t0_index=300,
                          n_predictors=30)
    panel = ingest_panel(str(tmp_path / "outcomes.csv"))
    predictors = load_predictors(str(tmp_path / "predictors.csv"))
    spec = StudySpec(treated=truth.treated, donors=truth.donors, T0=truth.T0)
    v = solve_v(spec, build_design(panel, predictors, spec))
    assert v.size == 31
    assert np.abs(v - 1 / 31).max() > 1e-3


def test_inverse_variance_mode_rejects_a_constant_lone_row():
    # no predictor table and equal training means: the one row is constant
    panel = make_panel(np.full((4, 40), 7.0))
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=25,
                     v_mode="inverse-variance")
    with pytest.raises(SynthctlError,
                       match=f"predictor '{OUTCOME_MEAN_NAME}' is constant across units"):
        fit_synth(spec, build_design(panel, None, spec))


def _equal_values_study(rng):
    """7 units whose predictor p1 is 0.1 in each: equal values whose float
    standard deviation is not exactly 0."""
    panel = random_walk_panel(rng, 7, 40)
    X = np.vstack([rng.normal(size=7), np.full(7, 0.1)])
    assert X[1].std() > 0
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=25)
    return panel, make_predictors(X, panel.units), spec


def test_design_z_scores_a_row_of_equal_values_to_zeros(rng):
    panel, predictors, spec = _equal_values_study(rng)
    design = build_design(panel, predictors, spec)
    assert design.X1[1] == 0.0
    assert (design.X0[1] == 0.0).all()
    assert np.abs(design.X0[0]).max() > 0


def test_inverse_variance_mode_rejects_a_row_of_equal_values(rng):
    panel, predictors, spec = _equal_values_study(rng)
    spec = dataclasses.replace(spec, v_mode="inverse-variance")
    with pytest.raises(SynthctlError, match="^predictor 'p1' is constant across units$"):
        solve_v(spec, build_design(panel, predictors, spec))


def test_solve_v_downweights_noise_predictor():
    # donor outcomes driven by predictor row 0; row 1 is pure noise with a
    # misleading treated value, so validation error should prefer row 0
    rng = np.random.default_rng(42)
    J, T, T0 = 8, 60, 40
    driver = rng.uniform(1.0, 2.0, size=J)
    noise = rng.normal(size=J)
    Y0 = driver[:, None] * np.linspace(10, 30, T)[None, :]
    w_true = np.array([0.5, 0.5] + [0.0] * (J - 2))
    Y1 = w_true @ Y0
    units = unit_codes(J + 1)
    panel = make_panel(np.vstack([Y1, Y0]), units)
    X = np.vstack([
        np.concatenate([[w_true @ driver], driver]),
        np.concatenate([[5.0], noise]),
    ])
    predictors = make_predictors(X, units)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="optimized", reg=Regularization(0.0))
    v = solve_v(spec, build_design(panel, predictors, spec))
    # rows: driver, noise, outcome mean; noise must not dominate
    assert v[1] < max(v[0], v[2])


def test_fit_synth_with_fixed_v_matches_direct_solve(rng):
    panel, predictors, spec = _small_study(rng)
    spec = StudySpec(treated=spec.treated, donors=spec.donors, T0=spec.T0,
                     t_fit=spec.t_fit, v_mode="uniform", reg=Regularization(0.0))
    result = fit_synth(spec, build_design(panel, predictors, spec))
    design = build_design(panel, predictors, spec)
    direct = solve_w(design.X1, design.X0, np.ones(4) / 4, spec.reg)
    assert np.array_equal(result.w_star, direct.w)
    assert result.objective == direct.objective


def test_fit_synth_perfect_combination_zero_gap(rng):
    panel, predictors, units, w_true, T0 = combo_study(rng, n_distractors=4, k=8)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="optimized", reg=Regularization(0.0))
    result = fit_synth(spec, build_design(panel, predictors, spec))
    assert np.max(np.abs(result.w_star - w_true)) < 1e-3
    assert np.sqrt(np.mean(result.gap[:T0] ** 2)) < 1e-6


def test_fit_synth_mspe_windows_are_consistent(rng):
    panel, predictors, spec = _small_study(rng, J=5, T=50, T0=30)
    result = fit_synth(spec, build_design(panel, predictors, spec))
    train, val = split_pre_period(spec.T0, spec.t_fit, spec.train_placement)
    actual = panel.series(spec.treated)
    assert result.train_mspe == pytest.approx(
        float(((actual[list(train)] - result.synthetic[list(train)]) ** 2).sum()))
    assert result.validation_mspe == pytest.approx(
        float(((actual[list(val)] - result.synthetic[list(val)]) ** 2).sum()))
    assert result.pre_mspe == pytest.approx(
        result.train_mspe + result.validation_mspe)


def test_fit_synth_weights_feasible(rng):
    panel, predictors, spec = _small_study(rng, J=6)
    result = fit_synth(spec, build_design(panel, predictors, spec))
    assert result.w_star.sum() == pytest.approx(1.0, abs=1e-8)
    assert (result.w_star >= 0).all()
    assert result.v_star.sum() == pytest.approx(1.0, abs=1e-9)
    assert (result.v_star >= 0).all()


def test_fit_synth_deterministic(rng):
    panel, predictors, spec = _small_study(rng, J=5)
    a = fit_synth(spec, build_design(panel, predictors, spec))
    b = fit_synth(spec, build_design(panel, predictors, spec))
    assert np.array_equal(a.w_star, b.w_star)
    assert np.array_equal(a.v_star, b.v_star)
    assert a.validation_mspe == b.validation_mspe


def test_study_spec_validation():
    with pytest.raises(ValueError):
        StudySpec(treated="01001", donors=(), T0=20)
    with pytest.raises(ValueError):
        StudySpec(treated="01001", donors=("01001",), T0=20)
    with pytest.raises(InvalidSplit):
        StudySpec(treated="01001", donors=("02002",), T0=5, t_fit=10)
    with pytest.raises(ValueError):
        StudySpec(treated="01001", donors=("02002",), T0=20, v_mode="nope")


def test_fit_synth_reports_unconverged_final_solve(monkeypatch):
    # nearly collinear predictors and a treated unit inside the donor hull,
    # where the earlier descent solver stopped at its iteration cap without
    # penalties: the exact solve certifies both fits
    rng = np.random.default_rng(1)
    J, T = 4, 40
    level = rng.normal(size=J)
    w = rng.dirichlet(np.ones(J))
    donors = 30 + 5 * level[:, None] + rng.normal(0, 0.1, size=(J, T))
    P0 = level[None, :] + 1e-3 * rng.normal(size=(2, J))
    panel = make_panel(np.vstack([w @ donors, donors]))
    predictors = make_predictors(np.hstack([(P0 @ w)[:, None], P0]), panel.units)
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=30,
                     v_mode="uniform", reg=Regularization(0.0))
    design = build_design(panel, predictors, spec)
    assert fit_synth(spec, design).converged
    spec = dataclasses.replace(spec, reg=Regularization())
    assert fit_synth(spec, build_design(panel, predictors, spec)).converged

    # an uncertified final solve is reported with its gap
    def uncertified(*args, **kwargs):
        return dataclasses.replace(solve_w(*args, **kwargs), converged=False, fw_gap=0.5)

    monkeypatch.setattr(engine, "solve_w", uncertified)
    result = fit_synth(spec, design)
    assert not result.converged and result.fw_gap == 0.5


# ---------------------------------------------------------------------------
# the importance search's Nelder-Mead against scipy's
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


def _evaluated_points(minimize, f, x0, maxfev, xatol, fatol, stop, scribble):
    """Every point minimize(f, ...) hands to f, in order, as private copies.

    With stop set, f raises after that many calls, as the importance search
    stops when it stalls; with scribble, f overwrites the point it was given.
    """
    points = []

    def recorded(x):
        if len(points) == stop:
            raise _Stop
        points.append(x.copy())
        value = f(x)
        if scribble:
            x[:] = 1e6
        return value

    try:
        minimize(recorded, np.array(x0, dtype=float), maxfev, xatol, fatol)
    except _Stop:
        pass
    return points


def _driven_nelder_mead(f, x0, maxfev, xatol, fatol):
    """Drive the _nelder_mead generator as solve_v does, for at most maxfev points."""
    search = _nelder_mead(x0, xatol, fatol)
    value = None
    for _ in range(maxfev):
        try:
            x = search.send(value)
        except StopIteration:
            return
        value = f(x)


def _scipy_nelder_mead(f, x0, maxfev, xatol, fatol):
    import scipy.optimize
    # each vertex after the first steps one coordinate by 0.5
    simplex = x0 + 0.5 * np.vstack([np.zeros(x0.size), np.eye(x0.size)])
    scipy.optimize.minimize(f, x0, method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol,
                                     "initial_simplex": simplex})


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _ridged(x):
    return float(np.abs(x).sum() + np.cos(13.0 * x).prod())


@pytest.mark.parametrize("f, x0, maxfev, xatol, fatol, stop, scribble", [
    # a quadratic, run to its tolerances
    (lambda x: float(np.dot(np.arange(1.0, 4.0) * (x - 0.3), x - 0.3)),
     [1.0, -2.0, 0.5], 400, 1e-6, 1e-10, None, False),
    (_rosenbrock, [-1.2, 1.0, -0.5, 0.8, 1.5], 600, 1e-3, 1e-10, None, False),
    # plateaus: tied values in the sort, and rejected inside contractions
    # that shrink the simplex
    (lambda x: float(np.floor(4.0 * np.dot(x, x))), [2.9, -2.7, 2.4, 1.2], 300,
     1e-3, 1e-10, None, False),
    # ridges: a rejected outside contraction shrinks too
    (_ridged, [0.2, 0.1, -0.3, 0.5], 300, 1e-8, 1e-12, None, False),
    # the objective scribbles on its argument, which must not reach the simplex
    (lambda x: float(np.dot(x - 1.0, x - 1.0)), [0.0, 2.0, 0.0, -1.0], 300, 1e-3,
     1e-10, None, True),
    # stopped by an exception from the objective
    (_rosenbrock, [0.5, -0.5, 1.5], 500, 1e-8, 1e-12, 45, False),
])
def test_nelder_mead_evaluates_scipys_points(f, x0, maxfev, xatol, fatol, stop, scribble):
    args = (f, x0, maxfev, xatol, fatol, stop, scribble)
    ours = _evaluated_points(_driven_nelder_mead, *args)
    theirs = _evaluated_points(_scipy_nelder_mead, *args)
    assert len(ours) == len(theirs) <= maxfev
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


@pytest.mark.parametrize("f, x0", [(_rosenbrock, [2.0, 2.0, 2.0]),
                                   (_ridged, [0.2, 0.1, -0.3, 0.5])])
def test_nelder_mead_stops_where_scipy_does_at_every_maxfev(f, x0):
    # each budget runs out at a different step: in the initial simplex, a
    # reflection, an expansion, a contraction or a shrink
    for maxfev in range(1, 90):
        args = (f, x0, maxfev, 1e-8, 1e-12, None, False)
        ours = _evaluated_points(_driven_nelder_mead, *args)
        theirs = _evaluated_points(_scipy_nelder_mead, *args)
        assert len(ours) == len(theirs) == maxfev
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
