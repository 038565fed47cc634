"""Study assembly and nested-optimization tests."""

import dataclasses

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
    inverse_variance_v,
    solve_v,
    solve_w,
    split_pre_period,
)
from synthctl import engine
from synthctl.engine import OUTCOME_MEAN_NAME, _nelder_mead
from synthctl.errors import InvalidSplit, ZeroVariancePredictor


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


# ---------------------------------------------------------------------------
# importance vectors
# ---------------------------------------------------------------------------

def test_inverse_variance_hand_value():
    # row variances 1 and 4 -> importances 0.8 and 0.2
    X = np.array([[1.0, -1.0], [2.0, -2.0]])
    v = inverse_variance_v(X)
    assert np.allclose(v, [0.8, 0.2])


def test_inverse_variance_constant_row_raises():
    X = np.array([[1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ZeroVariancePredictor):
        inverse_variance_v(X)


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
    design = build_design(panel, predictors,
                          dataclasses.replace(spec, standardize=False))
    assert design.names == predictors.names + (OUTCOME_MEAN_NAME,)
    train, _ = split_pre_period(spec.T0, spec.t_fit, spec.train_placement)
    expected = panel.series(spec.treated)[list(train)].mean()
    assert design.X1[-1] == pytest.approx(expected)
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


def test_design_requires_finite_outcomes(rng):
    panel, predictors, spec = _small_study(rng)
    values = panel.values.copy()
    values[2, 3] = values[3, 5] = np.nan  # the first missing cell in study order
    dirty = panel.with_values(values)
    with pytest.raises(ValueError, match=f"first unit {spec.donors[1]} on 2021-01-04; clean"):
        build_design(dirty, predictors, spec)


# ---------------------------------------------------------------------------
# the importance search
# ---------------------------------------------------------------------------

def test_fit_synth_never_loses_to_uniform_or_invvar(rng):
    panel, predictors, spec = _small_study(rng, k=4, J=6, T=60, T0=40)
    design = build_design(panel, predictors, spec)
    v_star = fit_synth(spec, design, seed=7).v_star
    k = v_star.size

    def validation_error(v):
        return design.validation_error(solve_w(design.X1, design.X0, v, spec.reg).w)

    best = validation_error(v_star)
    uniform = validation_error(np.ones(k) / k)
    invvar = validation_error(inverse_variance_v(design.raw))
    assert best <= uniform
    assert best <= invvar


def _count_final_solves(monkeypatch) -> list[bool]:
    """Record, for each solve_w call of engine, whether the importance search made it."""
    calls, searching = [], [False]

    def counted(*args, **kwargs):
        calls.append(searching[0])
        return solve_w(*args, **kwargs)

    def search(*args, **kwargs):
        searching[0] = True
        try:
            return solve_v(*args, **kwargs)
        finally:
            searching[0] = False

    monkeypatch.setattr(engine, "solve_w", counted)
    monkeypatch.setattr(engine, "solve_v", search)
    return calls


@pytest.mark.parametrize("v_mode, constant_row, full_solves", [
    ("optimized", False, 3),  # uniform, inverse-variance, the search winner
    ("optimized", True, 2),  # a constant row leaves inverse-variance undefined
    ("inverse_variance", False, 1),
    ("uniform", False, 1),
    ("uniform", True, 1),
])
def test_fit_synth_solves_each_candidate_once_at_full_budget(
        rng, monkeypatch, v_mode, constant_row, full_solves):
    panel, predictors, spec = _small_study(rng)
    if constant_row:
        values = predictors.values.copy()
        values[1] = 2.5
        predictors = make_predictors(values, predictors.units)
    spec = dataclasses.replace(spec, v_mode=v_mode)
    design = build_design(panel, predictors, spec)
    calls = _count_final_solves(monkeypatch)
    result = fit_synth(spec, design, seed=3)
    assert calls.count(False) == full_solves
    # the kept solve is one of those: solving its v again gives the same weights
    again = solve_w(design.X1, design.X0, result.v_star, spec.reg)
    assert np.array_equal(result.w_star, again.w)


def test_fit_synth_solves_a_uniform_search_winner_once(rng, monkeypatch):
    # one donor: every v gives the same weights, so the search's winner is its
    # uniform first point, and it shares the uniform baseline's solve
    panel, predictors, spec = _small_study(rng, J=1)
    design = build_design(panel, predictors, spec)
    calls = _count_final_solves(monkeypatch)
    result = fit_synth(spec, design, seed=3)
    # uniform and inverse-variance
    assert calls.count(False) == 2
    assert np.array_equal(solve_v(spec, design, seed=3), np.full(4, 0.25))
    assert np.array_equal(result.v_star, np.full(4, 0.25))


def test_inverse_variance_mode_rejects_a_constant_lone_row():
    # no predictor table and equal training means: the one row is constant
    panel = make_panel(np.full((4, 40), 7.0))
    spec = StudySpec(treated=panel.units[0], donors=panel.units[1:], T0=25,
                     v_mode="inverse_variance")
    with pytest.raises(ZeroVariancePredictor):
        fit_synth(spec, build_design(panel, None, spec))


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
    v = solve_v(spec, build_design(panel, predictors, spec), seed=5)
    # rows: driver, noise, outcome mean; noise must not dominate
    assert v[1] < max(v[0], v[2])


def test_fit_synth_with_fixed_v_matches_direct_solve(rng):
    panel, predictors, spec = _small_study(rng)
    spec = StudySpec(treated=spec.treated, donors=spec.donors, T0=spec.T0,
                     t_fit=spec.t_fit, v_mode="uniform", reg=Regularization(0.0))
    result = fit_synth(spec, build_design(panel, predictors, spec), seed=13)
    design = build_design(panel, predictors, spec)
    direct = solve_w(design.X1, design.X0, np.ones(4) / 4, spec.reg)
    assert np.array_equal(result.w_star, direct.w)
    assert result.objective == direct.objective


def test_fit_synth_perfect_combination_zero_gap(rng):
    panel, predictors, units, w_true, T0 = combo_study(rng, n_distractors=4, k=8)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="optimized", reg=Regularization(0.0))
    result = fit_synth(spec, build_design(panel, predictors, spec), seed=42)
    assert np.max(np.abs(result.w_star - w_true)) < 1e-3
    assert np.sqrt(np.mean(result.gap[:T0] ** 2)) < 1e-6


def test_fit_synth_mspe_windows_are_consistent(rng):
    panel, predictors, spec = _small_study(rng, J=5, T=50, T0=30)
    result = fit_synth(spec, build_design(panel, predictors, spec), seed=3)
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
    result = fit_synth(spec, build_design(panel, predictors, spec), seed=1)
    assert result.w_star.sum() == pytest.approx(1.0, abs=1e-8)
    assert (result.w_star >= 0).all()
    assert result.v_star.sum() == pytest.approx(1.0, abs=1e-9)
    assert (result.v_star >= 0).all()


def test_fit_synth_deterministic(rng):
    panel, predictors, spec = _small_study(rng, J=5)
    a = fit_synth(spec, build_design(panel, predictors, spec), seed=11)
    b = fit_synth(spec, build_design(panel, predictors, spec), seed=11)
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
    assert fit_synth(spec, design, seed=42).converged
    spec = dataclasses.replace(spec, reg=Regularization())
    assert fit_synth(spec, build_design(panel, predictors, spec), seed=42).converged

    # an uncertified final solve is reported with its gap
    def uncertified(*args, **kwargs):
        return dataclasses.replace(solve_w(*args, **kwargs), converged=False, fw_gap=0.5)

    monkeypatch.setattr(engine, "solve_w", uncertified)
    result = fit_synth(spec, design, seed=42)
    assert not result.converged and result.fw_gap == 0.5


# ---------------------------------------------------------------------------
# the importance search's Nelder-Mead against scipy's
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


def _evaluated_points(minimize, f, x0, maxfev, xatol, fatol, stop, scribble):
    """Every point minimize(f, ...) hands to f, in order, as private copies.

    With stop set, f raises after that many calls, as the importance search
    raises when it stalls; with scribble, f overwrites the point it was given.
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


def _scipy_nelder_mead(f, x0, maxfev, xatol, fatol):
    import scipy.optimize
    scipy.optimize.minimize(f, x0, method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})


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
    # zero entries take the absolute initial step; the objective scribbles on
    # its argument, which must not reach the simplex
    (lambda x: float(np.dot(x - 1.0, x - 1.0)), [0.0, 2.0, 0.0, -1.0], 300, 1e-3,
     1e-10, None, True),
    # stopped by an exception from the objective
    (_rosenbrock, [0.5, -0.5, 1.5], 500, 1e-8, 1e-12, 45, False),
])
def test_nelder_mead_evaluates_scipys_points(f, x0, maxfev, xatol, fatol, stop, scribble):
    args = (f, x0, maxfev, xatol, fatol, stop, scribble)
    ours = _evaluated_points(_nelder_mead, *args)
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
        ours = _evaluated_points(_nelder_mead, *args)
        theirs = _evaluated_points(_scipy_nelder_mead, *args)
        assert len(ours) == len(theirs) == maxfev
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
