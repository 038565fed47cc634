"""Growth-curve fitting and summary tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthctl import (
    LogisticFit,
    classify_quadrant,
    decile_summary,
    fit_logistic,
    logistic_predict,
    theme_regression,
)
from synthctl import logistic
from synthctl.errors import SynthctlError

T365 = np.arange(365, dtype=float)


# ---------------------------------------------------------------------------
# the curve itself
# ---------------------------------------------------------------------------

def test_predict_starts_at_p0_and_approaches_K():
    y = logistic_predict(70.0, 0.05, 1.0, T365)
    assert y[0] == pytest.approx(1.0)
    assert y[-1] == pytest.approx(70.0, rel=1e-6)


def test_predict_midpoint_symmetry():
    # with p0 = K/2 the curve starts exactly halfway up
    y = logistic_predict(80.0, 0.1, 40.0, np.array([0.0]))
    assert y[0] == pytest.approx(40.0)


@given(st.floats(min_value=5, max_value=110), st.floats(min_value=1e-4, max_value=0.5),
       st.floats(min_value=0.1, max_value=4.0))
def test_predict_monotone_and_bounded(K, nu, p0):
    if p0 >= K:
        return
    y = logistic_predict(K, nu, p0, T365)
    assert (np.diff(y) >= -1e-9).all()
    assert (y <= K * (1 + 1e-9)).all()
    assert (y > 0).all()


def test_predict_no_overflow_for_large_rate():
    y = logistic_predict(90.0, 50.0, 1.0, T365)
    assert np.isfinite(y).all()
    assert y[-1] == pytest.approx(90.0)


def test_predict_validates_arguments():
    with pytest.raises(ValueError):
        logistic_predict(0.0, 0.1, 1.0, T365)
    with pytest.raises(ValueError):
        logistic_predict(50.0, -0.1, 1.0, T365)
    with pytest.raises(ValueError):
        logistic_predict(50.0, 0.1, 0.0, T365)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_generator_parameters():
    y = logistic_predict(60.0, 0.05, 2.0, T365)
    fit = fit_logistic(y)
    assert fit.K == pytest.approx(60.0, rel=1e-4)
    assert fit.nu == pytest.approx(0.05, rel=1e-4)
    assert fit.p0 == pytest.approx(2.0, rel=1e-4)
    assert fit.sse < 1e-10
    assert not fit.flagged


def test_fit_handles_missing_cells():
    y = logistic_predict(45.0, 0.08, 1.0, T365)
    holed = y.copy()
    holed[::7] = np.nan
    fit = fit_logistic(holed)
    assert fit.K == pytest.approx(45.0, rel=1e-3)


def test_fit_constant_series_flagged_not_errored():
    fit = fit_logistic(np.full(60, 40.0))
    assert fit.flagged
    assert fit.nu < 1e-6
    assert fit.note


def test_fit_never_positive_raises():
    with pytest.raises(SynthctlError, match="series is never positive"):
        fit_logistic(np.zeros(60))


def test_fit_too_few_points_raises():
    with pytest.raises(SynthctlError, match="need at least 10 usable points, have 3"):
        fit_logistic(np.array([1.0, 2.0, 3.0]))


def test_fit_rejects_series_above_ceiling():
    y = np.linspace(1.0, 130.0, 60)
    with pytest.raises(ValueError):
        fit_logistic(y)


def test_fit_repeats_exactly():
    rng = np.random.default_rng(6)
    y = logistic_predict(55.0, 0.04, 1.5, T365) + rng.normal(0, 0.05, 365)
    assert fit_logistic(y) == fit_logistic(y.copy())


def _noisy_uptake(rng, days=120):
    """Logistic uptake plus noise of sd 0.3, made monotone by a running maximum."""
    K, nu, p0 = rng.uniform(40.0, 90.0), rng.uniform(0.03, 0.10), rng.uniform(0.5, 4.0)
    t = np.arange(days, dtype=float)
    y = logistic_predict(K, nu, p0, t) + rng.normal(0.0, 0.3, size=days)
    return (K, nu, p0), t, np.maximum.accumulate(np.maximum(y, 0.01))


def test_fit_never_worse_than_truth_on_noisy_uptake():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        (K, nu, p0), t, y = _noisy_uptake(rng)
        fit = fit_logistic(y)
        assert y.max() <= fit.K <= 120.0
        resid = y - logistic_predict(fit.K, fit.nu, fit.p0, t)
        assert fit.sse == pytest.approx(resid @ resid, rel=1e-12)
        truth = y - logistic_predict(max(K, y.max()), nu, p0, t)
        assert fit.sse <= (truth @ truth) * (1 + 1e-9)


def test_fit_raises_no_floating_point_warnings():
    # no trial point of a search may overflow, divide by zero or make a NaN
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(8):
            _, _, y = _noisy_uptake(rng)
            fit_logistic(y)


def _trf_sse(y, t):
    """Best SSE of scipy's trust-region reflective least squares from
    fit_logistic's starts and box: an independent oracle for its solver."""
    import scipy.optimize
    keep = np.isfinite(y)
    y, t = y[keep], t[keep]

    def residuals(x):
        return logistic_predict(*x, t) - y

    def jacobian(x):
        K, nu, p0 = x
        E = np.exp(-nu * t)
        c = (K - p0) / p0
        D = 1.0 + c * E
        D2 = D * D
        return np.column_stack([1.0 / D - K * E / (p0 * D2), K * c * t * E / D2,
                                K * K * E / (p0 * p0 * D2)])

    bounds = ([y.max(), 0.0, logistic.P0_FLOOR], [logistic.K_CEILING, np.inf, np.inf])
    best = np.inf
    for x0 in logistic._starts(y, t):
        res = scipy.optimize.least_squares(
            residuals, x0, jac=jacobian, bounds=bounds, method="trf", x_scale="jac",
            ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=1000)
        best = min(best, float(res.fun @ res.fun))
    return best


def test_fit_no_worse_than_scipy_trust_region():
    rng = np.random.default_rng(12)
    cases = [_noisy_uptake(rng)[1:] for _ in range(40)]
    t, y = _noisy_uptake(rng)[1:]
    holed = y.copy()
    holed[3::5] = np.nan
    # observed on 100 unevenly spaced days, the others missing
    uneven = np.cumsum(rng.integers(1, 4, size=100))
    noisy = logistic_predict(70.0, 0.04, 1.5, uneven) + rng.normal(0.0, 0.3, size=100)
    sparse = np.full(uneven[-1] + 1, np.nan)
    sparse[uneven] = np.maximum.accumulate(np.maximum(noisy, 0.01))
    # a late jump above the plateau: the best ceiling is the series maximum
    pinned = logistic_predict(60.0, 0.1, 1.0, T365[:120])
    pinned[-3:] = 62.0
    cases += [(t, holed), (np.arange(sparse.size, dtype=float), sparse), (T365[:120], pinned)]
    for t, y in cases:
        fit = fit_logistic(y)
        assert fit.converged
        assert fit.sse <= _trf_sse(y, t) * (1 + 1e-12)
    assert fit.K == 62.0


def test_fit_stopped_at_the_iteration_cap_is_not_converged(monkeypatch):
    _, _, y = _noisy_uptake(np.random.default_rng(3))
    assert fit_logistic(y).converged
    monkeypatch.setattr(logistic, "LM_MAX_ITERS", 3)
    assert not fit_logistic(y).converged


def _one_at_a_time(Y):
    """fit_logistic of each row alone, or the error it raises."""
    out = []
    for y in Y:
        try:
            out.append(fit_logistic(y))
        except (SynthctlError, ValueError) as exc:
            out.append(exc)
    return out


def _same_outcome(batched, alone):
    """Equal fits (every float bit for bit), or errors of one type and text."""
    if isinstance(alone, Exception):
        return type(batched) is type(alone) and str(batched) == str(alone)
    return batched == alone


def test_batched_fits_equal_fits_one_at_a_time(monkeypatch):
    rng = np.random.default_rng(29)
    Y = np.vstack([_noisy_uptake(rng)[2] for _ in range(320)])
    for i in range(0, 320, 8):  # 40 units with holes on 4 sets of days
        Y[i, (i // 8) % 4::11] = np.nan
    Y[101, 9:] = np.nan  # too short, between good units
    Y[102] = 0.0  # never positive
    loops = []
    solve = logistic._levenberg_marquardt

    def counted(x, *args):
        loops.append(len(x) // logistic.N_STARTS)
        return solve(x, *args)
    monkeypatch.setattr(logistic, "_levenberg_marquardt", counted)
    batched = logistic.fit_logistic_many(Y)
    # the 278 units without holes run in two blocks, each set of holes in one
    assert sorted(loops) == [10, 10, 10, 10, 278 - logistic.LM_BLOCK, logistic.LM_BLOCK]
    alone = _one_at_a_time(Y)
    assert str(alone[101]) == "need at least 10 usable points, have 9"
    assert str(alone[102]) == "series is never positive"
    assert all(_same_outcome(b, a) for b, a in zip(batched, alone))


def test_batched_fit_at_the_iteration_cap_is_alone_in_not_converging(monkeypatch):
    rng = np.random.default_rng(3)
    Y = np.vstack([_noisy_uptake(rng)[2] for _ in range(8)])
    monkeypatch.setattr(logistic, "LM_MAX_ITERS", 25)
    batched = logistic.fit_logistic_many(Y)
    assert [f.converged for f in batched] == [True] * 4 + [False] + [True] * 3
    assert batched == _one_at_a_time(Y)


def test_equal_series_in_one_batch_get_equal_fits():
    rng = np.random.default_rng(8)
    y, other = _noisy_uptake(rng)[2], _noisy_uptake(rng)[2]
    fits = logistic.fit_logistic_many(np.vstack([y, other, y, y]))
    assert fits[0] == fits[2] == fits[3] != fits[1]


def test_fit_of_every_other_day():
    y = np.full(729, np.nan)
    y[::2] = logistic_predict(75.0, 0.03, 1.0, np.arange(0, 730, 2, dtype=float))
    fit = fit_logistic(y)
    assert fit.K == pytest.approx(75.0, rel=1e-3)
    assert fit.nu == pytest.approx(0.03, rel=1e-3)


# ---------------------------------------------------------------------------
# quadrants
# ---------------------------------------------------------------------------

def _fit(K, nu):
    return LogisticFit(K=K, nu=nu, p0=1.0, sse=0.0, flagged=False)


def test_quadrant_corners():
    fits = {
        "a": _fit(90.0, 0.2), "b": _fit(90.0, 0.01),
        "c": _fit(30.0, 0.2), "d": _fit(30.0, 0.01),
    }
    labels = classify_quadrant(fits)
    assert labels == {"a": "HiK_HiV", "b": "HiK_LoV",
                      "c": "LoK_HiV", "d": "LoK_LoV"}


def test_quadrant_symmetric_pair():
    fits = {"lo": _fit(40.0, 0.02), "hi": _fit(80.0, 0.08)}
    labels = classify_quadrant(fits)
    assert labels == {"lo": "LoK_LoV", "hi": "HiK_HiV"}


def test_quadrant_exact_mean_ties_go_hi():
    fits = {"x": _fit(50.0, 0.05), "y": _fit(70.0, 0.07), "z": _fit(60.0, 0.06)}
    labels = classify_quadrant(fits)
    assert labels["z"] == "HiK_HiV"  # exactly at both means


def test_quadrant_needs_two_units():
    with pytest.raises(ValueError):
        classify_quadrant({"only": _fit(50.0, 0.05)})


@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=-20, max_value=20))
def test_quadrant_invariant_under_affine_K_rescale(a, b):
    fits = {
        "a": _fit(90.0, 0.2), "b": _fit(85.0, 0.01),
        "c": _fit(30.0, 0.2), "d": _fit(25.0, 0.01),
    }
    rescaled = {u: _fit(a * f.K + b, f.nu) for u, f in fits.items()}
    if any(f.K <= 0 for f in rescaled.values()):
        return
    assert classify_quadrant(fits) == classify_quadrant(rescaled)


# ---------------------------------------------------------------------------
# regression and deciles
# ---------------------------------------------------------------------------

def test_regression_exact_line():
    theme = np.array([0.1, 0.4, 0.7, 0.9])
    line = theme_regression(theme, 2.0 * theme + 1.0)
    assert line.slope == pytest.approx(2.0)
    assert line.corr == pytest.approx(1.0)


def test_regression_slope_and_corr_share_sign():
    rng = np.random.default_rng(5)
    for _ in range(20):
        theme = rng.uniform(size=8)
        param = rng.normal(size=8)
        line = theme_regression(theme, param)
        if line.corr != 0.0:
            assert np.sign(line.slope) == np.sign(line.corr)


def test_regression_constant_inputs_raise():
    with pytest.raises(SynthctlError, match="index values are constant"):
        theme_regression(np.ones(5), np.arange(5.0))
    with pytest.raises(SynthctlError, match="parameter values are constant"):
        theme_regression(np.arange(5.0), np.ones(5))


def test_regression_rejects_equal_values_whose_float_variance_is_not_zero():
    flat = np.full(7, 0.1)
    assert flat.var() > 0
    with pytest.raises(SynthctlError, match="index values are constant"):
        theme_regression(flat, np.arange(7.0))
    with pytest.raises(SynthctlError, match="parameter values are constant"):
        theme_regression(np.arange(7.0), flat)


def test_regression_needs_three_units():
    with pytest.raises(ValueError):
        theme_regression(np.array([1.0, 2.0]), np.array([3.0, 4.0]))


def test_decile_sizes_for_25_units():
    param = np.arange(25.0)
    index = np.arange(25.0)
    stats = decile_summary(param, index, bins=10)
    assert [s.count for s in stats] == [3, 3, 3, 3, 3, 2, 2, 2, 2, 2]
    assert [s.bin for s in stats] == list(range(1, 11))


def test_decile_means_increase_when_param_equals_index():
    stats = decile_summary(np.arange(20.0), np.arange(20.0), bins=10)
    means = [s.mean for s in stats]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_decile_constant_param_all_bins_equal():
    stats = decile_summary(np.full(30, 7.0), np.arange(30.0), bins=10)
    assert all(s.mean == 7.0 and s.std == 0.0 for s in stats)


def test_decile_too_few_units_raises():
    with pytest.raises(SynthctlError, match="cannot form 10 bins from 5 units"):
        decile_summary(np.arange(5.0), np.arange(5.0), bins=10)


def test_decile_population_std():
    # one bin of two values: population std is half their gap
    stats = decile_summary(np.array([1.0, 3.0]), np.array([0.0, 1.0]), bins=1)
    assert stats[0].std == pytest.approx(1.0)


@given(st.integers(min_value=10, max_value=60), st.integers(min_value=2, max_value=10))
def test_decile_bins_partition_units(n, bins):
    if n < bins:
        return
    rng = np.random.default_rng(n * 31 + bins)
    param = rng.normal(size=n)
    index = rng.normal(size=n)
    stats = decile_summary(param, index, bins=bins)
    assert sum(s.count for s in stats) == n
    assert max(s.count for s in stats) - min(s.count for s in stats) <= 1
    # lowest bins absorb the remainder
    counts = [s.count for s in stats]
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: logistic.fit_logistic_many(np.ones(20)),
     "need one series per row, got an array of shape (20,)"),
    (lambda: theme_regression(np.ones(3), np.ones(4)),
     "theme and parameter must be 1-d arrays of equal length"),
    (lambda: decile_summary(np.ones(3), np.ones(4)),
     "param and index must be 1-d arrays of equal length"),
    (lambda: decile_summary(np.ones(3), np.ones(3), bins=0), "bins must be positive"),
], ids=["one-d-series", "regression-shapes", "decile-shapes", "no-bins"])
def test_input_checks_raise_with_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError and raised.value.args == (message,)
