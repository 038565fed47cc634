"""End-to-end demonstration of the library API.

Builds a small panel with a known treatment effect, fits synthetic
control weights, runs the placebo permutation test, sweeps the training
window, and finishes with a growth-curve section: simulated cumulative
uptake series fitted per unit, classified into quadrants, and regressed
against a synthetic vulnerability index.

Run with `python scripts/run_demo_study.py` from the repository root.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from synthctl import (
    Panel,
    PredictorTable,
    Regularization,
    StudySpec,
    build_design,
    classify_quadrant,
    decile_summary,
    fit_logistic,
    fit_synth,
    logistic_predict,
    p_value,
    placebo_run,
    theme_regression,
    training_sweep,
)

SEED = 42
START = dt.date(2021, 1, 1)


def make_study(rng: np.random.Generator):
    n_donors, days, T0 = 10, 120, 80
    donors = 30 + rng.normal(0, 1, size=(n_donors, days)).cumsum(axis=1)
    w_true = np.zeros(n_donors)
    w_true[0], w_true[1] = 0.35, 0.65
    treated = w_true @ donors
    treated[T0:] += 4.0
    values = np.vstack([treated, donors])
    units = tuple(f"{10001 + 2 * i:05d}" for i in range(n_donors + 1))
    dates = tuple(START + dt.timedelta(days=i) for i in range(days))
    panel = Panel(units, dates, values, {})

    # lagged outcome levels at checkpoints; enough rows to pin the weights
    pre = values[:, :T0]
    checkpoints = list(range(7, T0, 7))
    X = np.vstack([pre[:, c] for c in checkpoints] + [pre[:, -1] - pre[:, 0]])
    names = tuple(f"level_d{c:02d}" for c in checkpoints) + ("trend",)
    predictors = PredictorTable(names, units, X)
    spec = StudySpec(treated=units[0], donors=units[1:], T0=T0, t_fit=10,
                     v_mode="optimized", reg=Regularization(0.0))
    return panel, predictors, spec, w_true


def synth_section() -> None:
    rng = np.random.default_rng(SEED)
    panel, predictors, spec, w_true = make_study(rng)

    design = build_design(panel, predictors, spec)  # built once, fit by every step below
    result = fit_synth(spec, design)
    print("== synthetic control fit ==")
    print(f"treated unit      {spec.treated}")
    top = sorted(zip(spec.donors, result.w_star), key=lambda p: -p[1])[:4]
    shown = ", ".join(f"{u}={w:.3f}" for u, w in top)
    print(f"largest weights   {shown}")
    print(f"true weights      {spec.donors[0]}=0.350, {spec.donors[1]}=0.650")
    print(f"pre-period MSPE   {result.pre_mspe:.3e}")
    print(f"mean post gap     {result.gap[spec.T0:].mean():+.3f} (injected +4.0)")

    ensemble = placebo_run(spec, design, jobs=1)
    print(f"placebo p-value   {p_value(ensemble):.3f} "
          f"({len(ensemble.entries)} units in the ensemble)")

    rows = training_sweep(spec, [5, 10, 20, 40], design)
    print("training-window sweep (t_fit, pre deviation, p):")
    for row in rows:
        print(f"  {row.t_fit:>3}  {row.pre_deviation:.3e}  {row.p_value:.3f}")
    print()


def growth_section() -> None:
    rng = np.random.default_rng(SEED + 1)
    n_units, days = 40, 365
    t = np.arange(days, dtype=float)

    # vulnerability index drives the ceiling down and slows uptake a little
    index = rng.uniform(0, 1, size=n_units)
    K_true = 85 - 35 * index + rng.normal(0, 2, size=n_units)
    nu_true = 0.06 - 0.02 * index + rng.normal(0, 0.003, size=n_units)

    fits = {}
    for i in range(n_units):
        series = logistic_predict(K_true[i], nu_true[i], 1.0, t)
        series = np.maximum(series + rng.normal(0, 0.2, size=days), 1e-6)
        fits[f"{30001 + 2 * i:05d}"] = fit_logistic(series)

    print("== growth-curve section ==")
    K_hat = np.array([f.K for f in fits.values()])
    nu_hat = np.array([f.nu for f in fits.values()])
    print(f"median |K error|  {np.median(np.abs(K_hat - K_true)):.2f} "
          f"(ceilings {K_true.min():.0f}..{K_true.max():.0f})")

    labels = classify_quadrant(fits)
    counts = {}
    for label in labels.values():
        counts[label] = counts.get(label, 0) + 1
    print(f"quadrant counts   {dict(sorted(counts.items()))}")

    for name, values in (("K", K_hat), ("nu", nu_hat)):
        line = theme_regression(index, values)
        print(f"index vs {name:<2}       slope={line.slope:+.3f} corr={line.corr:+.3f}")

    print("decile means of fitted K by index:")
    for row in decile_summary(K_hat, index):
        print(f"  bin {row.bin:>2}  mean={row.mean:6.2f}  std={row.std:5.2f}")


if __name__ == "__main__":
    synth_section()
    growth_section()
