"""The benchmark's tracer must find every synthctl function it wraps, and count its work."""

import datetime as dt
import importlib.util
import pathlib

import numpy as np

from synthctl import cli, engine, inference, weights

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    wrapped = [(inference, "_fit_ratio_task"), (inference, "placebo_run"),
               (engine, "fit_synth"), (engine, "solve_v"), (engine, "build_design"),
               (weights, "solve_w"), (weights, "_descend"), (weights, "project_simplex")]
    originals = [getattr(module, name) for module, name in wrapped]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert all(getattr(module, name) is not fn
                   for (module, name), fn in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(module, name) is fn for (module, name), fn in zip(wrapped, originals))


def test_traced_placebo_counts_one_search_and_one_full_solve_per_fit(tmp_path):
    # 4 units and 3 varying predictors: every fit is optimized, solve_v
    # compares its winner with the baselines, and fit_synth solves the
    # chosen vector once
    rng = np.random.default_rng(3)
    units = ["10001", "20000", "20002", "20004"]
    days = [(dt.date(2021, 1, 1) + dt.timedelta(days=t)).isoformat() for t in range(40)]
    series = 30 + rng.normal(size=(len(units), len(days))).cumsum(axis=1)
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("unit,date,value\n" + "".join(
        f"{u},{d},{x!r}\n" for u, row in zip(units, series.tolist()) for d, x in zip(days, row)))
    predictors = tmp_path / "predictors.csv"
    X = rng.normal(size=(len(units), 3))
    predictors.write_text("unit,a,b,c\n" + "".join(
        f"{u},{','.join(map(repr, row))}\n" for u, row in zip(units, X.tolist())))

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = tracer.main(cli, ["placebo", "--outcomes", str(outcomes),
                                 "--predictors", str(predictors), "--treated", "10001",
                                 "--t0", days[25], "--jobs", "1", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    m = tracer.metrics()
    fits = m["inference.fits"]
    assert fits == len(units)
    assert m["engine.solve_v.calls"] == m["engine.fit_synth.calls"] == fits
    assert m["weights.solve_w.calls"] - m["engine.solve_v.solve_w_calls"] == fits
