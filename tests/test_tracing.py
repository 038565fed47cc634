"""The benchmark's tracer must find every synthctl function it wraps."""

import importlib.util
import pathlib

from synthctl import engine, inference, weights

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
