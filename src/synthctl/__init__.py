"""Synthetic control estimation for daily panel data.

The pieces fit together in one direction: `panel` loads and cleans the data,
`donors` narrows the donor pool and the predictor list, `spec` says what a
study fits, `engine` fits one synthetic control (driving the `weights`
solver), `inference` wraps the fit in placebo permutation tests, and
`logistic` handles the growth-curve side of the analysis. `cli` exposes all
of it as subcommands.

Each public name is imported from its module on first access (PEP 562), so
`import synthctl` loads no submodule, and a command loads only the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "donors": ("SelectionResult", "abs_correlation", "filter_by_cluster",
               "filter_by_neighbor_states", "select_predictors_naive", "split_control_target"),
    "engine": ("Design", "SynthResult", "build_design", "fit_synth", "solve_v"),
    "errors": ("SynthctlError",),
    "inference": ("PlaceboEnsemble", "PlaceboEntry", "SweepRow", "p_value", "placebo_run",
                  "training_sweep"),
    "logistic": ("BinStat", "LogisticFit", "RegressionLine", "classify_quadrant",
                 "decile_summary", "fit_logistic", "fit_logistic_many", "logistic_predict",
                 "theme_regression"),
    "panel": ("Panel", "PredictorTable", "UnitMeta", "clean_panel", "enforce_monotone",
              "ingest_panel", "load_metadata", "load_predictors", "repair_series",
              "rolling_mean", "write_panel"),
    "spec": ("Regularization", "StudySpec", "split_pre_period"),
    "weights": ("SolveResult", "objective", "project_simplex", "solve_w"),
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
