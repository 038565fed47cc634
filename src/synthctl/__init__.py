"""Synthetic control estimation for daily panel data.

The pieces fit together in one direction: `panel` loads and cleans the data,
`donors` narrows the donor pool and the predictor list, `engine` fits one
synthetic control (driving the `weights` solver), `inference` wraps the fit in
placebo permutation tests, and `logistic` handles the growth-curve side of the
analysis. `cli` exposes all of it as subcommands.
"""

from .donors import (
    SelectionResult,
    abs_correlation,
    filter_by_cluster,
    filter_by_neighbor_states,
    select_predictors_naive,
    split_control_target,
)
from .engine import (
    Design,
    StudySpec,
    SynthResult,
    build_design,
    fit_synth,
    inverse_variance_v,
    solve_v,
    split_pre_period,
)
from .errors import SynthctlError
from .inference import (
    PlaceboEnsemble,
    PlaceboEntry,
    SweepRow,
    p_value,
    placebo_run,
    training_sweep,
)
from .logistic import (
    BinStat,
    LogisticFit,
    RegressionLine,
    classify_quadrant,
    decile_summary,
    fit_logistic,
    logistic_predict,
    theme_regression,
)
from .panel import (
    Panel,
    PredictorTable,
    UnitMeta,
    clean_panel,
    enforce_monotone,
    ingest_panel,
    load_metadata,
    load_predictors,
    repair_series,
    rolling_mean,
)
from .seeding import derive_seed
from .weights import (
    Regularization,
    SolveResult,
    objective,
    project_simplex,
    solve_w,
)

__version__ = "0.1.0"

__all__ = [
    "BinStat",
    "Design",
    "LogisticFit",
    "Panel",
    "PlaceboEnsemble",
    "PlaceboEntry",
    "PredictorTable",
    "RegressionLine",
    "Regularization",
    "SelectionResult",
    "SolveResult",
    "StudySpec",
    "SweepRow",
    "SynthResult",
    "SynthctlError",
    "UnitMeta",
    "abs_correlation",
    "build_design",
    "classify_quadrant",
    "clean_panel",
    "decile_summary",
    "derive_seed",
    "enforce_monotone",
    "filter_by_cluster",
    "filter_by_neighbor_states",
    "fit_logistic",
    "fit_synth",
    "ingest_panel",
    "inverse_variance_v",
    "load_metadata",
    "load_predictors",
    "logistic_predict",
    "objective",
    "p_value",
    "placebo_run",
    "project_simplex",
    "repair_series",
    "rolling_mean",
    "select_predictors_naive",
    "solve_v",
    "solve_w",
    "split_control_target",
    "split_pre_period",
    "theme_regression",
    "training_sweep",
]
