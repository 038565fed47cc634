"""Command-line interface.

Subcommands: fit, placebo, sweep, logistic, select-predictors, ingest.
Options come from flags or an optional key=value config file; flags win.
Exit codes: 0 on success, 2 for configuration problems (missing files, bad
values), 3 for computation failures.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys

import numpy as np

from . import donors as donor_ops
from .engine import StudySpec, build_design, fit_synth, split_pre_period
from .errors import ConfigError, EmptyIntersection, InvalidSplit, SynthctlError
from .inference import p_value, placebo_run, training_sweep
from .logistic import classify_quadrant, decile_summary, fit_logistic, theme_regression
from .panel import (
    CleaningPolicy,
    Panel,
    PredictorTable,
    clean_panel,
    ingest_panel,
    load_metadata,
    load_predictors,
    parse_bool,
)
from .seeding import derive_seed
from .serialize import write_csv, write_json
from .weights import Regularization, SolverOptions

V_MODE_CHOICES = ("optimized", "inverse-variance", "uniform")
FILTER_CHOICES = ("none", "cluster", "neighbors")

_KNOWN_KEYS = {
    "outcomes", "predictors", "metadata", "clusters", "adjacency", "blocks",
    "treated", "t0", "t_fit", "l1", "v_mode", "train_placement",
    "placebo_t0", "bins", "jobs", "seed", "out", "no_standardize", "filter",
}


def _load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
            entries[key] = value.strip()
    return entries


class Settings:
    """Merged view of CLI flags and the optional config file; flags win."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self._file = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def raw(self, key: str, default: str | None = None) -> str | None:
        value = getattr(self._args, key, None)
        if value is not None:
            return str(value)
        if key in self._file:
            return self._file[key]
        return default

    def flag(self, key: str) -> bool:
        value = getattr(self._args, key, None)
        if value is not None:
            return bool(value)
        text = self._file.get(key)
        if text is None:
            return False
        value = parse_bool(text)
        if value is None:
            raise ConfigError(f"{key} must be true or false, got {text!r} in {self._args.config}")
        return value

    def require(self, key: str) -> str:
        value = self.raw(key)
        if value is None or value == "":
            raise ConfigError(f"--{key.replace('_', '-')} is required")
        return value

    def path(self, key: str, required: bool = False) -> str | None:
        value = self.require(key) if required else self.raw(key)
        if value is None:
            return None
        if not os.path.exists(value):
            raise ConfigError(f"file not found: {value}")
        return value

    def integer(self, key: str, default: int, minimum: int | None = None) -> int:
        value = self.raw(key)
        if value is None:
            return default
        flag = f"--{key.replace('_', '-')}"
        try:
            number = int(value)
        except ValueError:
            raise ConfigError(f"{flag} must be an integer, got {value!r}")
        if minimum is not None and number < minimum:
            raise ConfigError(f"{flag} must be at least {minimum}, got {number}")
        return number

    def floating(self, key: str, default: float) -> float:
        value = self.raw(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"--{key.replace('_', '-')} must be a number, got {value!r}")

    def date(self, key: str) -> dt.date | None:
        value = self.raw(key)
        if value is None:
            return None
        try:
            return dt.date.fromisoformat(value)
        except ValueError:
            raise ConfigError(f"--{key.replace('_', '-')} must be an ISO date, got {value!r}")

    def choice(self, key: str, choices: tuple[str, ...], default: str) -> str:
        value = self.raw(key, default)
        if value not in choices:
            raise ConfigError(
                f"--{key.replace('_', '-')} must be one of {', '.join(choices)}, got {value!r}"
            )
        return value

    def out_dir(self) -> str:
        out = self.raw("out", ".")
        os.makedirs(out, exist_ok=True)
        return out


# ---------------------------------------------------------------------------
# shared study assembly
# ---------------------------------------------------------------------------

def _load_panel(settings: Settings) -> Panel:
    panel = ingest_panel(settings.path("outcomes", required=True))
    meta_path = settings.path("metadata")
    if meta_path:
        panel = panel.with_metadata(load_metadata(meta_path))
    return panel


def _load_predictor_table(settings: Settings, panel: Panel) -> PredictorTable | None:
    path = settings.path("predictors")
    if path is None:
        return None
    table = load_predictors(path)
    missing = set(panel.units) - set(table.units)
    if missing:
        raise ConfigError(
            f"predictor table lacks units: {', '.join(sorted(missing)[:5])}"
        )
    return table.restrict(list(panel.units))


def _intervention_index(settings: Settings, panel: Panel, treated: str) -> int:
    t0 = settings.date("t0")
    if t0 is None:
        t0 = panel.meta_for(treated).t0
    if t0 is None:
        raise ConfigError("--t0 is required (or provide it in the metadata file)")
    try:
        return panel.date_index(t0)
    except KeyError:
        raise ConfigError(f"intervention date {t0} is outside the panel's date range")


def _donor_pool(settings: Settings, panel: Panel, treated: str) -> tuple[str, ...]:
    has_treated_meta = any(panel.meta_for(u).treated for u in panel.units)
    if has_treated_meta:
        control, _ = donor_ops.split_control_target(panel)
        pool = tuple(u for u in control if u != treated)
    else:
        pool = tuple(u for u in panel.units if u != treated)

    mode = settings.choice("filter", FILTER_CHOICES, "none")
    if mode != "none":
        if mode == "cluster":
            clusters = donor_ops.load_clusters(settings.path("clusters", required=True))
            filtered = donor_ops.filter_by_cluster(treated, pool, clusters)
        else:
            adjacency = donor_ops.load_adjacency(settings.path("adjacency", required=True))
            filtered = donor_ops.filter_by_neighbor_states(treated, pool, adjacency)
        if filtered:
            pool = filtered
        else:  # the warning names the filter in the singular: cluster, neighbor
            print(f"warning: {mode.removesuffix('s')} filter left no donors for {treated}; "
                  "using the full pool", file=sys.stderr)
    if not pool:
        raise ConfigError(f"no donors remain for treated unit {treated}")
    return pool


def _study_spec(settings: Settings, panel: Panel, t_fit: int | None = None) -> StudySpec:
    treated = settings.require("treated")
    if treated not in panel.units:
        raise ConfigError(f"treated unit {treated!r} is not in the outcome panel")
    T0 = _intervention_index(settings, panel, treated)
    pool = _donor_pool(settings, panel, treated)
    if t_fit is None:
        t_fit = settings.integer("t_fit", 10)
    reg = Regularization(l1=settings.floating("l1", 0.6))
    placement = settings.choice("train_placement", ("head", "tail"), "tail")
    mode = settings.choice("v_mode", V_MODE_CHOICES, "optimized").replace("-", "_")
    try:
        return StudySpec(treated=treated, donors=pool, T0=T0, t_fit=t_fit,
                         v_mode=mode, reg=reg,
                         train_placement=placement,
                         standardize=not settings.flag("no_standardize"))
    except (SynthctlError, ValueError) as exc:
        raise ConfigError(str(exc))


def _unconverged(unit: str) -> str:
    return (f"warning: donor weights for {unit} stopped at "
            f"max_iters={SolverOptions().max_iters} without converging")


def _dates_map(panel: Panel, values: np.ndarray) -> dict[str, float]:
    return {d.isoformat(): float(v) for d, v in zip(panel.dates, values)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(settings: Settings) -> int:
    panel = _load_panel(settings)
    predictors = _load_predictor_table(settings, panel)
    spec = _study_spec(settings, panel)
    seed = settings.integer("seed", 42, minimum=0)
    out = settings.out_dir()

    result = fit_synth(spec, build_design(panel, predictors, spec), seed=seed)
    if not result.converged:
        print(f"{_unconverged(spec.treated)} (objective {result.objective:.6g})",
              file=sys.stderr)
    actual = panel.series(spec.treated)
    payload = {
        "treated": result.treated,
        "w": result.weights_by_donor,
        "v": result.importance_by_predictor,
        "synthetic": _dates_map(panel, result.synthetic),
        "gap": _dates_map(panel, result.gap),
        "mspe": {
            "train": result.train_mspe,
            "validation": result.validation_mspe,
            "pre": result.pre_mspe,
        },
    }
    result_path = os.path.join(out, "result.json")
    write_json(result_path, payload)
    curve_path = os.path.join(out, "curve.csv")
    write_csv(curve_path, ["date", "actual", "synthetic", "gap"],
              [(d.isoformat(), float(a), float(s), float(g))
               for d, a, s, g in zip(panel.dates, actual, result.synthetic, result.gap)])
    print(f"wrote {result_path}")
    print(f"wrote {curve_path}")
    return 0


def cmd_placebo(settings: Settings) -> int:
    panel = _load_panel(settings)
    predictors = _load_predictor_table(settings, panel)
    spec = _study_spec(settings, panel)
    seed = settings.integer("seed", 42, minimum=0)
    jobs = settings.integer("jobs", 1, minimum=1)
    placebo_t0_date = settings.date("placebo_t0")
    if placebo_t0_date is not None:
        try:
            placebo_T0 = panel.date_index(placebo_t0_date)
        except KeyError:
            raise ConfigError(
                f"placebo date {placebo_t0_date} is outside the panel's date range")
        try:
            split_pre_period(placebo_T0, spec.t_fit, spec.train_placement)
        except InvalidSplit as exc:
            raise ConfigError(f"--placebo-t0 {placebo_t0_date} leaves too short a "
                              f"pre-period: {exc}")
    else:
        placebo_T0 = None
    out = settings.out_dir()

    ensemble = placebo_run(spec, panel, predictors, seed=seed, jobs=jobs,
                           placebo_T0=placebo_T0)
    for e in ensemble.entries:
        if e.skipped:
            print(f"warning: placebo {e.unit} skipped: {e.reason}", file=sys.stderr)
        elif not e.converged:
            print(_unconverged(e.unit), file=sys.stderr)
    p = p_value(ensemble)
    payload = {
        "treated": ensemble.treated,
        "p_value": p,
        "entries": [
            {"unit": e.unit, "r": e.r, "R_pre": e.R_pre, "R_post": e.R_post,
             "skipped": e.skipped, "reason": e.reason, "pre_floored": e.pre_floored,
             "converged": e.converged}
            for e in ensemble.entries
        ],
    }
    placebo_path = os.path.join(out, "placebo.json")
    write_json(placebo_path, payload)
    valid = [e for e in ensemble.entries if not e.skipped]
    skipped = [e for e in ensemble.entries if e.skipped]
    pvalues_path = os.path.join(out, "pvalues.csv")
    write_csv(pvalues_path, ["treated", "p_value", "n_valid", "n_skipped"],
              [(ensemble.treated, p, len(valid), len(skipped))])
    print(f"wrote {placebo_path}")
    print(f"wrote {pvalues_path}")
    return 0


def cmd_sweep(settings: Settings) -> int:
    panel = _load_panel(settings)
    predictors = _load_predictor_table(settings, panel)
    raw = settings.require("t_fit")
    try:
        t_fits = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--t-fit must be a comma-separated list of integers, got {raw!r}")
    if not t_fits:
        raise ConfigError("--t-fit selected no window lengths")
    spec = _study_spec(settings, panel, t_fit=min(t_fits))
    seed = settings.integer("seed", 42, minimum=0)
    jobs = settings.integer("jobs", 1, minimum=1)
    out = settings.out_dir()

    rows = training_sweep(spec, t_fits, panel, predictors, seed=seed, jobs=jobs)
    sweep_path = os.path.join(out, "sweep.csv")
    write_csv(sweep_path, ["t_fit", "pre_deviation", "p_value"],
              [(row.t_fit,
                None if row.failed else row.pre_deviation,
                None if row.failed else row.p_value)
               for row in rows])
    for row in rows:
        if row.failed:
            print(f"warning: t_fit={row.t_fit}: {row.reason}", file=sys.stderr)
    print(f"wrote {sweep_path}")
    return 0


def cmd_logistic(settings: Settings) -> int:
    panel = ingest_panel(settings.path("outcomes", required=True))
    themes = load_predictors(settings.path("predictors", required=True))
    indexed = set(themes.units)
    units = [u for u in panel.units if u in indexed]
    if not units:
        raise EmptyIntersection("no unit appears in every table")
    left_out = sorted(set(panel.units) - indexed)
    if left_out:
        print(f"warning: predictor table lacks {len(left_out)} outcome unit(s), left out: "
              f"{', '.join(left_out[:5])}", file=sys.stderr)
    seed = settings.integer("seed", 42, minimum=0)
    bins = settings.integer("bins", 10, minimum=1)
    out = settings.out_dir()

    fits = {}
    failures: list[tuple[str, str]] = []
    for unit in units:
        series = panel.series(unit)
        try:
            fit = fit_logistic(series, seed=derive_seed(seed, "logistic", unit))
        except (SynthctlError, ValueError) as exc:
            failures.append((unit, str(exc)))
            continue
        if fit.flagged:
            failures.append((unit, fit.note or "flagged"))
            continue
        if not fit.converged:
            print(f"warning: growth curve for {unit} stopped at its iteration cap "
                  "without converging", file=sys.stderr)
        fits[unit] = fit

    quadrants = classify_quadrant(fits) if len(fits) >= 2 else {}
    fits_path = os.path.join(out, "fits.csv")
    write_csv(fits_path, ["unit", "K", "nu", "p0", "sse", "quadrant"],
              [(u, f.K, f.nu, f.p0, f.sse, quadrants.get(u, ""))
               for u, f in fits.items()])
    failures_path = os.path.join(out, "fit_failures.csv")
    write_csv(failures_path, ["unit", "reason"], failures)

    fitted_units = [u for u in units if u in fits]
    themes_by_unit = themes.restrict(fitted_units) if fitted_units else None
    regression_rows = []
    decile_rows = []
    for i, theme in enumerate(themes.names if themes_by_unit is not None else ()):
        theme_vals = themes_by_unit.values[i]
        for param in ("K", "nu"):
            param_vals = np.array([getattr(fits[u], param) for u in themes_by_unit.units])
            try:
                line = theme_regression(theme_vals, param_vals)
                regression_rows.append((theme, param, line.slope, line.corr))
            except (SynthctlError, ValueError) as exc:
                print(f"warning: skipping regression {theme}/{param}: {exc}",
                      file=sys.stderr)
            try:
                for stat in decile_summary(param_vals, theme_vals, bins=bins):
                    decile_rows.append((theme, param, stat.bin, stat.mean, stat.std))
            except (SynthctlError, ValueError) as exc:
                print(f"warning: skipping deciles {theme}/{param}: {exc}",
                      file=sys.stderr)
    write_csv(os.path.join(out, "ccvi_regression.csv"),
              ["theme", "param", "slope", "corr"], regression_rows)
    write_csv(os.path.join(out, "deciles.csv"),
              ["theme", "param", "bin", "mean", "std"], decile_rows)

    print(f"wrote {fits_path} ({len(fits)} fits, {len(failures)} failures)")
    if len(fits) * 2 < len(units):
        print(f"error: only {len(fits)} of {len(units)} units produced usable fits",
              file=sys.stderr)
        return 3
    return 0


def cmd_select_predictors(settings: Settings) -> int:
    table = load_predictors(settings.path("predictors", required=True))
    blocks = donor_ops.load_blocks(settings.path("blocks", required=True))
    out = settings.out_dir()
    corr = donor_ops.abs_correlation(table.values)
    result = donor_ops.select_predictors_naive(corr, list(table.names), blocks)
    selected_path = os.path.join(out, "selected.csv")
    write_csv(selected_path, ["block", "predictor"],
              [(block, name)
               for block, chosen in result.by_block.items()
               for name in chosen])
    for block in result.short_blocks:
        print(f"warning: block {block} has fewer compliant predictors than requested",
              file=sys.stderr)
    print(f"wrote {selected_path} ({len(result.selected)} predictors)")
    return 0


def cmd_ingest(settings: Settings) -> int:
    panel = _load_panel(settings)
    out = settings.out_dir()
    cleaned, report = clean_panel(panel, CleaningPolicy())
    clean_path = os.path.join(out, "panel_clean.csv")
    days = [d.isoformat() for d in cleaned.dates]
    write_csv(clean_path, ["unit", "date", "value"],
              ((u, day, value)
               for u, series in zip(cleaned.units, cleaned.values.tolist())
               for day, value in zip(days, series)))
    dropped_path = os.path.join(out, "dropped.csv")
    write_csv(dropped_path, ["unit", "reason"], report)
    print(f"wrote {clean_path} ({cleaned.n_units} units kept, {len(report)} dropped)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, study: bool) -> None:
    sub.add_argument("--outcomes", help="long-format outcome CSV (unit,date,value)")
    sub.add_argument("--predictors", help="wide predictor CSV (unit,<name>,...)")
    sub.add_argument("--config", help="key=value option file; flags win")
    sub.add_argument("--seed", help="random seed (default 42)")
    sub.add_argument("--out", help="output directory (default .)")
    if study:
        sub.add_argument("--metadata", help="per-unit metadata CSV")
        sub.add_argument("--clusters", help="fips,cluster CSV for --filter cluster")
        sub.add_argument("--adjacency", help="state,neighbor CSV for --filter neighbors")
        sub.add_argument("--treated", help="treated unit code")
        sub.add_argument("--t0", help="intervention date (ISO)")
        sub.add_argument("--t-fit", dest="t_fit", help="training window length")
        sub.add_argument("--l1", help="scales ||w||_2, the 2-norm of the donor weights; "
                                      "not a lasso term (default 0.6)")
        sub.add_argument("--v-mode", dest="v_mode",
                         help="optimized | inverse-variance | uniform")
        sub.add_argument("--train-placement", dest="train_placement",
                         help="head | tail (default tail)")
        sub.add_argument("--no-standardize", dest="no_standardize",
                         action="store_const", const=True, default=None,
                         help="skip z-scoring of predictor rows")
        sub.add_argument("--filter", help="none | cluster | neighbors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthctl",
        description="synthetic control fitting, placebo inference, and "
                    "growth-curve analysis for daily panels",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit one synthetic control")
    _add_common(fit, study=True)

    placebo = commands.add_parser("placebo", help="placebo ensemble and p-value")
    _add_common(placebo, study=True)
    placebo.add_argument("--placebo-t0", dest="placebo_t0",
                         help="intervention date used for placebo fits")
    placebo.add_argument("--jobs", help="parallel fits (default 1)")

    sweep = commands.add_parser("sweep", help="refit across training window lengths")
    _add_common(sweep, study=True)
    sweep.add_argument("--jobs", help="parallel fits (default 1)")

    logistic = commands.add_parser("logistic", help="fit growth curves per unit")
    _add_common(logistic, study=False)
    logistic.add_argument("--bins", help="bins for index summaries (default 10)")

    select = commands.add_parser("select-predictors",
                                 help="pick block representatives by correlation")
    _add_common(select, study=False)
    select.add_argument("--blocks", help="block,predictor CSV")

    ingest = commands.add_parser("ingest", help="validate and clean an outcome panel")
    _add_common(ingest, study=False)
    ingest.add_argument("--metadata", help="per-unit metadata CSV")
    return parser


COMMANDS = {
    "fit": cmd_fit,
    "placebo": cmd_placebo,
    "sweep": cmd_sweep,
    "logistic": cmd_logistic,
    "select-predictors": cmd_select_predictors,
    "ingest": cmd_ingest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args)
        command = COMMANDS[args.command]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return command(settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SynthctlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
