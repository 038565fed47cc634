"""Command-line interface.

Subcommands: fit, placebo, sweep, logistic, select-predictors, ingest.
Options come from flags or an optional key=value config file; flags win.
build_parser declares each option once, with the check that converts its
text and its default, and config-file values pass the same checks as flags.
Exit codes: 0 on success, 2 for configuration problems (missing files, bad
values), 3 for computation failures.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import os
import sys

import numpy as np

from . import donors as donor_ops
from .engine import PLACEMENTS, V_MODES, StudySpec, build_design, fit_synth, split_pre_period
from .errors import ConfigError, EmptyIntersection, InvalidSplit, SynthctlError
from .inference import p_value, placebo_run, training_sweep
from .logistic import classify_quadrant, decile_summary, fit_logistic, theme_regression
from .panel import (
    Panel,
    PredictorTable,
    clean_panel,
    ingest_panel,
    load_metadata,
    load_predictors,
    parse_bool,
    state_of,
)
from .seeding import derive_seed
from .serialize import write_csv, write_json
from .weights import Regularization

V_MODE_CHOICES = tuple(mode.replace("_", "-") for mode in V_MODES)
FILTER_CHOICES = ("none", "cluster", "neighbors")


# ---------------------------------------------------------------------------
# option checks: each turns an option's text, from a flag or the config file,
# into its value, or raises ConfigError naming the flag
# ---------------------------------------------------------------------------

def _parsed(convert, what: str):
    def check(flag: str, text: str):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"{flag} must be {what}, got {text!r}")
    return check


_penalty = _parsed(lambda text: Regularization(float(text)).l1, "a finite nonnegative number")
_date = _parsed(dt.date.fromisoformat, "an ISO date")


def _integer(minimum: int | None = None):
    parse = _parsed(int, "an integer")

    def check(flag: str, text: str) -> int:
        number = parse(flag, text)
        if minimum is not None and number < minimum:
            raise ConfigError(f"{flag} must be at least {minimum}, got {number}")
        return number
    return check


def _one_of(choices: tuple[str, ...]):
    def check(flag: str, text: str) -> str:
        if text not in choices:
            raise ConfigError(f"{flag} must be one of {', '.join(choices)}, got {text!r}")
        return text
    return check


def _existing_file(flag: str, text: str) -> str:
    if not os.path.exists(text):
        raise ConfigError(f"file not found: {text}")
    return text


def _window_lengths(flag: str, text: str) -> list[int]:
    try:
        lengths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of integers, got {text!r}")
    if not lengths:
        raise ConfigError(f"{flag} selected no window lengths")
    if min(lengths) < 1:
        raise ConfigError(f"{flag} must be at least 1, got {min(lengths)}")
    return lengths


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict[str, object]:
    """Read a key=value option file into defaults for build_parser.

    The keys are the dests of the parser's subcommand options. A switch's
    value must read true or false; every other value stays text, for the
    option's check to convert as it converts a flag's.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    commands = next(a for a in parser._actions if a.dest == "command")
    options = {a.dest: a for sub in commands.choices.values() for a in sub._actions
               if a.dest not in ("help", "config")}
    entries: dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in options:
                raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
            value = value.strip()
            if isinstance(options[key].default, bool):  # a store_true switch
                switch = parse_bool(value)
                if switch is None:
                    raise ConfigError(f"{key} must be true or false, got {value!r} in {path}")
                value = switch
            entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# shared study assembly
# ---------------------------------------------------------------------------

def _required(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None or value == "":
        raise ConfigError(f"--{key.replace('_', '-')} is required")
    return value


def _out_dir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_panel(args: argparse.Namespace) -> Panel:
    panel = ingest_panel(_required(args, "outcomes"))
    if args.metadata is not None:
        panel = panel.with_metadata(load_metadata(args.metadata))
    return panel


def _intervention_index(args: argparse.Namespace, panel: Panel, treated: str) -> int:
    """The treated unit's intervention day: --t0, else its t0 in the metadata file.

    This is the only t0 check, so a t0 that --t0 overrides, or that belongs
    to another unit, is never read.
    """
    t0, source = args.t0, "--t0"
    if t0 is None:
        t0, source = panel.meta_for(treated).t0, args.metadata
    if t0 is None:
        raise ConfigError("--t0 is required (or provide it in the metadata file)")
    try:
        return panel.date_index(t0)
    except KeyError:
        raise ConfigError(f"intervention date {t0} of treated unit {treated} (from {source}) "
                          "is outside the panel's date range")


def _donor_pool(args: argparse.Namespace, panel: Panel, treated: str) -> tuple[str, ...]:
    """The units of no treated state: neither a state the metadata marks, nor `treated`'s own."""
    control, _ = donor_ops.split_control_target(panel)
    pool = tuple(u for u in control if state_of(u) != state_of(treated))

    mode = args.filter
    if mode != "none":
        if mode == "cluster":
            clusters = donor_ops.load_clusters(_required(args, "clusters"))
            filtered = donor_ops.filter_by_cluster(treated, pool, clusters)
        else:
            adjacency = donor_ops.load_adjacency(_required(args, "adjacency"))
            filtered = donor_ops.filter_by_neighbor_states(treated, pool, adjacency)
        if filtered:
            pool = filtered
        else:  # the warning names the filter in the singular: cluster, neighbor
            print(f"warning: {mode.removesuffix('s')} filter left no donors for {treated}; "
                  "using the full pool", file=sys.stderr)
    if not pool:
        raise ConfigError(f"no donors remain for treated unit {treated}")
    return pool


def _load_study(args: argparse.Namespace,
                t_fit: int) -> tuple[Panel, PredictorTable | None, StudySpec]:
    """The panel, predictor table and spec of the study that fit, placebo and sweep run."""
    panel = _load_panel(args)
    predictors = None
    if args.predictors is not None:
        predictors = load_predictors(args.predictors)
        missing = set(panel.units) - set(predictors.units)
        if missing:
            raise ConfigError(f"predictor table lacks units: {', '.join(sorted(missing)[:5])}")
    treated = _required(args, "treated")
    if treated not in panel.units:
        raise ConfigError(f"treated unit {treated!r} is not in the outcome panel")
    T0 = _intervention_index(args, panel, treated)
    pool = _donor_pool(args, panel, treated)
    reg = Regularization(l1=args.l1)
    try:
        spec = StudySpec(treated=treated, donors=pool, T0=T0, t_fit=t_fit,
                         v_mode=args.v_mode.replace("-", "_"), reg=reg,
                         train_placement=args.train_placement,
                         standardize=not args.no_standardize)
    except (SynthctlError, ValueError) as exc:
        raise ConfigError(str(exc))
    return panel, predictors, spec


def _unconverged(unit: str, fw_gap: float) -> str:
    return (f"warning: donor weights for {unit} are not certified optimal "
            f"(Frank-Wolfe gap {fw_gap:.3g})")


def _dates_map(panel: Panel, values: np.ndarray) -> dict[str, float]:
    return {d.isoformat(): float(v) for d, v in zip(panel.dates, values)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    panel, predictors, spec = _load_study(args, args.t_fit)
    out = _out_dir(args)

    result = fit_synth(spec, build_design(panel, predictors, spec), seed=args.seed)
    if not result.converged:
        print(f"{_unconverged(spec.treated, result.fw_gap)} (objective {result.objective:.6g})",
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


def cmd_placebo(args: argparse.Namespace) -> int:
    panel, predictors, spec = _load_study(args, args.t_fit)
    placebo_T0 = None
    if args.placebo_t0 is not None:
        try:
            placebo_T0 = panel.date_index(args.placebo_t0)
        except KeyError:
            raise ConfigError(
                f"placebo date {args.placebo_t0} is outside the panel's date range")
        try:
            split_pre_period(placebo_T0, spec.t_fit, spec.train_placement)
        except InvalidSplit as exc:
            raise ConfigError(f"--placebo-t0 {args.placebo_t0} leaves too short a "
                              f"pre-period: {exc}")
    out = _out_dir(args)

    ensemble = placebo_run(spec, panel, predictors, seed=args.seed, jobs=args.jobs,
                           placebo_T0=placebo_T0)
    for e in ensemble.entries:
        if e.skipped:
            print(f"warning: placebo {e.unit} skipped: {e.reason}", file=sys.stderr)
        elif not e.converged:
            print(_unconverged(e.unit, e.fw_gap), file=sys.stderr)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    t_fits = _required(args, "t_fit")
    panel, predictors, spec = _load_study(args, min(t_fits))
    out = _out_dir(args)

    rows = training_sweep(spec, t_fits, panel, predictors, seed=args.seed, jobs=args.jobs)
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


def cmd_logistic(args: argparse.Namespace) -> int:
    panel = ingest_panel(_required(args, "outcomes"))
    themes = load_predictors(_required(args, "predictors"))
    indexed = set(themes.units)
    units = [u for u in panel.units if u in indexed]
    if not units:
        raise EmptyIntersection("no unit appears in every table")
    left_out = sorted(set(panel.units) - indexed)
    if left_out:
        print(f"warning: predictor table lacks {len(left_out)} outcome unit(s), left out: "
              f"{', '.join(left_out[:5])}", file=sys.stderr)
    out = _out_dir(args)

    fits = {}
    failures: list[tuple[str, str]] = []
    for unit in units:
        series = panel.series(unit)
        try:
            fit = fit_logistic(series, seed=derive_seed(args.seed, "logistic", unit))
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

    themes = themes.restrict(list(fits))
    regression_rows = []
    decile_rows = []
    for theme, theme_vals in zip(themes.names, themes.values):
        for param in ("K", "nu"):
            param_vals = np.array([getattr(f, param) for f in fits.values()])
            try:
                line = theme_regression(theme_vals, param_vals)
                regression_rows.append((theme, param, line.slope, line.corr))
            except (SynthctlError, ValueError) as exc:
                print(f"warning: skipping regression {theme}/{param}: {exc}",
                      file=sys.stderr)
            try:
                for stat in decile_summary(param_vals, theme_vals, bins=args.bins):
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


def cmd_select_predictors(args: argparse.Namespace) -> int:
    table = load_predictors(_required(args, "predictors"))
    blocks = donor_ops.load_blocks(_required(args, "blocks"))
    out = _out_dir(args)
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


def cmd_ingest(args: argparse.Namespace) -> int:
    panel = _load_panel(args)
    out = _out_dir(args)
    cleaned, report = clean_panel(panel)
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

def _option(sub: argparse.ArgumentParser, flag: str, check=None, **kwargs) -> None:
    """Declare one option; check(flag, text) converts a flag's or a config value's text."""
    if check is not None:
        kwargs["type"] = functools.partial(check, flag)
    sub.add_argument(flag, **kwargs)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value option file; flags win")
    sub.add_argument("--out", default=".", help="output directory (default %(default)s)")


def _add_study(sub: argparse.ArgumentParser, *, sweep: bool = False) -> None:
    _option(sub, "--clusters", _existing_file, help="fips,cluster CSV for --filter cluster")
    _option(sub, "--adjacency", _existing_file,
            help="state,neighbor CSV for --filter neighbors")
    sub.add_argument("--treated", help="treated unit code")
    _option(sub, "--t0", _date, help="intervention date (ISO)")
    if sweep:
        _option(sub, "--t-fit", _window_lengths, help="comma-separated training window lengths")
    else:
        _option(sub, "--t-fit", _integer(minimum=1), default=StudySpec.t_fit,
                help="training window length (default %(default)s)")
    _option(sub, "--l1", _penalty, default=Regularization().l1,
            help="scales ||w||_2, the 2-norm of the donor weights; "
                 "not a lasso term (default %(default)s)")
    _option(sub, "--v-mode", _one_of(V_MODE_CHOICES),
            default=StudySpec.v_mode.replace("_", "-"),
            help=f"{' | '.join(V_MODE_CHOICES)} (default %(default)s)")
    _option(sub, "--train-placement", _one_of(PLACEMENTS), default=StudySpec.train_placement,
            help=f"{' | '.join(PLACEMENTS)} (default %(default)s)")
    sub.add_argument("--no-standardize", action="store_true",
                     help="skip z-scoring of predictor rows")
    _option(sub, "--filter", _one_of(FILTER_CHOICES), default="none",
            help=f"{' | '.join(FILTER_CHOICES)} (default %(default)s)")


def build_parser(defaults: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The command-line parser, the one place each option is declared.

    defaults, a config file's values by key, replace the declared defaults of
    every subcommand that has the option; flags still win, and each text
    value goes through the option's check as a flag's would.
    """
    parser = argparse.ArgumentParser(
        prog="synthctl",
        description="synthetic control fitting, placebo inference, and "
                    "growth-curve analysis for daily panels",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    fit = commands.add_parser("fit", help="fit one synthetic control")
    placebo = commands.add_parser("placebo", help="placebo ensemble and p-value")
    sweep = commands.add_parser("sweep", help="refit across training window lengths")
    logistic = commands.add_parser("logistic", help="fit growth curves per unit")
    select = commands.add_parser("select-predictors",
                                 help="pick block representatives by correlation")
    ingest = commands.add_parser("ingest", help="validate and clean an outcome panel")

    for sub in (fit, placebo, sweep, logistic, ingest):
        _option(sub, "--outcomes", _existing_file,
                help="long-format outcome CSV (unit,date,value)")
    for sub in (fit, placebo, sweep, logistic, select):
        _option(sub, "--predictors", _existing_file, help="wide predictor CSV (unit,<name>,...)")
    for sub in (fit, placebo, sweep, logistic):
        _option(sub, "--seed", _integer(minimum=0), default=42,
                help="random seed (default %(default)s)")
    for sub in commands.choices.values():
        _add_common(sub)
    for sub in (fit, placebo, sweep, ingest):
        _option(sub, "--metadata", _existing_file, help="per-unit metadata CSV")
    for sub in (fit, placebo):
        _add_study(sub)
    _add_study(sweep, sweep=True)
    _option(placebo, "--placebo-t0", _date, help="intervention date used for placebo fits")
    for sub in (placebo, sweep):
        _option(sub, "--jobs", _integer(minimum=1), default=1,
                help="parallel fits (default %(default)s)")
    _option(logistic, "--bins", _integer(minimum=1), default=10,
            help="bins for index summaries (default %(default)s)")
    _option(select, "--blocks", _existing_file, help="block,predictor CSV")

    if defaults:
        for sub in commands.choices.values():
            sub.set_defaults(**{a.dest: defaults[a.dest] for a in sub._actions
                                if a.dest in defaults})
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
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = build_parser(_read_config(args.config, parser)).parse_args(argv)
        return COMMANDS[args.command](args)
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
