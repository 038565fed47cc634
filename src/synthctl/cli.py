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
import gc
import importlib
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ConfigError, InvalidSplit, SynthctlError, UnlabeledUnit
from .serialize import write_csv, write_json
from .spec import PLACEMENTS, V_MODES, Regularization, StudySpec

# numpy and the modules that read or fit data (panel, donors, engine with
# weights, inference, logistic) are imported only once the command line has
# checked out, each by the commands that run it (see COMMANDS): a --help or
# an option error loads none of them, and a launch loads only the modules
# its command needs. The parser's defaults and choices come from spec.
if TYPE_CHECKING:
    import numpy as np

    from .engine import Design
    from .inference import PlaceboEntry
    from .panel import Panel


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


_integer = _parsed(int, "an integer")


def _positive(flag: str, text: str) -> int:
    number = _integer(flag, text)
    if number < 1:
        raise ConfigError(f"{flag} must be at least 1, got {number}")
    return number


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


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict[str, str]:
    """Read a key=value option file into defaults for build_parser.

    The keys are the dests of the parser's subcommand options, each set once.
    Each value stays text, for the option's check to convert as a flag's.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    commands = next(a for a in parser._actions if a.dest == "command")
    options = {a.dest for sub in commands.choices.values() for a in sub._actions
               if a.dest not in ("help", "config")}
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
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
            if first_line.setdefault(key, lineno) != lineno:
                raise ConfigError(f"{path}:{lineno}: option {key!r} is set twice "
                                  f"(first on line {first_line[key]})")
            entries[key] = value.strip()
    return entries


# ---------------------------------------------------------------------------
# shared study assembly
# ---------------------------------------------------------------------------

def _out_dir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_panel(args: argparse.Namespace) -> Panel:
    from .panel import ingest_panel, load_metadata

    panel = ingest_panel(args.outcomes)
    if args.metadata is not None:
        panel = panel.with_metadata(load_metadata(args.metadata))
    return panel


def _day_index(panel: Panel, day: dt.date, what: str) -> int:
    """The panel column of day; `what` names the date in the error when it has none."""
    try:
        return panel.date_index(day)
    except KeyError:
        raise ConfigError(f"{what} is outside the panel's date range")


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
    return _day_index(panel, t0,
                      f"intervention date {t0} of treated unit {treated} (from {source})")


def _donor_pool(args: argparse.Namespace, panel: Panel, treated: str) -> tuple[str, ...]:
    """The units of no treated state, narrowed by each side table given.

    A treated state is one the metadata marks, or `treated`'s own. --clusters
    keeps `treated`'s cluster, then --adjacency the states that border its
    own; a table that would leave no donor is skipped, with a warning.
    """
    from . import donors as donor_ops
    from .panel import state_of

    control, _ = donor_ops.split_control_target(panel)
    pool = tuple(u for u in control if state_of(u) != state_of(treated))
    kept = "the full pool"
    for key, load, narrow, name in (
            ("clusters", donor_ops.load_clusters, donor_ops.filter_by_cluster, "cluster"),
            ("adjacency", donor_ops.load_adjacency, donor_ops.filter_by_neighbor_states,
             "neighbor")):
        path = getattr(args, key)
        if path is None:
            continue
        try:
            narrowed = narrow(treated, pool, load(path))
        except UnlabeledUnit as exc:
            raise ConfigError(f"--{key} {path}: {exc}")
        if narrowed:
            pool, kept = narrowed, f"the {name} filter's pool"
        else:
            print(f"warning: {name} filter left no donors for {treated}; using {kept}",
                  file=sys.stderr)
    if not pool:
        raise ConfigError(f"no donors remain for treated unit {treated}")
    return pool


def _load_study(args: argparse.Namespace, t_fit: int) -> tuple[Panel, StudySpec, Design]:
    """The panel, spec and design of the study that fit, placebo and sweep run.

    The predictor table needs rows for the treated unit and its donors only.
    The design is built once, here, for every fit of the command.
    """
    from .engine import build_design
    from .panel import load_predictors

    panel = _load_panel(args)
    predictors = None if args.predictors is None else load_predictors(args.predictors)
    treated = args.treated
    if treated not in panel.units:
        raise ConfigError(f"treated unit {treated!r} is not in the outcome panel")
    T0 = _intervention_index(args, panel, treated)
    pool = _donor_pool(args, panel, treated)
    if predictors is not None:
        missing = sorted(set((treated,) + pool) - set(predictors.units))
        if missing:
            raise ConfigError(f"predictor table {args.predictors} lacks units: "
                              f"{', '.join(missing[:5])}")
    reg = Regularization(l1=args.l1)
    try:
        spec = StudySpec(treated=treated, donors=pool, T0=T0, t_fit=t_fit,
                         v_mode=args.v_mode, reg=reg, train_placement=args.train_placement)
    except InvalidSplit as exc:
        raise ConfigError(f"--t-fit {t_fit} does not fit the pre-period: {exc}")
    return panel, spec, build_design(panel, predictors, spec)


def _unconverged(unit: str, fw_gap: float, run: str = "") -> str:
    return (f"warning: {run}donor weights for {unit} are not certified optimal "
            f"(Frank-Wolfe gap {fw_gap:.3g})")


def _warn_placebo_fits(entries: tuple[PlaceboEntry, ...], run: str = "") -> None:
    """Warn of each skipped or uncertified fit of a placebo run; `run` prefixes each."""
    for e in entries:
        if e.skipped:
            print(f"warning: {run}placebo {e.unit} skipped: {e.reason}", file=sys.stderr)
        elif not e.converged:
            print(_unconverged(e.unit, e.fw_gap, run), file=sys.stderr)


def _dates_map(panel: Panel, values: np.ndarray) -> dict[str, float]:
    return {d.isoformat(): float(v) for d, v in zip(panel.dates, values)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    from .engine import fit_synth

    panel, spec, design = _load_study(args, args.t_fit)
    out = _out_dir(args)

    result = fit_synth(spec, design)
    if not result.converged:
        print(f"{_unconverged(spec.treated, result.fw_gap)} (objective {result.objective:.6g})",
              file=sys.stderr)
    actual = panel.series(spec.treated)
    payload = {
        "treated": spec.treated,
        "w": dict(zip(spec.donors, result.w_star.tolist())),
        "v": dict(zip(design.names, result.v_star.tolist())),
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
    from .inference import p_value, placebo_run

    panel, spec, design = _load_study(args, args.t_fit)
    placebo_T0 = (None if args.placebo_t0 is None else
                  _day_index(panel, args.placebo_t0, f"placebo date {args.placebo_t0}"))
    try:
        ensemble = placebo_run(spec, design, jobs=args.jobs, placebo_T0=placebo_T0)
    except InvalidSplit as exc:
        # raised before any fit: StudySpec has already checked spec.T0's window
        raise ConfigError(f"--placebo-t0 {args.placebo_t0} leaves too short a "
                          f"pre-period: {exc}")
    out = _out_dir(args)
    _warn_placebo_fits(ensemble.entries)
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
    skipped = sum(e.skipped for e in ensemble.entries)
    pvalues_path = os.path.join(out, "pvalues.csv")
    write_csv(pvalues_path, ["treated", "p_value", "n_valid", "n_skipped"],
              [(ensemble.treated, p, len(ensemble.entries) - skipped, skipped)])
    print(f"wrote {placebo_path}")
    print(f"wrote {pvalues_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .inference import training_sweep

    t_fits = args.t_fit
    _, spec, design = _load_study(args, min(t_fits))
    out = _out_dir(args)

    rows = training_sweep(spec, t_fits, design, jobs=args.jobs)
    sweep_path = os.path.join(out, "sweep.csv")
    write_csv(sweep_path, ["t_fit", "pre_deviation", "p_value"],
              [(row.t_fit,
                None if row.failed else row.pre_deviation,
                None if row.failed else row.p_value)
               for row in rows])
    for row in rows:
        if row.failed:
            print(f"warning: t_fit={row.t_fit}: {row.reason}", file=sys.stderr)
        _warn_placebo_fits(row.entries, f"t_fit={row.t_fit}: ")
    print(f"wrote {sweep_path}")
    return 0


def cmd_logistic(args: argparse.Namespace) -> int:
    import numpy as np

    from .logistic import classify_quadrant, decile_summary, fit_logistic_many, theme_regression
    from .panel import ingest_panel, load_predictors

    panel = ingest_panel(args.outcomes)
    themes = load_predictors(args.predictors)
    indexed = set(themes.units)
    units = [u for u in panel.units if u in indexed]
    if not units:
        raise SynthctlError(f"no unit of --outcomes {args.outcomes} appears in "
                            f"--predictors {args.predictors}")
    left_out = sorted(set(panel.units) - indexed)
    if left_out:
        print(f"warning: predictor table lacks {len(left_out)} outcome unit(s), left out: "
              f"{', '.join(left_out[:5])}", file=sys.stderr)
    out = _out_dir(args)

    fits = {}
    failures: list[tuple[str, str]] = []
    series = panel.values[[panel.unit_index(u) for u in units]]
    for unit, fit in zip(units, fit_logistic_many(series)):
        if isinstance(fit, Exception):
            failures.append((unit, str(fit)))
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
    from . import donors as donor_ops
    from .panel import load_predictors

    table = load_predictors(args.predictors)
    blocks = donor_ops.load_blocks(args.blocks)
    try:
        corr = donor_ops.abs_correlation(table.values, table.names)
    except SynthctlError as exc:
        raise SynthctlError(f"--predictors {args.predictors}: {exc}") from None
    result = donor_ops.select_predictors_naive(corr, list(table.names), blocks)
    out = _out_dir(args)
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
    from .panel import clean_panel, write_panel

    panel = _load_panel(args)
    out = _out_dir(args)
    try:
        cleaned, report = clean_panel(panel)
    except SynthctlError as exc:
        raise SynthctlError(f"{args.outcomes}: {exc}") from None
    clean_path = os.path.join(out, "panel_clean.csv")
    write_panel(clean_path, cleaned)
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
    _option(sub, "--clusters", _existing_file,
            help="fips,cluster CSV: keep the treated unit's cluster")
    _option(sub, "--adjacency", _existing_file,
            help="state,neighbor CSV: keep the states that border the treated unit's")
    sub.add_argument("--treated", help="treated unit code")
    _option(sub, "--t0", _date, help="intervention date (ISO)")
    if sweep:
        _option(sub, "--t-fit", _window_lengths, help="comma-separated training window lengths")
    else:
        _option(sub, "--t-fit", _positive, default=StudySpec.t_fit,
                help="training window length (default %(default)s)")
    _option(sub, "--l1", _penalty, default=Regularization().l1,
            help="scales ||w||_2, the 2-norm of the donor weights; "
                 "not a lasso term (default %(default)s)")
    _option(sub, "--v-mode", _one_of(V_MODES), default=StudySpec.v_mode,
            help=f"{' | '.join(V_MODES)} (default %(default)s)")
    _option(sub, "--train-placement", _one_of(PLACEMENTS), default=StudySpec.train_placement,
            help=f"{' | '.join(PLACEMENTS)} (default %(default)s)")


def build_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
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
    for sub in commands.choices.values():
        _add_common(sub)
    for sub in (fit, placebo, sweep, ingest):
        _option(sub, "--metadata", _existing_file, help="per-unit metadata CSV")
    for sub in (fit, placebo):
        _add_study(sub)
    _add_study(sweep, sweep=True)
    _option(placebo, "--placebo-t0", _date, help="intervention date used for placebo fits")
    for sub in (placebo, sweep):
        _option(sub, "--jobs", _positive, default=1,
                help="parallel fits (default %(default)s)")
    _option(logistic, "--bins", _positive, default=10,
            help="bins for index summaries (default %(default)s)")
    _option(select, "--blocks", _existing_file, help="block,predictor CSV")

    if defaults:
        for sub in commands.choices.values():
            sub.set_defaults(**{a.dest: defaults[a.dest] for a in sub._actions
                                if a.dest in defaults})
    return parser


class Command(NamedTuple):
    """One subcommand: its function, the options it requires, checked in
    this order, and the synthctl modules that its function imports."""

    run: Callable[[argparse.Namespace], int]
    required: tuple[str, ...]
    modules: tuple[str, ...]


COMMANDS = {
    "fit": Command(cmd_fit, ("outcomes", "treated"), ("panel", "donors", "engine")),
    "placebo": Command(cmd_placebo, ("outcomes", "treated"),
                       ("panel", "donors", "engine", "inference")),
    "sweep": Command(cmd_sweep, ("t_fit", "outcomes", "treated"),
                     ("panel", "donors", "engine", "inference")),
    "logistic": Command(cmd_logistic, ("outcomes", "predictors"), ("panel", "logistic")),
    "select-predictors": Command(cmd_select_predictors, ("predictors", "blocks"),
                                 ("panel", "donors")),
    "ingest": Command(cmd_ingest, ("outcomes",), ("panel",)),
}


def _run(argv: list[str] | None, freeze: bool) -> int:
    """Check the command line, import the command's modules, then run it.

    Every option check, required options included, comes before any input
    file is read or numpy is imported. freeze calls gc.freeze between the
    imports and the run (see entrypoint).
    """
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = build_parser(_read_config(args.config, parser)).parse_args(argv)
        command = COMMANDS[args.command]
        for key in command.required:
            if getattr(args, key) in (None, ""):
                raise ConfigError(f"--{key.replace('_', '-')} is required")
        for module in command.modules:
            importlib.import_module(f"{__package__}.{module}")
        if freeze:
            gc.freeze()
        return command.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SynthctlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; freezes nothing."""
    return _run(argv, freeze=False)


def entrypoint() -> None:
    """Run the process's command line and exit with its code.

    The objects that the imports made stay alive until exit. Once the
    command's modules are imported, and before it reads any input, gc.freeze
    moves them to the permanent generation, which no collection walks: not
    those the run triggers, not the full one at interpreter shutdown, and
    not those in the placebo workers that a pool forks later. Library
    callers and tests call main, which freezes nothing.
    """
    sys.exit(_run(None, freeze=True))


if __name__ == "__main__":
    entrypoint()
