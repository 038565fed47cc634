"""Placebo-based inference for synthetic control fits.

Every donor is refit as if it were treated, against the remaining donors.
Ranking the treated unit's post-to-pre error ratio within that ensemble gives
a permutation p-value: the share of units whose ratio strictly exceeds the
treated one, out of all units fit.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass

import numpy as np

from .engine import Design, fit_synth, placebo_design, window_design
from .errors import InvalidSplit, SynthctlError
from .spec import StudySpec, split_pre_period

# pre-period error below this is treated as an exact fit; the ratio is taken
# against the floor instead of erroring so placebo loops keep running
PRE_RMSE_FLOOR = 1e-12


@dataclass(frozen=True)
class PlaceboEntry:
    unit: str
    r: float
    R_pre: float
    R_post: float
    skipped: bool
    reason: str | None = None
    pre_floored: bool = False
    converged: bool | None = None  # the final weight solve's flag; None if skipped
    fw_gap: float | None = None  # that solve's Frank-Wolfe gap; None if skipped


@dataclass(frozen=True)
class PlaceboEnsemble:
    """Ratios for the treated unit and every donor refit as a placebo."""

    treated: str
    entries: tuple[PlaceboEntry, ...]
    treated_index: int


# the study every placebo task of one placebo_run fits against: set once per
# process by _share_study, so that each task sends only its unit's column index
_study: tuple = ()


def _share_study(*study) -> None:
    global _study
    _study = study


def _rms(gap: np.ndarray) -> float:
    return float(np.sqrt(np.mean(gap * gap)))


def _fit_ratio_task(index: int) -> PlaceboEntry:
    """Fit the shared study's unit at column `index` as if treated, and return its entry.

    Index 0 is the treated unit, which keeps the study's spec and design;
    index i is donor i-1, fit against the other donors at placebo_T0, on the
    design placebo_design cuts from the study's. A spec or fit that fails
    gives a skipped entry.
    """
    spec, design, placebo_T0 = _study
    unit = spec.donors[index - 1] if index else spec.treated
    try:
        if index:
            donors = spec.donors[:index - 1] + spec.donors[index:]
            spec = dataclasses.replace(spec, treated=unit, donors=donors, T0=placebo_T0)
            design = placebo_design(design, index - 1, spec)
        result = fit_synth(spec, design)
    except (SynthctlError, ValueError) as exc:
        return PlaceboEntry(unit, float("nan"), float("nan"), float("nan"),
                            skipped=True, reason=str(exc))
    R_pre = _rms(result.gap[:spec.T0])
    R_post = _rms(result.gap[spec.T0:])
    floored = R_pre < PRE_RMSE_FLOOR
    r = R_post / max(R_pre, PRE_RMSE_FLOOR)
    return PlaceboEntry(unit, r, R_pre, R_post, skipped=False,
                        pre_floored=floored, converged=result.converged,
                        fw_gap=result.fw_gap)


def placebo_run(
    spec: StudySpec,
    design: Design,
    *,
    jobs: int = 1,
    placebo_T0: int | None = None,
) -> PlaceboEnsemble:
    """Fit the treated unit and every donor-as-placebo of the study's design, collecting ratios.

    Each placebo inherits the treated unit's intervention index unless
    placebo_T0 overrides it, and is fit against the other donors only; the
    truly treated unit never enters any placebo's pool. The design goes to
    each worker process once with the spec; each task is one column index.
    A placebo_T0 that leaves no training window raises InvalidSplit, before
    any fit. Each fit is a function of its unit's design alone, and entries
    are ordered by unit code, so output is identical for any job count. A
    worker process that dies raises SynthctlError naming the first unit
    whose fit it lost.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    placebo_T0 = spec.T0 if placebo_T0 is None else placebo_T0
    n_dates = design.Y1.size
    for T0 in (spec.T0, placebo_T0):
        if T0 >= n_dates:
            raise ValueError(f"T0={T0} leaves no post-period in a {n_dates}-day panel")
    split_pre_period(placebo_T0, spec.t_fit, spec.train_placement)

    units = (spec.treated,) + spec.donors
    study = (spec, design, placebo_T0)
    if jobs == 1:
        _share_study(*study)
        try:
            entries = [_fit_ratio_task(index) for index in range(len(units))]
        finally:
            _share_study()
    else:
        # a forked pool starts all its workers at the first task: start no idle one
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(units)), initializer=_share_study,
                initargs=study) as pool:
            futures = [pool.submit(_fit_ratio_task, index) for index in range(len(units))]
            entries = []
            for unit, future in zip(units, futures):
                try:
                    entries.append(future.result())
                except concurrent.futures.BrokenExecutor as exc:
                    raise SynthctlError(f"the placebo fit of unit {unit} was lost: a worker "
                                        f"process died ({exc})") from exc

    entries.sort(key=lambda e: e.unit)
    ordered = tuple(entries)
    treated_index = next(i for i, e in enumerate(ordered) if e.unit == spec.treated)
    return PlaceboEnsemble(spec.treated, ordered, treated_index)


def p_value(ensemble: PlaceboEnsemble) -> float:
    """Share of fitted units whose ratio strictly exceeds the treated one.

    Skipped units are excluded from numerator and denominator; the treated
    unit itself counts in the denominator, so with J clean placebos the
    p-value is a multiple of 1/(J+1) and a perfectly extreme treated unit
    gets exactly zero. A skipped treated unit, or an ensemble with no fitted
    placebo, raises ValueError: no p-value exists.
    """
    treated_entry = ensemble.entries[ensemble.treated_index]
    if treated_entry.skipped:
        raise ValueError(f"treated unit {ensemble.treated} has no fit "
                         f"({treated_entry.reason}); no p-value exists")
    valid = [e for e in ensemble.entries if not e.skipped]
    if len(valid) < 2:
        raise ValueError(f"no placebo of treated unit {ensemble.treated} has a fit "
                         f"({len(ensemble.entries) - len(valid)} skipped); "
                         "no p-value exists")
    exceed = sum(1 for e in valid if e.r > treated_entry.r)
    return exceed / len(valid)


@dataclass(frozen=True)
class SweepRow:
    t_fit: int
    pre_deviation: float
    p_value: float
    failed: bool = False
    reason: str | None = None
    entries: tuple[PlaceboEntry, ...] = ()  # the row's placebo run; empty if failed


def training_sweep(
    spec: StudySpec,
    t_fit_values: list[int],
    design: Design,
    *,
    jobs: int = 1,
) -> tuple[SweepRow, ...]:
    """Refit the study's design for each training-window length and tabulate quality.

    Each row comes from one placebo run on the design recut to its window,
    whose entries it keeps. Its p_value ranks the treated unit in that
    ensemble, and its pre_deviation is the treated fit's summed squared gap
    over the whole pre-period (R_pre^2 * T0), so rows compare across window
    lengths. A window length that does not fit the pre-period yields a
    marked row; any other failure, a skipped treated fit included, is a
    defect of the study and propagates.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    rows = []
    for t_fit in sorted(set(t_fit_values)):
        try:
            study = dataclasses.replace(spec, t_fit=t_fit)
        except InvalidSplit as exc:
            rows.append(SweepRow(t_fit, float("nan"), float("nan"),
                                 failed=True, reason=str(exc)))
            continue
        ensemble = placebo_run(study, window_design(design, study), jobs=jobs)
        treated = ensemble.entries[ensemble.treated_index]
        rows.append(SweepRow(t_fit, treated.R_pre ** 2 * study.T0, p_value(ensemble),
                             entries=ensemble.entries))
    return tuple(rows)
