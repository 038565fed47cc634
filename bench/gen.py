"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the program reads into a directory and
returns the truth it planted, so the output checks in `checks.py` compare
the program against the planted facts and against independent numpy
computations, never against stored copies of earlier output. A run of the
benchmark draws one input per round from its seed, numbered by `part`; the
same seed and part always give the same files, byte for byte.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass

import numpy as np

START = dt.date(2021, 1, 1)


def _dates(n: int) -> list[str]:
    return [(START + dt.timedelta(days=i)).isoformat() for i in range(n)]


def _write_long(path: str, units, dates, cells) -> None:
    """Long CSV unit,date,value; `cells` yields (unit index, day index, text)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("unit,date,value\n")
        fh.writelines(f"{units[i]},{dates[t]},{text}\n" for i, t, text in cells)


def _write_wide(path: str, units, names, values: np.ndarray) -> None:
    """Wide CSV unit,<names>; values is predictors x units."""
    with open(path, "w", newline="\n") as fh:
        fh.write("unit," + ",".join(names) + "\n")
        for j, unit in enumerate(units):
            fh.write(unit + "," + ",".join(repr(float(x)) for x in values[:, j]) + "\n")


def _write_metadata(path: str, units, treated: str, t0: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("unit,treated,t0\n")
        for unit in units:
            if unit == treated:
                fh.write(f"{unit},1,{t0}\n")
            else:
                fh.write(f"{unit},0,\n")


# ---------------------------------------------------------------------------
# study-placebo: factor-model study with a planted post-period lift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyTruth:
    treated: str
    donors: tuple[str, ...]      # the pool the program must use: other states
    same_state: tuple[str, ...]  # in the panel, excluded from the pool
    T0: int
    lift: float


STUDY_FACTORS = 3
STUDY_NOISE = 0.5
STUDY_LIFT = 15.0


def gen_study(out: str, seed: int, part: int = 0, *, n_donors: int = 6, days: int = 200,
              t0_index: int = 140, n_predictors: int = 10) -> StudyTruth:
    """Outcomes from a low-rank factor model plus idiosyncratic noise.

    The treated unit's loadings are a convex combination of three donors'
    loadings, so a synthetic control matches it closely before t0; after t0
    it carries a lift that ramps to STUDY_LIFT over 20 days. Two extra units
    share the treated unit's state and must be left out of the donor pool.
    """
    rng = np.random.default_rng([seed, part, 1])
    dates = _dates(days)
    factors = rng.normal(0.0, 0.3, size=(STUDY_FACTORS, days)).cumsum(axis=1)
    load = rng.normal(0.0, 1.0, size=(n_donors + 2, STUDY_FACTORS))
    level = rng.normal(30.0, 3.0, size=n_donors + 2)
    mix = np.zeros(n_donors)
    picks = rng.choice(n_donors, size=3, replace=False)
    mix[picks] = rng.dirichlet(np.ones(3))
    load_t = mix @ load[:n_donors]
    level_t = mix @ level[:n_donors]
    y_other = level[:, None] + load @ factors
    y_treated = level_t + load_t @ factors
    eps = rng.normal(0.0, STUDY_NOISE, size=(n_donors + 3, days))
    ramp = np.clip((np.arange(days) - t0_index + 1) / 20.0, 0.0, 1.0)
    y_treated = y_treated + STUDY_LIFT * ramp
    values = np.vstack([y_treated, y_other]) + eps

    treated = "10001"
    donors = tuple(f"{20 + j:02d}001" for j in range(n_donors))
    same_state = ("10003", "10005")
    units = [treated, *donors, *same_state]

    # predictors: pre-period outcome levels at evenly spaced days, the
    # pre-period mean and trend, and two covariates unrelated to the outcome
    n_levels = n_predictors - 4
    cols = np.linspace(5, t0_index - 15, n_levels).astype(int)
    pre = values[:, :t0_index]
    rows = [pre[:, c] for c in cols]
    names = [f"level_d{c:03d}" for c in cols]
    rows += [pre.mean(axis=1), pre[:, -1] - pre[:, 0],
             rng.normal(55.0, 8.0, size=len(units)),
             rng.lognormal(4.0, 1.0, size=len(units))]
    names += ["outcome_mean", "outcome_trend", "income", "density"]

    os.makedirs(out, exist_ok=True)
    _write_long(os.path.join(out, "outcomes.csv"), units, dates,
                ((i, t, repr(float(values[i, t])))
                 for i in range(len(units)) for t in range(days)))
    _write_wide(os.path.join(out, "predictors.csv"), units, names, np.array(rows))
    _write_metadata(os.path.join(out, "metadata.csv"), units, treated, dates[t0_index])
    return StudyTruth(treated, donors, same_state, t0_index, STUDY_LIFT)


# ---------------------------------------------------------------------------
# county-panel: a long, defective county CSV to ingest, then one large-J fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountyTruth:
    units: tuple[str, ...]
    dates: tuple[str, ...]
    treated: str
    T0: int
    dropped: frozenset[str]
    gaps: tuple[tuple[int, int], ...]      # (unit, day) rows left out
    na_cells: tuple[tuple[int, int], ...]  # (unit, day) written as NA
    zeros: tuple[tuple[int, int], ...]     # (unit, day) written as 0
    observed: np.ndarray                   # the file's grid: NaN for gaps and NA
    predictor_names: tuple[str, ...]
    predictors: np.ndarray                 # predictors x units


def county_codes(n: int) -> list[str]:
    """Distinct 5-digit codes spread over 50 states, 2-digit state first."""
    return [f"{1 + i % 50:02d}{1 + 2 * (i // 50):03d}" for i in range(n)]


COUNTY_DROP_SHARE = 0.03


def gen_county(out: str, seed: int, part: int = 0, *, n_units: int = 500, days: int = 200,
               t0_index: int = 150) -> CountyTruth:
    """Cumulative uptake percentages for `n_units` counties.

    Every series starts with a few genuine leading zeros. Most counties get
    at most 4 % bad cells after their first positive value (rows left out of
    the file, NA cells and zero dropouts); a planted COUNTY_DROP_SHARE of them get
    15-25 %, well above the program's 10 % drop threshold, and must be the
    exact set reported dropped. The treated county, the first, gains 3
    points from t0 on.
    """
    rng = np.random.default_rng([seed, part, 2])
    units = county_codes(n_units)
    dates = _dates(days)
    t = np.arange(days)
    ceiling = rng.uniform(35.0, 90.0, size=n_units)
    rate = rng.uniform(0.02, 0.08, size=n_units)
    mid = rng.uniform(40.0, 110.0, size=n_units)
    # the treated county leads every donor in ceiling and pace, so the
    # default-penalty weight problem has a sparse optimum that the solver
    # reaches within its iteration budget (see the FOUND lines in CHANGES.md
    # for a treated county inside the donor cloud)
    ceiling[0], rate[0], mid[0] = 95.0, 0.085, 35.0
    clean = ceiling[:, None] / (1.0 + np.exp(-rate[:, None] * (t - mid[:, None])))
    clean = np.maximum.accumulate(clean + rng.uniform(0, 0.05, size=clean.shape), axis=1)
    clean[0] += 3.0 * (t >= t0_index)
    lead = rng.integers(1, 6, size=n_units)
    for i in range(n_units):
        clean[i, :lead[i]] = 0.0

    n_drop = max(1, int(round(COUNTY_DROP_SHARE * n_units)))
    drop_i = rng.choice(np.arange(1, n_units), size=n_drop, replace=False)
    dropped = frozenset(units[i] for i in drop_i)
    share = np.full(n_units, 0.0)
    share[1:] = rng.uniform(0.0, 0.04, size=n_units - 1)
    share[drop_i] = rng.uniform(0.15, 0.25, size=n_drop)
    gaps: list[tuple[int, int]] = []
    na_cells: list[tuple[int, int]] = []
    zeros: list[tuple[int, int]] = []
    for i in range(n_units):
        # bad cells lie strictly after the first positive value and never on
        # the last day, so the daily grid still spans the whole range
        first_pos = int(lead[i])
        span = np.arange(first_pos + 1, days - 1)
        n_after = days - first_pos - 1
        n_bad = int(np.floor(share[i] * n_after))
        if n_bad == 0:
            continue
        cells = np.sort(rng.choice(span, size=n_bad, replace=False))
        kind = rng.integers(0, 3, size=n_bad)
        gaps += [(i, int(c)) for c, k in zip(cells, kind) if k == 0]
        na_cells += [(i, int(c)) for c, k in zip(cells, kind) if k == 1]
        zeros += [(i, int(c)) for c, k in zip(cells, kind) if k == 2]

    observed = clean.copy()
    text = np.vectorize(lambda x: repr(float(x)), otypes=[object])(clean)
    skip = set(gaps)
    for i, c in gaps:
        observed[i, c] = np.nan
    for i, c in na_cells:
        observed[i, c] = np.nan
        text[i, c] = "NA"
    for i, c in zeros:
        observed[i, c] = 0.0
        text[i, c] = "0"
    os.makedirs(out, exist_ok=True)
    _write_long(os.path.join(out, "raw.csv"), units, dates,
                ((i, c, text[i, c]) for i in range(n_units) for c in range(days)
                 if (i, c) not in skip))

    # predictors: the ceiling, rate and midpoint behind each series, its
    # level on two pre-period days, and one unrelated covariate
    names = ("ceiling", "rate", "midpoint", "level_d050", "level_d100", "income")
    rows = np.vstack([ceiling, rate, mid, clean[:, 50], clean[:, 100],
                      rng.normal(55.0, 8.0, size=n_units)])
    _write_wide(os.path.join(out, "predictors.csv"), units, names, rows)
    _write_metadata(os.path.join(out, "metadata.csv"), units, units[0], dates[t0_index])
    return CountyTruth(tuple(units), tuple(dates), units[0], t0_index, dropped,
                       tuple(gaps), tuple(na_cells), tuple(zeros), observed, names, rows)


# ---------------------------------------------------------------------------
# growth-curves: monotone logistic uptake series with known parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthTruth:
    units: tuple[str, ...]
    K: np.ndarray
    nu: np.ndarray
    p0: np.ndarray
    y: np.ndarray       # units x days, as written
    index_names: tuple[str, ...]
    index: np.ndarray   # index columns x units, as written


def logistic_curve(K, nu, p0, t):
    return K / (1.0 + ((K - p0) / p0) * np.exp(-nu * t))


GROWTH_NOISE = 0.3


def gen_growth(out: str, seed: int, part: int = 0, *, n_units: int = 8,
               days: int = 120) -> GrowthTruth:
    """Cumulative uptake: logistic curve plus noise, made monotone.

    K lies in [40, 90], nu in [0.03, 0.10] and p0 in [0.5, 4]. Two index
    columns, one tied to K and one to nu, feed the regressions and deciles.
    """
    rng = np.random.default_rng([seed, part, 3])
    units = [f"{30 + i // 20:02d}{1 + 2 * (i % 20):03d}" for i in range(n_units)]
    K = rng.uniform(40.0, 90.0, size=n_units)
    nu = rng.uniform(0.03, 0.10, size=n_units)
    p0 = rng.uniform(0.5, 4.0, size=n_units)
    t = np.arange(days, dtype=float)
    y = logistic_curve(K[:, None], nu[:, None], p0[:, None], t)
    y = np.maximum.accumulate(np.maximum(y + rng.normal(0, GROWTH_NOISE, size=y.shape), 0.01),
                              axis=1)
    dates = _dates(days)
    index_names = ("theme_ses", "theme_access")
    index = np.vstack([0.01 * K + rng.normal(0, 0.1, size=n_units),
                       5.0 * nu + rng.normal(0, 0.1, size=n_units)])
    os.makedirs(out, exist_ok=True)
    _write_long(os.path.join(out, "uptake.csv"), units, dates,
                ((i, c, repr(float(y[i, c]))) for i in range(n_units) for c in range(days)))
    _write_wide(os.path.join(out, "index.csv"), units, index_names, index)
    return GrowthTruth(tuple(units), K, nu, p0, y, index_names, index)
