"""Panel ingestion, alignment, series cleaning, and the cleaned panel's file.

A panel is a dense unit-by-date grid of daily observations. Input files are
long-format CSVs that may skip days or contain carryover artifacts (dips in
cumulative counts, literal zeros on days a source failed to report), so this
module handles gridding, side tables keyed by unit, and per-series repair.
`write_panel` is `ingest_panel`'s inverse: it writes a panel back as a long
CSV, a unit's block of rows at a time, with the 17-digit floats and empty
non-finite cells of `serialize.write_csv`, byte for byte.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import SeriesOverflow, SynthctlError
from .serialize import csv_cell, fmt_float

DAY = dt.timedelta(days=1)


def validate_unit_code(code: str) -> str:
    """Check a unit code: non-empty, and numeric codes must be 5-digit FIPS."""
    if not code:
        raise ValueError("unit code must be non-empty")
    if code.isdigit() and len(code) != 5:
        raise ValueError(f"numeric unit code {code!r} must be a 5-digit FIPS code")
    return code


def _unit_code(text: str, column: str, line: int, path: str) -> str:
    """A validated unit code from a CSV cell, or an error naming where the cell is."""
    try:
        return validate_unit_code(text.strip())
    except ValueError as exc:
        raise ValueError(f"{exc} in column {column!r} on line {line} of {path}") from None


def state_of(code: str) -> str:
    """State identifier of a unit: FIPS prefix for counties, the code itself otherwise."""
    if code.isdigit() and len(code) == 5:
        return code[:2]
    return code


@dataclass(frozen=True)
class UnitMeta:
    """Per-unit attributes carried alongside the outcome grid."""

    treated: bool = False
    t0: dt.date | None = None


@dataclass(frozen=True, eq=False)
class Panel:
    """Dense daily panel: one row per unit, one column per calendar day.

    Missing observations are NaN, never zero. Dates form a contiguous daily
    grid. Instances are immutable; restriction and metadata attachment return
    new panels.
    """

    units: tuple[str, ...]
    dates: tuple[dt.date, ...]
    values: np.ndarray
    meta: Mapping[str, UnitMeta] = field(default_factory=dict)
    source: str = ""  # the file the values were read from, for messages

    def __post_init__(self) -> None:
        for code in self.units:
            validate_unit_code(code)
        if len(set(self.units)) != len(self.units):
            raise ValueError("unit codes must be unique within a panel")
        if not self.dates:
            raise ValueError("panel must cover at least one date")
        for a, b in zip(self.dates, self.dates[1:]):
            if b - a != DAY:
                raise ValueError(f"date grid has a gap or disorder between {a} and {b}")
        if self.values.shape != (len(self.units), len(self.dates)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.units)} units x {len(self.dates)} dates"
            )

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @functools.cached_property
    def _positions(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.units)}

    def unit_index(self, code: str) -> int:
        try:
            return self._positions[code]
        except KeyError:
            raise KeyError(f"unit {code!r} not in panel") from None

    def date_index(self, day: dt.date) -> int:
        offset = (day - self.dates[0]).days
        if not (0 <= offset < len(self.dates)):
            raise KeyError(f"date {day} not in panel range")
        return offset

    def series(self, code: str) -> np.ndarray:
        return self.values[self.unit_index(code)].copy()

    def meta_for(self, code: str) -> UnitMeta:
        return self.meta.get(code, UnitMeta())

    def restrict(self, units: Sequence[str]) -> "Panel":
        """New panel containing only `units`, in the given order."""
        rows = [self.unit_index(u) for u in units]
        meta = {u: self.meta[u] for u in units if u in self.meta}
        return Panel(tuple(units), self.dates, self.values[rows].copy(), meta, self.source)

    def with_metadata(self, meta: Mapping[str, UnitMeta]) -> "Panel":
        units = set(self.units)
        kept = {u: m for u, m in meta.items() if u in units}
        return Panel(self.units, self.dates, self.values, kept, self.source)


@dataclass(frozen=True, eq=False)
class PredictorTable:
    """Unit-level predictor matrix: one row per predictor, one column per unit."""

    names: tuple[str, ...]
    units: tuple[str, ...]
    values: np.ndarray
    source: str = ""  # the file the values were read from, for messages

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("predictor names must be unique")
        if len(set(self.units)) != len(self.units):
            raise ValueError("unit codes must be unique in a predictor table")
        if self.values.shape != (len(self.names), len(self.units)):
            raise ValueError(
                f"predictor matrix shape {self.values.shape} does not match "
                f"{len(self.names)} predictors x {len(self.units)} units"
            )

    @property
    def n_predictors(self) -> int:
        return len(self.names)

    @functools.cached_property
    def _positions(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.units)}

    def unit_index(self, code: str) -> int:
        try:
            return self._positions[code]
        except KeyError:
            raise KeyError(f"unit {code!r} not in predictor table") from None

    def column(self, code: str) -> np.ndarray:
        return self.values[:, self.unit_index(code)].copy()

    def restrict(self, units: Sequence[str]) -> "PredictorTable":
        cols = [self.unit_index(u) for u in units]
        return PredictorTable(self.names, tuple(units), self.values[:, cols].copy(),
                              self.source)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}
_LONG_COLUMNS = ("unit", "date", "value")


def _parse_date(text: str, context: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise SynthctlError(f"cannot parse date {text!r} {context}") from None


def _where(column: str, unit: str, line: int, path: str) -> str:
    return f"in column {column!r} for unit {unit} on line {line} of {path}"


def ingest_panel(path: str) -> Panel:
    """Read a long-format unit,date,value CSV into a dense daily panel.

    The date grid spans the earliest through the latest date present in the
    file; (unit, date) cells with no row become NaN. Empty or NA-like value
    fields also become NaN, as do the value fields of rows too short to hold
    one; blank lines and extra fields are ignored. A value that reads as
    infinite (`inf`, `-inf`, `1e400`) is an error naming its unit, line and
    file, since cleaning would otherwise repair it as a missing cell, while
    `nan` stays missing. A repeated (unit, date) pair is an error even if the
    values agree, since silent aggregation would hide upstream defects; it is
    reported at the first repeating row. Both are checked after every row
    has parsed. A header that repeats a column name is an error, as in
    every side table (see read_table).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in _LONG_COLUMNS:
            if col not in header:
                raise ValueError(f"column {col!r} not found in {path} (header: {header})")
        _check_unique_columns(header, path)
        iu, idt, iv = (header.index(col) for col in _LONG_COLUMNS)
        width = max(iu, idt, iv) + 1
        unit_at: dict[str, int] = {}  # raw unit field -> row of the grid
        units: dict[str, int] = {}  # unit code -> row of the grid, in first-seen order
        ordinal_of: dict[str, int] = {}  # raw date field -> date ordinal
        cell_unit: list[int] = []
        cell_day: list[int] = []
        cell_value: list[float] = []
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            raw_unit, raw_day, raw = row[iu], row[idt], row[iv]
            u = unit_at.get(raw_unit)
            if u is None:
                code = _unit_code(raw_unit, "unit", reader.line_num, path)
                u = unit_at[raw_unit] = units.setdefault(code, len(units))
            day = ordinal_of.get(raw_day)
            if day is None:
                context = f"for unit {raw_unit.strip()} in {path}"
                day = ordinal_of[raw_day] = _parse_date(raw_day, context).toordinal()
            try:
                value = float(raw)
            except ValueError:
                text = raw.strip()
                if text.lower() not in _MISSING_TOKENS:
                    where = _where("value", raw_unit.strip(), reader.line_num, path)
                    raise ValueError(f"cannot parse {text!r} as a number {where}") from None
                value = math.nan
            cell_unit.append(u)
            cell_day.append(day)
            cell_value.append(value)
    if not cell_value:
        raise SynthctlError(f"{path} contains no data rows")
    read = np.array(cell_value)
    infinite = np.flatnonzero(np.isinf(read))
    if infinite.size:
        raise ValueError(_infinite_cell(path, iu, iv, int(infinite[0])))

    days = np.array(cell_day)
    first = int(days.min())
    n_days = int(days.max()) - first + 1
    cells = np.array(cell_unit) * n_days + (days - first)
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        row = int(repeats.min())
        codes = tuple(units)
        raise SynthctlError(f"duplicate observation for unit {codes[cell_unit[row]]} on "
                            f"{dt.date.fromordinal(cell_day[row])} in {path}")
    values = np.full(len(units) * n_days, np.nan)
    values[cells] = read
    start = dt.date.fromordinal(first)
    dates = tuple(start + DAY * i for i in range(n_days))
    return Panel(tuple(units), dates, values.reshape(len(units), n_days), source=path)


def _infinite_cell(path: str, iu: int, iv: int, index: int) -> str:
    """The error for the infinite value of data row `index` of a long CSV.

    ingest_panel finds the cell by its position in the values it read; only
    then is the file read again, for the cell's text, unit and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        row = next(itertools.islice((row for row in reader if row), index, None))
        where = _where("value", row[iu].strip(), reader.line_num, path)
        return f"non-finite value {row[iv].strip()!r} {where}"


def write_panel(path: str, panel: Panel) -> None:
    """Write panel as a long unit,date,value CSV, the file ingest_panel reads back.

    The rows run unit by unit in panel order, each unit's days in date order,
    and hold the bytes that serialize.write_csv writes for the same cells.
    A unit whose values are all finite is written with one `%` call on a row
    template built once from the dates: `'%.17g' % x` is `fmt_float(x)` for
    every finite x, and the unit's cell text has each `%` doubled. Any other
    unit falls back to fmt_float per cell, which leaves a non-finite cell empty.
    """
    days = [d.isoformat() for d in panel.dates]
    template = "".join(f"\0,{day},%.17g\n" for day in days)
    finite = np.isfinite(panel.values).all(axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_LONG_COLUMNS) + "\n")
        for unit, row, all_finite in zip(panel.units, panel.values.tolist(), finite):
            cell = csv_cell(unit)
            if all_finite:
                fh.write(template.replace("\0", cell.replace("%", "%%")) % tuple(row))
            else:
                fh.write("".join(f"{cell},{day},{fmt_float(x)}\n" for day, x in zip(days, row)))


def _parse_cell(raw: str, path: str, unit: str, column: str, line: int) -> float:
    """A finite number from a stripped CSV cell, or an error naming where the cell is."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse {raw!r} as a number "
                         f"{_where(column, unit, line, path)}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r} {_where(column, unit, line, path)}")
    return value


def _check_unique_columns(header: list[str], path: str) -> None:
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValueError(f"column {repeated[0]!r} appears twice in the header of {path}")


def read_table(path: str, columns: Sequence[str],
               key: str | None = None) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield (line, row) for each data row of a CSV side table, cells stripped.

    The header must name every one of `columns` and repeat no name. Each row
    maps every header name, in header order, to its cell ("" past the end of
    a short row); blank lines are skipped. With `key`, that column's cells
    must be valid unit codes (see validate_unit_code), each listed once. A
    file with no data row raises SynthctlError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [col for col in columns if col not in header]
        if missing:
            raise ValueError(f"{path} must carry column(s) {', '.join(map(repr, missing))} "
                             f"(header: {header})")
        _check_unique_columns(header, path)
        seen: set[str] = set()
        line = 0  # the last data row's line, 0 until one is read
        for cells in reader:
            if not cells:
                continue
            line = reader.line_num
            row = {name: cell.strip() for name, cell in zip(header, cells + [""] * len(header))}
            if key is not None:
                unit = row[key] = _unit_code(row[key], key, line, path)
                if unit in seen:
                    raise SynthctlError(f"unit {unit} listed twice in column {key!r}, "
                                        f"again on line {line} of {path}")
                seen.add(unit)
            yield line, row
    if not line:
        raise SynthctlError(f"{path} contains no data rows")


def load_predictors(path: str) -> PredictorTable:
    """Read a wide CSV (unit, predictor columns...) into a PredictorTable.

    Every predictor cell must hold a finite number: a missing or non-finite
    value would silently distort standardization and the weight solve.
    """
    names: tuple[str, ...] = ()
    units: list[str] = []
    rows: list[list[float]] = []
    for line, row in read_table(path, ("unit",), key="unit"):
        if not units:
            header = tuple(row)
            if header[0] != "unit":
                raise ValueError(f"{path} must start with a 'unit' column (header: {header})")
            names = header[1:]
        unit = row["unit"]
        units.append(unit)
        rows.append([_parse_cell(row[name], path, unit, name, line) for name in names])
    values = np.array(rows, dtype=float).T if names else np.zeros((0, len(units)))
    return PredictorTable(names, tuple(units), values, path)


_TRUTHY = {"1", "true", "yes", "y", "t"}
_FALSY = {"", "0", "false", "no", "n", "f"}


def parse_bool(text: str) -> bool | None:
    """A true/false cell in any case (1, true, yes, y, t; 0, false, no, n, f, blank), else None."""
    word = text.strip().lower()
    if word in _TRUTHY:
        return True
    if word in _FALSY:
        return False
    return None


def load_metadata(path: str) -> dict[str, UnitMeta]:
    """Read per-unit metadata: unit, treated and an optional t0; other columns are ignored."""
    meta: dict[str, UnitMeta] = {}
    for line, row in read_table(path, ("unit", "treated"), key="unit"):
        unit = row["unit"]
        treated = parse_bool(row["treated"])
        if treated is None:
            raise ValueError(f"unreadable treated flag {row['treated']!r} "
                             f"{_where('treated', unit, line, path)}")
        t0_raw = row.get("t0", "")
        t0 = _parse_date(t0_raw, f"for unit {unit} in {path}") if t0_raw else None
        meta[unit] = UnitMeta(treated=treated, t0=t0)
    return meta


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

MAX_BAD_FRACTION = 0.10  # a series with a larger bad fraction (see _bad_mask) is dropped
SMOOTHING_WINDOW = 7  # trailing rolling-mean width in days


def _bad_mask(series: np.ndarray) -> tuple[np.ndarray, float]:
    """Cells needing repair, and the drop fraction measured after the first positive.

    A cell is bad if it is missing, or if it is a literal zero occurring after
    the series' first positive value (a cumulative count cannot fall back to
    zero, so such cells are reporting failures, not data). Leading zeros are
    genuine. The drop fraction is the share of bad cells among the cells
    strictly after the first positive one.
    """
    missing = ~np.isfinite(series)
    positive = np.isfinite(series) & (series > 0)
    bad = missing.copy()
    fraction = 0.0
    if positive.any():
        first_pos = int(np.argmax(positive))
        after = np.zeros_like(bad)
        after[first_pos + 1:] = True
        zero_after = after & np.isfinite(series) & (series == 0)
        bad |= zero_after
        n_after = int(after.sum())
        if n_after > 0:
            fraction = float((bad & after).sum()) / n_after
    return bad, fraction


def _interpolate(x: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """A copy of x with its bad cells filled linearly between the good ones.

    A fill that passes the float range raises SeriesOverflow.
    """
    good = ~bad
    if not good.any():
        raise SynthctlError("series has no usable cell to interpolate from")
    idx = np.arange(x.size)
    x = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        x[bad] = np.interp(idx[bad], idx[good], x[good])
    if not np.isfinite(x[bad]).all():
        raise SeriesOverflow("repairing the series overflows the float range")
    return x


def repair_series(series: np.ndarray) -> np.ndarray:
    """Fill bad cells by linear interpolation between good ones, without smoothing.

    A fill that passes the float range raises SeriesOverflow.
    """
    x = np.asarray(series, dtype=float)
    return _interpolate(x, _bad_mask(x)[0])


def rolling_mean(series: np.ndarray, window: int) -> np.ndarray:
    """Trailing rolling mean: out[t] averages the last `window` days up to t.

    The first window-1 positions average the available prefix, so output
    length equals input length and every output value is a convex combination
    of inputs. A finite series whose running sums pass the float range raises
    SeriesOverflow.
    """
    x = np.asarray(series, dtype=float)
    if window == 1:
        return x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.concatenate([[0.0], np.cumsum(x)])
        t = np.arange(x.size)
        start = np.maximum(t - window + 1, 0)
        out = (csum[t + 1] - csum[start]) / (t + 1 - start)
    if not np.isfinite(out).all() and np.isfinite(x).all():
        raise SeriesOverflow("smoothing the series overflows the float range")
    return out


def clean_panel(panel: Panel) -> tuple[Panel, list[tuple[str, str]]]:
    """Clean every unit's series; drop failing units and report why.

    A series with no valid cell is dropped as "all cells missing". Otherwise
    the drop rule runs first: if the bad fraction after the first positive
    value (see _bad_mask) strictly exceeds MAX_BAD_FRACTION, the series is
    dropped unrepaired. Surviving series are repaired and smoothed with a
    SMOOTHING_WINDOW-day trailing mean. A series whose repair or running sums
    pass the float range raises SeriesOverflow naming the unit.
    """
    kept_units: list[str] = []
    kept_rows: list[np.ndarray] = []
    report: list[tuple[str, str]] = []
    for unit, row in zip(panel.units, np.asarray(panel.values, dtype=float)):
        if not np.isfinite(row).any():
            report.append((unit, "all cells missing"))
            continue
        bad, fraction = _bad_mask(row)
        if fraction > MAX_BAD_FRACTION:
            report.append((unit, f"bad fraction {fraction:.4f} exceeds {MAX_BAD_FRACTION:.4f}"))
            continue
        try:
            smoothed = rolling_mean(_interpolate(row, bad), SMOOTHING_WINDOW)
        except SeriesOverflow:
            raise SeriesOverflow(
                f"smoothing the series of unit {unit} overflows the float range") from None
        kept_units.append(unit)
        kept_rows.append(smoothed)
    if not kept_units:
        raise SynthctlError("cleaning dropped every unit")
    meta = {u: panel.meta[u] for u in kept_units if u in panel.meta}
    return (Panel(tuple(kept_units), panel.dates, np.array(kept_rows), meta, panel.source),
            report)


def enforce_monotone(series: np.ndarray) -> np.ndarray:
    """Running maximum: output[t] = max(input[0..t]).

    Missing cells inherit the running maximum so far; leading missing cells
    stay missing.
    """
    return np.fmax.accumulate(np.asarray(series, dtype=float))

