"""Panel ingestion, side table and cleaning tests."""

import csv
import datetime as dt
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_calls, make_dates, make_panel
from synthctl import (
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
    write_panel,
)
from synthctl import panel as panel_module
from synthctl.errors import SeriesOverflow, SynthctlError
from synthctl.panel import GRID_SUFFIX, read_table, validate_unit_code
from synthctl.serialize import write_csv


# ---------------------------------------------------------------------------
# unit codes and panel construction
# ---------------------------------------------------------------------------

def test_unit_code_accepts_fips_and_names():
    assert validate_unit_code("01001") == "01001"
    assert validate_unit_code("Ohio") == "Ohio"


def test_unit_code_rejects_short_numeric():
    with pytest.raises(ValueError):
        validate_unit_code("1001")
    with pytest.raises(ValueError):
        validate_unit_code("")


def test_panel_requires_contiguous_dates():
    dates = (dt.date(2021, 1, 1), dt.date(2021, 1, 3))
    with pytest.raises(ValueError):
        Panel(("01001",), dates, np.zeros((1, 2)))


def test_panel_requires_unique_units():
    with pytest.raises(ValueError):
        make_panel(np.zeros((2, 3)), units=("01001", "01001"))


def test_restrict_preserves_requested_order():
    panel = make_panel(np.arange(12.0).reshape(3, 4))
    sub = panel.restrict([panel.units[2], panel.units[0]])
    assert sub.units == (panel.units[2], panel.units[0])
    assert np.array_equal(sub.values[0], panel.values[2])


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_grids_and_fills_gaps(tmp_path):
    path = _write(tmp_path / "p.csv", (
        "unit,date,value\n"
        "01001,2021-01-01,1.0\n"
        "01001,2021-01-03,3.0\n"
        "02002,2021-01-02,5.0\n"
    ))
    panel = ingest_panel(path)
    assert panel.units == ("01001", "02002")
    assert len(panel.dates) == 3
    assert panel.values[0, 0] == 1.0
    assert np.isnan(panel.values[0, 1])
    assert panel.values[0, 2] == 3.0
    assert np.isnan(panel.values[1, 0]) and panel.values[1, 1] == 5.0


def test_ingest_missing_tokens_become_nan(tmp_path):
    path = _write(tmp_path / "p.csv", (
        "unit,date,value\n"
        "01001,2021-01-01,NA\n"
        "01001,2021-01-02,\n"
        "01001,2021-01-03,null\n"
        "01001,2021-01-04,2.5\n"
    ))
    panel = ingest_panel(path)
    assert np.isnan(panel.values[0, :3]).all()
    assert panel.values[0, 3] == 2.5


def test_ingest_duplicate_cell_raises_even_when_equal(tmp_path):
    path = _write(tmp_path / "p.csv", (
        "unit,date,value\n"
        "01001,2021-01-01,1.0\n"
        "01001,2021-01-01,1.0\n"
    ))
    with pytest.raises(SynthctlError, match="duplicate observation for unit 01001 on 2021-01-01"):
        ingest_panel(path)


def test_ingest_bad_date_raises(tmp_path):
    path = _write(tmp_path / "p.csv", "unit,date,value\n01001,01/02/2021,1.0\n")
    with pytest.raises(SynthctlError, match="cannot parse date '01/02/2021' for unit 01001"):
        ingest_panel(path)


def test_ingest_reports_first_repeated_row_in_file_order(tmp_path):
    # 01001's repeat sorts first by cell, but 02002's comes first in the file
    path = _write(tmp_path / "p.csv", (
        "unit,date,value\n"
        "01001,2021-01-01,1.0\n"
        "02002,2021-01-01,2.0\n"
        "02002,2021-01-01,2.0\n"
        "01001,2021-01-01,1.0\n"
    ))
    with pytest.raises(SynthctlError,
                       match="duplicate observation for unit 02002 on 2021-01-01 in "):
        ingest_panel(path)


def test_ingest_short_row_without_date_raises(tmp_path):
    path = _write(tmp_path / "p.csv", "unit,date,value\n01001,2021-01-01,1.0\n01001\n")
    with pytest.raises(SynthctlError, match="cannot parse date '' for unit 01001"):
        ingest_panel(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", " -Infinity "])
def test_ingest_infinite_value_raises_naming_value_unit_line_and_file(tmp_path, cell):
    # cleaning would repair an infinite cell as a missing one; the blank line
    # still counts toward the line number
    path = _write(tmp_path / "p.csv", (
        "unit,date,value\n"
        "01001,2021-01-01,1.0\n"
        "\n"
        f"02002,2021-01-01,{cell}\n"
        "02002,2021-01-02,nan\n"
    ))
    with pytest.raises(ValueError) as info:
        ingest_panel(path)
    assert str(info.value) == (f"non-finite value {cell.strip()!r} in column 'value' "
                               f"for unit 02002 on line 4 of {path}")


_MISSING = ("", "NA", "na", "nan", "NaN", "none", "None", "NULL")


def _reference_ingest(path):
    """Dict-based row-by-row reader: the specification ingest_panel must meet."""
    with open(path, newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    at = [header.index(col) for col in ("unit", "date", "value")]
    cells, units = {}, []
    for row in rows:
        unit, day, raw = ((row[i] if i < len(row) else "").strip() for i in at)
        day = dt.date.fromisoformat(day)
        assert (unit, day) not in cells
        cells[unit, day] = np.nan if raw.lower() in {t.lower() for t in _MISSING} \
            else float(raw)
        if unit not in units:
            units.append(unit)
    first = min(day for _, day in cells)
    n_days = (max(day for _, day in cells) - first).days + 1
    values = np.full((len(units), n_days), np.nan)
    for (unit, day), value in cells.items():
        values[units.index(unit), (day - first).days] = value
    return tuple(units), tuple(first + dt.timedelta(days=i) for i in range(n_days)), values


@st.composite
def _long_csv_text(draw):
    """A long CSV with gaps, NA-like cells, padding, blank lines, short and long rows."""
    units = draw(st.lists(st.sampled_from(["01001", "02003", "48201", "Ohio"]),
                          min_size=1, max_size=4, unique=True))
    n_days = draw(st.integers(1, 6))
    start = dt.date(2021, 3, 1)
    cells = [(u, start + dt.timedelta(days=d)) for u in units for d in range(n_days)]
    present = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(_MISSING))
    pad = st.sampled_from(["", " ", "  "])
    lines = []
    for unit, day in draw(st.permutations(present)):
        fields = [unit, day.isoformat(), draw(value)]
        shape = draw(st.sampled_from(["plain", "plain", "short", "extra"]))
        if shape == "short":
            fields.pop()
        elif shape == "extra":
            fields.append("note")
        lines.append(",".join(draw(pad) + f + draw(pad) for f in fields))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "unit,date,value\n" + "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=_long_csv_text())
def test_ingest_matches_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ingest") / "p.csv"
    path.write_text(text)
    panel = ingest_panel(str(path))
    units, dates, values = _reference_ingest(path)
    assert panel.units == units
    assert panel.dates == dates
    np.testing.assert_array_equal(panel.values, values)


# unit codes that need quoting, hold a printf `%` or leave ASCII
_UNIT_CODES = st.text(alphabet=st.sampled_from(list('ab, "\r\n%\u00e9\u6f225')), min_size=1,
                      max_size=6).filter(lambda code: code == code.strip() and not code.isdigit())
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, -1e300, 1e300, 3.0, -7.0, 2.0 ** 60,
                     np.nan, np.inf, -np.inf]))


@st.composite
def _panels(draw, cells=_CELLS):
    units = draw(st.lists(_UNIT_CODES, min_size=1, max_size=4, unique=True))
    n_days = draw(st.integers(1, 5))
    values = [[draw(cells) for _ in range(n_days)] for _ in units]
    return make_panel(np.array(values), units=units)


def _write_csv_panel(path, panel):
    """The panel file as serialize.write_csv writes it, one row of cells at a time."""
    days = [d.isoformat() for d in panel.dates]
    write_csv(path, ["unit", "date", "value"],
              ((u, day, value)
               for u, series in zip(panel.units, panel.values.tolist())
               for day, value in zip(days, series)))


@settings(max_examples=200, deadline=None)
@given(panel=_panels())
def test_write_panel_writes_the_bytes_of_write_csv(tmp_path_factory, panel):
    folder = tmp_path_factory.mktemp("write")
    write_panel(str(folder / "panel.csv"), panel)
    _write_csv_panel(str(folder / "rows.csv"), panel)
    assert (folder / "panel.csv").read_bytes() == (folder / "rows.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(panel=_panels(cells=_CELLS.filter(lambda x: not np.isinf(x))))
def test_ingest_reads_back_what_write_panel_writes(tmp_path_factory, panel):
    # an infinite cell is written empty like a NaN one, so it reads back as NaN
    path = str(tmp_path_factory.mktemp("round") / "panel.csv")
    write_panel(path, panel)
    back = ingest_panel(path)
    assert back.units == panel.units
    assert back.dates == panel.dates
    missing = np.isnan(panel.values)
    assert np.array_equal(np.isnan(back.values), missing)
    assert back.values[~missing].tobytes() == panel.values[~missing].tobytes()


def test_write_panel_quotes_units_and_leaves_non_finite_cells_empty(tmp_path):
    panel = make_panel([[1.5, -0.0], [np.nan, 0.1], [np.inf, 2.0]],
                       units=["a,b", 'say "hi"', "50%"])
    path = tmp_path / "panel.csv"
    write_panel(str(path), panel)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "unit,date,value",
        '"a,b",2021-01-01,1.5', '"a,b",2021-01-02,-0',
        '"say ""hi""",2021-01-01,', '"say ""hi""",2021-01-02,0.10000000000000001',
        "50%,2021-01-01,", "50%,2021-01-02,2"]


# ---------------------------------------------------------------------------
# the binary sidecar of a written panel
# ---------------------------------------------------------------------------

def _assert_same_panel(got, want):
    assert got.units == want.units
    assert got.dates == want.dates
    assert got.values.tobytes() == want.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(panel=_panels())
def test_sidecar_holds_the_panel_that_parsing_gives(tmp_path_factory, panel):
    folder = tmp_path_factory.mktemp("grid")
    path = folder / "panel.csv"
    write_panel(str(path), panel)
    grid = folder / ("panel.csv" + GRID_SUFFIX)
    stored = grid.read_bytes()
    write_panel(str(path), panel)
    assert grid.read_bytes() == stored
    from_grid = ingest_panel(str(path))
    grid.unlink()
    _assert_same_panel(from_grid, ingest_panel(str(path)))
    assert from_grid.source == str(path)


@pytest.fixture
def parses(monkeypatch):
    """The calls in which ingest_panel parsed the CSV rather than read its sidecar."""
    return count_calls(monkeypatch, panel_module, "_parse_long_csv")


def test_ingest_reads_an_intact_sidecar_without_parsing(tmp_path, parses):
    panel = make_panel([[1.0, np.nan, -np.inf], [0.0, 2.5, 3.0]], units=["a", "b"])
    path = str(tmp_path / "panel.csv")
    write_panel(path, panel)
    back = ingest_panel(path)
    assert parses == []
    assert back.units == ("a", "b")
    np.testing.assert_array_equal(back.values, [[1.0, np.nan, np.nan], [0.0, 2.5, 3.0]])
    assert back.values.flags.writeable


def test_unit_code_the_parse_would_strip_gets_no_sidecar(tmp_path, parses):
    path = tmp_path / "panel.csv"
    grid = tmp_path / ("panel.csv" + GRID_SUFFIX)
    write_panel(str(path), make_panel([[1.0], [2.0]], units=["a", "b"]))
    assert grid.exists()
    write_panel(str(path), make_panel([[1.0], [2.0]], units=[" a", "b\t"]))
    assert not grid.exists()  # the earlier write's sidecar is gone too
    assert ingest_panel(str(path)).units == ("a", "b")
    assert parses == [(str(path),)]


def _edit_value(path):
    lines = path.read_text().splitlines(True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",7.25\n"
    path.write_text("".join(lines))


def _append_duplicate(path):
    with open(path, "a") as fh:
        fh.write(path.read_text().splitlines(True)[1])


def _damage(transform):
    def edit(path):
        grid = path.with_name(path.name + GRID_SUFFIX)
        grid.write_bytes(transform(grid.read_bytes()))
    return edit


_SIDECAR_DEFECTS = {
    "edited-csv": _edit_value,
    "duplicate-row": _append_duplicate,
    "truncated-payload": _damage(lambda data: data[:-1]),
    "longer-payload": _damage(lambda data: data + bytes(8)),
    "not-json": _damage(lambda data: b"not json" + data[data.index(b"\n"):]),
    "wrong-digest": _damage(lambda data: re.sub(rb'"digest":"[0-9a-f]+"',
                                                b'"digest":"' + b"0" * 64 + b'"', data)),
}


@pytest.mark.parametrize("defect", _SIDECAR_DEFECTS.values(), ids=_SIDECAR_DEFECTS.keys())
def test_stale_or_damaged_sidecar_falls_back_to_the_parse(tmp_path, parses, defect):
    path = tmp_path / "panel.csv"
    write_panel(str(path), make_panel([[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]]))
    defect(path)
    if defect is _append_duplicate:
        message = f"duplicate observation for unit 10001 on 2021-01-01 in {path}"
        with pytest.raises(SynthctlError, match=f"^{re.escape(message)}$"):
            ingest_panel(str(path))
    else:
        back = ingest_panel(str(path))
        want = [[1.0, 7.25, 3.0], [4.0, np.nan, 6.0]] if defect is _edit_value \
            else [[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]]
        np.testing.assert_array_equal(back.values, want)
    assert parses == [(str(path),)]


def test_load_predictors_shape(tmp_path):
    path = _write(tmp_path / "x.csv", (
        "unit,a,b\n"
        "01001,1.0,2.0\n"
        "02002,3.0,4.0\n"
    ))
    table = load_predictors(path)
    assert table.names == ("a", "b")
    assert table.units == ("01001", "02002")
    # one row per predictor, one column per unit
    assert np.array_equal(table.values, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_read_table_strips_pads_and_skips_blank_lines(tmp_path):
    path = _write(tmp_path / "t.csv", (
        "fips,cluster,note\n"
        " 01001 , Exurbs ,x\n"
        "\n"
        "02002,Metro\n"
    ))
    rows = list(read_table(path, ("cluster",), key="fips"))
    assert rows == [(2, {"fips": "01001", "cluster": "Exurbs", "note": "x"}),
                    (4, {"fips": "02002", "cluster": "Metro", "note": ""})]


def test_load_metadata_parses_flags_and_dates(tmp_path):
    path = _write(tmp_path / "m.csv", (
        "unit,treated,t0,cluster,incentive_category\n"
        "01001,true,2021-05-12,Exurbs,2\n"
        "02002,0,,,x\n"
    ))
    # columns other than unit, treated and t0 are read by no command and ignored
    assert load_metadata(path) == {"01001": UnitMeta(treated=True, t0=dt.date(2021, 5, 12)),
                                   "02002": UnitMeta(treated=False, t0=None)}


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def test_interpolation_restores_linear_series_exactly():
    x = np.arange(30, dtype=float) * 2.0 + 5.0
    holed = x.copy()
    holed[[4, 5, 11, 20]] = np.nan
    out = repair_series(holed)
    assert np.allclose(out, x, atol=0, rtol=0)


def test_zero_after_first_positive_is_repaired():
    x = np.array([0.0, 0.0, 2.0, 0.0, 6.0])
    out = repair_series(x)
    # leading zeros are genuine, the interior zero is a reporting failure
    assert np.allclose(out, [0.0, 0.0, 2.0, 4.0, 6.0])


def test_drop_rule_boundary_exact():
    # 21 cells: first positive at index 0, 20 cells after it
    base = np.linspace(1, 20, 21)
    two_bad = base.copy()
    two_bad[[3, 7]] = np.nan      # 2/20 = 0.10, not above the threshold
    three_bad = base.copy()
    three_bad[[3, 7, 11]] = np.nan  # 3/20 = 0.15, above
    panel = make_panel(np.vstack([two_bad, three_bad]))
    cleaned, report = clean_panel(panel)
    assert cleaned.units == (panel.units[0],)
    assert report == [(panel.units[1], "bad fraction 0.1500 exceeds 0.1000")]


def test_repair_series_all_missing_raises():
    with pytest.raises(SynthctlError, match="series has no usable cell"):
        repair_series(np.full(10, np.nan))


def _reference_clean(values):
    """clean_panel's rule one series at a time, in plain steps: (kept rows, report)."""
    kept, report = [], []
    for i, row in enumerate(values):
        finite = np.isfinite(row)
        if not finite.any():
            report.append((i, "all cells missing"))
            continue
        bad, fraction = ~finite, 0.0
        positive = np.flatnonzero(finite & (row > 0))
        if positive.size:
            after = np.arange(row.size) > positive[0]
            bad |= after & (row == 0)
            if after.any():
                fraction = float((bad & after).sum()) / int(after.sum())
        if fraction > 0.1:
            report.append((i, f"bad fraction {fraction:.4f} exceeds 0.1000"))
            continue
        idx = np.arange(row.size)
        x = row.copy()
        x[bad] = np.interp(idx[bad], idx[~bad], row[~bad])
        csum = np.concatenate([[0.0], np.cumsum(x)])
        start = np.maximum(idx - 6, 0)
        kept.append((i, (csum[idx + 1] - csum[start]) / (idx + 1 - start)))
    return kept, report


@settings(max_examples=200, deadline=None)
@given(values=st.integers(1, 5).flatmap(lambda n_days: st.lists(
    st.lists(st.one_of(st.sampled_from([np.nan, 0.0, 1.0, -2.0]),
                       st.floats(-1e6, 1e6, allow_nan=False)),
             min_size=n_days * 3, max_size=n_days * 3),
    min_size=1, max_size=5)))
def test_clean_panel_matches_a_series_at_a_time_reference(values):
    values = np.array(values)
    kept, report = _reference_clean(values)
    panel = make_panel(values)
    if not kept:
        with pytest.raises(SynthctlError, match="cleaning dropped every unit"):
            clean_panel(panel)
        return
    cleaned, got_report = clean_panel(panel)
    assert got_report == [(panel.units[i], reason) for i, reason in report]
    assert cleaned.units == tuple(panel.units[i] for i, _ in kept)
    assert cleaned.values.tobytes() == np.array([row for _, row in kept]).tobytes()


def test_clean_panel_reports_drops():
    values = np.vstack([
        np.linspace(1, 20, 21),
        np.full(21, np.nan),
    ])
    values = np.vstack([values, np.linspace(1, 20, 21)])
    values[2, 5:9] = np.nan  # 4/20 = 0.20 bad
    panel = make_panel(values)
    cleaned, report = clean_panel(panel)
    assert cleaned.units == (panel.units[0],)
    assert [u for u, _ in report] == [panel.units[1], panel.units[2]]


def test_clean_panel_names_a_unit_whose_smoothing_overflows():
    values = np.vstack([np.linspace(1, 20, 21), 1e306 * np.arange(1, 22)])
    panel = make_panel(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning escapes
        with pytest.raises(SeriesOverflow, match=f"unit {panel.units[1]} overflows"):
            clean_panel(panel)
        # a repair that overflows fails the same way
        values[1] = 1.0
        values[1, 9:12] = -1e308, np.nan, 1e308
        with pytest.raises(SeriesOverflow, match=f"unit {panel.units[1]} overflows"):
            clean_panel(make_panel(values))
    cleaned, _ = clean_panel(make_panel(values[:1]))
    np.testing.assert_array_equal(cleaned.values[0], rolling_mean(values[0], 7))


def test_clean_panel_names_the_first_unit_that_overflows():
    smoothing = 1e306 * np.arange(1, 22)
    repair = np.ones(21)
    repair[9:12] = -1e308, np.nan, 1e308
    for rows in ([smoothing, repair], [repair, smoothing]):
        panel = make_panel(np.vstack([np.linspace(1, 20, 21), *rows]))
        with pytest.raises(SeriesOverflow, match=f"unit {panel.units[1]} overflows"):
            clean_panel(panel)


def test_rolling_mean_and_repair_raise_where_a_finite_series_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning escapes
        with pytest.raises(SeriesOverflow, match="smoothing the series overflows"):
            rolling_mean(1e306 * np.arange(1, 41), 7)
        # the fill between -1e308 and 1e308 steps by more than the float range
        with pytest.raises(SeriesOverflow, match="repairing the series overflows"):
            repair_series(np.array([-1e308, np.nan, 1e308]))
        # a series that is not finite gives what its sums give, as before
        out = rolling_mean(np.array([1.0, np.nan, 2.0]), 2)
    assert out[0] == 1.0 and np.isnan(out[1:]).all()


def test_rolling_mean_window_and_prefix():
    x = np.array([2.0, 4.0, 6.0, 8.0])
    out = rolling_mean(x, 2)
    assert np.allclose(out, [2.0, 3.0, 5.0, 7.0])


def test_rolling_mean_constant_is_fixed_point():
    x = np.full(50, 3.25)
    assert np.allclose(rolling_mean(x, 7), x, atol=0, rtol=0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=10))
def test_rolling_mean_stays_within_input_range(values, window):
    x = np.array(values)
    out = rolling_mean(x, window)
    assert out.min() >= x.min() - 1e-9 * max(1, abs(x.min()))
    assert out.max() <= x.max() + 1e-9 * max(1, abs(x.max()))


@given(st.lists(st.one_of(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                          st.just(float("nan"))),
                min_size=2, max_size=40))
def test_repair_interpolate_is_idempotent(values):
    x = np.array(values)
    if not np.isfinite(x).any():
        return
    once = repair_series(x)
    twice = repair_series(once)
    assert np.array_equal(once, twice, equal_nan=True)


@given(st.lists(st.one_of(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                          st.just(float("nan"))),
                min_size=1, max_size=50))
def test_enforce_monotone_non_decreasing(values):
    out = enforce_monotone(np.array(values))
    finite = np.isfinite(out)
    trimmed = out[finite]
    assert (np.diff(trimmed) >= 0).all()


def test_enforce_monotone_carryover_dip():
    x = np.array([1.0, 5.0, 3.0, 7.0, 2.0])
    assert np.allclose(enforce_monotone(x), [1.0, 5.0, 5.0, 7.0, 7.0])


def test_enforce_monotone_missing_inherits_running_max():
    x = np.array([np.nan, 2.0, np.nan, 1.0])
    out = enforce_monotone(x)
    assert np.isnan(out[0])
    assert np.allclose(out[1:], [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

def _csv(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    return str(path)


DAY0 = dt.date(2021, 3, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: Panel(("10001",), (), np.zeros((1, 0))), ValueError,
     "panel must cover at least one date"),
    (lambda tmp: Panel(("10001",), (DAY0,), np.zeros((2, 1))), ValueError,
     "values shape (2, 1) does not match 1 units x 1 dates"),
    (lambda tmp: PredictorTable(("a", "a"), ("10001",), np.zeros((2, 1))), ValueError,
     "predictor names must be unique"),
    (lambda tmp: PredictorTable(("a",), ("10001", "10001"), np.zeros((1, 2))), ValueError,
     "unit codes must be unique in a predictor table"),
    (lambda tmp: PredictorTable(("a",), ("10001",), np.zeros((2, 1))), ValueError,
     "predictor matrix shape (2, 1) does not match 1 predictors x 1 units"),
    (lambda tmp: PredictorTable(("a",), ("10001",), np.zeros((1, 1))).unit_index("99999"),
     KeyError, "unit '99999' not in predictor table"),
    (lambda tmp: ingest_panel(_csv(tmp, "unit,date\n10001,2021-03-01\n")), ValueError,
     "column 'value' not found in {path} (header: ['unit', 'date'])"),
    (lambda tmp: ingest_panel(_csv(tmp, "unit,date,value\n")), SynthctlError,
     "{path} contains no data rows"),
], ids=["no-dates", "panel-shape", "repeated-predictor", "repeated-unit", "table-shape",
        "absent-unit", "missing-column", "header-only"])
def test_input_checks_raise_with_their_message(tmp_path, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert raised.type is error
    assert raised.value.args == (message.format(path=tmp_path / "panel.csv"),)
