"""Shared fixture builders for the test suite."""

from __future__ import annotations

import datetime as dt
import sys

import numpy as np

from synthctl import Panel, PredictorTable

START = dt.date(2021, 1, 1)


def make_dates(n: int, start: dt.date = START) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def unit_codes(n: int, base: int = 10001) -> tuple[str, ...]:
    return tuple(f"{base + 2 * i:05d}" for i in range(n))


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call of module.name, through every synthctl
    module that holds a reference to it; returns the list that collects them."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "synthctl" and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


def make_panel(values: np.ndarray, units=None, meta=None, start: dt.date = START) -> Panel:
    values = np.asarray(values, dtype=float)
    if units is None:
        units = unit_codes(values.shape[0])
    return Panel(tuple(units), make_dates(values.shape[1], start), values, meta or {})


def random_walk_panel(rng: np.random.Generator, n_units: int, T: int,
                      level: float = 30.0, scale: float = 1.0) -> Panel:
    values = level + rng.normal(0, scale, size=(n_units, T)).cumsum(axis=1)
    return make_panel(values)


def make_predictors(values: np.ndarray, units, names=None) -> PredictorTable:
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"p{i}" for i in range(values.shape[0]))
    return PredictorTable(tuple(names), tuple(units), values)


def combo_study(rng: np.random.Generator, *, n_distractors: int = 10, k: int = 14,
                T: int = 120, T0: int = 80, w_pair=(0.3, 0.7)):
    """Treated unit that is an exact convex combination of the first two donors
    in both outcomes and predictors, padded with distractor donors."""
    J = 2 + n_distractors
    donors_y = 40 + rng.normal(0, 1, size=(J, T)).cumsum(axis=1)
    w_true = np.zeros(J)
    w_true[0], w_true[1] = w_pair
    treated_y = w_true @ donors_y
    units = unit_codes(J + 1)
    panel = make_panel(np.vstack([treated_y, donors_y]), units)
    X_donors = rng.normal(0, 3, size=(k, J)) + rng.normal(5, 2, size=(k, 1))
    x_treated = X_donors @ w_true
    predictors = make_predictors(np.hstack([x_treated[:, None], X_donors]), units)
    return panel, predictors, units, w_true, T0


def grid_simplex_3(step: float = 1e-3) -> np.ndarray:
    """All 3-vectors on the unit simplex with coordinates on a regular grid."""
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 9)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    a, b = a[keep], b[keep]
    return np.column_stack([a, b, 1.0 - a - b])
