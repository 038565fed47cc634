"""Output checks for the benchmark workloads.

Every check compares the program's files with facts the generator planted or
with a computation made here, in numpy, apart from the program. Nothing is
compared with a stored copy of earlier output. A failed check raises
`CheckFailed` with a message that names the file and the value.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from gen import CountyTruth, GrowthTruth, StudyTruth, logistic_curve

# relative tolerance for values the program writes with 17 significant
# digits and that this module recomputes in another summation order
RTOL = 1e-9
ATOL = 1e-9
# the program's default penalties: l1 scales ||w||_2, l2 scales ||w||_1
L1, L2 = 0.6, 0.1
# Frank-Wolfe gap allowed at the reported weights, relative to the objective
FW_GAP_REL = 1e-3
CLEAN_WINDOW = 7
DROP_THRESHOLD = 0.10
T_FIT = 10
K_CEILING = 120.0


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a, b, what: str, rtol: float = RTOL, atol: float = ATOL) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    bad = ~np.isclose(a, b, rtol=rtol, atol=atol)
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), a.shape)
        raise CheckFailed(f"{what}: {a[i]!r} != {b[i]!r} at {tuple(int(x) for x in i)}")


def _read_csv(path: str) -> list[dict[str, str]]:
    _require(os.path.exists(path), f"missing output {path}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# study-placebo
# ---------------------------------------------------------------------------

def check_study(truth: StudyTruth, out: str) -> None:
    """placebo.json and pvalues.csv of `synthctl placebo` on a generated study."""
    path = os.path.join(out, "placebo.json")
    _require(os.path.exists(path), f"missing output {path}")
    with open(path) as fh:
        doc = json.load(fh)
    entries = doc["entries"]
    units = [e["unit"] for e in entries]
    _require(len(entries) == len(truth.donors) + 1,
             f"placebo.json: {len(entries)} entries, expected {len(truth.donors) + 1}")
    _require(sorted(units) == sorted((truth.treated,) + truth.donors),
             "placebo.json: entry units are not the treated unit plus the pool")
    for e in entries:
        _require(not e["skipped"], f"placebo.json: unit {e['unit']} skipped")
        r_pre, r_post, r = e["R_pre"], e["R_post"], e["r"]
        _require(all(isinstance(x, (int, float)) and math.isfinite(x) and x > 0
                     for x in (r_pre, r_post)),
                 f"placebo.json: unit {e['unit']} has R_pre={r_pre} R_post={r_post}")
        _require(math.isclose(r, r_post / r_pre, rel_tol=1e-12),
                 f"placebo.json: unit {e['unit']} r={r} != R_post/R_pre={r_post / r_pre}")
    r_treated = next(e["r"] for e in entries if e["unit"] == truth.treated)
    p = sum(1 for e in entries if e["r"] > r_treated) / len(entries)
    _require(doc["p_value"] == p, f"placebo.json: p_value {doc['p_value']} != {p}")
    rows = _read_csv(os.path.join(out, "pvalues.csv"))
    _require(len(rows) == 1, "pvalues.csv: expected one row")
    row = rows[0]
    _require(row["treated"] == truth.treated and float(row["p_value"]) == p
             and int(row["n_valid"]) == len(entries) and int(row["n_skipped"]) == 0,
             f"pvalues.csv: {row} disagrees with p={p}, n={len(entries)}")
    others = max(e["r"] for e in entries if e["unit"] != truth.treated)
    _require(r_treated > others,
             f"treated ratio {r_treated} does not rank first (best placebo {others})")


# ---------------------------------------------------------------------------
# county-panel
# ---------------------------------------------------------------------------

def expected_clean(observed: np.ndarray) -> np.ndarray:
    """Interpolate bad cells, then take a trailing mean, for every row.

    A cell is bad when it is missing, or zero after the row's first positive
    value. The trailing mean averages the available prefix on the first days.
    """
    out = np.empty_like(observed)
    t = np.arange(observed.shape[1])
    kernel = np.ones(CLEAN_WINDOW)
    counts = np.convolve(np.ones(t.size), kernel)[:t.size]
    for i, row in enumerate(observed):
        pos = np.flatnonzero(row > 0)
        bad = np.isnan(row)
        if pos.size:
            bad[pos[0] + 1:] |= row[pos[0] + 1:] == 0
        filled = row.copy()
        filled[bad] = np.interp(t[bad], t[~bad], row[~bad])
        out[i] = np.convolve(filled, kernel)[:t.size] / counts
    return out


def expected_dropped(observed: np.ndarray, units) -> set[str]:
    dropped = set()
    for unit, row in zip(units, observed):
        pos = np.flatnonzero(row > 0)
        after = row[pos[0] + 1:]
        share = (np.isnan(after) | (after == 0)).mean()
        if share > DROP_THRESHOLD:
            dropped.add(unit)
    return dropped


def _state(code: str) -> str:
    return code[:2]


def fw_gap(X1, X0, v, w) -> tuple[float, float]:
    """Objective and Frank-Wolfe gap on the simplex at w.

    f(w) = sqrt(sum_h v_h (X1_h - X0_h w)^2) + L1 ||w||_2 + L2 ||w||_1; the
    gap is g.w - min_j g_j for the gradient g, zero exactly at an optimum.
    """
    r = X1 - X0 @ w
    q = float(v @ (r * r))
    f = math.sqrt(q) + L1 * float(np.linalg.norm(w)) + L2 * float(np.abs(w).sum())
    g = -(X0.T @ (v * r)) / math.sqrt(q) + L1 * w / np.linalg.norm(w) + L2
    return f, float(g @ w - g.min())


def check_ingest(truth: CountyTruth, out: str) -> np.ndarray:
    """dropped.csv and panel_clean.csv of `synthctl ingest`; returns the clean grid."""
    dropped = {row["unit"] for row in _read_csv(os.path.join(out, "dropped.csv"))}
    _require(dropped == set(truth.dropped),
             f"dropped.csv: got {sorted(dropped ^ set(truth.dropped))} different "
             "from the planted set")
    _require(expected_dropped(truth.observed, truth.units) == set(truth.dropped),
             "generator: planted drop set disagrees with the drop rule")
    keep = [i for i, u in enumerate(truth.units) if u not in truth.dropped]
    path = os.path.join(out, "panel_clean.csv")
    _require(os.path.exists(path), f"missing output {path}")
    with open(path) as fh:
        header = fh.readline().strip()
        cells = [line.rstrip("\n").split(",") for line in fh]
    _require(header == "unit,date,value", f"panel_clean.csv: header {header!r}")
    n_days = len(truth.dates)
    _require(len(cells) == len(keep) * n_days,
             f"panel_clean.csv: {len(cells)} rows, expected {len(keep) * n_days}")
    want_units = [truth.units[i] for i in keep for _ in range(n_days)]
    _require([c[0] for c in cells] == want_units, "panel_clean.csv: unit order")
    _require([c[1] for c in cells] == list(truth.dates) * len(keep),
             "panel_clean.csv: date grid")
    got = np.array([float(c[2]) for c in cells]).reshape(len(keep), n_days)
    _close(got, expected_clean(truth.observed[keep]), "panel_clean.csv value")
    return got


def check_fit(truth: CountyTruth, clean: np.ndarray, out: str) -> None:
    """result.json and curve.csv of `synthctl fit --v-mode inverse-variance`."""
    with open(os.path.join(out, "result.json")) as fh:
        doc = json.load(fh)
    kept = [u for u in truth.units if u not in truth.dropped]
    row_of = {u: i for i, u in enumerate(kept)}
    pool = [u for u in kept if _state(u) != _state(truth.treated)]
    donors = list(doc["w"])
    _require(donors == pool, "result.json: donors are not the kept units of other states")
    w = np.array([doc["w"][u] for u in donors])
    _require((w >= 0).all() and abs(w.sum() - 1.0) <= 1e-8,
             f"result.json: weights leave the simplex (min {w.min()}, sum {w.sum()})")

    # inverse-variance importance over the raw predictor rows plus the
    # training-window mean row, across the treated unit and its donors
    T0 = truth.T0
    train = slice(T0 - T_FIT, T0)
    order = [truth.treated] + donors
    col_of = {u: j for j, u in enumerate(truth.units)}
    raw = np.vstack([truth.predictors[:, [col_of[u] for u in order]],
                     clean[[row_of[u] for u in order]][:, train].mean(axis=1)])
    v_want = 1.0 / raw.var(axis=1)
    v_want /= v_want.sum()
    names = list(truth.predictor_names) + ["outcome_training_mean"]
    _require(list(doc["v"]) == names, f"result.json: v names {list(doc['v'])}")
    v = np.array([doc["v"][n] for n in names])
    _close(v, v_want, "result.json v")

    y1 = clean[row_of[truth.treated]]
    Y0 = clean[[row_of[u] for u in donors]]
    synthetic = w @ Y0
    gap = y1 - synthetic
    rows = _read_csv(os.path.join(out, "curve.csv"))
    _require([r["date"] for r in rows] == list(truth.dates), "curve.csv: date grid")
    for col, want in (("actual", y1), ("synthetic", synthetic), ("gap", gap)):
        _close([float(r[col]) for r in rows], want, f"curve.csv {col}")
    sq = gap * gap
    for key, want in (("train", sq[train].sum()), ("validation", sq[:T0 - T_FIT].sum()),
                      ("pre", sq[:T0].sum())):
        _close(doc["mspe"][key], want, f"result.json mspe.{key}")

    sd = raw.std(axis=1, keepdims=True)
    X = np.where(sd > 0, (raw - raw.mean(axis=1, keepdims=True)) / np.where(sd > 0, sd, 1), 0)
    f, gap_fw = fw_gap(X[:, 0], X[:, 1:], v, w)
    _require(gap_fw <= FW_GAP_REL * f,
             f"result.json: Frank-Wolfe gap {gap_fw:.3g} exceeds {FW_GAP_REL} x "
             f"objective {f:.4g}")


def check_county(truth: CountyTruth, ingest_out: str, fit_out: str) -> None:
    check_fit(truth, check_ingest(truth, ingest_out), fit_out)


# ---------------------------------------------------------------------------
# growth-curves
# ---------------------------------------------------------------------------

def _quadrants(K: np.ndarray, nu: np.ndarray) -> list[str]:
    return [("HiK" if k >= K.mean() else "LoK") + "_" + ("HiV" if n >= nu.mean() else "LoV")
            for k, n in zip(K, nu)]


def _bins(param: np.ndarray, index: np.ndarray, bins: int) -> list[tuple[float, float]]:
    order = sorted(range(index.size), key=lambda i: (index[i], i))
    base, rem = divmod(index.size, bins)
    out, at = [], 0
    for b in range(bins):
        size = base + (1 if b < rem else 0)
        chunk = param[order[at:at + size]]
        at += size
        out.append((float(np.mean(chunk)), float(np.std(chunk))))
    return out


def check_growth(truth: GrowthTruth, out: str, bins: int) -> None:
    """fits.csv, fit_failures.csv, ccvi_regression.csv, deciles.csv of `logistic`."""
    _require(_read_csv(os.path.join(out, "fit_failures.csv")) == [],
             "fit_failures.csv: some unit failed to fit")
    rows = _read_csv(os.path.join(out, "fits.csv"))
    _require([r["unit"] for r in rows] == list(truth.units), "fits.csv: unit list")
    K, nu, p0, sse = (np.array([float(r[c]) for r in rows]) for c in ("K", "nu", "p0", "sse"))
    t = np.arange(truth.y.shape[1], dtype=float)
    for i, unit in enumerate(truth.units):
        y = truth.y[i]
        resid = y - logistic_curve(K[i], nu[i], p0[i], t)
        _close(sse[i], resid @ resid, f"fits.csv sse of {unit}")
        _require(y.max() <= K[i] <= K_CEILING,
                 f"fits.csv: K={K[i]} of {unit} outside [{y.max()}, {K_CEILING}]")
        k_true = max(truth.K[i], y.max())
        resid = y - logistic_curve(k_true, truth.nu[i], truth.p0[i], t)
        floor = resid @ resid
        _require(sse[i] <= floor * (1 + 1e-9),
                 f"fits.csv: sse {sse[i]:.6g} of {unit} is worse than {floor:.6g} at the truth")
    _require([r["quadrant"] for r in rows] == _quadrants(K, nu), "fits.csv: quadrants")

    reg = _read_csv(os.path.join(out, "ccvi_regression.csv"))
    dec = _read_csv(os.path.join(out, "deciles.csv"))
    want_reg, want_dec = [], []
    for name, x in zip(truth.index_names, truth.index):
        for param, y in (("K", K), ("nu", nu)):
            slope, _ = np.polyfit(x, y, 1)
            want_reg.append((name, param, slope, np.corrcoef(x, y)[0, 1]))
            want_dec += [(name, param, b + 1, m, s)
                         for b, (m, s) in enumerate(_bins(y, x, bins))]
    _require([(r["theme"], r["param"]) for r in reg] == [w[:2] for w in want_reg],
             "ccvi_regression.csv: rows")
    _close([[float(r["slope"]), float(r["corr"])] for r in reg],
           [w[2:] for w in want_reg], "ccvi_regression.csv", rtol=1e-7)
    _require([(r["theme"], r["param"], int(r["bin"])) for r in dec]
             == [w[:3] for w in want_dec], "deciles.csv: rows")
    _close([[float(r["mean"]), float(r["std"])] for r in dec],
           [w[3:] for w in want_dec], "deciles.csv")
