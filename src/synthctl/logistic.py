"""Logistic growth curves for vaccination uptake trajectories.

Each unit's cumulative uptake series is summarized by three parameters: the
ceiling K (saturation percentage), the growth rate nu, and the starting level
p0. Each fit is a bounded least-squares problem in (K, nu, p0), solved in
numpy alone by a bounded Levenberg-Marquardt with the analytic Jacobian, from
a fixed set of starts per series. fit_logistic_many runs the starts of many
series in one vectorized loop per block of series that share their observed
days; fit_logistic is its one-series case. Cross-unit summaries then classify
units into quadrants around the mean ceiling and rate, regress parameters on
vulnerability indices, and bin units into equal-count compartments of an
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SynthctlError

K_CEILING = 120.0
NU_FLOOR = 1e-6  # below this the curve is flat and K is unidentifiable
P0_FLOOR = 1e-12  # lower bound on p0, keeping K/p0 and the Jacobian finite
N_STARTS = 7  # starting points per fit: an anchor, and one step either way along each axis
LM_MAX_ITERS = 1000  # damped Gauss-Newton steps, one residual evaluation each, per start
LM_FTOL = 1e-15  # a start stops once an accepted step lowers its SSE by no more than this share
LM_LAMBDA_MAX = 1e16  # damping past which a step cannot move x in double precision
LM_BLOCK = 256  # series per Levenberg-Marquardt loop; 64 and all-in-one both ran slower


def logistic_predict(K: float, nu: float, p0: float, t: np.ndarray) -> np.ndarray:
    """Logistic curve value at times t.

    Evaluated as K / (1 + ((K - p0)/p0) * exp(-nu t)), which matches the
    K p0 e^(nu t) / (K + p0 (e^(nu t) - 1)) form but never overflows for
    large nu*t.
    """
    if K <= 0 or p0 <= 0:
        raise ValueError("K and p0 must be positive")
    if nu < 0:
        raise ValueError("growth rate must be nonnegative")
    t = np.asarray(t, dtype=float)
    return K / (1.0 + ((K - p0) / p0) * np.exp(-nu * t))


@dataclass(frozen=True)
class LogisticFit:
    K: float
    nu: float
    p0: float
    sse: float
    flagged: bool
    note: str | None = None
    converged: bool = True  # False when the winning start stopped at LM_MAX_ITERS


def _curves(x: np.ndarray, t: np.ndarray):
    """Curves of the rows (K, nu, p0) of x at times t, as `logistic_predict` computes them.

    Also returns E = e^(-nu t), c = K/p0 - 1 and D = 1 + c E, from which
    the curve is K / D.
    """
    K, nu, p0 = x[:, 0:1], x[:, 1:2], x[:, 2:3]
    E = np.exp(-nu * t)
    c = (K - p0) / p0
    D = 1.0 + c * E
    return K / D, E, c, D


def _sse(x: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _curves(x, t)[0] - y
    return (r * r).sum(axis=1)


def _levenberg_marquardt(x: np.ndarray, t: np.ndarray, y: np.ndarray,
                         lower: np.ndarray, upper: np.ndarray):
    """Bounded Levenberg-Marquardt (Moré 1978) from every row of x at once.

    Row i of x is one start: it fits the curve data y[i] at the shared
    times t, inside the box lower[i] <= x <= upper[i]. Rows from many series
    run in one loop, and every operation on them is elementwise or per row,
    so a row's path is the one it takes alone. Each start keeps its own
    damping lambda: a step that lowers the SSE is taken and lambda shrinks
    threefold; any other step is dropped and lambda grows by a factor that
    doubles with each drop in a row (Nielsen 1999). The damping is
    Marquardt's lambda * diag(J'J), so the step does not depend on how K,
    nu and p0 are scaled. A coordinate on a bound whose gradient points out
    of the box is held there for the step (an active set); the free
    coordinates solve the reduced normal equations and the point is then
    clipped into the box. A start stops when an accepted step lowers its SSE
    by no more than LM_FTOL of it, or when lambda passes LM_LAMBDA_MAX, so
    that no step can move it; a stopped start leaves the loop's work.

    Returns the final points, their SSEs and, per start, whether it stopped
    by those rules rather than at LM_MAX_ITERS.
    """
    x = x.copy()
    sse = _sse(x, t, y)
    lam = np.full(len(x), 1e-3)
    grow = np.full(len(x), 2.0)
    live = np.ones(len(x), dtype=bool)
    diag = np.arange(3)
    for _ in range(LM_MAX_ITERS):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        xs, ys, lo, hi = x[rows], y[rows], lower[rows], upper[rows]
        pred, E, c, D = _curves(xs, t)
        r = pred - ys
        # the analytic Jacobian, columns d/dK, d/dnu, d/dp0
        K, p0 = xs[:, 0:1], xs[:, 2:3]
        ED2 = E / (D * D)
        J = np.stack([1.0 / D - K * ED2 / p0, K * c * t * ED2, K * K * ED2 / (p0 * p0)],
                     axis=1)
        A = J @ J.transpose(0, 2, 1)
        g = (J @ r[:, :, None])[:, :, 0]
        held = ((xs <= lo) & (g > 0)) | ((xs >= hi) & (g < 0))
        free = ~held
        scale = A[:, diag, diag]
        M = A * (free[:, :, None] & free[:, None, :])
        M[:, diag, diag] += lam[rows, None] * np.where(scale > 0, scale, 1.0) + held
        step = np.linalg.solve(M, -(g * free)[:, :, None])[:, :, 0]
        trial = np.clip(xs + step, lo, hi)
        trial_sse = _sse(trial, t, ys)
        better = trial_sse < sse[rows]
        done = better & (sse[rows] - trial_sse <= LM_FTOL * sse[rows])
        x[rows[better]] = trial[better]
        sse[rows[better]] = trial_sse[better]
        lam[rows] *= np.where(better, 1.0 / 3.0, grow[rows])
        grow[rows] = np.where(better, 2.0, 2.0 * grow[rows])
        live[rows[done | (lam[rows] > LM_LAMBDA_MAX)]] = False
    return x, sse, ~live


def _starts(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The N_STARTS starting points (K, nu, p0), one per row, inside the box."""
    k_min = float(y.max())
    # data-driven anchors: start level near the first positive value, rate
    # from the average log-growth between the first and last positive points
    positive = y > 0
    first_pos = float(y[positive][0])
    t_first, t_last = float(t[positive][0]), float(t[positive][-1])
    y_last = float(y[positive][-1])
    if y_last > first_pos and t_last > t_first:
        nu_hat = float(np.clip(np.log(y_last / first_pos) / (t_last - t_first), 1e-4, 1.0))
    else:
        nu_hat = 0.05
    anchor = np.array([0.0, np.log(nu_hat), np.log(first_pos)])

    # the anchor, then one step either way along each axis of the logit-K,
    # log-nu and log-p0 scale, mapped into the box; the logistic
    # 0.5 (1 + tanh(theta/2)) saturates instead of overflowing
    steps = np.diag([2.0, 1.0, 1.0])
    theta = np.vstack([anchor, anchor + steps, anchor - steps])
    return np.column_stack([k_min + (K_CEILING - k_min) * 0.5 * (1.0 + np.tanh(theta[:, 0] / 2)),
                            np.exp(theta[:, 1]), np.maximum(np.exp(theta[:, 2]), P0_FLOOR)])


def fit_logistic(series: np.ndarray) -> LogisticFit:
    """Least-squares logistic fit of one series: fit_logistic_many of that one row.

    Raises the SynthctlError or ValueError that fit_logistic_many returns
    for the series.
    """
    (fit,) = fit_logistic_many(np.asarray(series, dtype=float)[None])
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_logistic_many(series: np.ndarray) -> list[LogisticFit | SynthctlError | ValueError]:
    """Least-squares logistic fit of each row of series, by multistart bounded least squares.

    Each row is a daily series: column i is day i, and a day with no
    observation is a NaN cell. Each fit runs N_STARTS starts of a bounded
    Levenberg-Marquardt (`_levenberg_marquardt`) directly on (K, nu, p0) with
    the analytic Jacobian, inside the box K in [max(series), 120], nu >= 0
    and p0 >= P0_FLOOR, over the days where the row is finite. The starts come
    from the row alone: a data-driven anchor and one step either way along
    each axis around it, mapped into the box, so equal rows get equal fits.
    The lowest SSE wins; `converged` is False when the winner stopped at
    LM_MAX_ITERS. A rate that collapses below 1e-6 means the series is flat
    and the ceiling cannot be identified; the fit is returned flagged rather
    than guessed at.

    Rows with the same finite days share one loop, at most LM_BLOCK rows to
    a loop, and a start's path in a shared loop is the one it takes alone,
    so each fit depends on its own row alone.

    Returns one entry per row, in order: its LogisticFit, or the error that
    rules it out: a SynthctlError for fewer than 10 usable points or no
    strictly positive value, a ValueError for a maximum at the ceiling.
    Raises ValueError when series is not 2-d.
    """
    Y = np.asarray(series, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"need one series per row, got an array of shape {Y.shape}")
    days = np.arange(Y.shape[1], dtype=float)
    fits: list = [None] * len(Y)
    finite = np.isfinite(Y)
    groups: dict[bytes, list[int]] = {}  # the rows of each set of finite days
    for i, keep in enumerate(finite):
        y = Y[i, keep]
        if y.size < 10:
            fits[i] = SynthctlError(f"need at least 10 usable points, have {y.size}")
        elif not (y > 0).any():
            fits[i] = SynthctlError("series is never positive")
        elif y.max() >= K_CEILING:
            fits[i] = ValueError(f"series maximum {float(y.max())} exceeds the ceiling "
                                 f"{K_CEILING}")
        else:
            groups.setdefault(keep.tobytes(), []).append(i)
    for rows in groups.values():
        keep = finite[rows[0]]
        for at in range(0, len(rows), LM_BLOCK):
            block = rows[at:at + LM_BLOCK]
            for i, fit in zip(block, _fit_block(Y[block][:, keep], days[keep])):
                fits[i] = fit
    return fits


def _fit_block(Y: np.ndarray, t: np.ndarray) -> list[LogisticFit]:
    """The fits of the fully finite rows of Y at times t, all starts in one loop."""
    n = len(Y)
    k_min = Y.max(axis=1)
    x0 = np.vstack([_starts(y, t) for y in Y])
    lower = np.repeat(np.column_stack([k_min, np.zeros(n), np.full(n, P0_FLOOR)]),
                      N_STARTS, axis=0)
    upper = np.tile([K_CEILING, np.inf, np.inf], (n * N_STARTS, 1))
    x, sse, settled = _levenberg_marquardt(x0, t, np.repeat(Y, N_STARTS, axis=0),
                                           lower, upper)
    best = np.arange(n) * N_STARTS + sse.reshape(n, N_STARTS).argmin(axis=1)
    return [_best_fit(y, t, x[b], float(sse[b]), bool(settled[b])) for y, b in zip(Y, best)]


def _best_fit(y: np.ndarray, t: np.ndarray, x: np.ndarray, sse: float,
              converged: bool) -> LogisticFit:
    """The LogisticFit of the winning start x, flagged when it shows no growth."""
    K, nu, p0 = (float(v) for v in x)
    pred = logistic_predict(K, nu, p0, t)
    movement = float(pred.max() - pred.min())
    if movement < 1e-6 * max(1.0, K):
        # flat solution family: nu ~ 0 (any K) and p0 ~ K (any nu) both fit a
        # constant series equally well, so no single rate or ceiling is
        # identified; report the family's canonical zero-rate member
        nu = 0.0
        resid = y - logistic_predict(K, nu, p0, t)
        sse = float(np.dot(resid, resid))
        flagged = True
        note = "series shows no growth; rate and ceiling unidentifiable"
    else:
        flagged = nu < NU_FLOOR
        note = "rate is effectively zero, ceiling unidentifiable" if flagged else None
    return LogisticFit(K=K, nu=nu, p0=p0, sse=sse, flagged=flagged, note=note,
                       converged=converged)


def classify_quadrant(fits: Mapping[str, LogisticFit]) -> dict[str, str]:
    """Label each unit by its position against the cross-unit mean K and nu.

    A parameter at or above the mean counts as Hi, so a unit sitting exactly
    on a threshold lands in the Hi cell.
    """
    if len(fits) < 2:
        raise ValueError("need at least two units to classify")
    ks = np.array([f.K for f in fits.values()])
    nus = np.array([f.nu for f in fits.values()])
    k_mean, nu_mean = float(ks.mean()), float(nus.mean())
    labels = {}
    for unit, f in fits.items():
        k_part = "HiK" if f.K >= k_mean else "LoK"
        v_part = "HiV" if f.nu >= nu_mean else "LoV"
        labels[unit] = f"{k_part}_{v_part}"
    return labels


@dataclass(frozen=True)
class RegressionLine:
    slope: float
    corr: float


def theme_regression(theme: np.ndarray, param: np.ndarray) -> RegressionLine:
    """Least-squares slope of a fitted parameter on an index, plus Pearson r."""
    x = np.asarray(theme, dtype=float)
    y = np.asarray(param, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("theme and parameter must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 units, have {x.size}")
    if np.ptp(x) == 0:
        raise SynthctlError("index values are constant")
    if np.ptp(y) == 0:
        raise SynthctlError("parameter values are constant")
    vx = float(x.var())
    vy = float(y.var())
    cov = float(np.mean((x - x.mean()) * (y - y.mean())))
    return RegressionLine(slope=cov / vx, corr=cov / np.sqrt(vx * vy))


@dataclass(frozen=True)
class BinStat:
    bin: int
    count: int
    mean: float
    std: float


def decile_summary(
    param: Sequence[float],
    index: Sequence[float],
    bins: int = 10,
) -> tuple[BinStat, ...]:
    """Equal-count bins of units ranked by an index, summarizing a parameter.

    Units sort ascending by index (stable, so ties keep input order). When the
    count does not divide evenly, the leftover units go one apiece to the
    lowest bins, so bin sizes are as equal as possible and deterministic.
    Mean and population standard deviation are reported per bin.
    """
    y = np.asarray(param, dtype=float)
    x = np.asarray(index, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("param and index must be 1-d arrays of equal length")
    if bins < 1:
        raise ValueError("bins must be positive")
    n = y.size
    if n < bins:
        raise SynthctlError(f"cannot form {bins} bins from {n} units")
    order = np.argsort(x, kind="stable")
    base, rem = divmod(n, bins)
    sizes = [base + 1] * rem + [base] * (bins - rem)
    out = []
    at = 0
    for b, size in enumerate(sizes, start=1):
        chunk = y[order[at:at + size]]
        at += size
        out.append(BinStat(bin=b, count=size, mean=float(chunk.mean()),
                           std=float(chunk.std())))
    return tuple(out)
