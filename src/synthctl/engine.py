"""Synthetic control fitting: nested importance and donor weight search.

Fitting runs in four steps. The pre-intervention span splits into a training
and a validation window. For a candidate importance vector v, donor weights
w(v) are fit on training-window predictors. In optimized mode a search looks
for the v whose weights minimize the validation-window outcome error; the
search winner, the uniform vector and the inverse-variance vector are then
each solved once at the full solver budget, and the solve with the lowest
validation error gives the final weights. The synthetic series is the
weighted donor combination over the whole panel.

Predictor matrices get one extra row beyond the unit-level predictors: each
unit's mean outcome over the training window, so the match is anchored to
pre-intervention levels even when no predictor table is supplied. Predictor
rows are z-scored across units so importance weights live on one scale,
unless the study's spec sets standardize=False to keep raw rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSplit, ZeroVariancePredictor
from .panel import Panel, PredictorTable
from .seeding import derive_seed
from .weights import Regularization, solve_w

OUTCOME_MEAN_NAME = "outcome_training_mean"

V_MODES = ("optimized", "inverse_variance", "uniform")
PLACEMENTS = ("head", "tail")

# search budget for the importance vector: improvements smaller than this over
# a 50-evaluation stretch end the search
_V_STALL_TOL = 1e-10
_V_STALL_EVALS = 50


@dataclass(frozen=True)
class StudySpec:
    """What to fit: the treated unit, its donor pool, and the time layout.

    T0 counts pre-intervention days, so panel column T0 is the first
    post-intervention day. t_fit training days are carved out of the
    pre-period at the head or tail; the remainder is the validation window.
    v_mode picks the predictor importance vector: optimized searches for it,
    inverse_variance weights each predictor row by 1/variance across units,
    and uniform weights every row equally. standardize z-scores each
    predictor row across the study's units.
    """

    treated: str
    donors: tuple[str, ...]
    T0: int
    t_fit: int = 10
    v_mode: str = "optimized"
    reg: Regularization = field(default_factory=Regularization)
    train_placement: str = "tail"
    standardize: bool = True

    def __post_init__(self) -> None:
        if not self.donors:
            raise ValueError("donor pool must be non-empty")
        if len(set(self.donors)) != len(self.donors):
            raise ValueError("donor pool contains duplicates")
        if self.treated in self.donors:
            raise ValueError("treated unit cannot be its own donor")
        if self.v_mode not in V_MODES:
            raise ValueError(f"v_mode must be one of {V_MODES}, got {self.v_mode!r}")
        if self.train_placement not in PLACEMENTS:
            raise ValueError(f"train_placement must be one of {PLACEMENTS}")
        split_pre_period(self.T0, self.t_fit, self.train_placement)  # validates


@dataclass(frozen=True)
class SynthResult:
    """A fitted synthetic control and its error summary."""

    treated: str
    donors: tuple[str, ...]
    predictor_names: tuple[str, ...]
    w_star: np.ndarray
    v_star: np.ndarray
    synthetic: np.ndarray
    gap: np.ndarray
    train_mspe: float
    validation_mspe: float
    pre_mspe: float
    objective: float
    converged: bool  # whether the final weight solve's Frank-Wolfe gap certifies it
    fw_gap: float  # that solve's Frank-Wolfe gap, a bound on its distance to the optimum

    @property
    def weights_by_donor(self) -> dict[str, float]:
        return {d: float(w) for d, w in zip(self.donors, self.w_star)}

    @property
    def importance_by_predictor(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.predictor_names, self.v_star)}


def split_pre_period(T0: int, t_fit: int, placement: str = "tail") -> tuple[range, range]:
    """Carve the pre-period [0, T0) into training and validation windows.

    head places the t_fit training days first; tail places them last, keeping
    the match anchored to the days closest to the intervention.
    """
    if not (1 <= t_fit < T0):
        raise InvalidSplit(f"need 1 <= t_fit < T0, got t_fit={t_fit} T0={T0}")
    if placement == "head":
        return range(0, t_fit), range(t_fit, T0)
    if placement == "tail":
        return range(T0 - t_fit, T0), range(0, T0 - t_fit)
    raise ValueError(f"unknown placement {placement!r}")


def inverse_variance_v(X: np.ndarray) -> np.ndarray:
    """Importance proportional to 1/variance of each predictor across units."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"need a predictors-by-units matrix, got shape {X.shape}")
    var = X.var(axis=1)
    if (var == 0).any():
        name = int(np.argmax(var == 0))
        raise ZeroVariancePredictor(f"predictor row {name} is constant across units")
    inv = 1.0 / var
    return inv / inv.sum()


@dataclass(frozen=True)
class Design:
    """One study's arrays: predictor matrices, outcome rows and pre-period windows."""

    X1: np.ndarray
    X0: np.ndarray
    raw: np.ndarray  # unstandardized (k+1) x (1 + J), treated first
    names: tuple[str, ...]
    Y1: np.ndarray  # treated outcome series over the whole panel
    Y0: np.ndarray  # donor outcome series, J x T
    train: np.ndarray  # training-window day indices
    val: np.ndarray  # validation-window day indices

    def validation_error(self, w: np.ndarray) -> float:
        """Summed squared outcome gap of donor weights w over the validation window."""
        diff = self.Y1[self.val] - self.Y0[:, self.val].T @ w
        return float(np.dot(diff, diff))


def build_design(
    panel: Panel,
    predictors: PredictorTable | None,
    spec: StudySpec,
) -> Design:
    """Check the study against the panel and assemble its arrays.

    Every unit must be in the panel with no missing outcome, and the
    pre-period must fit inside the panel. Predictor rows are the predictor
    table rows plus the appended training-window outcome mean. If
    spec.standardize is set, each row is z-scored across the treated unit and
    donors together; constant rows become zeros.
    """
    order = (spec.treated,) + spec.donors
    rows = [panel.unit_index(u) for u in order]
    if not (spec.t_fit < spec.T0 <= panel.n_dates):
        raise InvalidSplit(
            f"pre-period T0={spec.T0} does not fit a panel of {panel.n_dates} days"
        )

    if predictors is not None and predictors.n_predictors > 0:
        if OUTCOME_MEAN_NAME in predictors.names:
            raise ValueError(f"predictor name {OUTCOME_MEAN_NAME!r} is reserved")
        cols = [predictors.column(u) for u in order]
        base = np.column_stack(cols)
        names = predictors.names
    else:
        base = np.zeros((0, len(order)))
        names = ()

    outcome_rows = panel.values[rows]
    missing = np.argwhere(~np.isfinite(outcome_rows))
    if missing.size:
        unit, day = missing[0]
        raise ValueError(f"outcome series contain missing values, first unit {order[unit]} "
                         f"on {panel.dates[day]}; clean the panel first")
    return _assemble(base, outcome_rows, names, spec)


def placebo_design(design: Design, donor: int, spec: StudySpec) -> Design:
    """The design of the study's donor number `donor` as the placebo spec sees it.

    The treated column is dropped, the donor's column and outcome row move to
    the front, and the training-mean row and the standardization are redone
    over those columns: the arrays equal build_design's for spec.
    """
    cols = [donor] + [j for j in range(len(design.Y0)) if j != donor]
    # C order: np.vstack keeps an F-ordered block's layout, and the row means
    # of the standardization would then sum in another order
    base = np.ascontiguousarray(design.raw[:-1, 1:][:, cols])
    return _assemble(base, design.Y0[cols], design.names[:-1], spec)


def _assemble(base: np.ndarray, outcomes: np.ndarray, names: tuple[str, ...],
              spec: StudySpec) -> Design:
    """A design from a predictor block and outcome rows, treated unit first."""
    train, val = split_pre_period(spec.T0, spec.t_fit, spec.train_placement)
    train, val = np.asarray(train, dtype=int), np.asarray(val, dtype=int)
    mean_row = outcomes[:, train].mean(axis=1)
    raw = np.vstack([base, mean_row[None, :]])

    if spec.standardize:
        mu = raw.mean(axis=1, keepdims=True)
        sd = raw.std(axis=1, keepdims=True)
        scaled = np.where(sd > 0, (raw - mu) / np.where(sd > 0, sd, 1.0), 0.0)
    else:
        scaled = raw
    return Design(X1=scaled[:, 0].copy(), X0=scaled[:, 1:].copy(), raw=raw,
                  names=names + (OUTCOME_MEAN_NAME,),
                  Y1=outcomes[0], Y0=outcomes[1:], train=train, val=val)


def _baselines(design: Design) -> list[np.ndarray]:
    """The uniform vector, then the inverse-variance one when every row varies."""
    k = design.raw.shape[0]
    try:
        return [np.full(k, 1.0 / k), inverse_variance_v(design.raw)]
    except ZeroVariancePredictor:
        return [np.full(k, 1.0 / k)]


def _softmax(theta: np.ndarray) -> np.ndarray:
    z = theta - theta.max()
    e = np.exp(z)
    return e / e.sum()


class _SearchStalled(Exception):
    pass


class _Exhausted(Exception):
    pass


def _nelder_mead(f, x0: np.ndarray, maxfev: int, xatol: float, fatol: float) -> None:
    """Minimize f by the Nelder-Mead simplex method, for its calls alone.

    Evaluates exactly the points, in the same order, that scipy's
    minimize(method="Nelder-Mead") evaluates with these options and no bounds,
    non-adaptive: reflection 1, expansion 2, contraction 0.5, shrink 0.5, the
    initial simplex stepping each coordinate by 5 % (0.00025 from zero), and
    at most maxfev calls. Each call gets a copy of its point. The caller keeps
    what it needs from the calls, so nothing is returned; an exception raised
    by f ends the search.
    """
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for i in range(n):
        y = x0.copy()
        y[i] = 1.05 * y[i] if y[i] != 0 else 0.00025
        sim[i + 1] = y
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def call(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return f(x.copy())

    try:
        for i in range(n + 1):
            fsim[i] = call(sim[i])
        for _ in range(2):  # scipy sorts twice here; ties can move between passes
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
        while True:
            if np.abs(sim[1:] - sim[0]).max() <= xatol and \
                    np.abs(fsim[0] - fsim[1:]).max() <= fatol:
                return
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside, toward the reflection
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc <= fxr
                else:  # contract inside, toward the worst vertex
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
    except _Exhausted:
        return


def solve_v(
    spec: StudySpec,
    design: Design,
    *,
    seed: int = 42,
) -> np.ndarray:
    """Choose the predictor importance vector for the study's design by spec.v_mode.

    uniform weights every predictor row 1/k; inverse_variance weights each
    row by 1/variance across units of its raw values. optimized runs a
    derivative-free search over softmax-parameterized importance vectors,
    scoring each candidate by the validation-window error of its implied
    donor weights, and returns the best vector it scored (uniform if it
    scored no finite error, or if there is a single row). fit_synth
    compares the winner with the baselines.
    """
    k = design.raw.shape[0]
    if spec.v_mode == "inverse_variance":
        return inverse_variance_v(design.raw)
    if spec.v_mode == "uniform" or k == 1:
        return np.full(k, 1.0 / k)

    baselines = _baselines(design)

    best_f = np.inf
    best_v = baselines[0]
    since_improve = 0

    def scored(theta: np.ndarray) -> float:
        nonlocal best_f, best_v, since_improve
        v = _softmax(np.asarray(theta, dtype=float))
        f = design.validation_error(solve_w(design.X1, design.X0, v, spec.reg).w)
        if f < best_f - _V_STALL_TOL:
            best_f, best_v, since_improve = f, v, 0
        else:
            since_improve += 1
            if since_improve >= _V_STALL_EVALS:
                raise _SearchStalled
        return f

    starts = [np.zeros(k)]
    if len(baselines) == 2:
        starts.append(np.log(baselines[1]))
    else:
        starts.append(np.random.default_rng(derive_seed(seed, "v-start")).normal(size=k))

    maxfev = max(60, 4 * k)
    for theta0 in starts:
        since_improve = 0
        try:
            _nelder_mead(scored, theta0, maxfev, xatol=1e-3, fatol=_V_STALL_TOL)
        except _SearchStalled:
            pass
    return best_v


def fit_synth(spec: StudySpec, design: Design, *, seed: int = 42) -> SynthResult:
    """Fit a synthetic control for the study's design and score it.

    Returns the donor weights, the importance vector that chose them, the
    synthetic series over the whole panel, the per-day gap (actual minus
    synthetic), and summed squared errors over the training, validation, and
    full pre-intervention windows. In optimized mode with more than one
    predictor row, the uniform vector, the inverse-variance vector (when
    every row varies) and solve_v's winner, unless it equals one of them,
    are each solved once, and the solve with the lowest validation error is
    kept (the first on ties), so the fit never validates worse than either
    baseline. Otherwise solve_v's vector is solved once.
    """
    winner = solve_v(spec, design, seed=seed)
    candidates = [winner]
    if spec.v_mode == "optimized" and design.raw.shape[0] > 1:
        candidates = _baselines(design)
        # a winner equal to a baseline would be solved twice and lose the tie
        if not any(np.array_equal(winner, v) for v in candidates):
            candidates.append(winner)
    solves = [solve_w(design.X1, design.X0, v, spec.reg) for v in candidates]
    best = int(np.argmin([design.validation_error(res.w) for res in solves]))
    v, result = candidates[best], solves[best]

    synthetic = design.Y0.T @ result.w
    gap = design.Y1 - synthetic
    train, val, pre = gap[design.train], gap[design.val], gap[:spec.T0]
    return SynthResult(
        treated=spec.treated,
        donors=spec.donors,
        predictor_names=design.names,
        w_star=result.w,
        v_star=v,
        synthetic=synthetic,
        gap=gap,
        train_mspe=float(np.dot(train, train)),
        validation_mspe=float(np.dot(val, val)),
        pre_mspe=float(np.dot(pre, pre)),
        objective=result.objective,
        converged=result.converged,
        fw_gap=result.fw_gap,
    )
