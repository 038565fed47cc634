"""Synthetic control fitting: nested importance and donor weight search.

Fitting runs in four steps. The pre-intervention span splits into a training
and a validation window. For a candidate importance vector v, donor weights
w(v) are fit on training-window predictors. In optimized mode a search from
the uniform vector looks for the v whose weights minimize the
validation-window outcome error. The chosen vector is solved once more for
the final weights. The synthetic series is the weighted donor combination
over the whole panel.

Predictor matrices get one extra row beyond the unit-level predictors: each
unit's mean outcome over the training window, so the match is anchored to
pre-intervention levels even when no predictor table is supplied. Predictor
rows are always z-scored across units so importance weights live on one
scale. The optimized search reads nothing else of the raw values, so its
vector and weights do not depend on the units a predictor is recorded in;
only inverse-variance mode reads the raw rows' variances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSplit, SynthctlError
from .panel import Panel, PredictorTable
from .spec import StudySpec, split_pre_period
from .weights import solve_w

OUTCOME_MEAN_NAME = "outcome_training_mean"

# search budget for the importance vector: improvements smaller than this over
# a 50-evaluation stretch end the search
_V_STALL_TOL = 1e-10
_V_STALL_EVALS = 50
# each vertex of the search's initial simplex steps one coordinate of the
# softmax parameter theta by this much
_SIMPLEX_STEP = 0.5


@dataclass(frozen=True)
class SynthResult:
    """A fitted synthetic control and its error summary.

    w_star holds one weight per donor, in the order of spec.donors; v_star
    holds one importance per predictor row, in the order of design.names.
    """

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
    sources: tuple[str, str]  # the files of the predictor rows and of the outcomes
    # Y1[val] and Y0[:, val], cut once for the search's many validation_error
    # calls; __post_init__ sets them, so dataclasses.replace recuts them
    Y1_val: np.ndarray = field(init=False)
    Y0_val: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "Y1_val", self.Y1[self.val])
        object.__setattr__(self, "Y0_val", self.Y0[:, self.val])

    def validation_error(self, w: np.ndarray) -> float:
        """Summed squared outcome gap of donor weights w over the validation window."""
        diff = self.Y1_val - self.Y0_val.T @ w
        return float(np.dot(diff, diff))


def build_design(
    panel: Panel,
    predictors: PredictorTable | None,
    spec: StudySpec,
) -> Design:
    """Check the study against the panel and assemble its arrays.

    Every unit must be in the panel with no missing outcome, and the
    pre-period must fit inside the panel. Predictor rows are the predictor
    table rows plus the appended training-window outcome mean, each z-scored
    across the treated unit and donors together; a row of equal values
    becomes zeros. The unscaled rows are kept as the design's raw, and the
    files of the two tables as its sources.
    """
    order = (spec.treated,) + spec.donors
    rows = [panel.unit_index(u) for u in order]
    if spec.T0 > panel.n_dates:
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
    sources = ("" if predictors is None else predictors.source, panel.source)
    return _assemble(base, outcome_rows, names, spec, sources)


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
    return _assemble(base, design.Y0[cols], design.names[:-1], spec, design.sources)


def window_design(design: Design, spec: StudySpec) -> Design:
    """The study's design recut to spec's pre-period windows: the arrays equal build_design's."""
    outcomes = np.vstack([design.Y1, design.Y0])
    return _assemble(design.raw[:-1], outcomes, design.names[:-1], spec, design.sources)


def _assemble(base: np.ndarray, outcomes: np.ndarray, names: tuple[str, ...],
              spec: StudySpec, sources: tuple[str, str] = ("", "")) -> Design:
    """A design from a predictor block and outcome rows, treated unit first."""
    train, val = split_pre_period(spec.T0, spec.t_fit, spec.train_placement)
    train, val = np.asarray(train, dtype=int), np.asarray(val, dtype=int)
    mean_row = outcomes[:, train].mean(axis=1)
    raw = np.vstack([base, mean_row[None, :]])
    mu = raw.mean(axis=1, keepdims=True)
    sd = raw.std(axis=1, keepdims=True)
    # a row of equal values is constant even where its float sd is not exactly 0
    flat = np.ptp(raw, axis=1, keepdims=True) == 0
    scaled = np.where(flat, 0.0, (raw - mu) / np.where(flat, 1.0, sd))
    return Design(X1=scaled[:, 0].copy(), X0=scaled[:, 1:].copy(), raw=raw,
                  names=names + (OUTCOME_MEAN_NAME,),
                  Y1=outcomes[0], Y0=outcomes[1:], train=train, val=val, sources=sources)


def _softmax(theta: np.ndarray) -> np.ndarray:
    z = theta - theta.max()
    e = np.exp(z)
    return e / e.sum()


def _nelder_mead(x0: np.ndarray, xatol: float, fatol: float):
    """The Nelder-Mead simplex method, as a generator of the points it evaluates.

    Yields exactly the points, in the same order, that scipy's
    minimize(method="Nelder-Mead") evaluates with these options, no bounds,
    no budget and initial_simplex x0 + _SIMPLEX_STEP * [0; I], non-adaptive:
    reflection 1, expansion 2, contraction 0.5, shrink 0.5. Each point is a
    fresh copy, and the caller sends back its value; the first send is None.
    Returns when scipy's tolerance test holds. The caller owns every other
    stopping rule: it stops sending.
    """
    n = x0.size
    sim = x0 + _SIMPLEX_STEP * np.vstack([np.zeros(n), np.eye(n)])
    fsim = np.full(n + 1, np.inf)
    for i in range(n + 1):
        fsim[i] = yield sim[i].copy()
    for _ in range(2):  # scipy sorts twice here; ties can move between passes
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    while not (np.abs(sim[1:] - sim[0]).max() <= xatol and
               np.abs(fsim[0] - fsim[1:]).max() <= fatol):
        xbar = sim[:-1].sum(0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr.copy()
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = yield xe.copy()
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside, toward the reflection
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = yield xc.copy()
                accept = fxc <= fxr
            else:  # contract inside, toward the worst vertex
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = yield xc.copy()
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield sim[j].copy()
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]


def solve_v(spec: StudySpec, design: Design) -> np.ndarray:
    """Choose the predictor importance vector for the study's design by spec.v_mode.

    uniform weights every predictor row 1/k; inverse-variance weights each
    row by 1/variance across units of its raw values, and a row of equal
    values fails naming its predictor and the file it came from. optimized
    runs a derivative-free search over softmax-parameterized importance
    vectors, scoring each candidate by the validation-window error of its
    implied donor weights, and draws nothing at random. The search starts
    from the uniform vector (theta = 0), and ends at the simplex's
    tolerances, after max(60, 4k) evaluations, or after _V_STALL_EVALS
    evaluations in a row that improve on the best error by no more than
    _V_STALL_TOL. It returns the best vector it scored. Its first point is
    the uniform vector bit for bit, and the best moves only on an
    improvement larger than _V_STALL_TOL, so the fit never validates worse
    than uniform, and a search that finds nothing better returns uniform. A
    single row or a single donor leaves nothing to search, and gets uniform.
    Each weight solve after the first starts warm from the previous
    evaluation's (see solve_w). The first starts cold, and no state crosses
    calls, so the vector is a function of the design alone; fit_synth
    solves it once more, cold.
    """
    k = design.raw.shape[0]
    if spec.v_mode == "inverse-variance":
        var = design.raw.var(axis=1)
        constant = np.flatnonzero(np.ptp(design.raw, axis=1) == 0)
        if constant.size:
            row = int(constant[0])
            source = design.sources[row == k - 1]  # the last row is the training mean
            raise SynthctlError(f"{source}{': ' if source else ''}predictor "
                                f"{design.names[row]!r} is constant across units")
        inv = 1.0 / var
        return inv / inv.sum()
    uniform = np.full(k, 1.0 / k)
    if spec.v_mode == "uniform" or k == 1 or design.X0.shape[1] == 1:
        return uniform

    search = _nelder_mead(np.zeros(k), xatol=1e-3, fatol=_V_STALL_TOL)
    last = None  # the previous evaluation's solve, where the next one starts
    f = None
    best_f, best_v, since_improve = np.inf, uniform, 0
    for _ in range(max(60, 4 * k)):
        try:
            theta = search.send(f)
        except StopIteration:  # the simplex is within both tolerances
            break
        v = _softmax(theta)
        last = solve_w(design.X1, design.X0, v, spec.reg, start=last)
        f = design.validation_error(last.w)
        if f < best_f - _V_STALL_TOL:
            best_f, best_v, since_improve = f, v, 0
        else:
            since_improve += 1
            if since_improve >= _V_STALL_EVALS:
                break
    return best_v


def fit_synth(spec: StudySpec, design: Design) -> SynthResult:
    """Fit a synthetic control for the study's design and score it.

    Returns the donor weights, the importance vector that chose them, the
    synthetic series over the whole panel, the per-day gap (actual minus
    synthetic), and summed squared errors over the training, validation, and
    full pre-intervention windows. The weights are solve_v's vector's,
    solved once and cold, whatever the v_mode, so they equal a fresh
    solve_w of v_star. A design whose donor columns do not match
    spec.donors raises ValueError.
    """
    if design.X0.shape[1] != len(spec.donors):
        raise ValueError(f"the design has {design.X0.shape[1]} donor columns but the spec "
                         f"names {len(spec.donors)} donors")
    v = solve_v(spec, design)
    result = solve_w(design.X1, design.X0, v, spec.reg)

    synthetic = design.Y0.T @ result.w
    gap = design.Y1 - synthetic
    train, val, pre = gap[design.train], gap[design.val], gap[:spec.T0]
    return SynthResult(
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
