"""Donor weight optimization on the probability simplex.

The treated unit is approximated by a convex combination of donors: weights
are nonnegative and sum to one. The discrepancy being minimized is

    sqrt( sum_h v_h * (X1_h - sum_j w_j * X0_hj)^2 ) + l1*||w||_2

where v holds per-predictor importance weights and l1, named after the CLI
flag it binds to, scales the Euclidean norm of w. A penalty on the absolute
sum of w would be the constant 1 on the simplex, so there is none.

The solver is projected gradient descent with Armijo backtracking, restarted
from several random points on the simplex. A flat (uniform) start sits on a
symmetry point of the objective and can stall the descent, so initial points
are always drawn from a flat Dirichlet instead of using the uniform vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_TINY = 1e-300


@dataclass(frozen=True)
class Regularization:
    """Penalty coefficient: l1 multiplies ||w||_2."""

    l1: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.l1 < math.inf:
            raise ValueError("penalty coefficient must be finite and nonnegative")


@dataclass(frozen=True)
class SolverOptions:
    """Descent budget. tol is a relative decrease threshold: a restart stops
    once an accepted step improves the loss by less than tol * (loss + tol),
    so perfect-fit instances keep descending to the floating-point floor."""

    max_iters: int = 2000
    tol: float = 1e-9
    restarts: int = 8

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    """Converged weights plus diagnostics.

    trace holds the reported objective at every accepted step of the winning
    restart (non-increasing by construction); restart_objectives holds each
    restart's final objective, of which `objective` is the minimum.
    """

    w: np.ndarray
    objective: float
    converged: bool
    trace: tuple[float, ...]
    restart_objectives: tuple[float, ...]


def _check_inputs(X1: np.ndarray, X0: np.ndarray, v: np.ndarray) -> tuple[int, int]:
    if X0.ndim != 2:
        raise DimensionMismatch(f"X0 must be 2-d (predictors x donors), got shape {X0.shape}")
    k, J = X0.shape
    if X1.shape != (k,):
        raise DimensionMismatch(f"X1 has shape {X1.shape}, expected ({k},)")
    if v.shape != (k,):
        raise DimensionMismatch(f"v has shape {v.shape}, expected ({k},)")
    if k < 1 or J < 1:
        raise DimensionMismatch("need at least one predictor and one donor")
    if (v < 0).any():
        raise ValueError("importance weights must be nonnegative")
    return k, J


def objective(
    w: np.ndarray,
    X1: np.ndarray,
    X0: np.ndarray,
    v: np.ndarray,
    reg: Regularization,
) -> float:
    """Penalized predictor discrepancy of a candidate weight vector."""
    w = np.asarray(w, dtype=float)
    X1 = np.asarray(X1, dtype=float)
    X0 = np.asarray(X0, dtype=float)
    v = np.asarray(v, dtype=float)
    k, J = _check_inputs(X1, X0, v)
    if w.shape != (J,):
        raise DimensionMismatch(f"w has shape {w.shape}, expected ({J},)")
    r = X1 - X0 @ w
    q = float(np.dot(v, r * r))
    return float(np.sqrt(q) + reg.l1 * np.linalg.norm(w))


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, by the sorting method."""
    y = np.asarray(y, dtype=float)
    u = y.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    rho = int((u + (1.0 - css) / np.arange(1.0, y.size + 1) > 0).nonzero()[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(y + lam, 0.0)


def _descend(
    w0: np.ndarray,
    loss,
    grad,
    project,
    opts: SolverOptions,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Armijo-backtracked gradient descent from one starting point.

    loss(w) returns the loss and the state it computed on the way; grad(w,
    state) reuses that state at the accepted point instead of recomputing it.
    Only improving steps are ever accepted, so the loss trace is
    non-increasing; the descent cannot oscillate.
    """
    w = project(w0)
    f, state = loss(w)
    trace = [f]
    alpha = 1.0
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        g = grad(w, state)
        alpha = min(alpha * 2.0, 1e8)
        accepted = False
        for _ in range(80):
            w_new = project(w - alpha * g)
            d = w_new - w
            if not np.count_nonzero(d):  # a NaN entry counts as a move
                break
            f_new, state_new = loss(w_new)
            if f_new <= f + 1e-4 * float(g @ d):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = True
            break
        drop = f - f_new
        w, f, state = w_new, f_new, state_new
        trace.append(f)
        if drop < opts.tol * (abs(f) + opts.tol):
            converged = True
            break
    return w, f, it, converged, trace


def solve_w(
    X1: np.ndarray,
    X0: np.ndarray,
    v: np.ndarray,
    reg: Regularization,
    opts: SolverOptions | None = None,
    seed: int = 42,
    init: np.ndarray | None = None,
) -> SolveResult:
    """Minimize the penalized discrepancy over donor weights.

    Args:
        X1: treated unit's predictor vector, shape (k,).
        X0: donor predictor matrix, shape (k, J).
        v: nonnegative predictor importance weights, shape (k,).
        reg: penalty coefficients.
        opts: solver budget.
        seed: drives the random restart draws; same seed, same result.
        init: optional extra starting point, used alongside the restarts.
            With restarts=0 the descent runs from this point alone.

    Returns the best restart's weights. They satisfy sum(w) = 1 within 1e-8
    and w >= 0 exactly (negative zeros clipped).
    """
    opts = opts or SolverOptions()
    X1 = np.asarray(X1, dtype=float)
    X0 = np.asarray(X0, dtype=float)
    v = np.asarray(v, dtype=float)
    k, J = _check_inputs(X1, X0, v)
    for name, a in (("X1", X1), ("X0", X0), ("v", v)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds a NaN or an infinity; the weight solve "
                             "needs finite inputs")

    if J == 1:
        w = np.array([1.0])
        f = objective(w, X1, X0, v, reg)
        return SolveResult(w, f, True, (f,), (f,))

    vX0T = (v[:, None] * X0).T
    l1 = reg.l1

    if l1 == 0.0:
        # with no Euclidean penalty the square root is a monotone wrapper, so
        # descend on the smooth quadratic itself and report the root
        def loss(w: np.ndarray) -> tuple[float, np.ndarray]:
            r = X1 - X0 @ w
            return float(v.dot(r * r)), r

        def grad(w: np.ndarray, r: np.ndarray) -> np.ndarray:
            return -2.0 * (vX0T @ r)

        def report(f_internal: float) -> float:
            return math.sqrt(max(f_internal, 0.0))
    else:
        def loss(w: np.ndarray) -> tuple[float, tuple]:
            r = X1 - X0 @ w
            q = float(v.dot(r * r))
            wn = math.sqrt(float(w.dot(w)))
            return math.sqrt(max(q, 0.0)) + l1 * wn, (r, q, wn)

        def grad(w: np.ndarray, state: tuple) -> np.ndarray:
            r, q, wn = state
            if q > _TINY:
                g = 0.0 - (vX0T @ r) / math.sqrt(q)  # not -(...): zeros stay +0.0
            else:
                g = np.zeros_like(w)
            if wn > 0.0:
                g += l1 * w / wn
            return g

        def report(f_internal: float) -> float:
            return f_internal

    rng = np.random.default_rng(seed)
    starts: list[np.ndarray] = []
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (J,):
            raise DimensionMismatch(f"init has shape {init.shape}, expected ({J},)")
        starts.append(init)
    starts.extend(rng.dirichlet(np.ones(J)) for _ in range(opts.restarts))
    if not starts:
        raise ValueError("need init or at least one restart")

    best: tuple[float, np.ndarray, bool, list[float]] | None = None
    finals: list[float] = []
    for w0 in starts:
        w, f, _, converged, trace = _descend(w0, loss, grad, project_simplex, opts)
        finals.append(report(f))
        if best is None or f < best[0]:
            best = (f, w, converged, trace)
    assert best is not None
    f_int, w, converged, trace = best
    return SolveResult(
        w=np.maximum(w, 0.0),
        objective=report(f_int),
        converged=converged,
        trace=tuple(report(f) for f in trace),
        restart_objectives=tuple(finals),
    )

