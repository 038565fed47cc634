"""Donor weight optimization on the probability simplex.

The treated unit is approximated by a convex combination of donors: weights
are nonnegative and sum to one. The discrepancy being minimized is

    f(w) = sqrt( sum_h v_h * (X1_h - sum_j w_j * X0_hj)^2 ) + l1*||w||_2

where v holds per-predictor importance weights and l1, named after the CLI
flag it binds to, scales the Euclidean norm of w. A penalty on the absolute
sum of w would be the constant 1 on the simplex, so there is none.

solve_w computes the exact minimizer. With A = sqrt(v)*X0, b = sqrt(v)*X1
and the residual r = A w - b, each step solves the quadratic program

    minimize 1/2 ||r||^2 + mu/2 ||w||^2 over the simplex

by a primal active-set method (Lawson & Hanson 1974, adapted to the simplex):
start from the best vertex, solve the KKT system with the sum-to-one row on
the free set, add the donor with the most negative reduced gradient (the
lowest index on ties), and step back when a free weight reaches zero. For
l1 = 0 the program at mu = 0 is the whole solve. For l1 > 0, f and the
program share their stationarity conditions at mu = l1*||r||/||w||. Newton
steps on that equation, with dw/dmu from the free set's KKT system, find
mu; Illinois (secant) steps take over inside the bracket when a Newton step
leaves it, and each program starts from the last free set. When the treated
unit is a convex combination of donors, f has a kink at r = 0, and its
minimum may lie there: at the least-norm exact fit, the mu -> 0 limit of the
programs, which the active-set method also solves. Its certificate is the
least-norm subgradient that makes its Frank-Wolfe gap zero, a least-distance
program solved by Lawson & Hanson's NNLS.

A solve may start warm from an earlier one's result, as the importance
search's consecutive solves do (engine.fit_synth's final solve of the chosen
importances stays cold): for l1 > 0 and an earlier mu > 0 it skips the
least-squares program and enters the mu iteration at the earlier mu and
weights, with no low end of the bracket until a program lands below the
root. If the root lies below a mu that no Newton step can leave downward (as
at the kink, which only the least-squares program detects), or the warm
iteration ends uncertified, the solve falls back to the cold one and returns
its weights. With l1 > 0 the minimizer is unique, so a certified warm solve
reaches the cold one's optimum by another path.

A solve stops on the Frank-Wolfe gap of f, g.w - min_j g_j for a
(sub)gradient g at w, which bounds f(w) - min f. `converged` means that this
gap certifies w: it is within REL_GAP of f, or at the rounding floor of the
inputs. The solve is deterministic and takes no seed.

project_simplex and _descend are projected gradient descent, which tests run
as a reference solver for l1 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SynthctlError
from .spec import Regularization

# a solve is certified when its Frank-Wolfe gap is at most REL_GAP * f plus
# ABS_GAP times the scale s of the inputs (LSQ_FLOOR * s^2 / f when l1 = 0),
# or f itself is at most ABS_GAP * s
REL_GAP = 1e-10
ABS_GAP = 1e-13
LSQ_FLOOR = 1e-15
# a free set's reduced gradients below -_ENTER_TOL times the gradient's
# largest entry let a donor enter
_ENTER_TOL = 1e-13
_MAX_MU_STEPS = 60
_TINY = 1e-300


@dataclass(frozen=True)
class SolveResult:
    """Donor weights, their objective, and the Frank-Wolfe certificate.

    fw_gap bounds objective - (the minimum objective); converged is True
    when that bound certifies the weights (see REL_GAP). mu is the ridge
    coefficient of the program that found w (0 for a least-squares program
    or an exact fit). A later solve may start from w and mu (see solve_w).
    """

    w: np.ndarray
    objective: float
    converged: bool
    fw_gap: float
    mu: float


def _check_inputs(X1: np.ndarray, X0: np.ndarray, v: np.ndarray) -> tuple[int, int]:
    if X0.ndim != 2:
        raise SynthctlError(f"X0 must be 2-d (predictors x donors), got shape {X0.shape}")
    k, J = X0.shape
    if X1.shape != (k,):
        raise SynthctlError(f"X1 has shape {X1.shape}, expected ({k},)")
    if v.shape != (k,):
        raise SynthctlError(f"v has shape {v.shape}, expected ({k},)")
    if k < 1 or J < 1:
        raise SynthctlError("need at least one predictor and one donor")
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
        raise SynthctlError(f"w has shape {w.shape}, expected ({J},)")
    r = X1 - X0 @ w
    q = float(np.dot(v, r * r))
    return float(np.sqrt(q) + reg.l1 * np.linalg.norm(w))


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, by the sorting method.

    Part of the reference projected gradient descent (see _descend).
    """
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
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Armijo-backtracked projected gradient descent from one starting point.

    The reference solver that tests run against solve_w for l1 > 0; solve_w
    itself does not call it. A descent stops after max_iters accepted steps,
    or once a step lowers the loss by less than tol * (|loss| + tol).

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
    for it in range(1, max_iters + 1):
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
        if drop < tol * (abs(f) + tol):
            converged = True
            break
    return w, f, it, converged, trace


class _Solver:
    """The active-set programs and the certificate of one solve_w call.

    The rows of A are first rotated onto its numerical row space, so that a
    zero importance or a repeated predictor row leaves no singular KKT
    system. Free sets are solved by normal equations; a pass that leaves
    its weights uncertified is repeated with lstsq on each free set.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, l1: float) -> None:
        # the k rows of A become its rank, and the part of b outside its
        # row space is a constant c in ||r||^2 that no weights change
        self.scale = float(np.sqrt((A * A).sum(axis=0)).max() + np.linalg.norm(b))
        U, sv, _ = np.linalg.svd(A, full_matrices=False)
        U = U[:, sv > max(A.shape) * np.finfo(float).eps * sv.max(initial=0.0)]
        self.A, self.b = U.T @ A, U.T @ b
        self.c = float(np.sum((b - U @ self.b) ** 2))
        self.l1 = l1
        self.k, self.J = self.A.shape
        self.exact = False  # every free set by lstsq, not by normal equations

    def rnorm(self, r: np.ndarray) -> float:
        """||A w - b|| from the rotated residual r."""
        return math.sqrt(float(r @ r) + self.c)

    def _linsolve(self, K: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
        try:
            z = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return None
        return z if np.isfinite(z).all() else None

    def _primal(self, AF: np.ndarray, mu: float) -> np.ndarray:
        """The bordered normal equations [A_F'A_F + mu I, 1; 1', 0]."""
        n = AF.shape[1]
        K = np.ones((n + 1, n + 1))
        K[:n, :n] = AF.T @ AF
        K[n, n] = 0.0
        K.flat[:n * (n + 2):n + 2] += mu
        return K

    def _dual(self, AF: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """B = [A_F; 1'] and B B' + mu D, D = diag(1, .., 1, 0)."""
        k = self.k
        B = np.vstack((AF, np.ones(AF.shape[1])))
        M = B @ B.T
        M.flat[:k * (k + 2):k + 2] += mu
        return B, M

    def face(self, F: np.ndarray, mu: float,
             limit: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """Minimizer x of 1/2 ||A_F x - b||^2 + mu/2 ||x||^2 with sum(x) = 1.

        The primal form solves the bordered normal equations, of size
        |F| + 1. The dual form, taken when |F| > k + 1, eliminates
        x = -(A_F' y + nu): it solves (B B' + mu D) [y; nu] = -[b; 1] with
        B = [A_F; 1'] and D = diag(1, .., 1, 0), of size k + 1, and also
        returns y = r / mu. With limit (mu = 0) x is the least-norm solution
        of B x = [b; 1] and y its least-norm multiplier, both by SVD. In
        exact mode, or when a system is singular, x comes from lstsq on the
        least-squares problem itself, with the last weight eliminated, which
        does not square its condition number.
        """
        A, b, k = self.A, self.b, self.k
        AF = A[:, F]
        n = F.size
        if limit:
            B = np.vstack((AF, np.ones(n)))
            x = np.linalg.lstsq(B, np.concatenate((b, [1.0])), rcond=None)[0]
            return x, np.linalg.lstsq(B.T, -x, rcond=None)[0][:k]
        if not self.exact:
            if n > k + 1:
                B, M = self._dual(AF, mu)
                z = self._linsolve(M, -np.concatenate((b, [1.0])))
                if z is not None:
                    x = -(B.T @ z)
                    if abs(x.sum() - 1.0) <= 1e-9:
                        return x, z[:k]
            z = self._linsolve(self._primal(AF, mu), np.concatenate((AF.T @ b, [1.0])))
            if z is not None:
                return z[:n], None
        if n == 1:
            return np.ones(1), None
        # x = (x', 1 - sum(x')): min ||(A_F' - a 1') x' - (b - a)||^2
        # + mu ||x'||^2 + mu (1 - sum(x'))^2 over x', a the last column
        last = AF[:, -1]
        M = AF[:, :-1] - last[:, None]
        rhs = b - last
        if mu:
            root = math.sqrt(mu)
            M = np.vstack([M, root * np.eye(n - 1), np.full((1, n - 1), -root)])
            rhs = np.concatenate([rhs, np.zeros(n - 1), [-root]])
        head = np.linalg.lstsq(M, rhs, rcond=None)[0]
        return np.concatenate((head, [1.0 - head.sum()])), None

    def dh(self, mu: float, F: np.ndarray, w: np.ndarray, r: np.ndarray,
           y: np.ndarray | None, nr: float, nw: float) -> float:
        """d/dmu of h = l1 ||r||/||w|| on the free set F, for Newton's step.

        dw/dmu solves the face system's matrix with the right-hand side
        -[w_F; 0], or -[y; 0] in the dual form.
        """
        AF = self.A[:, F]
        n = F.size
        if n > self.k + 1:
            B, M = self._dual(AF, mu)
            dz = self._linsolve(M, -np.concatenate((y, [0.0])))
            dw = np.zeros(n) if dz is None else -(B.T @ dz)
        else:
            dz = self._linsolve(self._primal(AF, mu), -np.concatenate((w[F], [0.0])))
            dw = np.zeros(n) if dz is None else dz[:n]
        dnr = float(r @ (AF @ dw)) / nr if nr > 0.0 else 0.0
        return self.l1 * (dnr - nr * float(w[F] @ dw) / nw ** 2) / nw

    def program(self, mu: float, w: np.ndarray, F: np.ndarray, limit: bool = False):
        """Minimize 1/2 ||A w - b||^2 + mu/2 ||w||^2 on the simplex from w.

        w is feasible with support F (sorted indices). With limit, mu must be
        0 and w an exact fit: the program is then the least-norm exact fit.
        A least-squares program (mu = 0) also stops at an exact fit. Returns
        the minimizer, its support, its residual A w - b and, from the dual
        form, y = r / mu (else None).
        """
        A, b = self.A, self.b
        last = None  # the last free set's minimizer, as returned
        for _ in range(10 * self.J + 100):
            x, y = self.face(F, mu, limit)
            if x.min() <= 0.0:
                # step back from w toward x until a free weight reaches zero
                wF = w[F]
                out = x <= 0.0
                ratios = wF[out] / np.maximum(wF[out] - x[out], _TINY)
                alpha = ratios.min()
                if alpha <= 0.0 and last is not None:
                    # the donor that just entered leaves at once: no step lowers the program
                    return last
                step = wF + alpha * (x - wF)
                step[np.flatnonzero(out)[ratios == alpha]] = 0.0
                w = np.zeros(self.J)
                w[F] = np.maximum(step, 0.0)
                F = F[w[F] > 0.0]
                continue
            w = np.zeros(self.J)
            w[F] = x
            r = A[:, F] @ x - b
            last = (w, F, r, y)
            if not (limit or mu) and np.linalg.norm(r) <= ABS_GAP * self.scale:
                return last
            # a positive multiple of the program's gradient
            d = A.T @ y + w if y is not None else A.T @ r + mu * w
            reduced = d - d @ w
            reduced[F] = np.inf
            j = int(np.argmin(reduced))
            if not reduced[j] < -_ENTER_TOL * np.abs(d).max():
                return last
            F = np.concatenate((F, [j]))
            F.sort()
        return last

    def least_norm_fit(self, F: np.ndarray, w: np.ndarray, G: np.ndarray):
        """The least-norm exact fit, the limit of the programs as mu -> 0.

        The active-set method starts from the least-norm exact fit on F when
        all its weights are positive, else from the exact fit w with support G.
        """
        x, _ = self.face(F, 0.0, limit=True)
        if x.min() > 0.0:
            w = np.zeros(self.J)
            w[F] = x
            G = F
        return self.program(0.0, w, G, limit=True)

    def kink_multiplier(self, w: np.ndarray) -> np.ndarray | None:
        """The least-norm u with which the exact fit w has a zero Frank-Wolfe gap.

        With C = A - b 1' and h = l1 (||w|| - w/||w||), that gap is zero for
        any u with C'u >= h, and w is optimal when the least-norm such u has
        ||u|| <= 1. That u is a least-distance program, solved as Lawson &
        Hanson (1974, ch. 23) do: with E = [C; h'] and lam >= 0 minimizing
        ||E lam - e|| (e the last unit vector) by their NNLS, u = -s/t for
        the residual E lam - e = [s; t]. None when no u satisfies C'u >= h.
        """
        nw = float(np.linalg.norm(w))
        E = np.vstack((self.A - self.b[:, None], self.l1 * (nw - w / nw)))
        e = np.zeros(self.k + 1)
        e[-1] = 1.0
        lam = np.zeros(self.J)
        P = np.zeros(self.J, dtype=bool)
        for _ in range(10 * self.J + 100):
            descent = E.T @ (e - E @ lam)
            descent[P] = -np.inf
            j = int(np.argmax(descent))
            if not descent[j] > _ENTER_TOL * np.abs(E).max():
                break
            P[j] = True
            while True:
                z = np.zeros(self.J)
                z[P] = np.linalg.lstsq(E[:, P], e, rcond=None)[0]
                if (z[P] > 0.0).all():
                    lam = z
                    break
                out = P & (z <= 0.0)
                ratios = lam[out] / np.maximum(lam[out] - z[out], _TINY)
                alpha = ratios.min()
                lam = np.where(P, lam + alpha * (z - lam), 0.0)
                lam[np.flatnonzero(out)[ratios == alpha]] = 0.0
                P &= lam > 0.0
        resid = E @ lam - e
        return -resid[:-1] / resid[-1] if resid[-1] < 0.0 else None

    def certificate(self, w: np.ndarray, r: np.ndarray, y: np.ndarray | None,
                    u0: np.ndarray | None = None):
        """f(w) and its Frank-Wolfe gap, an upper bound on f(w) - min f.

        With l1 > 0, any u with ||u|| <= 1 gives the bound g.w - min_j g_j +
        ||r|| - u.r for g = A'u + l1 w/||w||: u = r/||r|| is the gradient's,
        and u = l1 y / max(l1 ||y||, ||w||) stays exact at the kink r = 0,
        as does a given u0, scaled into the ball. The smallest bound is
        returned.
        """
        A, l1 = self.A, self.l1
        nr = self.rnorm(r)
        if l1 == 0.0:
            if nr == 0.0:
                return 0.0, 0.0
            g = A.T @ r / nr
            return nr, float(g @ w - g.min())
        nw = float(np.linalg.norm(w))
        bounds = []  # (u, ||r|| - u.r): the gradient's u has the term 0
        if nr > 0.0:
            bounds.append((r / nr, 0.0))
        if y is not None:
            u = l1 * y / max(l1 * float(np.linalg.norm(y)), nw)
            bounds.append((u, max(0.0, nr - float(u @ r))))
        if u0 is not None:
            u = u0 / max(1.0, float(np.linalg.norm(u0)))
            bounds.append((u, max(0.0, nr - float(u @ r))))
        gap = math.inf
        for u, slack in bounds:
            g = A.T @ u + l1 * w / nw
            gap = min(gap, float(g @ w - g.min()) + slack)
        return nr + l1 * nw, gap

    def certified(self, f: float, gap: float) -> bool:
        if f <= ABS_GAP * self.scale:
            return True
        # without the penalty the gap is that of ||r||^2 / 2 divided by f,
        # so its rounding floor grows as f shrinks
        floor = ABS_GAP * self.scale if self.l1 else LSQ_FLOOR * self.scale ** 2 / f
        return gap <= REL_GAP * f + floor

    def solve(self, start: SolveResult | None = None
              ) -> tuple[np.ndarray, float, bool, float]:
        """Weights, a bound on their distance to the optimum, whether it
        certifies them, and the mu of the program that found them.

        The bound is the Frank-Wolfe gap, or f itself where that is smaller.
        A start makes the first pass warm (see search); a warm pass that ends
        uncertified is dropped for a cold one. Free sets are solved by normal
        equations first; weights they leave uncertified are solved again by
        lstsq alone, cold, and the better pass's weights are returned,
        certified or not.
        """
        found = self.search(start)
        if start is not None and not self.certified(*found[:2]):
            found = self.search()
        f, gap = found[:2]
        if not self.certified(f, gap):
            self.exact = True
            again = self.search()
            if self.certified(*again[:2]) or again[0] < f:
                found = again
        f, gap, w, mu = found
        return w, min(gap, f), self.certified(f, gap), mu

    def search(self, start: SolveResult | None = None
               ) -> tuple[float, float, np.ndarray, float]:
        """The objective, Frank-Wolfe gap, weights and mu of one pass.

        A cold pass starts from the least-squares program at the best vertex.
        A warm pass skips it and enters the mu loop at the start's mu and
        weights, with the bracket's low end unknown until a program lands
        below the root. When the root lies below a mu and no Newton step stays
        inside (0, mu), as at a kink, which only the least-squares program
        detects, the warm pass stops with its best point, uncertified.
        """
        A, b, l1 = self.A, self.b, self.l1
        lo = hi = None  # mu below and above the root, with their values
        kink = False
        if start is not None:
            mu, w, F = start.mu, start.w, np.flatnonzero(start.w)
            best = (math.inf, math.inf, w, mu)
        else:
            j0 = int(np.argmin(((A - b[:, None]) ** 2).sum(axis=0)))
            w = np.zeros(self.J)
            w[j0] = 1.0
            w, F, r, y = self.program(0.0, w, np.array([j0]))
            f, gap = self.certificate(w, r, y)
            best = (f, gap, w, 0.0)
            if l1 == 0.0 or self.certified(f, gap):
                return best

            nr, nw = self.rnorm(r), float(np.linalg.norm(w))
            kink = nr <= ABS_GAP * self.scale
            if kink:
                # an exact fit, where f has a kink at r = 0: the root of
                # 1 - l1 ||y||/||w|| is found on the ridge path from just above 0
                fit0 = (w, F)
                mu = 1e-6 * float((A * A).sum()) / self.J or 1.0  # 1.0 when A = 0
            else:
                # the root of mu - h(mu), h = l1 ||r||/||w||: from mu = 0, where
                # h is the fixed-point step and Newton's step may go further
                h = l1 * nr / nw
                lo = (0.0, -h)
                dvalue = 1.0 - self.dh(0.0, F, w, r, y, nr, nw) if F.size <= self.k + 1 else 0.0
                mu = min(max(h, h / dvalue), 10.0 * h) if dvalue > 0.0 else h
        side = 0  # Illinois: the end that moved last, -1 low or 1 high
        for _ in range(_MAX_MU_STEPS):
            w, F, r, y = self.program(mu, w, F)
            if y is None:
                y = r / mu
            f, gap = self.certificate(w, r, y)
            if self.certified(f, gap):
                return f, gap, w, mu
            best = min(best, (f, gap, w, mu), key=lambda t: t[0])
            nr = mu * float(np.linalg.norm(y)) if kink else self.rnorm(r)
            nw = float(np.linalg.norm(w))
            h = l1 * nr / nw
            value = 1.0 - h / mu if kink else mu - h
            dh = self.dh(mu, F, w, r, y, nr, nw)
            dvalue = (h - mu * dh) / mu ** 2 if kink else 1.0 - dh
            newton = mu - value / dvalue if dvalue > 0.0 else math.nan
            if lo is None and value >= 0.0 and start is not None:
                # warm, and the root lies below mu: only Newton steps approach it
                if not 0.0 < newton < mu:
                    break
                hi, side, mu = (mu, value), 1, newton
                continue
            if lo is None and value >= 0.0:
                # the root lies below the first mu: at the least-norm exact
                # fit (mu -> 0) or between, and this free set holds the fit
                w0, _, r0, y0 = self.least_norm_fit(F, *fit0)
                u0 = self.kink_multiplier(w0)
                f0, gap0 = self.certificate(w0, r0, y0, u0)
                if self.certified(f0, gap0):
                    return f0, gap0, w0, 0.0
                best = min(best, (f0, gap0, w0, 0.0), key=lambda t: t[0])
                value0 = 0.0 if u0 is None else 1.0 - float(np.linalg.norm(u0))
                if value0 >= 0.0:
                    break  # the exact fit's certificate failed; keep the best point
                lo = (0.0, value0)
            if hi is None and value < 0.0:
                # below the root: the fixed-point step h stays below it,
                # and Newton's step may pass it
                lo = (mu, value)
                mu = min(max(h, newton) if newton > mu else h, 10.0 * mu)
                continue
            if value < 0.0:
                lo = (mu, value)
                if side == -1:
                    hi = (hi[0], hi[1] / 2.0)
                side = -1
            else:
                if side == 1:
                    lo = (lo[0], lo[1] / 2.0)
                hi, side = (mu, value), 1
            if hi[0] - lo[0] <= 4e-16 * hi[0]:
                break
            if lo[0] < newton < hi[0]:
                mu = newton
            else:  # Illinois: a secant step through the bracket
                mu = (lo[0] * hi[1] - hi[0] * lo[1]) / (hi[1] - lo[1])
        return best


def solve_w(
    X1: np.ndarray,
    X0: np.ndarray,
    v: np.ndarray,
    reg: Regularization,
    start: SolveResult | None = None,
) -> SolveResult:
    """Minimize the penalized discrepancy over donor weights.

    Args:
        X1: treated unit's predictor vector, shape (k,).
        X0: donor predictor matrix, shape (k, J).
        v: nonnegative predictor importance weights, shape (k,).
        reg: penalty coefficient.
        start: an earlier solve over the same donors, typically at a nearby
            v. With l1 > 0 and a positive start.mu the solve starts warm from
            its mu and weights, and falls back to the cold solve
            when that cannot certify its weights (see the module docstring).
            Otherwise the start is ignored.

    Returns the minimizer found by the active-set solve described in the
    module docstring, with its Frank-Wolfe gap. The weights satisfy
    sum(w) = 1 within 1e-8 and w >= 0 exactly. Weights the gap does not
    certify are still returned, with converged False. A certified warm
    solve's weights may differ from the cold solve's in the last digits.
    """
    X1 = np.asarray(X1, dtype=float)
    X0 = np.asarray(X0, dtype=float)
    v = np.asarray(v, dtype=float)
    k, J = _check_inputs(X1, X0, v)
    for name, a in (("X1", X1), ("X0", X0), ("v", v)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds a NaN or an infinity; the weight solve "
                             "needs finite inputs")
    if start is not None and start.w.shape != (J,):
        raise SynthctlError(f"start has {start.w.size} donor weights, expected {J}")

    if J == 1:
        w = np.array([1.0])
        return SolveResult(w, objective(w, X1, X0, v, reg), True, 0.0, 0.0)

    warm = start is not None and reg.l1 > 0.0 and start.mu > 0.0
    root_v = np.sqrt(v)
    solver = _Solver(root_v[:, None] * X0, root_v * X1, reg.l1)
    w, gap, certified, mu = solver.solve(start if warm else None)
    w = np.maximum(w, 0.0)
    return SolveResult(w, objective(w, X1, X0, v, reg), certified, gap, mu)
