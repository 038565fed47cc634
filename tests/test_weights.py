"""Weight solver tests: hand oracles, grid-search, NNLS and descent oracles, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_simplex_3
from synthctl import (
    Regularization,
    SolveResult,
    objective,
    project_simplex,
    solve_w,
    weights,
)
from synthctl.errors import DimensionMismatch, SingularSystem


# ---------------------------------------------------------------------------
# objective: hand values
# ---------------------------------------------------------------------------

def test_objective_hand_value_with_penalties():
    # discrepancy 0, ||w||_2 = 1/sqrt(2)
    w = np.array([0.5, 0.5])
    X1 = np.array([0.0])
    X0 = np.array([[1.0, -1.0]])
    v = np.array([1.0])
    val = objective(w, X1, X0, v, Regularization(l1=1.0))
    assert val == pytest.approx(1.0 / np.sqrt(2.0))


def test_objective_weighted_discrepancy():
    # residuals (1, 2), importances (1, 3) -> sqrt(1 + 12)
    w = np.array([1.0])
    X1 = np.array([1.0, 2.0])
    X0 = np.array([[0.0], [0.0]])
    v = np.array([1.0, 3.0])
    val = objective(w, X1, X0, v, Regularization(l1=0.0))
    assert val == pytest.approx(np.sqrt(13.0))


def test_objective_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        objective(np.ones(2), np.zeros(3), np.zeros((2, 2)), np.ones(2),
                  Regularization())


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

def test_project_simplex_hand_value():
    out = project_simplex(np.array([0.4, 0.9]))
    assert np.allclose(out, [0.25, 0.75])


def test_project_simplex_fixes_simplex_points():
    w = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(w), w)


@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=1, max_size=12))
def test_project_simplex_feasible_and_order_preserving(values):
    y = np.array(values)
    w = project_simplex(y)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert (w >= 0).all()
    order = np.argsort(y, kind="stable")
    assert (np.diff(w[order]) >= -1e-12).all()


# ---------------------------------------------------------------------------
# solver against a grid-search oracle
# ---------------------------------------------------------------------------

def _grid_oracle(X1, X0, v, reg, grid):
    resid = X1[:, None] - X0 @ grid.T  # (k, n_grid)
    disc = np.sqrt(np.einsum("k,kn->n", v, resid ** 2))
    vals = disc + reg.l1 * np.linalg.norm(grid, axis=1)
    i = int(np.argmin(vals))
    return grid[i], float(vals[i])


@pytest.mark.parametrize("case", range(10))
def test_solver_beats_grid_oracle(case):
    rng = np.random.default_rng(100 + case)
    X1 = rng.normal(size=2)
    X0 = rng.normal(size=(2, 3))
    if case % 2 == 0:
        reg = Regularization(l1=0.0)
    else:
        reg = Regularization(l1=float(rng.uniform(0, 1)))
        rng.uniform(0, 0.5)  # drawn for the former 1-norm penalty; keeps the cases as they were
    v = rng.uniform(0.5, 2.0, size=2)
    grid = grid_simplex_3(1e-2)
    _, oracle_val = _grid_oracle(X1, X0, v, reg, grid)
    result = solve_w(X1, X0, v, reg)
    assert result.objective <= oracle_val + 1e-6


def test_solver_exact_interpolation():
    # treated is donor 2 exactly: the solver must find the vertex
    X0 = np.array([[1.0, 5.0, 9.0], [2.0, 7.0, 3.0]])
    X1 = X0[:, 1].copy()
    result = solve_w(X1, X0, np.ones(2), Regularization(0.0))
    assert np.allclose(result.w, [0.0, 1.0, 0.0], atol=1e-6)
    assert result.objective <= 1e-7


def test_single_donor_shortcut():
    result = solve_w(np.array([3.0]), np.array([[8.0]]), np.ones(1), Regularization())
    assert result.w.shape == (1,)
    assert result.w[0] == 1.0


def test_solver_deterministic_for_seed():
    rng = np.random.default_rng(8)
    X1 = rng.normal(size=3)
    X0 = rng.normal(size=(3, 5))
    a = solve_w(X1, X0, np.ones(3), Regularization())
    b = solve_w(X1, X0, np.ones(3), Regularization())
    assert np.array_equal(a.w, b.w)
    assert a.objective == b.objective


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_solver_feasibility_fuzz(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    J = int(rng.integers(1, 8))
    X1 = rng.normal(size=k) * rng.uniform(0.1, 10)
    X0 = rng.normal(size=(k, J)) * rng.uniform(0.1, 10)
    v = rng.uniform(0.1, 3.0, size=k)
    reg = Regularization(l1=float(rng.uniform(0, 2)))
    rng.uniform(0, 2)  # drawn for the former 1-norm penalty; keeps the cases as they were
    result = solve_w(X1, X0, v, reg)
    assert result.w.sum() == pytest.approx(1.0, abs=1e-8)
    assert (result.w >= 0).all()


@pytest.mark.parametrize("name, bad", [("X1", np.nan), ("X1", -np.inf), ("X0", np.nan),
                                       ("X0", np.inf), ("v", np.nan), ("v", np.inf)])
@pytest.mark.parametrize("l1", [0.0, 0.6])
def test_solver_rejects_non_finite_inputs(name, bad, l1):
    # a NaN used to surface as an IndexError from project_simplex, or as
    # weights stuck at a random restart point
    rng = np.random.default_rng(6)
    args = {"X1": rng.normal(size=3), "X0": rng.normal(size=(3, 4)),
            "v": np.ones(3)}
    args[name].flat[1] = bad
    with pytest.raises(ValueError, match=f"{name} holds a NaN or an infinity"):
        solve_w(args["X1"], args["X0"], args["v"], Regularization(l1))


@pytest.mark.parametrize("l1", [np.nan, np.inf, -0.1])
def test_regularization_rejects_non_finite_or_negative(l1):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Regularization(l1)


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    k, J = 6, 4
    X1 = rng.normal(size=k)
    X0 = rng.normal(size=(k, J))
    v = rng.uniform(0.5, 2.0, size=k)
    perm = np.array([2, 0, 3, 1])
    a = solve_w(X1, X0, v, Regularization(0.0))
    b = solve_w(X1, X0[:, perm], v, Regularization(0.0))
    assert np.allclose(a.w[perm], b.w, atol=1e-5)


# ---------------------------------------------------------------------------
# certified solves against independent oracles at realistic donor counts
# ---------------------------------------------------------------------------

def _study_arrays(J, k=30, seed=0, inside=False):
    """z-scored predictors of a factor-model study: the treated unit first.

    inside puts the treated unit at a convex combination of the donors, so
    the fit is exact and, with l1 > 0, the objective has its kink there.
    """
    rng = np.random.default_rng([J, k, seed])
    raw = rng.normal(size=(k, 3)) @ rng.normal(size=(3, J + 1)) + rng.normal(size=(k, J + 1))
    z = (raw - raw.mean(axis=1, keepdims=True)) / raw.std(axis=1, keepdims=True)
    X1, X0 = z[:, 0], z[:, 1:]
    if inside:
        X1 = X0 @ rng.dirichlet(np.ones(J))
    v = rng.dirichlet(np.ones(k))
    return X1, X0, v


def _nnls_oracle(X1, X0, v):
    """Least squares on the simplex by scipy's NNLS with a heavily weighted sum-to-one row."""
    from scipy.optimize import nnls
    A, b = np.sqrt(v)[:, None] * X0, np.sqrt(v) * X1
    heavy = 1e4 * np.abs(A).max()
    w, _ = nnls(np.vstack([A, np.full(A.shape[1], heavy)]), np.append(b, heavy))
    return w / w.sum()


def _descent_oracle(X1, X0, v, l1):
    """A long projected gradient descent from the uniform weights."""
    vX0T = (v[:, None] * X0).T

    def loss(w):
        r = X1 - X0 @ w
        q = float(v @ (r * r))
        return math.sqrt(q) + l1 * math.sqrt(float(w @ w)), (r, q)

    def grad(w, state):
        r, q = state
        g = l1 * w / math.sqrt(float(w @ w))
        return g - (vX0T @ r) / math.sqrt(q) if q > 0.0 else g

    J = X0.shape[1]
    w, *_ = weights._descend(np.full(J, 1.0 / J), loss, grad, project_simplex, 20000, 1e-16)
    return w


def _fw_gap(X1, X0, v, l1, w):
    """Frank-Wolfe gap of the objective at w, from its gradient."""
    r = X1 - X0 @ w
    g = -(X0.T @ (v * r)) / math.sqrt(float(v @ (r * r)))
    if l1:
        g = g + l1 * w / np.linalg.norm(w)
    return float(g @ w - g.min())


@pytest.mark.parametrize("J", [40, 200, 800])
@pytest.mark.parametrize("l1", [0.0, 0.6])
def test_solver_matches_oracles_at_realistic_donor_counts(J, l1):
    X1, X0, v = _study_arrays(J)
    reg = Regularization(l1)
    result = solve_w(X1, X0, v, reg)
    oracle = _nnls_oracle(X1, X0, v) if l1 == 0 else _descent_oracle(X1, X0, v, l1)
    f = result.objective
    assert f <= objective(oracle, X1, X0, v, reg) * (1 + 1e-9)
    assert result.converged and result.fw_gap <= 1e-9 * f
    assert _fw_gap(X1, X0, v, l1, result.w) <= 1e-9 * f
    assert result.w.sum() == pytest.approx(1.0, abs=1e-12) and (result.w >= 0).all()


@pytest.mark.parametrize("l1", [0.05, 0.6, 2.0])
def test_solver_certifies_an_exact_fit_with_a_penalty(l1):
    # k < J and the treated unit inside the donor hull: r = 0 is reachable,
    # and the penalty either keeps the least-norm exact fit or leaves it
    X1, X0, v = _study_arrays(200, seed=1, inside=True)
    reg = Regularization(l1)
    result = solve_w(X1, X0, v, reg)
    f = result.objective
    assert f <= objective(_descent_oracle(X1, X0, v, l1), X1, X0, v, reg) * (1 + 1e-9)
    assert result.converged and result.fw_gap <= 1e-9 * f


@pytest.mark.parametrize("l1", [0.3, 1.0, 2.5])
def test_solver_certifies_a_treated_unit_equal_to_a_donor(l1):
    # an exact fit by one donor, fewer than k + 1: the exact fit's multiplier
    # is not unique, and only the least-norm one that certifies it will do
    rng = np.random.default_rng(int(10 * l1))
    X0 = rng.normal(size=(3, 7)) * 20.0
    X1 = X0[:, -1].copy()
    v = rng.uniform(0.5, 2.0, size=3)
    reg = Regularization(l1)
    result = solve_w(X1, X0, v, reg)
    f = result.objective
    assert f <= objective(_descent_oracle(X1, X0, v, l1), X1, X0, v, reg) * (1 + 1e-9)
    assert result.converged and result.fw_gap <= 1e-9 * f


def test_solver_certifies_an_exact_fit_without_a_penalty():
    X1, X0, v = _study_arrays(200, seed=1, inside=True)
    result = solve_w(X1, X0, v, Regularization(0.0))
    assert result.converged and result.objective <= 1e-12
    assert np.count_nonzero(result.w) <= 31  # a vertex solution: at most k + 1 donors


def test_solver_takes_the_lowest_index_on_ties():
    # two identical donors: the first one enters, and its twin never does
    X0 = np.array([[1.0, 1.0, 4.0], [2.0, 2.0, -1.0]])
    X1 = np.array([2.0, 1.0])
    result = solve_w(X1, X0, np.ones(2), Regularization(0.0))
    assert result.converged
    assert result.w[1] == 0.0 and result.w[0] > 0.0


def test_uncertified_fallback_from_a_singular_system_raises(monkeypatch):
    # every KKT solve "fails", so each takes the lstsq fallback, and no
    # weights pass the certificate
    monkeypatch.setattr(weights._Solver, "_linsolve", lambda self, K, rhs: None)
    monkeypatch.setattr(weights._Solver, "certified", lambda self, f, gap: False)
    X1, X0, v = _study_arrays(40)
    with pytest.raises(SingularSystem, match="KKT system is singular"):
        solve_w(X1, X0, v, Regularization())


def test_solve_result_reports_the_certificate():
    X1, X0, v = _study_arrays(40)
    result = solve_w(X1, X0, v, Regularization())
    assert isinstance(result, SolveResult)
    assert result.objective == objective(result.w, X1, X0, v, Regularization())
    assert 0.0 <= result.fw_gap <= weights.REL_GAP * result.objective
