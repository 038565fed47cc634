"""Weight solver tests: hand oracles, a grid-search oracle, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_simplex_3
from synthctl import (
    Regularization,
    SolverOptions,
    objective,
    project_simplex,
    solve_w,
)
from synthctl.errors import DimensionMismatch

TIGHT = SolverOptions(max_iters=5000, tol=1e-14, restarts=8)


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
    result = solve_w(X1, X0, v, reg, TIGHT, seed=case)
    assert result.objective <= oracle_val + 1e-6


def test_solver_exact_interpolation():
    # treated is donor 2 exactly: the solver must find the vertex
    X0 = np.array([[1.0, 5.0, 9.0], [2.0, 7.0, 3.0]])
    X1 = X0[:, 1].copy()
    result = solve_w(X1, X0, np.ones(2), Regularization(0.0), TIGHT)
    assert np.allclose(result.w, [0.0, 1.0, 0.0], atol=1e-6)
    assert result.objective <= 1e-7


def test_single_donor_shortcut():
    result = solve_w(np.array([3.0]), np.array([[8.0]]), np.ones(1),
                     Regularization(), SolverOptions(restarts=0))
    assert result.w.shape == (1,)
    assert result.w[0] == 1.0


def test_solver_trace_non_increasing():
    rng = np.random.default_rng(5)
    X1 = rng.normal(size=4)
    X0 = rng.normal(size=(4, 6))
    result = solve_w(X1, X0, np.ones(4), Regularization(), seed=1)
    trace = np.array(result.trace)
    assert (np.diff(trace) <= 1e-12).all()


def test_solver_deterministic_for_seed():
    rng = np.random.default_rng(8)
    X1 = rng.normal(size=3)
    X0 = rng.normal(size=(3, 5))
    a = solve_w(X1, X0, np.ones(3), Regularization(), seed=77)
    b = solve_w(X1, X0, np.ones(3), Regularization(), seed=77)
    assert np.array_equal(a.w, b.w)
    assert a.objective == b.objective


def test_restart_objectives_contains_winner():
    rng = np.random.default_rng(2)
    X1 = rng.normal(size=3)
    X0 = rng.normal(size=(3, 5))
    result = solve_w(X1, X0, np.ones(3), Regularization(), seed=3)
    assert min(result.restart_objectives) == pytest.approx(result.objective, rel=1e-12)


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
    result = solve_w(X1, X0, v, reg, SolverOptions(max_iters=300, restarts=2),
                     seed=seed)
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
    a = solve_w(X1, X0, v, Regularization(0.0), TIGHT, seed=11)
    b = solve_w(X1, X0[:, perm], v, Regularization(0.0), TIGHT, seed=12)
    assert np.allclose(a.w[perm], b.w, atol=1e-5)


def test_init_point_is_honored():
    # a perfect init with no restarts must be kept, not perturbed away
    X0 = np.array([[2.0, 4.0], [1.0, 5.0]])
    w_true = np.array([0.25, 0.75])
    X1 = X0 @ w_true
    result = solve_w(X1, X0, np.ones(2), Regularization(0.0),
                     SolverOptions(restarts=0), init=w_true)
    assert np.allclose(result.w, w_true, atol=1e-9)

