"""Weight solver tests: hand oracles, grid-search, NNLS and descent oracles, and invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_simplex_3
from synthctl import (
    Regularization,
    SolveResult,
    engine,
    objective,
    project_simplex,
    solve_w,
    weights,
)
from synthctl.errors import SynthctlError


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
    with pytest.raises(SynthctlError, match=r"X1 has shape \(3,\), expected \(2,\)"):
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


def test_uncertified_fallback_from_a_singular_system_returns_its_weights(monkeypatch):
    X1, X0, v = _study_arrays(40)
    best = solve_w(X1, X0, v, Regularization())
    # every KKT solve "fails", so each takes the lstsq fallback, and no
    # weights pass the certificate
    monkeypatch.setattr(weights._Solver, "_linsolve", lambda self, K, rhs: None)
    monkeypatch.setattr(weights._Solver, "certified", lambda self, f, gap: False)
    result = solve_w(X1, X0, v, Regularization())
    assert not result.converged
    assert (result.w >= 0.0).all() and result.w.sum() == pytest.approx(1.0, abs=1e-8)
    assert result.objective == objective(result.w, X1, X0, v, Regularization())
    # the gap still bounds the distance to the optimum
    assert 0.0 < result.fw_gap < result.objective
    assert result.objective - best.objective <= result.fw_gap


def test_solve_result_reports_the_certificate():
    X1, X0, v = _study_arrays(40)
    result = solve_w(X1, X0, v, Regularization())
    assert isinstance(result, SolveResult)
    assert result.objective == objective(result.w, X1, X0, v, Regularization())
    assert 0.0 <= result.fw_gap <= weights.REL_GAP * result.objective


# ---------------------------------------------------------------------------
# warm starts from an earlier solve
# ---------------------------------------------------------------------------

def _factor_design(J, n_predictors, seed=0):
    """A factor-model study's design, as engine assembles it: k = n_predictors + 1 rows."""
    rng = np.random.default_rng([J, n_predictors, seed])
    loadings = rng.normal(size=(J + 1, 3))
    outcomes = 30 + loadings @ rng.normal(0, 0.3, size=(3, 60)).cumsum(axis=1) \
        + rng.normal(0, 0.5, size=(J + 1, 60))
    base = rng.normal(size=(n_predictors, 3)) @ loadings.T \
        + rng.normal(0, 0.5, size=(n_predictors, J + 1))
    units = tuple(f"{10001 + j:05d}" for j in range(J + 1))
    spec = engine.StudySpec(treated=units[0], donors=units[1:], T0=40)
    return engine._assemble(base, outcomes, tuple(f"p{i}" for i in range(n_predictors)), spec)


def _nearby_vectors(k, n=30, step=0.1):
    """Importance vectors along a random walk in softmax coordinates, as a search visits."""
    rng = np.random.default_rng(k)
    theta = np.cumsum(rng.normal(0, step, size=(n, k)), axis=0)
    return [engine._softmax(t) for t in theta]


def _count_faces(monkeypatch) -> list[int]:
    faces = [0]
    face = weights._Solver.face

    def counted(self, *args, **kwargs):
        faces[0] += 1
        return face(self, *args, **kwargs)

    monkeypatch.setattr(weights._Solver, "face", counted)
    return faces


@pytest.mark.parametrize("J, n_predictors", [(6, 10), (40, 30)])
def test_warm_chain_matches_cold_solves_with_fewer_faces(monkeypatch, J, n_predictors):
    design = _factor_design(J, n_predictors)
    vs = _nearby_vectors(n_predictors + 1)
    reg = Regularization()
    faces = _count_faces(monkeypatch)
    cold = [solve_w(design.X1, design.X0, v, reg) for v in vs]
    cold_faces, faces[0] = faces[0], 0
    warm, last = [], None
    for v in vs:
        last = solve_w(design.X1, design.X0, v, reg, start=last)
        warm.append(last)
    assert faces[0] < cold_faces / 2
    for a, b in zip(cold, warm):
        assert b.converged and b.mu > 0.0
        assert np.abs(a.w - b.w).max() <= 1e-9
        assert abs(a.objective - b.objective) <= 1e-14 * a.objective


@pytest.mark.parametrize("scale", [1e6, 1e-6])
@pytest.mark.parametrize("inside", [False, True])
def test_start_from_an_unrelated_design_returns_the_cold_answer(monkeypatch, scale, inside):
    # the start's mu lies far above or far below this design's root. Inside
    # the donor hull the minimum is at the kink of an exact fit, which only a
    # cold pass finds: the warm pass ends uncertified and the cold pass runs
    design, other = _factor_design(6, 10, seed=1), _factor_design(6, 10, seed=2)
    X1 = design.X0 @ np.random.default_rng(1).dirichlet(np.ones(6)) if inside else design.X1
    v, reg = np.full(11, 1 / 11), Regularization()
    previous = solve_w(other.X1, other.X0, v, reg)
    start = dataclasses.replace(previous, mu=scale * previous.mu)
    cold = solve_w(X1, design.X0, v, reg)
    passes = []
    search = weights._Solver.search

    def recorded(self, start=None):
        passes.append(start is not None)
        return search(self, start)

    monkeypatch.setattr(weights._Solver, "search", recorded)
    result = solve_w(X1, design.X0, v, reg, start=start)
    assert result.converged
    if inside:
        assert passes == [True, False]  # the warm pass, then the cold fallback
        assert np.array_equal(result.w, cold.w) and result.mu == cold.mu == 0.0
    else:
        assert passes == [True]
        assert np.abs(result.w - cold.w).max() <= 1e-9


def test_start_is_ignored_without_a_penalty():
    design = _factor_design(40, 30)
    v, reg = np.full(31, 1 / 31), Regularization(0.0)
    start = solve_w(design.X1, design.X0, v, Regularization())
    assert start.mu > 0.0
    cold = solve_w(design.X1, design.X0, v, reg)
    warm = solve_w(design.X1, design.X0, v, reg, start=start)
    assert cold.mu == warm.mu == 0.0
    assert np.array_equal(cold.w, warm.w) and cold.objective == warm.objective
    assert cold.fw_gap == warm.fw_gap


def test_start_over_other_donors_raises():
    design = _factor_design(6, 10)
    start = solve_w(design.X1, design.X0[:, :5], np.ones(11), Regularization())
    with pytest.raises(SynthctlError, match="start has 5 donor weights, expected 6"):
        solve_w(design.X1, design.X0, np.ones(11), Regularization(), start=start)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: solve_w(np.ones(2), np.ones(2), np.ones(2), Regularization()), SynthctlError,
     "X0 must be 2-d (predictors x donors), got shape (2,)"),
    (lambda: solve_w(np.ones(2), np.ones((2, 3)), np.ones(3), Regularization()), SynthctlError,
     "v has shape (3,), expected (2,)"),
    (lambda: solve_w(np.ones(0), np.ones((0, 3)), np.ones(0), Regularization()), SynthctlError,
     "need at least one predictor and one donor"),
    (lambda: solve_w(np.ones(2), np.ones((2, 0)), np.ones(2), Regularization()), SynthctlError,
     "need at least one predictor and one donor"),
    (lambda: solve_w(np.ones(2), np.ones((2, 3)), np.array([1.0, -1.0]), Regularization()),
     ValueError, "importance weights must be nonnegative"),
    (lambda: objective(np.ones(2), np.ones(2), np.ones((2, 3)), np.ones(2), Regularization()),
     SynthctlError, "w has shape (2,), expected (3,)"),
], ids=["X0-1d", "v-shape", "no-predictor", "no-donor", "negative-v", "w-shape"])
def test_input_checks_raise_with_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and raised.value.args == (message,)
