"""Donor filtering and correlation-based predictor selection tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_panel
from synthctl import (
    abs_correlation,
    filter_by_cluster,
    filter_by_neighbor_states,
    select_predictors_naive,
    split_control_target,
)
from synthctl.donors import MAX_CORRELATION, PER_BLOCK
from synthctl.errors import SynthctlError, UnlabeledUnit
from synthctl.panel import UnitMeta


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_abs_correlation_sign_folded():
    X = np.array([[1.0, 2.0, 3.0, 4.0],
                  [4.0, 3.0, 2.0, 1.0]])
    corr = abs_correlation(X)
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 0] == pytest.approx(1.0)


def test_abs_correlation_constant_row_raises():
    X = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SynthctlError, match="predictor row 0 is constant"):
        abs_correlation(X)
    with pytest.raises(SynthctlError, match="predictor 'a' is constant"):
        abs_correlation(X, ["a", "b"])


def test_abs_correlation_rejects_a_row_of_equal_values():
    X = np.array([np.full(6, 0.1), np.arange(6.0)])
    assert X[0].std() > 0  # equal values whose float spread is not exactly 0
    with pytest.raises(SynthctlError, match="predictor row 0 is constant"):
        abs_correlation(X)


# ---------------------------------------------------------------------------
# selection: the three-predictor walk-through is the oracle
# ---------------------------------------------------------------------------

def _abc_corr():
    # mean |corr| to the others: a=0.55, b=0.60, c=0.25
    return np.array([
        [1.0, 0.9, 0.2],
        [0.9, 1.0, 0.3],
        [0.2, 0.3, 1.0],
    ])


def test_selection_hand_fixture_picks_b_then_c():
    result = select_predictors_naive(_abc_corr(), ["a", "b", "c"],
                                     {"demo": ["a", "b", "c"]})
    assert result.by_block["demo"] == ("b", "c")
    assert result.selected == ("b", "c")
    assert result.short_blocks == ()


def test_selection_threshold_strikes_candidates():
    # with everything mutually correlated above threshold only one survives
    corr = np.full((3, 3), 0.95)
    np.fill_diagonal(corr, 1.0)
    result = select_predictors_naive(corr, ["a", "b", "c"],
                                     {"demo": ["a", "b", "c"]})
    assert len(result.by_block["demo"]) == 1
    assert result.short_blocks == ("demo",)


def test_selection_uncorrelated_blocks_take_two_each():
    k = 12
    corr = np.eye(k)
    names = [f"p{i}" for i in range(k)]
    blocks = {f"block{b}": names[2 * b: 2 * b + 2] for b in range(6)}
    result = select_predictors_naive(corr, names, blocks)
    assert len(result.selected) == 12
    assert result.short_blocks == ()


def test_selection_pairwise_compliance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 40))
    corr = abs_correlation(X)
    names = [f"p{i}" for i in range(10)]
    result = select_predictors_naive(corr, names, {"all": names})
    idx = [names.index(n) for n in result.selected]
    assert len(idx) == PER_BLOCK
    for i in idx:
        for j in idx:
            if i != j:
                assert corr[i, j] <= MAX_CORRELATION


def test_selection_empty_block_raises():
    with pytest.raises(SynthctlError, match="block 'demo' has no predictors"):
        select_predictors_naive(np.eye(2), ["a", "b"], {"demo": []})


def test_selection_unknown_predictor_raises():
    with pytest.raises(ValueError):
        select_predictors_naive(np.eye(2), ["a", "b"], {"demo": ["zzz"]})


def test_selection_block_smaller_than_quota_is_not_short():
    result = select_predictors_naive(np.eye(2), ["a", "b"],
                                     {"solo": ["a"], "pair": ["b"]})
    assert result.by_block["solo"] == ("a",)
    assert result.short_blocks == ()


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 16))
def test_selection_never_exceeds_quota(k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(k, 12))
    corr = abs_correlation(X)
    names = [f"p{i}" for i in range(k)]
    result = select_predictors_naive(corr, names, {"one": names})
    assert 1 <= len(result.selected) <= PER_BLOCK
    assert set(result.selected) <= set(names)


# ---------------------------------------------------------------------------
# donor filters
# ---------------------------------------------------------------------------

def test_cluster_filter_keeps_same_label_only():
    clusters = {"01001": "Exurbs", "01003": "Exurbs", "02001": "Big Cities",
                "03005": "Exurbs"}
    kept = filter_by_cluster("01001", ["01003", "02001", "03005"], clusters)
    assert kept == ("01003", "03005")


def test_cluster_filter_unlabeled_target_raises():
    with pytest.raises(UnlabeledUnit, match="unit '01001' has no cluster label"):
        filter_by_cluster("01001", ["01003"], {"01003": "Exurbs"})


def test_cluster_filter_retention_scale():
    # 15 labels over many units: same-label retention sits near 1/15
    rng = np.random.default_rng(0)
    labels = [f"c{i}" for i in range(15)]
    units = [f"{10000 + i:05d}" for i in range(3000)]
    clusters = {u: labels[rng.integers(15)] for u in units}
    target = units[0]
    kept = filter_by_cluster(target, units[1:], clusters)
    assert 0.03 < len(kept) / 2999 < 0.11


def test_neighbor_filter_excludes_same_state():
    adjacency = {"01": ["13", "28"], "13": ["01"], "28": ["01"]}
    candidates = ["01003", "13001", "28001", "36001"]
    kept = filter_by_neighbor_states("01001", candidates, adjacency)
    assert kept == ("13001", "28001")


def test_neighbor_filter_unknown_state_raises():
    with pytest.raises(UnlabeledUnit, match="no adjacency entry for state '99'"):
        filter_by_neighbor_states("99001", ["13001"], {"01": ["13"]})


def test_split_control_target_partitions_by_state():
    import datetime as dt
    meta = {
        "01001": UnitMeta(treated=True, t0=dt.date(2021, 1, 2)),
        "01003": UnitMeta(treated=False),   # same state as a treated unit
        "13001": UnitMeta(treated=False),
    }
    panel = make_panel(np.zeros((3, 3)), units=("01001", "01003", "13001"),
                       meta=meta)
    control, target = split_control_target(panel)
    assert control == ("13001",)
    assert target == ("01001", "01003")
    assert set(control) | set(target) == set(panel.units)


def test_split_control_target_without_a_treated_unit_keeps_every_control():
    panel = make_panel(np.zeros((2, 3)))
    assert split_control_target(panel) == (panel.units, ())


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: abs_correlation(np.ones((2, 1))), ValueError,
     "need a predictors-by-units matrix with 2+ units, got (2, 1)"),
    (lambda: select_predictors_naive(np.eye(2), ["a"], {"x": ["a"]}), ValueError,
     "correlation matrix shape (2, 2) does not match 1 names"),
    (lambda: select_predictors_naive(np.array([[1.0, 0.5], [0.2, 1.0]]), ["a", "b"],
                                     {"x": ["a"]}),
     ValueError, "correlation matrix must be symmetric"),
    (lambda: select_predictors_naive(np.array([[1.0, 2.0], [2.0, 1.0]]), ["a", "b"],
                                     {"x": ["a"]}),
     ValueError, "absolute correlations must lie in [0, 1]"),
    (lambda: select_predictors_naive(np.eye(2), ["a", "b"], {}), SynthctlError,
     "no predictor blocks given"),
    (lambda: select_predictors_naive(np.eye(2), ["a", "a"], {"x": ["a"]}), ValueError,
     "predictor names must be unique"),
], ids=["one-unit", "shape", "asymmetric", "out-of-range", "no-blocks", "repeated-name"])
def test_input_checks_raise_with_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and raised.value.args == (message,)
