"""Donor pool and predictor set construction.

Predictor selection walks theme blocks and keeps, per block, the predictors
most representative of their block while capping pairwise correlation.
Donor filters narrow a candidate pool by shared cluster label or by state
adjacency; the control/target split severs every unit in a treated state
from the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SynthctlError, UnlabeledUnit
from .panel import Panel, read_table, state_of

MAX_CORRELATION = 0.4  # highest absolute correlation between two picks of a block
PER_BLOCK = 2  # picks per block


def abs_correlation(X: np.ndarray, names: Sequence[str] | None = None) -> np.ndarray:
    """Absolute Pearson correlation between rows of X; names, if given, name a constant row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 2:
        raise ValueError(f"need a predictors-by-units matrix with 2+ units, got {X.shape}")
    flat = np.ptp(X, axis=1) == 0
    if flat.any():
        row = int(np.argmax(flat))
        what = f"row {row}" if names is None else repr(names[row])
        raise SynthctlError(f"predictor {what} is constant; correlation undefined")
    return np.abs(np.corrcoef(X))


@dataclass(frozen=True)
class SelectionResult:
    """Chosen predictors plus per-block detail.

    short_blocks lists blocks whose correlation cap left fewer choices than
    PER_BLOCK even though the block had enough members.
    """

    selected: tuple[str, ...]
    by_block: Mapping[str, tuple[str, ...]]
    short_blocks: tuple[str, ...]


def select_predictors_naive(
    corr: np.ndarray,
    names: Sequence[str],
    blocks: Mapping[str, Sequence[str]],
) -> SelectionResult:
    """Pick up to PER_BLOCK predictors per block, capping mutual correlation.

    Within a block, the first pick is the predictor with the highest mean
    absolute correlation to the block's other members; every member too
    correlated with it (strictly above MAX_CORRELATION) is struck, and the next
    pick repeats the rule among the survivors. Ties go to the earlier-listed
    predictor so output is deterministic.
    """
    corr = np.asarray(corr, dtype=float)
    k = len(names)
    if corr.shape != (k, k):
        raise ValueError(f"correlation matrix shape {corr.shape} does not match {k} names")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if (corr < 0).any() or (corr > 1 + 1e-12).any():
        raise ValueError("absolute correlations must lie in [0, 1]")
    if not blocks:
        raise SynthctlError("no predictor blocks given")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != k:
        raise ValueError("predictor names must be unique")

    selected: list[str] = []
    by_block: dict[str, tuple[str, ...]] = {}
    short: list[str] = []
    for block_name, members in blocks.items():
        members = list(members)
        if not members:
            raise SynthctlError(f"block {block_name!r} has no predictors")
        for m in members:
            if m not in index:
                raise ValueError(f"block {block_name!r} lists unknown predictor {m!r}")
        remaining = members[:]
        chosen: list[str] = []
        while remaining and len(chosen) < PER_BLOCK:
            def mean_corr(m: str) -> float:
                others = [o for o in remaining if o != m]
                if not others:
                    return 0.0
                return float(np.mean([corr[index[m], index[o]] for o in others]))
            scores = [mean_corr(m) for m in remaining]
            pick = remaining[int(np.argmax(scores))]
            chosen.append(pick)
            remaining = [m for m in remaining
                         if m != pick and corr[index[m], index[pick]] <= MAX_CORRELATION]
        if len(chosen) < min(PER_BLOCK, len(members)):
            short.append(block_name)
        by_block[block_name] = tuple(chosen)
        selected.extend(chosen)
    return SelectionResult(tuple(selected), by_block, tuple(short))


def filter_by_cluster(
    target: str,
    candidates: Sequence[str],
    clusters: Mapping[str, str],
) -> tuple[str, ...]:
    """Candidates sharing the target's cluster label, target itself excluded."""
    if target not in clusters:
        raise UnlabeledUnit(f"unit {target!r} has no cluster label")
    label = clusters[target]
    return tuple(c for c in candidates if c != target and clusters.get(c) == label)


def filter_by_neighbor_states(
    target: str,
    candidates: Sequence[str],
    adjacency: Mapping[str, Sequence[str]],
) -> tuple[str, ...]:
    """Candidates whose state borders the target's state.

    Same-state candidates are excluded even if the adjacency table lists a
    state as its own neighbor.
    """
    home = state_of(target)
    if home not in adjacency:
        raise UnlabeledUnit(f"no adjacency entry for state {home!r}")
    neighbors = set(adjacency[home]) - {home}
    return tuple(c for c in candidates
                 if c != target and state_of(c) in neighbors)


def split_control_target(panel: Panel) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition units into (control, target): target = any unit in a treated state.

    The two sides are disjoint and cover the panel exactly, so their sizes
    always sum to the unit count; reconcile against source counts outside.
    With no unit marked treated, every unit is a control.
    """
    treated_states = {state_of(u) for u in panel.units if panel.meta_for(u).treated}
    target = tuple(u for u in panel.units if state_of(u) in treated_states)
    control = tuple(u for u in panel.units if state_of(u) not in treated_states)
    return control, target


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _load_groups(path: str, group: str, member: str) -> dict[str, list[str]]:
    """CSV group,member with no blank cell: members by group, both in file order."""
    groups: dict[str, list[str]] = {}
    for line, row in read_table(path, (group, member)):
        if not row[group] or not row[member]:
            raise ValueError(f"blank {group} or {member} on line {line} of {path}")
        groups.setdefault(row[group], []).append(row[member])
    return groups


def load_blocks(path: str) -> dict[str, list[str]]:
    """CSV block,predictor; one row per block membership, block order preserved."""
    return _load_groups(path, "block", "predictor")


def load_adjacency(path: str) -> dict[str, list[str]]:
    """CSV state,neighbor; one row per border."""
    return _load_groups(path, "state", "neighbor")


def load_clusters(path: str) -> dict[str, str]:
    """CSV fips,cluster mapping units to cluster labels; a label may not be blank."""
    clusters: dict[str, str] = {}
    for line, row in read_table(path, ("fips", "cluster"), key="fips"):
        if not row["cluster"]:
            raise ValueError(f"blank cluster for unit {row['fips']} on line {line} of {path}")
        clusters[row["fips"]] = row["cluster"]
    return clusters
