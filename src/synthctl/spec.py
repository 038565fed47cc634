"""What a study fits: its spec, its pre-period split and its weight penalty.

These are the definitions the command line reads for its defaults and
choices. The module is plain Python, with no numpy, so that a command that
fits nothing (`ingest`, `logistic`, `select-predictors`, any `--help`)
builds its parser without loading `engine` or `weights`, which both import
their study types from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidSplit

V_MODES = ("optimized", "inverse-variance", "uniform")
PLACEMENTS = ("head", "tail")


@dataclass(frozen=True)
class Regularization:
    """Penalty coefficient: l1 multiplies ||w||_2 in weights.objective."""

    l1: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.l1 < math.inf:
            raise ValueError("penalty coefficient must be finite and nonnegative")


@dataclass(frozen=True)
class StudySpec:
    """What to fit: the treated unit, its donor pool, and the time layout.

    T0 counts pre-intervention days, so panel column T0 is the first
    post-intervention day. t_fit training days are carved out of the
    pre-period at the head or tail; the remainder is the validation window.
    v_mode picks the predictor importance vector: optimized searches for it,
    inverse-variance weights each predictor row by 1/variance of its raw
    values across units, and uniform weights every row equally.
    """

    treated: str
    donors: tuple[str, ...]
    T0: int
    t_fit: int = 10
    v_mode: str = "optimized"
    reg: Regularization = field(default_factory=Regularization)
    train_placement: str = "tail"

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
