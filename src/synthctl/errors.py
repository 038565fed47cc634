"""Exception types raised across the package.

Every error that corresponds to a violated input contract derives from
:class:`SynthctlError` so callers can catch the package's failures with a
single except clause while letting genuine bugs (TypeError and friends)
propagate.
"""

from __future__ import annotations


class SynthctlError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(SynthctlError):
    """A run configuration is unusable (missing file, bad flag value)."""


# ---- panel ingestion and cleaning ----

class DuplicateCell(SynthctlError):
    """The same (unit, date) pair appears more than once in an input file."""


class UnparseableDate(SynthctlError):
    """A date field could not be parsed as an ISO calendar date."""


class EmptyFile(SynthctlError):
    """An input file contains no data rows."""


class EmptyIntersection(SynthctlError):
    """Joining tables on unit id left no units in common."""


class AllMissing(SynthctlError):
    """A series has no valid observation at all."""


# ---- weight and importance optimization ----

class DimensionMismatch(SynthctlError):
    """Matrix and vector shapes disagree."""


class InvalidSplit(SynthctlError):
    """A training window does not fit inside the pre-intervention period."""


class ZeroVariancePredictor(SynthctlError):
    """A predictor is constant across units, so 1/variance is undefined."""


class SingularSystem(SynthctlError):
    """A weight solve's KKT system is singular and its fallback is not certified."""


# ---- growth-curve analysis ----

class DegenerateSeries(SynthctlError):
    """A series is too short or never positive, so no growth curve exists."""


class ZeroVariance(SynthctlError):
    """A regression input is constant."""


class TooFewUnits(SynthctlError):
    """Not enough units to form the requested summary bins."""


# ---- donor pool construction ----

class EmptyBlock(SynthctlError):
    """A predictor block contains no predictors."""


class UnlabeledUnit(SynthctlError):
    """A unit required to carry a cluster label has none."""


class UnknownState(SynthctlError):
    """The adjacency table has no entry for a unit's state."""
