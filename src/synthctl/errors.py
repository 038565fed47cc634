"""Exception types raised across the package.

Every error that corresponds to a violated input contract derives from
:class:`SynthctlError` so callers can catch the package's failures with a
single except clause while letting genuine bugs (TypeError and friends)
propagate. A subclass exists only where some code catches it by name; any
other failure raises SynthctlError itself, with a message that says what
failed.
"""

from __future__ import annotations


class SynthctlError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(SynthctlError):
    """A run configuration is unusable (missing file, bad flag value)."""


class SeriesOverflow(SynthctlError):
    """Repairing or smoothing a finite series passed the float range."""


class InvalidSplit(SynthctlError):
    """A training window does not fit inside the pre-intervention period."""


class UnlabeledUnit(SynthctlError):
    """A side table has no cluster label or adjacency entry for the unit it must narrow by."""
