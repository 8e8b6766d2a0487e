"""Exception types shared across the package.

Argument and domain errors use plain ValueError; the classes here mark
failure modes that callers (notably the CLI) dispatch on.
"""
from __future__ import annotations


class ChirpVoteError(Exception):
    """Base class for package-specific errors."""


class ConfigError(ChirpVoteError, ValueError):
    """A configuration object or file violates its invariants."""


class InfeasibleError(ChirpVoteError):
    """A request has no solution in the admissible range (e.g. an ACLR
    target below the scheme's distortion floor, more vote pairs than fit in
    the band, or a delay beyond the untapered cyclic prefix)."""


class FramingError(ChirpVoteError, ValueError):
    """A signal or block sequence has the wrong length for the operation."""
