"""Exception types shared across the package, and the finite-number check
of every configuration dataclass.

Argument and domain errors use plain ValueError; the classes here mark
failure modes that callers (notably the CLI) dispatch on.
"""
from __future__ import annotations

import sys
from dataclasses import fields


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


def require_finite_floats(config) -> None:
    """ConfigError naming the first ``float`` field of a configuration
    dataclass that holds NaN, an infinity or a number no float can hold.

    The comparison, unlike math.isfinite, cannot overflow on a huge integer.
    """
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type in ("float", float) and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{field.name} must be a finite number, got {value!r}")
