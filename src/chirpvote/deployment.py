"""Cell geometry, path-loss-based power control, and coverage.

Devices sit at radial distances drawn uniformly on [r_min, r_max] (uniform in
radius, not in area). Fractional power control with exponent ``beta``
compensates path loss (exponent ``alpha``) up to the coverage radius

    r_p = r_ref * 10^((obo_ref - obo_min) / (10 * beta)),

beyond which the transmit-power clamp binds and the received SNR decays at
10 * alpha dB per decade of distance. Link power is stated relative to the
power-control target: 1 inside r_p, so a device there is received at the
target SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import keyed_rng
from .errors import ConfigError, require_field_types


@dataclass(frozen=True)
class PowerControlParams:
    """Path-loss and power-control parameters for one scheme."""

    alpha: float = 4.0
    beta: float = 4.0
    r_ref: float = 10.0
    obo_ref: float = 30.0
    obo_min: float = 10.5

    def __post_init__(self) -> None:
        require_field_types(self)
        if not 0 < self.beta <= self.alpha:
            raise ConfigError("compensation exponent beta must lie in (0, alpha]")
        if self.r_ref <= 0:
            raise ConfigError("r_ref must be positive")
        if self.obo_ref < 0:
            raise ConfigError("obo_ref must be non-negative")
        if not 0 <= self.obo_min <= self.obo_ref:
            raise ConfigError("obo_min must lie in [0, obo_ref]")
        try:
            finite = math.isfinite(coverage_radius(self))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(
                "beta is too small: the coverage radius"
                " r_ref * 10^((obo_ref - obo_min) / (10 * beta)) is not a finite float"
            )


@dataclass(frozen=True)
class Deployment:
    """Radial positions of the edge devices in an annular cell."""

    ed_distances: np.ndarray
    r_min: float
    r_max: float

    def __post_init__(self) -> None:
        require_field_types(self)
        d = np.asarray(self.ed_distances, dtype=float)
        if d.size == 0:
            raise ConfigError("deployment must contain at least one device")
        if self.r_min > self.r_max or self.r_min < 0:
            raise ConfigError("need 0 <= r_min <= r_max")
        if np.any(d < self.r_min) or np.any(d > self.r_max):
            raise ConfigError("device distances must lie within [r_min, r_max]")
        object.__setattr__(self, "ed_distances", d)

    @property
    def num_eds(self) -> int:
        return int(self.ed_distances.size)

    @classmethod
    def sample(cls, num_eds: int, r_min: float, r_max: float, seed: int) -> "Deployment":
        """Draw device distances uniformly in radius on [r_min, r_max]."""
        rng = keyed_rng(seed, "deployment")
        d = r_min + (r_max - r_min) * rng.random(num_eds)
        return cls(ed_distances=d, r_min=r_min, r_max=r_max)


def coverage_radius(pc: PowerControlParams) -> float:
    """Largest distance at which power control sustains the target power."""
    return pc.r_ref * 10.0 ** ((pc.obo_ref - pc.obo_min) / (10.0 * pc.beta))


def link_power(pc: PowerControlParams, r_p: float, d: np.ndarray | float):
    """Delivered power relative to the target, with the transmit clamp
    binding beyond coverage: min(1, r_p/d)^alpha."""
    d = np.asarray(d, dtype=float)
    ratio = np.minimum(1.0, r_p / np.maximum(d, np.finfo(float).tiny))
    power = ratio**pc.alpha
    return power if power.ndim else float(power)
