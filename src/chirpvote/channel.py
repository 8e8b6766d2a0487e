"""Multipath fading and synchronization error.

The fading model is the standard Extended Pedestrian A tapped delay line
(RMS delay spread about 43 ns), redrawn independently per device per
communication round with Rayleigh tap gains normalized to unit average
power. Tap delays are snapped to the nearest sample at the configured rate;
timing errors add an integer sample offset, absorbed — together with the
delay spread — by the cyclic prefix when the guard condition holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError
from .waveform import WaveformConfig

EPA_DELAYS_NS: tuple[float, ...] = (0.0, 30.0, 70.0, 90.0, 110.0, 190.0, 410.0)
EPA_POWERS_DB: tuple[float, ...] = (0.0, -1.0, -2.0, -3.0, -8.0, -17.2, -20.8)


def epa_rms_delay_spread_ns() -> float:
    """RMS delay spread of the continuous-time profile (before grid snapping)."""
    p = 10.0 ** (np.asarray(EPA_POWERS_DB) / 10.0)
    d = np.asarray(EPA_DELAYS_NS)
    mean = np.sum(p * d) / np.sum(p)
    return float(np.sqrt(np.sum(p * d**2) / np.sum(p) - mean**2))


@dataclass(frozen=True)
class ChannelRealization:
    """Tapped delay line: integer sample delays with complex gains."""

    delays: np.ndarray
    gains: np.ndarray


def epa_tap_delays(cfg: WaveformConfig) -> np.ndarray:
    """EPA tap delays snapped to the nearest sample at the configured rate;
    a rate that snaps one past the int64 range raises ConfigError."""
    snapped = np.rint(np.asarray(EPA_DELAYS_NS) * 1e-9 * cfg.sample_rate)
    # the delays are non-negative, and the test is false for NaN and inf too
    if not np.all(snapped < 2.0**63):
        raise ConfigError(
            f"wave.sample_rate {cfg.sample_rate:g} puts the EPA tap delays beyond "
            "an int64 sample count"
        )
    return snapped.astype(np.int64)


@cache
def epa_phase_table(cfg: WaveformConfig, max_offset: int) -> np.ndarray:
    """Tap phase ramps on the occupied bins for every timing offset 0 ...
    ``max_offset``, (offsets x M x taps), cached and read-only:
    ``table[offset] @ gains`` is an EPA draw's frequency response on the
    occupied bins, its tap delays shifted by that timing offset."""
    j = cfg.bin_indices[:, None]
    d = epa_tap_delays(cfg) + np.arange(max_offset + 1)[:, None, None]
    table = np.exp(-2j * np.pi * j * d / cfg.idft_size)
    table.flags.writeable = False
    return table


@cache
def _epa_profile(cfg: WaveformConfig) -> tuple[np.ndarray, np.ndarray]:
    """The snapped tap delays and each tap's Rayleigh scale sqrt(p / 2), the
    powers p normalized to unit sum; cached and read-only."""
    delays = epa_tap_delays(cfg)
    powers = 10.0 ** (np.asarray(EPA_POWERS_DB) / 10.0)
    powers = powers / powers.sum()
    scales = np.sqrt(powers / 2.0)
    delays.flags.writeable = scales.flags.writeable = False
    return delays, scales


def draw_epa(cfg: WaveformConfig, rng: np.random.Generator) -> ChannelRealization:
    """One EPA realization: Rayleigh gains on the profile snapped to the
    sample grid, unit average power."""
    delays, scales = _epa_profile(cfg)
    n = len(delays)
    gains = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scales
    return ChannelRealization(delays=delays, gains=gains)


def draw_sync_offset(max_offset: int, rng: np.random.Generator) -> int:
    """Uniform integer timing error in [0, max_offset] samples."""
    if max_offset < 0:
        raise ValueError("max_offset must be non-negative")
    return int(rng.integers(0, max_offset + 1))


def propagate(realization: ChannelRealization, sync_offset: int, tx: np.ndarray) -> np.ndarray:
    """Convolve with the tap line, delayed by the timing error; the output is
    truncated to the transmit length (the receiver's window)."""
    if sync_offset < 0:
        raise ValueError("sync_offset must be non-negative")
    y = np.zeros_like(tx)
    for d, g in zip(realization.delays, realization.gains):
        shift = int(d) + sync_offset
        if shift < tx.size:
            y[shift:] += g * tx[: tx.size - shift]
    return y
