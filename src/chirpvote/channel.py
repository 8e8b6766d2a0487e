"""Multipath fading and synchronization error.

The fading model is the standard Extended Pedestrian A tapped delay line
(RMS delay spread about 43 ns), redrawn independently per device per
communication round with Rayleigh tap gains normalized to unit average
power. Tap delays are snapped to the nearest sample at the configured rate
and fixed, so a draw is only its gains: ``draw_epa`` takes a stack of
generators, one per device, and returns their gains as one (devices x
taps) array. Timing errors add an integer sample offset, absorbed —
together with the delay spread — by the cyclic prefix when the guard
condition holds.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

from .errors import ConfigError
from .waveform import WaveformConfig

EPA_DELAYS_NS: tuple[float, ...] = (0.0, 30.0, 70.0, 90.0, 110.0, 190.0, 410.0)
EPA_POWERS_DB: tuple[float, ...] = (0.0, -1.0, -2.0, -3.0, -8.0, -17.2, -20.8)

_TAP_POWERS = 10.0 ** (np.asarray(EPA_POWERS_DB) / 10.0)
#: each tap's Rayleigh scale sqrt(p / 2), the powers p normalized to unit sum
_TAP_SCALES = np.sqrt(_TAP_POWERS / _TAP_POWERS.sum() / 2.0)
_TAP_SCALES.flags.writeable = False


def epa_rms_delay_spread_ns() -> float:
    """RMS delay spread of the continuous-time profile (before grid snapping)."""
    p, d = _TAP_POWERS, np.asarray(EPA_DELAYS_NS)
    mean = np.sum(p * d) / np.sum(p)
    return float(np.sqrt(np.sum(p * d**2) / np.sum(p) - mean**2))


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


def draw_epa(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The Rayleigh tap gains of one EPA draw per generator, (len(rngs) x
    taps), unit average power: generator k gives row k's real parts, then
    its imaginary parts.  The draws' tap delays are ``epa_tap_delays``."""
    n = _TAP_SCALES.size
    normals = np.array([rng.standard_normal(2 * n) for rng in rngs]).reshape(-1, 2, n)
    return (normals[:, 0] + 1j * normals[:, 1]) * _TAP_SCALES


def draw_sync_offset(max_offset: int, rng: np.random.Generator) -> int:
    """Uniform integer timing error in [0, max_offset] samples."""
    if max_offset < 0:
        raise ValueError("max_offset must be non-negative")
    return int(rng.integers(0, max_offset + 1))


def propagate(
    delays: np.ndarray, gains: np.ndarray, sync_offset: int, tx: np.ndarray
) -> np.ndarray:
    """Convolve with the tap line of integer sample ``delays`` and complex
    ``gains``, delayed by the timing error; the output is truncated to the
    transmit length (the receiver's window)."""
    if sync_offset < 0:
        raise ValueError("sync_offset must be non-negative")
    y = np.zeros_like(tx)
    for d, g in zip(delays, gains, strict=True):
        shift = int(d) + sync_offset
        if shift < tx.size:
            y[shift:] += g * tx[: tx.size - shift]
    return y
