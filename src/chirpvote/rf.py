"""Power-amplifier model and transmit-signal quality metrics.

The PA is the memoryless Rapp AM/AM curve at unit saturation amplitude

    y = x / (1 + |x|^(2p))^(1/(2p)),

phase-preserving and norm-contractive. Output back-off (OBO) is defined on
the PA input: a signal driven at ``obo_db`` has mean power 10^(-obo_db/10)
before amplification, ``obo_db`` below saturation.

Metrics: PMEPR (peak-to-mean envelope power ratio), the 3GPP-style cubic
metric (cubed normalized envelope, rms, referenced to 1.52 dB with slope
1.52), and ACLR (out-of-band to in-band power ratio from the averaged
periodogram). All are scale-invariant where the definitions demand it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError
from .numerics import power_spectrum
from .waveform import ComplexSignal, WaveformConfig

RCM_REFERENCE_DB = 1.52
CM_SLOPE = 1.52
#: back-off span in dB: the ACLR sweep, the default solve range and the
#: admissible spot back-off
OBO_SPAN_DB = (0.0, 30.0)
#: the ACLR measurement: the stream's oversampling factor and the Welch
#: segment length in samples at that rate
OVERSAMPLE = 4
SEGMENT_LEN = 1024


@dataclass(frozen=True)
class RappPa:
    """Rapp AM/AM nonlinearity at unit saturation; the operating back-off is
    set per call."""

    smoothness: float = 0.9

    def __post_init__(self) -> None:
        if self.smoothness <= 0:
            raise ConfigError("smoothness must be positive")


def drive_pa(pa: RappPa, sig: ComplexSignal, obo_db: float) -> ComplexSignal:
    """PA output for ``sig`` driven at ``obo_db`` back-off.

    The signal is scaled by g so that its mean power sits ``obo_db`` below
    saturation, then passed through the Rapp curve.  The curve's
    (g^2 |x|^2)^p is (g^2)^p times (|x|^2)^p, and
    (|x|^2)^p comes from ``sig.power_pow(p)``, which caches it on the signal
    next to ``sig.power``: it is computed once per signal and smoothness
    however many back-offs the signal is driven at. g x is divided by the
    real divisor through the real and imaginary parts, as complex division
    by a real number does.

    For a large p either factor of the divisor's largest term,
    (g^2)^p (max |x|^2)^p, can overflow and leave an infinite or NaN
    divisor. So that term is checked first, from the signal's cached peak
    power, and an overflow raises a ConfigError naming ``pa.smoothness``.
    """
    mean_power = sig.mean_power
    if mean_power <= 0:
        raise ValueError("cannot scale a zero-power signal")
    p = pa.smoothness
    gain2 = 10.0 ** (-obo_db / 10.0) / mean_power
    try:
        scale = gain2**p
        peak_term = sig.peak_power**p * scale
    except OverflowError:
        peak_term = math.inf
    if math.isinf(peak_term):
        raise ConfigError(
            f"pa.smoothness {p:g} is too large: the Rapp divisor's (g^2)^p (|x|^2)^p "
            f"overflows at {obo_db:g} dB back-off"
        )
    gain = math.sqrt(gain2)
    divisor = sig.power_pow(p) * scale
    divisor += 1.0
    np.power(divisor, 1.0 / (2.0 * p), out=divisor)
    x = sig.samples
    y = np.empty_like(x)
    np.multiply(x.real, gain, out=y.real)
    np.multiply(x.imag, gain, out=y.imag)
    y.real /= divisor
    y.imag /= divisor
    return ComplexSignal(samples=y, sample_period=sig.sample_period)


def pmepr_batch(symbols: np.ndarray) -> np.ndarray:
    """PMEPR per row for an (n_symbols, n_samples) array of symbol bodies."""
    power = np.abs(symbols) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean <= 0):
        raise ValueError("pmepr of a zero-power signal is undefined")
    return 10.0 * np.log10(power.max(axis=-1) / mean)


def cubic_metric_batch(symbols: np.ndarray) -> np.ndarray:
    """Cubic metric in dB per row: (RCM - 1.52)/1.52 with RCM from the cubed
    envelope."""
    power = np.abs(symbols) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean <= 0):
        raise ValueError("cubic metric of a zero-power signal is undefined")
    norm_env2 = power / mean[..., None]
    rcm = 20.0 * np.log10(np.sqrt(np.mean(norm_env2**3, axis=-1)))
    return (rcm - RCM_REFERENCE_DB) / CM_SLOPE


def occupied_band(cfg: WaveformConfig) -> tuple[float, float]:
    """Frequency interval covered by the occupied subcarriers, in Hz."""
    df = cfg.sample_rate / cfg.idft_size
    return ((cfg.bin_low - 0.5) * df, (cfg.bin_high + 0.5) * df)


def aclr(sig: ComplexSignal, inband: tuple[float, float]) -> float:
    """Out-of-band to in-band power ratio, dB (negative = cleaner), from the
    ``SEGMENT_LEN``-point averaged periodogram."""
    f_lo, f_hi = inband
    if f_hi <= f_lo:
        raise ValueError("in-band interval must have positive width")
    freqs, dens = power_spectrum(sig.samples, sig.sample_rate, SEGMENT_LEN)
    inside = (freqs >= f_lo) & (freqs <= f_hi)
    if inside.all():
        raise ValueError("every PSD bin lies inside the band, so no leakage is visible")
    p_in = dens[inside].sum()
    p_out = dens[~inside].sum()
    if p_in <= 0:
        raise ValueError("no in-band power")
    return float(10.0 * np.log10(p_out / p_in))


def aclr_at_obo(
    pa: RappPa, stream: ComplexSignal, inband: tuple[float, float], obo_db: float
) -> float:
    """ACLR of the stream driven through the PA at the given back-off."""
    return aclr(drive_pa(pa, stream, obo_db), inband)


def obo_for_aclr(
    pa: RappPa,
    stream: ComplexSignal,
    inband: tuple[float, float],
    target_db: float,
    obo_range: tuple[float, float] = OBO_SPAN_DB,
    tol_db: float = 0.1,
) -> float:
    """Smallest back-off meeting the ACLR target, by bisection.

    ACLR is monotone non-increasing in OBO down to the scheme's distortion
    floor; if even the top of ``obo_range`` misses the target the solve is
    infeasible.
    """
    lo, hi = obo_range
    if aclr_at_obo(pa, stream, inband, hi) > target_db:
        raise InfeasibleError(
            f"ACLR target {target_db:.2f} dB below the distortion floor at "
            f"{hi:.1f} dB back-off"
        )
    if aclr_at_obo(pa, stream, inband, lo) <= target_db:
        return lo
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if aclr_at_obo(pa, stream, inband, mid) <= target_db:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
