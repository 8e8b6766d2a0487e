"""Power-amplifier model and transmit-signal quality metrics.

The PA is the memoryless Rapp AM/AM curve

    y = x / (1 + (|x|/sat)^(2p))^(1/(2p)),

phase-preserving and norm-contractive. Output back-off (OBO) is defined on
the PA input: a signal driven at ``obo_db`` has mean power
sat^2 * 10^(-obo_db/10) before amplification.

Metrics: PMEPR (peak-to-mean envelope power ratio), the 3GPP-style cubic
metric (cubed normalized envelope, rms, referenced to 1.52 dB with slope
1.52), and ACLR (out-of-band to in-band power ratio from the averaged
periodogram). All are scale-invariant where the definitions demand it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleError
from .numerics import power_spectrum
from .waveform import ComplexSignal, WaveformConfig

RCM_REFERENCE_DB = 1.52
CM_SLOPE = 1.52


@dataclass(frozen=True)
class RappPa:
    """Rapp AM/AM nonlinearity with an input-referred operating point."""

    sat_amplitude: float = 1.0
    smoothness: float = 0.9
    obo_db: float = 10.0

    def __post_init__(self) -> None:
        if self.sat_amplitude <= 0:
            raise ValueError("sat_amplitude must be positive")
        if self.smoothness <= 0:
            raise ValueError("smoothness must be positive")


def scale_to_obo(pa: RappPa, sig: ComplexSignal) -> ComplexSignal:
    """Scale the signal so its mean power sits obo_db below PA saturation."""
    mean_power = sig.mean_power
    if mean_power <= 0:
        raise ValueError("cannot scale a zero-power signal")
    target = pa.sat_amplitude**2 * 10.0 ** (-pa.obo_db / 10.0)
    return ComplexSignal(
        samples=sig.samples * math.sqrt(target / mean_power),
        sample_period=sig.sample_period,
    )


def apply_pa(pa: RappPa, sig: ComplexSignal) -> ComplexSignal:
    """Amplify (sample-wise AM/AM); the caller scales to the operating point."""
    x = sig.samples
    expo = 2.0 * pa.smoothness
    mag = np.abs(x) / pa.sat_amplitude
    y = x / (1.0 + mag**expo) ** (1.0 / expo)
    return ComplexSignal(samples=y, sample_period=sig.sample_period)


def drive(pa: RappPa, sig: ComplexSignal) -> ComplexSignal:
    """Scale to the PA operating point, then amplify."""
    return apply_pa(pa, scale_to_obo(pa, sig))


def pmepr(sig: ComplexSignal) -> float:
    """Peak-to-mean envelope power ratio in dB."""
    power = np.abs(sig.samples) ** 2
    mean = power.mean()
    if mean <= 0:
        raise ValueError("pmepr of a zero-power signal is undefined")
    return float(10.0 * np.log10(power.max() / mean))


def pmepr_batch(symbols: np.ndarray) -> np.ndarray:
    """PMEPR per row for an (n_symbols, n_samples) array of symbol bodies."""
    power = np.abs(symbols) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean <= 0):
        raise ValueError("pmepr of a zero-power signal is undefined")
    return 10.0 * np.log10(power.max(axis=-1) / mean)


def cubic_metric(sig: ComplexSignal) -> float:
    """Cubic metric in dB: (RCM - 1.52)/1.52 with RCM from the cubed envelope."""
    return float(cubic_metric_batch(np.asarray(sig.samples)[None, :])[0])


def cubic_metric_batch(symbols: np.ndarray) -> np.ndarray:
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


def aclr(sig: ComplexSignal, inband: tuple[float, float], segment_len: int) -> float:
    """Out-of-band to in-band power ratio, dB (negative = cleaner).

    The PSD uses ``segment_len``-sample segments, or one segment spanning
    the whole signal when it is shorter.
    """
    f_lo, f_hi = inband
    if f_hi <= f_lo:
        raise ValueError("in-band interval must have positive width")
    if f_hi - f_lo >= sig.sample_rate:
        raise ValueError("in-band interval wider than the sampled bandwidth")
    seg = min(segment_len, len(sig))
    freqs, dens = power_spectrum(sig.samples, sig.sample_rate, seg)
    inside = (freqs >= f_lo) & (freqs <= f_hi)
    p_in = dens[inside].sum()
    p_out = dens[~inside].sum()
    if p_in <= 0:
        raise ValueError("no in-band power")
    return float(10.0 * np.log10(p_out / p_in))


def aclr_at_obo(
    pa: RappPa,
    stream: ComplexSignal,
    inband: tuple[float, float],
    obo_db: float,
    segment_len: int = 1024,
) -> float:
    """ACLR of the stream driven through the PA at the given back-off.

    The ``segment_len`` default is ``MetricsConfig.segment_len``'s.
    """
    driven = apply_pa(pa, scale_to_obo(replace(pa, obo_db=obo_db), stream))
    return aclr(driven, inband, segment_len)


def obo_for_aclr(
    pa: RappPa,
    stream: ComplexSignal,
    inband: tuple[float, float],
    target_db: float,
    obo_range: tuple[float, float] = (0.0, 30.0),
    tol_db: float = 0.1,
    segment_len: int = 1024,
) -> float:
    """Smallest back-off meeting the ACLR target, by bisection.

    ACLR is monotone non-increasing in OBO down to the scheme's distortion
    floor; if even the top of ``obo_range`` misses the target the solve is
    infeasible. ``segment_len`` is passed to :func:`aclr_at_obo`.
    """
    lo, hi = obo_range
    if aclr_at_obo(pa, stream, inband, hi, segment_len) > target_db:
        raise InfeasibleError(
            f"ACLR target {target_db:.2f} dB below the distortion floor at "
            f"{hi:.1f} dB back-off"
        )
    if aclr_at_obo(pa, stream, inband, lo, segment_len) <= target_db:
        return lo
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if aclr_at_obo(pa, stream, inband, mid, segment_len) <= target_db:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MetricDistribution:
    """Sorted empirical distribution of a dB-valued metric."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.size == 0:
            raise ValueError("distribution must be non-empty")
        object.__setattr__(self, "values", np.sort(v))

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MetricDistribution":
        return cls(values=np.asarray(samples, dtype=float))

    def percentile(self, p: float) -> float:
        return float(np.percentile(self.values, p))

    @property
    def median(self) -> float:
        return self.percentile(50.0)
