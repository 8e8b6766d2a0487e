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

The ACLR is a ratio of powers, so it reads no sample rate: it sums the
unit-rate periodogram (:func:`power_spectrum`) under the bin mask of the
occupied band (:func:`occupied_band`). Streams are plain sample arrays. A
:class:`PaDriver` holds the instantaneous powers the PA reads for one stream,
so a sweep or a solve computes them once for all its back-offs.

The periodogram follows a fixed recipe so that leakage-sensitive quantities
measured from it are reproducible bit-for-bit across runs: a periodic Hann
taper, ``SEGMENT_LEN``-sample segments overlapping by half with no padding or
detrending, two-sided density scaling and the mean over segments. It equals
``scipy.signal.welch(..., fs=1.0, window="hann", nperseg=SEGMENT_LEN,
detrend=False, return_onesided=False, scaling="density")`` to rounding, with
the frequency axis sorted ascending; ``scipy.signal`` itself is not imported.

The segments are windowed and transformed 32 at a time in one reused complex
buffer, and their |X|^2 rows are folded into a running sum carried in row 0
of a reused real buffer. NumPy reduces a C-ordered (rows, ``SEGMENT_LEN``)
array over axis 0 row after row, so folding block after block adds the rows
in the same order as one sum over all segments: the density is bit-identical
to transforming every segment at once.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InfeasibleError, require_field_types
from .waveform import WaveformConfig

RCM_REFERENCE_DB = 1.52
CM_SLOPE = 1.52
#: back-off span in dB: the ACLR sweep, the default solve range and the
#: admissible spot back-off
OBO_SPAN_DB = (0.0, 30.0)
#: the ACLR measurement: the stream's oversampling factor and the Welch
#: segment length in samples at that rate
OVERSAMPLE = 4
SEGMENT_LEN = 1024
_WELCH_BLOCK = 32  # segments windowed and transformed per pass


@dataclass(frozen=True)
class RappPa:
    """Rapp AM/AM nonlinearity at unit saturation; the operating back-off is
    set per call."""

    smoothness: float = 0.9

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.smoothness <= 0:
            raise ConfigError("smoothness must be positive")


class PaDriver:
    """The PA driving one stream, a non-empty sample array, at any back-off:
    ``driver(obo_db)`` is the PA output for the stream driven at ``obo_db``.

    The stream is scaled by g so that its mean power sits ``obo_db`` below
    saturation, then passed through the Rapp curve. The curve's
    (g^2 |x|^2)^p is (g^2 max|x|^2)^p times (|x|^2 / max|x|^2)^p. The second
    factor lies in [0, 1] and the constructor computes it once. The first is
    one scalar per back-off: g^2 max|x|^2 is the stream's peak-to-mean power
    ratio less the back-off. So each back-off costs one ``np.power``. g x is
    one contiguous complex multiply: the scalar's zero imaginary part adds
    only exact zeros to finite samples, so each part equals its own real
    multiply. It is divided by the real divisor through the real and
    imaginary parts, as complex division by a real number does: NumPy would
    cast the divisor to complex, and its complex division changes bits. A
    call only reads the driver's arrays, so threads may share one driver.

    For a large p the scalar (g^2 max|x|^2)^p can overflow, which leaves an
    infinite divisor. For a small p the output's peak power,
    g^2 max|x|^2 (1 + (g^2 max|x|^2)^p)^(-1/p), falls as 2^(-1/p) and can
    underflow to a silent output. Each call checks both before the drive,
    and either raises a ConfigError naming ``pa.smoothness``.
    """

    def __init__(self, pa: RappPa, stream: np.ndarray) -> None:
        if stream.size == 0:
            raise ValueError("cannot drive an empty stream")
        power = np.abs(stream) ** 2
        self._mean_power = float(np.mean(power))
        if self._mean_power <= 0:
            raise ValueError("cannot scale a zero-power signal")
        self._peak_power = float(power.max())
        power /= self._peak_power
        self._power_pow = np.power(power, pa.smoothness, out=power)
        self.pa = pa
        self.stream = stream

    def __call__(self, obo_db: float) -> np.ndarray:
        p = self.pa.smoothness
        gain2 = 10.0 ** (-obo_db / 10.0) / self._mean_power
        peak_ratio = gain2 * self._peak_power
        try:
            peak_term = peak_ratio**p
        except OverflowError:
            peak_term = math.inf
        if math.isinf(peak_term):
            raise ConfigError(
                f"pa.smoothness {p:g} is too large: the stream's peak-to-mean power ratio, "
                f"{10.0 * math.log10(self._peak_power / self._mean_power):.2f} dB, less the "
                f"{obo_db:g} dB back-off overflows when raised to the power p"
            )
        # the output's peak power in the log domain, where g^2 max|x|^2 cannot underflow
        log_peak = math.log(self._peak_power / self._mean_power) - obo_db / 10.0 * math.log(10.0)
        if log_peak - math.log1p(peak_term) / p < math.log(sys.float_info.min):
            raise ConfigError(
                f"pa.smoothness {p:g} is too small: the Rapp output's peak power "
                f"underflows at {obo_db:g} dB back-off"
            )
        gain = math.sqrt(gain2)
        divisor = self._power_pow * peak_term
        divisor += 1.0
        np.power(divisor, 1.0 / (2.0 * p), out=divisor)
        y = np.multiply(self.stream, gain)
        y.real /= divisor
        y.imag /= divisor
        return y


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


def power_spectrum(samples: np.ndarray) -> np.ndarray:
    """Averaged-periodogram density of a complex baseband sequence at unit
    rate, ascending: bin k / L cycles per sample for k = -L/2 ... L/2 - 1, L =
    ``SEGMENT_LEN``. Its mean is the input's mean power to within estimator
    bias (about 1%)."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"expected one 1-D sample stream, got an array of shape {samples.shape}")
    if samples.size < SEGMENT_LEN:
        raise ValueError(f"signal shorter than one {SEGMENT_LEN}-sample PSD segment")
    segments = sliding_window_view(samples, SEGMENT_LEN)[:: SEGMENT_LEN // 2]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(SEGMENT_LEN) / SEGMENT_LEN)
    count = segments.shape[0]
    block = np.empty((min(_WELCH_BLOCK, count), SEGMENT_LEN), dtype=complex)
    power = np.zeros((block.shape[0] + 1, SEGMENT_LEN))  # row 0: running sum
    for start in range(0, count, _WELCH_BLOCK):
        k = min(_WELCH_BLOCK, count - start)
        spectra = block[:k]
        np.multiply(segments[start : start + k], window, out=spectra)
        np.fft.fft(spectra, axis=-1, out=spectra)
        parts = spectra.view(float)  # real and imaginary parts side by side
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power[1 : k + 1])
        np.add.reduce(power[: k + 1], axis=0, out=power[0])
    return np.fft.fftshift(power[0] / count / np.sum(window**2))


def occupied_band(cfg: WaveformConfig) -> np.ndarray:
    """Read-only mask of the :func:`power_spectrum` bins the occupied
    subcarriers cover, bin_low - 1/2 to bin_high + 1/2 of n = ``OVERSAMPLE`` *
    idft_size per sample: bin k is in band when (2 bin_low - 1) L <= 2 n k <=
    (2 bin_high + 1) L, L = ``SEGMENT_LEN``."""
    twice_nk = 2 * OVERSAMPLE * cfg.idft_size * np.arange(-SEGMENT_LEN // 2, SEGMENT_LEN // 2)
    inside = ((2 * cfg.bin_low - 1) * SEGMENT_LEN <= twice_nk) & (
        twice_nk <= (2 * cfg.bin_high + 1) * SEGMENT_LEN
    )
    inside.flags.writeable = False
    return inside


def aclr(samples: np.ndarray, inband: np.ndarray) -> float:
    """Out-of-band to in-band power ratio, dB (negative = cleaner), from the
    averaged periodogram; ``inband`` is a boolean mask over its
    ``SEGMENT_LEN`` bins (:func:`occupied_band`)."""
    inband = np.asarray(inband)
    if inband.dtype != bool or inband.shape != (SEGMENT_LEN,):
        raise ValueError(f"the band must be a ({SEGMENT_LEN},) boolean mask")
    if not inband.any():
        raise ValueError("no PSD bin lies inside the band")
    if inband.all():
        raise ValueError("every PSD bin lies inside the band, so no leakage is visible")
    dens = power_spectrum(samples)
    p_in = dens[inband].sum()
    p_out = dens[~inband].sum()
    if p_in <= 0:
        raise ValueError("no in-band power")
    return float(10.0 * np.log10(p_out / p_in))


def obo_for_aclr(
    pa: RappPa,
    stream: np.ndarray,
    inband: np.ndarray,
    target_db: float,
    obo_range: tuple[float, float] = OBO_SPAN_DB,
    *,
    tol_db: float,
) -> float:
    """Smallest back-off meeting the ACLR target, by bisection to within ``tol_db``.

    ACLR is monotone non-increasing in OBO down to the scheme's distortion
    floor; if even the top of ``obo_range`` misses the target the solve is
    infeasible.
    """
    drive = PaDriver(pa, stream)
    lo, hi = obo_range
    if aclr(drive(hi), inband) > target_db:
        raise InfeasibleError(
            f"ACLR target {target_db:.2f} dB below the distortion floor at "
            f"{hi:.1f} dB back-off"
        )
    if aclr(drive(lo), inband) <= target_db:
        return lo
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if aclr(drive(mid), inband) <= target_db:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
