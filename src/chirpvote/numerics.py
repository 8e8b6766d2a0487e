"""Special functions and spectral estimation primitives.

Fresnel integrals use the normalized convention

    C(x) = int_0^x cos(pi t^2 / 2) dt,   S(x) = int_0^x sin(pi t^2 / 2) dt,

and come from ``scipy.special.fresnel`` (accurate to double precision on all
finite inputs).

Spectral estimation is a fixed averaged-periodogram (Welch) recipe so that
leakage-sensitive quantities measured downstream are reproducible
bit-for-bit across runs: a periodic Hann taper, segments overlapping by
``segment_len // 2`` samples with no padding or detrending, one batched FFT
over a strided view of all segments, two-sided density scaling and the mean
over segments. It equals ``scipy.signal.welch(..., window="hann",
detrend=False, return_onesided=False, scaling="density")`` to rounding, with
the frequency axis sorted ascending; ``scipy.signal`` itself is not imported.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import fresnel as _scipy_fresnel


def fresnel_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresnel integrals (C(x), S(x)) of a real array; odd in x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("fresnel requires finite input")
    s, c = _scipy_fresnel(x)  # SciPy returns the pair as (S, C)
    return c, s


def power_spectrum(
    samples: np.ndarray, sample_rate: float, segment_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram PSD of a complex baseband sequence.

    Hann taper, 50% overlap, two-sided, density scaling: the integral of the
    returned density over frequency equals the mean power of the input to
    within estimator bias (about 1%).

    Returns (frequencies ascending in Hz, density in power/Hz).
    """
    samples = np.asarray(samples)
    segment_len = int(segment_len)
    if segment_len <= 0:
        raise ValueError("segment_len must be positive")
    if segment_len > samples.size:
        raise ValueError("segment_len exceeds signal length")
    step = segment_len - segment_len // 2
    segments = sliding_window_view(samples, segment_len)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    if segment_len == 1:
        window[0] = 1.0  # a one-point window is [1], as in scipy.signal.get_window
    spectra = np.fft.fft(segments * window, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    dens = power.mean(axis=0) / (sample_rate * np.sum(window**2))
    freqs = np.fft.fftfreq(segment_len, 1.0 / sample_rate)
    return np.fft.fftshift(freqs), np.fft.fftshift(dens)
