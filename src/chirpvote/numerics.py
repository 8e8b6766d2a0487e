"""Averaged-periodogram (Welch) power spectral density.

The recipe is fixed so that leakage-sensitive quantities measured
downstream are reproducible bit-for-bit across runs: a periodic Hann taper,
segments overlapping by ``segment_len // 2`` samples with no padding or
detrending, two-sided density scaling and the mean over segments. It equals
``scipy.signal.welch(..., window="hann", detrend=False,
return_onesided=False, scaling="density")`` to rounding, with the frequency
axis sorted ascending; ``scipy.signal`` itself is not imported.

The segments are windowed and transformed 32 at a time in one reused complex
buffer, and their |X|^2 rows are folded into a running sum carried in row 0
of a reused real buffer. NumPy reduces a C-ordered (rows, segment_len) array
over axis 0 row after row, so folding block after block adds the rows in the
same order as one sum over all segments: for ``segment_len >= 2`` the density
is bit-identical to transforming every segment at once. At
``segment_len == 1`` that column is contiguous and NumPy sums it pairwise
instead, which differs in the last bits.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_WELCH_BLOCK = 32  # segments windowed and transformed per pass


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
    count = segments.shape[0]
    block = np.empty((min(_WELCH_BLOCK, count), segment_len), dtype=complex)
    power = np.zeros((block.shape[0] + 1, segment_len))  # row 0: running sum
    for start in range(0, count, _WELCH_BLOCK):
        k = min(_WELCH_BLOCK, count - start)
        spectra = block[:k]
        np.multiply(segments[start : start + k], window, out=spectra)
        np.fft.fft(spectra, axis=-1, out=spectra)
        rows = power[1 : k + 1]
        np.square(spectra.real, out=rows)
        np.square(spectra.imag, out=spectra.real)  # the real parts are spent
        rows += spectra.real
        np.add.reduce(power[: k + 1], axis=0, out=power[0])
    dens = power[0] / count / (sample_rate * np.sum(window**2))
    freqs = np.fft.fftfreq(segment_len, 1.0 / sample_rate)
    return np.fft.fftshift(freqs), np.fft.fftshift(dens)
