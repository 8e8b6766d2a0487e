"""DFT-spread OFDM chirp synthesis and recovery.

The chirp chain is the OFDM chain with DFT spreading in front (orthonormal
transforms throughout):

    bins s (M values) -> DFT_M -> per-bin shaping f      (chirp only: precode)
      -> M subcarrier symbols scattered onto their IDFT bins -> IDFT body
      -> cyclic prefix/suffix + raised-cosine edges

With the Fresnel-integral shaping vector from :func:`build_fdss` (the
Fourier coefficients of a unit chirp, evaluated by Gauss-Legendre quadrature),
a unit impulse at bin b becomes a linear chirp sweeping ``sweep_cycles``
cycles over the symbol, circularly shifted in time by b/M of the symbol; the
M bins thus index M circularly-shifted chirps that superpose linearly.

Reception mirrors it: :func:`demodulate_ofdm` drops the cyclic prefix, takes
the N-point DFT and picks the occupied subcarriers, :func:`matched_despread`
applies the matched (conjugate) shaping and the inverse DFT_M to any stack of
subcarrier rows, and :func:`despread` is the two for one received symbol.
The cascade despread(spread(s)) equals the circular convolution of s with the
inverse DFT of |f|^2 — i.e. it is diagonal in the precoder's frequency
domain: DFT_M(s_hat) = |f|^2 * DFT_M(s) bin by bin. Energy detection
downstream sums |s_hat|^2 over guard-spaced groups, for which this matched
cascade is the faithful model.

One framing pass serves every rate: :func:`assemble_stream` writes each
oversampled symbol (zero-padded IDFT, :func:`analog_body`) straight into its
stride of the stream the PA and the spectral metrics see, and :func:`spread`
and :func:`modulate_ofdm` are the first critical-rate period of a
one-symbol stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, FramingError, require_field_types


@dataclass(frozen=True)
class WaveformConfig:
    """Numerology for chirp synthesis.

    The ``num_bins`` = M occupied subcarriers are the DC-centered band
    ``bin_low`` = -(M // 2) ... ``bin_high`` = M - M // 2 - 1, which must
    cover the chirp bandwidth ``sweep_cycles``. ``sample_rate`` only places
    the EPA channel taps; the RF metrics work in cycles per sample.
    """

    num_bins: int = 54
    idft_size: int = 64
    sweep_cycles: float = 46.0
    cp_len: int = 16
    sample_rate: float = 15.36e6
    window_rolloff: int = 2

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.num_bins <= 0 or self.idft_size <= 0:
            raise ConfigError("num_bins and idft_size must be positive")
        if self.num_bins > self.idft_size:
            raise ConfigError("num_bins cannot exceed idft_size")
        if self.sweep_cycles <= 0:
            raise ConfigError("sweep_cycles must be positive")
        if self.bin_low > -self.sweep_cycles / 2 or self.bin_high < self.sweep_cycles / 2:
            raise ConfigError("occupied bins must cover the swept bandwidth")
        if not 0 <= self.cp_len < self.idft_size:
            raise ConfigError("cp_len must lie in [0, idft_size)")
        if not 0 <= self.window_rolloff <= self.cp_len:
            raise ConfigError("window_rolloff must lie in [0, cp_len]")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")

    @property
    def bin_low(self) -> int:
        return -(self.num_bins // 2)

    @property
    def bin_high(self) -> int:
        return self.num_bins - self.num_bins // 2 - 1

    @property
    def bin_indices(self) -> np.ndarray:
        """Signed occupied subcarrier indices, ascending."""
        return np.arange(self.bin_low, self.bin_high + 1)


@cache
def build_fdss(cfg: WaveformConfig) -> np.ndarray:
    """Fresnel-integral shaping coefficients, normalized to sum |f|^2 = M.

    f_j is proportional to the Fourier coefficient of a unit chirp sweeping
    ``sweep_cycles`` = d cycles across one symbol,

        int_0^1 exp(i pi d (t - 1/2)^2) exp(-2 pi i j t) dt,

    whose closed form (complete the square) is a sum of Fresnel integrals;
    |f| is approximately flat over the swept band |j| <= d/2 and rolls off
    beyond it. With t = (1 + x)/2 the integrand is the entire function
    exp(i pi (d x^2/4 - j x)) on [-1, 1] times the exact (-1)^j, and a
    Gauss-Legendre rule with comfortably more nodes than its phase turns
    (2 ceil(d/2 + max|j|) + 32) evaluates it to rounding level.

    The result is cached per numerology and read-only.
    """
    d = float(cfg.sweep_cycles)
    j = cfg.bin_indices
    x, w = leggauss(2 * math.ceil(d / 2 + np.abs(j).max()) + 32)
    f = np.exp(1j * np.pi * (0.25 * d * x * x - j[:, None] * x)) @ w
    f[j % 2 == 1] *= -1.0
    f *= np.sqrt(cfg.num_bins / np.sum(np.abs(f) ** 2))
    f.flags.writeable = False
    return f


def precode(cfg: WaveformConfig, fdss: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """DFT-precode and shape bin symbols: (..., M) bins -> (..., M) symbols on
    the ascending occupied subcarriers ``bin_indices`` (the M-point DFT,
    reordered by ``fftshift`` since ``bin_low`` = -(M // 2), and shaped)."""
    bins = np.asarray(bins, dtype=complex)
    if bins.ndim == 0 or bins.shape[-1] != cfg.num_bins:
        raise FramingError("bin vector length must equal num_bins")
    return fdss * np.fft.fftshift(np.fft.fft(bins, norm="ortho", axis=-1), axes=-1)


def analog_body(cfg: WaveformConfig, symbols: np.ndarray, oversample: int) -> np.ndarray:
    """Symbol bodies (no CP, no window) of (..., M) subcarrier symbols at
    ``oversample`` times the sample rate: (..., oversample * N).

    Subcarrier j lands on bin j mod (oversample * N) of the zero-padded
    grid, and its orthonormal IDFT is scaled by sqrt(oversample), so the
    mean power per sample matches the critical-rate body.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    symbols = np.asarray(symbols)
    if symbols.ndim == 0 or symbols.shape[-1] != cfg.num_bins:
        raise FramingError("symbol vector length must equal num_bins")
    size = oversample * cfg.idft_size
    padded = np.zeros(symbols.shape[:-1] + (size,), dtype=complex)
    padded[..., cfg.bin_indices % size] = symbols
    np.fft.ifft(padded, norm="ortho", axis=-1, out=padded)
    padded *= np.sqrt(oversample)
    return padded


def _rc_ramp(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(np.pi * (np.arange(n) + 0.5) / n))


def _one_symbol(values: np.ndarray) -> np.ndarray:
    """``values`` as an array, once it is one symbol's (M,) vector: a stack of
    symbols would frame as a stream whose first period is all that is kept."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise FramingError(f"expected one symbol's (M,) vector, got shape {values.shape}")
    return values


def modulate_ofdm(cfg: WaveformConfig, symbols: np.ndarray) -> np.ndarray:
    """One OFDM symbol (cyclic prefix included) from M subcarrier symbols: the
    first period of its stream. The suffix, which carries the falling edge,
    belongs to the next symbol's period."""
    return assemble_stream(cfg, _one_symbol(symbols), 1)[: cfg.cp_len + cfg.idft_size]


def spread(cfg: WaveformConfig, fdss: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Synthesize one chirp symbol (cyclic prefix included) from M bin symbols:
    the OFDM symbol of their precoded subcarriers."""
    return modulate_ofdm(cfg, precode(cfg, fdss, bins))


def demodulate_ofdm(cfg: WaveformConfig, received: np.ndarray) -> np.ndarray:
    """Recover the M subcarrier symbols of one received OFDM symbol.

    Expects exactly one symbol of cp_len + N samples.
    """
    r = np.asarray(received)
    if r.size != cfg.cp_len + cfg.idft_size:
        raise FramingError(
            f"expected {cfg.cp_len + cfg.idft_size} samples per symbol, got {r.size}"
        )
    spectrum = np.fft.fft(r[cfg.cp_len :], norm="ortho")
    return spectrum[cfg.bin_indices % cfg.idft_size]


def matched_despread(fdss: np.ndarray, subcarriers: np.ndarray) -> np.ndarray:
    """Matched receiver, (..., M) occupied subcarriers -> (..., M) bin symbols, in
    one working copy: fold back to DFT order (``ifftshift`` along the last
    axis), conjugate shaping and M-point orthonormal IDFT."""
    return despread_folded(
        fdss, np.fft.ifftshift(np.asarray(subcarriers, dtype=complex), axes=-1)
    )


def despread_folded(fdss: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """:func:`matched_despread` of complex subcarriers already folded back to
    DFT order, computed in place in ``folded``."""
    np.multiply(np.fft.ifftshift(np.conj(fdss)), folded, out=folded)
    return np.fft.ifft(folded, norm="ortho", axis=-1, out=folded)


def despread(cfg: WaveformConfig, fdss: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Recover bin symbols of one received chirp symbol with the matched receiver."""
    return matched_despread(fdss, demodulate_ofdm(cfg, received))


def assemble_stream(cfg: WaveformConfig, symbols: np.ndarray, oversample: int) -> np.ndarray:
    """Weighted-overlap-add stream of (n_symbols, M) subcarrier symbols at
    ``oversample`` times the sample rate.

    Symbol i fills its stride [i * stride, (i + 1) * stride), stride =
    (cp_len + N) * oversample, so the receiver's symbol timing is unchanged:
    a cyclic prefix (the body's last cp_len samples) and then the body. The
    rising raised-cosine ramp covers the head of the prefix, and the cyclic
    suffix (the body's first window_rolloff samples, under the falling ramp)
    is added onto the head of stride i + 1; the last suffix ends the stream.
    So the receiver window [cp_len, cp_len + N) of each stride is untouched.
    """
    symbols = np.atleast_2d(symbols)
    if symbols.ndim != 2:
        raise FramingError(f"expected (n_symbols, M) symbols, got shape {symbols.shape}")
    bodies = analog_body(cfg, symbols, oversample)
    n_sym, n = bodies.shape
    cp = cfg.cp_len * oversample
    w = cfg.window_rolloff * oversample
    stride = cp + n
    out = np.zeros((n_sym + 1, stride), dtype=complex)
    out[:-1, :cp] = bodies[:, n - cp :]
    out[:-1, cp:] = bodies
    ramp = _rc_ramp(w)
    out[:-1, :w] *= ramp
    out[1:, :w] += bodies[:, :w] * ramp[::-1]
    return out.ravel()[: n_sym * stride + w]
