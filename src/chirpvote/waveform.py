"""DFT-spread OFDM chirp synthesis and recovery.

Transmit chain (orthonormal transforms throughout):

    bins s (M values) -> DFT_M -> per-bin shaping f -> centered subcarrier
    mapping onto an N-point IDFT grid -> IDFT_N -> cyclic prefix + edge window

With the Fresnel-integral shaping vector from :func:`build_fdss`, a unit
impulse at bin b becomes a linear chirp sweeping ``sweep_cycles`` cycles over
the symbol, circularly shifted in time by b/M of the symbol; the M bins thus
index M circularly-shifted chirps that superpose linearly.

The receive chain drops the cyclic prefix and applies the matched (conjugate)
shaping. The cascade receive(transmit(s)) equals the circular convolution of s
with the inverse DFT of |f|^2 — i.e. it is diagonal in the precoder's
frequency domain: DFT_M(s_hat) = |f|^2 * DFT_M(s) bin by bin. Energy
detection downstream sums |s_hat|^2 over guard-spaced groups, for which this
matched cascade is the faithful model.

Analog-domain paths (PA drive, spectral metrics) use :func:`analog_body` and
:func:`assemble_stream`, which oversample by zero-padded IDFT and apply
raised-cosine weighted overlap-add at the symbol boundaries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, FramingError
from .numerics import fresnel_array


@dataclass(frozen=True)
class WaveformConfig:
    """Numerology for chirp synthesis.

    The ``num_bins`` = M occupied subcarriers are the DC-centered band
    ``bin_low`` = -(M // 2) ... ``bin_high`` = M - M // 2 - 1, which must
    cover the chirp bandwidth ``sweep_cycles``.
    """

    num_bins: int = 54
    idft_size: int = 64
    sweep_cycles: float = 46.0
    cp_len: int = 16
    sample_rate: float = 15.36e6
    window_rolloff: int = 2

    def __post_init__(self) -> None:
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
    def sample_period(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def symbol_period(self) -> float:
        """Body duration (without cyclic prefix), seconds."""
        return self.idft_size / self.sample_rate

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


@dataclass(frozen=True)
class ComplexSignal:
    """A finite complex baseband sequence with its sample period."""

    samples: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        if np.asarray(self.samples).size == 0:
            raise ValueError("signal must be non-empty")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.sample_period

    @cached_property
    def power(self) -> np.ndarray:
        """Instantaneous power |samples|^2, computed once per signal."""
        return np.abs(self.samples) ** 2

    @cached_property
    def mean_power(self) -> float:
        return float(np.mean(self.power))


def build_fdss(cfg: WaveformConfig) -> np.ndarray:
    """Fresnel-integral shaping coefficients, normalized to sum |f|^2 = M.

    The closed form is the Fourier series of a unit chirp sweeping
    ``sweep_cycles`` cycles across one symbol; |f| is approximately flat over
    the swept band |j| <= sweep_cycles/2 and rolls off beyond it.
    """
    d = float(cfg.sweep_cycles)
    j = cfg.bin_indices.astype(float)
    ca, sa = fresnel_array((d + 2.0 * j) / np.sqrt(2.0 * d))
    cb, sb = fresnel_array((d - 2.0 * j) / np.sqrt(2.0 * d))
    phase = np.exp(-1j * np.pi * (j * j / d + j))
    f = phase * ((ca + cb) + 1j * (sa + sb))
    return f * np.sqrt(cfg.num_bins / np.sum(np.abs(f) ** 2))


def precode(cfg: WaveformConfig, fdss: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """DFT-precode and shape bin symbols onto the IDFT subcarrier grid.

    ``bins`` has shape (..., M); the result has shape (..., N) with the M
    shaped outputs on the centered occupied subcarriers and zeros elsewhere.
    """
    bins = np.asarray(bins, dtype=complex)
    if bins.shape[-1] != cfg.num_bins:
        raise FramingError("bin vector length must equal num_bins")
    spectrum = np.fft.fft(bins, norm="ortho", axis=-1)
    j = cfg.bin_indices
    grid = np.zeros(bins.shape[:-1] + (cfg.idft_size,), dtype=complex)
    grid[..., j % cfg.idft_size] = fdss * spectrum[..., j % cfg.num_bins]
    return grid


def ofdm_grid(cfg: WaveformConfig, symbols: np.ndarray) -> np.ndarray:
    """Map per-subcarrier symbols straight onto the IDFT grid (no precoder)."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape[-1] != cfg.num_bins:
        raise FramingError("symbol vector length must equal num_bins")
    grid = np.zeros(symbols.shape[:-1] + (cfg.idft_size,), dtype=complex)
    grid[..., cfg.bin_indices % cfg.idft_size] = symbols
    return grid


def _symbol_from_grid(cfg: WaveformConfig, grid: np.ndarray) -> ComplexSignal:
    body = np.fft.ifft(grid, norm="ortho")
    if cfg.cp_len:
        sym = np.concatenate([body[-cfg.cp_len :], body])
    else:
        sym = body
    w = cfg.window_rolloff
    if w:
        # Raised-cosine ramp confined to the head of the cyclic prefix; the
        # receiver window [cp_len, cp_len + N) is untouched. The trailing
        # edge is shaped at stream level (assemble_stream), where a cyclic
        # suffix exists to absorb it.
        sym = sym.copy()
        sym[:w] *= _rc_ramp(w)
    return ComplexSignal(samples=sym, sample_period=cfg.sample_period)


def spread(cfg: WaveformConfig, fdss: np.ndarray, bins: np.ndarray) -> ComplexSignal:
    """Synthesize one chirp symbol (cyclic prefix included) from M bin symbols."""
    return _symbol_from_grid(cfg, precode(cfg, fdss, bins))


def despread(cfg: WaveformConfig, fdss: np.ndarray, received: ComplexSignal) -> np.ndarray:
    """Recover bin symbols with the matched (conjugate-shaping) receiver.

    Expects exactly one symbol of cp_len + N samples.
    """
    r = np.asarray(received.samples)
    if r.size != cfg.cp_len + cfg.idft_size:
        raise FramingError(
            f"expected {cfg.cp_len + cfg.idft_size} samples per symbol, got {r.size}"
        )
    spectrum = np.fft.fft(r[cfg.cp_len :], norm="ortho")
    j = cfg.bin_indices
    shaped = np.conj(fdss) * spectrum[j % cfg.idft_size]
    folded = np.zeros(cfg.num_bins, dtype=complex)
    folded[j % cfg.num_bins] = shaped
    return np.fft.ifft(folded, norm="ortho")


def modulate_ofdm(cfg: WaveformConfig, symbols: np.ndarray) -> ComplexSignal:
    """Plain OFDM symbol (no precoder, no shaping); CP and window as in spread."""
    return _symbol_from_grid(cfg, ofdm_grid(cfg, symbols))


def demodulate_ofdm(cfg: WaveformConfig, received: ComplexSignal) -> np.ndarray:
    """Recover per-subcarrier symbols from one plain OFDM symbol."""
    r = np.asarray(received.samples)
    if r.size != cfg.cp_len + cfg.idft_size:
        raise FramingError(
            f"expected {cfg.cp_len + cfg.idft_size} samples per symbol, got {r.size}"
        )
    spectrum = np.fft.fft(r[cfg.cp_len :], norm="ortho")
    return spectrum[cfg.bin_indices % cfg.idft_size]


def _rc_ramp(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(np.pi * (np.arange(n) + 0.5) / n))


def _centered_pad(cfg: WaveformConfig, grid: np.ndarray, oversample: int) -> np.ndarray:
    n = cfg.idft_size
    padded = np.zeros(grid.shape[:-1] + (oversample * n,), dtype=complex)
    centered = (np.arange(n) + n // 2) % n - n // 2
    padded[..., centered % (oversample * n)] = grid
    return padded


def analog_body(cfg: WaveformConfig, grid: np.ndarray, oversample: int = 4) -> np.ndarray:
    """Oversampled symbol body (no CP, no window) for PA/metrics paths.

    Zero-padded orthonormal IDFT scaled by sqrt(oversample), so the mean
    power per sample matches the critical-rate body.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    if oversample == 1:
        return np.fft.ifft(grid, norm="ortho", axis=-1)
    padded = _centered_pad(cfg, np.asarray(grid, dtype=complex), oversample)
    return np.fft.ifft(padded, norm="ortho", axis=-1) * np.sqrt(oversample)


def assemble_stream(
    cfg: WaveformConfig, grids: np.ndarray, oversample: int = 4
) -> ComplexSignal:
    """Weighted-overlap-add symbol stream at the oversampled (analog) rate.

    Each symbol is CP + body + a cyclic suffix of window_rolloff samples;
    raised-cosine ramps on both edges overlap into the neighbors. Stride is
    (cp_len + N) * oversample, so the receiver's symbol timing is unchanged.
    """
    grids = np.asarray(grids, dtype=complex)
    if grids.ndim == 1:
        grids = grids[None, :]
    bodies = analog_body(cfg, grids, oversample)
    n_sym = bodies.shape[0]
    stride = (cfg.cp_len + cfg.idft_size) * oversample
    cp = cfg.cp_len * oversample
    w = cfg.window_rolloff * oversample
    parts = [bodies[:, -cp:], bodies] if cp else [bodies]
    if w:
        parts.append(bodies[:, :w])
    syms = np.concatenate(parts, axis=1)
    if w:
        ramp = _rc_ramp(w)
        syms[:, :w] *= ramp
        syms[:, -w:] *= ramp[::-1]
    out = np.zeros(n_sym * stride + w, dtype=complex)
    out[: n_sym * stride] = syms[:, :stride].ravel()
    if w:
        tail_pos = (np.arange(n_sym)[:, None] + 1) * stride + np.arange(w)[None, :]
        np.add.at(out, tail_pos.ravel(), syms[:, stride:].ravel())
    return ComplexSignal(samples=out, sample_period=cfg.sample_period / oversample)
