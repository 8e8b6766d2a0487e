"""Digit data for the scaled federated-learning task.

A synthetic generator of 8x8 digits (glyph templates + circular shifts +
Gaussian pixel noise), so the whole suite runs offline and deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import keyed_rng
from .errors import ConfigError

_GLYPHS = {
    0: ("00111100", "01000010", "01000010", "01000010", "01000010", "01000010", "00111100", "00000000"),
    1: ("00011000", "00111000", "00011000", "00011000", "00011000", "00011000", "01111110", "00000000"),
    2: ("00111100", "01000010", "00000010", "00000100", "00011000", "00100000", "01111110", "00000000"),
    3: ("00111100", "01000010", "00000010", "00011100", "00000010", "01000010", "00111100", "00000000"),
    4: ("00000100", "00001100", "00010100", "00100100", "01111110", "00000100", "00000100", "00000000"),
    5: ("01111110", "01000000", "01111100", "00000010", "00000010", "01000010", "00111100", "00000000"),
    6: ("00111100", "01000000", "01000000", "01111100", "01000010", "01000010", "00111100", "00000000"),
    7: ("01111110", "00000010", "00000100", "00001000", "00010000", "00100000", "00100000", "00000000"),
    8: ("00111100", "01000010", "01000010", "00111100", "01000010", "01000010", "00111100", "00000000"),
    9: ("00111100", "01000010", "01000010", "00111110", "00000010", "00000010", "00111100", "00000000"),
}


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, 64) with integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if f.ndim != 2 or f.shape[0] != y.shape[0]:
            raise ConfigError("features and labels must agree in sample count")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return int(self.labels.size)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(features=self.features[indices], labels=self.labels[indices])


def _glyph_array(label: int) -> np.ndarray:
    rows = _GLYPHS[label]
    return np.array([[1.0 if ch == "1" else 0.0 for ch in row] for row in rows])


def synthetic_digits(n_samples: int, seed: int) -> Dataset:
    """Class-balanced noisy glyphs: template, random circular shift of up to
    one pixel per axis, amplitude jitter, additive Gaussian noise of std 0.2."""
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    rng = keyed_rng(seed, "synthetic-digits")
    labels = np.arange(n_samples) % 10
    rng.shuffle(labels)
    templates = np.stack([_glyph_array(k) for k in range(10)])
    shifts = rng.integers(-1, 2, size=(n_samples, 2))
    amps = 0.8 + 0.4 * rng.random(n_samples)
    noise = 0.2 * rng.standard_normal((n_samples, 8, 8))
    # np.roll by (sr, sc) puts template pixel ((r - sr) % 8, (c - sc) % 8) at (r, c)
    grid = np.arange(8)
    rows = (grid - shifts[:, :1]) % 8
    cols = (grid - shifts[:, 1:]) % 8
    feats = templates[labels[:, None, None], rows[:, :, None], cols[:, None, :]]
    feats *= amps[:, None, None]
    feats += noise
    return Dataset(features=feats.reshape(n_samples, 64), labels=labels)
