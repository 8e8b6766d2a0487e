"""Digit datasets for the scaled federated-learning task.

Two sources, one 8x8 feature format:

* a synthetic generator (glyph templates + circular shifts + Gaussian pixel
  noise) so the whole suite runs offline and deterministically;
* a reader for the standard IDX binary format (big-endian magic + dims),
  with block-downsampling of 28x28 images to the same 8x8 grid.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

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


def synthetic_digits(
    n_samples: int, seed: int, noise_std: float = 0.2, max_shift: int = 1
) -> Dataset:
    """Class-balanced noisy glyphs: template, random circular shift of up to
    max_shift pixels per axis, amplitude jitter, additive Gaussian noise."""
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    rng = keyed_rng(seed, "synthetic-digits")
    labels = np.arange(n_samples) % 10
    rng.shuffle(labels)
    templates = np.stack([_glyph_array(k) for k in range(10)])
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n_samples, 2))
    amps = 0.8 + 0.4 * rng.random(n_samples)
    noise = noise_std * rng.standard_normal((n_samples, 8, 8))
    # np.roll by (sr, sc) puts template pixel ((r - sr) % 8, (c - sc) % 8) at (r, c)
    grid = np.arange(8)
    rows = (grid - shifts[:, :1]) % 8
    cols = (grid - shifts[:, 1:]) % 8
    feats = templates[labels[:, None, None], rows[:, :, None], cols[:, None, :]]
    feats *= amps[:, None, None]
    feats += noise
    return Dataset(features=feats.reshape(n_samples, 64), labels=labels)


def load_idx(path: str | Path) -> np.ndarray:
    """Read one IDX file (unsigned-byte payload, 1 or 3 dimensions)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ConfigError(f"{path}: truncated IDX header")
    zero1, zero2, dtype, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0 or dtype != 0x08:
        raise ConfigError(f"{path}: not an unsigned-byte IDX file")
    dims = struct.unpack(f">{ndim}I", raw[4 : 4 + 4 * ndim])
    data = np.frombuffer(raw, dtype=np.uint8, offset=4 + 4 * ndim)
    if data.size != int(np.prod(dims)):
        raise ConfigError(f"{path}: payload size does not match header dims")
    return data.reshape(dims)


def downsample_to_8x8(images: np.ndarray) -> np.ndarray:
    """Nearest-grid downsampling of (n, r, c) images to flattened 8x8."""
    n, rows, cols = images.shape
    ri = np.rint(np.linspace(0, rows - 1, 8)).astype(int)
    ci = np.rint(np.linspace(0, cols - 1, 8)).astype(int)
    return images[:, ri][:, :, ci].reshape(n, 64).astype(float)


def idx_digits(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Dataset from an IDX image/label file pair, downsampled to 8x8 in [0, 1]."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise ConfigError(f"{images_path}: expected 3-dimensional image data")
    if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
        raise ConfigError("image and label counts disagree")
    return Dataset(features=downsample_to_8x8(images) / 255.0, labels=labels.astype(int))
