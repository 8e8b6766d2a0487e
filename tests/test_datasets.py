import numpy as np
import pytest

from chirpvote._rng import keyed_rng
from chirpvote.datasets import (
    Dataset,
    _glyph_array,
    synthetic_digits,
)
from chirpvote.errors import ConfigError


def synthetic_digits_loop(n_samples: int, seed: int) -> Dataset:
    """Per-sample reference for synthetic_digits: the same keyed draws (shifts
    of up to one pixel, noise std 0.2), one np.roll of the template per sample."""
    rng = keyed_rng(seed, "synthetic-digits")
    labels = np.arange(n_samples) % 10
    rng.shuffle(labels)
    templates = np.stack([_glyph_array(k) for k in range(10)])
    feats = np.empty((n_samples, 64))
    shifts = rng.integers(-1, 2, size=(n_samples, 2))
    amps = 0.8 + 0.4 * rng.random(n_samples)
    noise = 0.2 * rng.standard_normal((n_samples, 8, 8))
    for i in range(n_samples):
        img = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(0, 1))
        feats[i] = (amps[i] * img + noise[i]).ravel()
    return Dataset(features=feats, labels=labels)


@pytest.mark.blas_threads
class TestRollOracle:
    @pytest.mark.parametrize("n_samples, seed", [(1, 0), (7, 3), (333, 11)])
    def test_gather_matches_roll_loop(self, n_samples, seed):
        fast = synthetic_digits(n_samples, seed)
        ref = synthetic_digits_loop(n_samples, seed)
        assert np.array_equal(fast.features, ref.features)
        assert np.array_equal(fast.labels, ref.labels)


class TestSynthetic:
    def test_shapes_and_labels(self):
        d = synthetic_digits(230, seed=0)
        assert d.features.shape == (230, 64)
        assert d.labels.shape == (230,)
        assert set(d.labels) == set(range(10))

    def test_class_balance(self):
        d = synthetic_digits(1000, seed=1)
        counts = np.bincount(d.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_per_seed(self):
        a = synthetic_digits(64, seed=5)
        b = synthetic_digits(64, seed=5)
        c = synthetic_digits(64, seed=6)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_classes_are_separable_by_template_matching(self):
        # a shift-aware cosine matcher against the clean glyphs should beat
        # chance by a wide margin despite the noise and jitter
        from chirpvote.datasets import _glyph_array

        d = synthetic_digits(500, seed=2)
        temps, labels = [], []
        for k in range(10):
            g = _glyph_array(k)
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    t = np.roll(g, (dr, dc), axis=(0, 1)).ravel()
                    temps.append(t / np.linalg.norm(t))
                    labels.append(k)
        temps = np.array(temps)
        labels = np.array(labels)
        x = d.features / np.linalg.norm(d.features, axis=1, keepdims=True)
        guesses = labels[np.argmax(x @ temps.T, axis=1)]
        assert np.mean(guesses == d.labels) > 0.9

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            synthetic_digits(0, seed=0)


class TestDatasetContainer:
    def test_subset(self):
        d = synthetic_digits(50, seed=0)
        sub = d.subset(np.array([3, 7, 11]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, d.labels[[3, 7, 11]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(features=np.zeros((3, 64)), labels=np.zeros(4, dtype=int))

