"""Keyed generators: the batched derivation reproduces NumPy's SeedSequence."""
import numpy as np
import pytest

from chirpvote._rng import key_component, keyed_rng, keyed_rngs


def _reference(seed, path, k):
    spawn_key = tuple(key_component(p) for p in (*path, k))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _first_draws(rng):
    return rng.random(), rng.standard_normal(), rng.integers(0, 2**40)


def _random_case(rng):
    """A random (seed, path prefix, count): seeds of one to four 32-bit
    words, zero to three string or integer path components."""
    words = int(rng.integers(1, 5))
    seed = int(rng.integers(0, 2**32)) if words == 1 else int(rng.integers(2**32, 2**63)) << (32 * (words - 2))
    path = tuple(
        f"kind-{rng.integers(1000)}" if rng.random() < 0.5 else int(rng.integers(0, 2**32))
        for _ in range(int(rng.integers(0, 4)))
    )
    return seed, path, int(rng.integers(1, 65))


def test_batched_keys_match_seed_sequence():
    rng = np.random.default_rng(2024)
    keys = 0
    while keys < 10_000:
        seed, path, count = _random_case(rng)
        batched = keyed_rngs(seed, *path, count=count)
        assert len(batched) == count
        for k, gen in enumerate(batched):
            assert _first_draws(gen) == _first_draws(_reference(seed, path, k)), (seed, path, k)
        keys += count


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 1])
@pytest.mark.parametrize("count", [1, 20, 64])
def test_batched_keys_match_keyed_rng(seed, count):
    for k, gen in enumerate(keyed_rngs(seed, "phase", 3, count=count)):
        ref = keyed_rng(seed, "phase", 3, k)
        assert np.array_equal(gen.random(5), ref.random(5))
        assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))


def test_streams_are_independent_objects():
    a, b = keyed_rngs(1, "batch", 0, count=2)
    first = a.random()
    assert b.random() == keyed_rng(1, "batch", 0, 1).random()
    assert a.random() != first


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        keyed_rngs(-1, "x", count=2)
