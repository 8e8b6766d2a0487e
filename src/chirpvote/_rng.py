"""Keyed randomness.

Every stochastic draw in the package is keyed by (global seed, *path), where
path components are small integers (round index, device index) or short
strings naming the draw kind. Draws are therefore independent of evaluation
order, vectorization strategy, and thread count: the same key always yields
the same stream.

``keyed_rngs`` derives the generators of a run of keys that differ only in
their last component (one per device) at once. ``SeedSequence`` mixes its
entropy words one after another, so the pool of the shared prefix's own
``SeedSequence`` is where every key's hash stands before its last word. That
word is mixed for all keys in one set of vectorized uint32 operations, and
the PCG64 state words are generated the same way, reproducing NumPy's hash
word for word.
"""
from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy/random/bit_generator.pyx: SeedSequence hashing constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def key_component(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def keyed_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the draw identified by (seed, *path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key_component(p) for p in path))
    return np.random.default_rng(ss)


def _hash_consts(const: int, mult: int, n: int) -> tuple[list[int], list[int]]:
    """The (xor, multiplier) constant pairs of ``n`` successive hash calls
    from ``const``: each call xors with the constant, advances it by ``mult``
    and multiplies by the advanced constant."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    return xors, mults


#: generate_state(4, np.uint64) hashes eight words, cycling over the pool
_STATE_XOR, _STATE_MULT = (
    np.array(c, dtype=np.uint32)[:, None] for c in _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
)


class _DerivedSeed(ISeedSequence):
    """The four uint64 words ``SeedSequence.generate_state(4, np.uint64)``
    would return, derived beforehand; that is all PCG64 asks for."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != self._words.size or np.dtype(dtype) != self._words.dtype:
            raise ValueError("only the PCG64 seeding request is precomputed")
        return self._words


def keyed_rngs(seed: int, *path: int | str, count: int) -> list[np.random.Generator]:
    """``[keyed_rng(seed, *path, k) for k in range(count)]``, bit for bit,
    from one hash of the shared (seed, *path) prefix."""
    prefix = np.random.SeedSequence(int(seed), spawn_key=tuple(key_component(p) for p in path))
    # a spawn key pads the seed words to the pool size; the hash spends 4
    # constants per entropy word (4 fill the pool, 12 cross-mix it, 4 per
    # further word), the last word included
    entropy = max(_POOL_SIZE, (int(seed).bit_length() + 31) // 32) + len(path) + 1
    xors, mults = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * entropy)
    # the last word, one per key, mixed into the four pool words at once;
    # uint32 arrays wrap modulo 2**32 as the hash does
    xor, mult = (np.array(c[-_POOL_SIZE:], dtype=np.uint32)[:, None] for c in (xors, mults))
    value = (np.arange(count, dtype=np.uint32) ^ xor) * mult
    value ^= value >> _XSHIFT
    pool = _MIX_MULT_L * prefix.pool[:, None] - _MIX_MULT_R * value
    pool ^= pool >> _XSHIFT
    state = (pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE] ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> _XSHIFT
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_DerivedSeed(w))) for w in words]
