"""Deterministic, splittable random-number streams.

Every stochastic element of a campaign (noise realizations, shot sampling)
draws from a child stream derived from a single master seed plus an integer
key path. Child streams are independent of the order in which they are
created, so ensembles can be generated in any order or blocking without
affecting reproducibility.

The scalar functions build numpy's own objects and are the reference for
:func:`derive_seeds` and :func:`first_uniforms`, which replay numpy's
``SeedSequence`` and the seeding and first draw of its PCG64 generator
(128-bit LCG, XSL-RR output) bit for bit, on whole tables of streams.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

__all__ = ["child_seed_sequence", "spawn_rng", "derive_seed", "derive_seeds", "first_uniforms"]

# constants of numpy.random.SeedSequence and the multiplier of numpy.random.PCG64
_MASK32, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 0xFFFF_FFFF, 0x43B0_D7E5, 0x931E_8875, 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def child_seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Derive the seed sequence for the child stream addressed by ``key``.

    The same ``(master_seed, key)`` pair always yields the same stream, and
    distinct key paths yield statistically independent streams.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))


def spawn_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator seeded from the child stream addressed by ``key``."""
    return np.random.default_rng(child_seed_sequence(master_seed, *key))


def derive_seed(master_seed: int, *key: int) -> int:
    """Collapse a child stream address into a single 64-bit integer seed."""
    state = child_seed_sequence(master_seed, *key).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _hasher(const: int, mult: int):
    """SeedSequence's hash of successive uint32 columns; its constant does not depend on the data."""
    def hash_column(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hash_column


def _state_words(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` on uint32
    columns, as uint64; a (1,) column is a word every row shares."""
    hashmix, pool_size = _hasher(_INIT_A, _MULT_A), 4
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32)) for i in range(pool_size)]

    def mix(dst, value):
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(value)
        pool[dst] = mixed ^ mixed >> 16

    for src, dst in itertools.permutations(range(pool_size), 2):
        mix(dst, pool[src])
    for word, dst in itertools.product(entropy[pool_size:], range(pool_size)):
        mix(dst, word)
    output = _hasher(_INIT_B, _MULT_B)
    return [output(pool[i % pool_size]).astype(np.uint64) for i in range(n_words)]


def derive_seeds(master_seed: int, keys) -> np.ndarray:
    """``derive_seed(master_seed, *row)`` for every row of an (n, k) key table;
    ValueError for a negative master seed or a key word outside [0, 2**32)."""
    if (master_seed := operator.index(master_seed)) < 0:
        raise ValueError(f"master seed must be >= 0, got {master_seed}")
    table = np.asarray(keys)
    if table.size and (table.dtype.kind not in "iu" or table.min() < 0 or table.max() > _MASK32):
        raise ValueError("key words must be integers in [0, 2**32)")
    table = table.astype(np.uint32)
    # the master seed's words, padded to the pool size as SeedSequence does
    n_words = max(4, -(-master_seed.bit_length() // 32))
    words = [np.array([master_seed >> 32 * i & _MASK32], np.uint32) for i in range(n_words)]
    low, high = _state_words(words + list(table.T), 2)
    return np.broadcast_to(low | high << 32, len(table)).copy()


def _mul_add_128(a: list, m: int, b: list) -> list:
    """``(a * m + b) mod 2**128`` on 32-bit limbs (least significant first) held in uint64s."""
    columns = list(b) + [0]  # a fifth column takes what falls past 2**128
    for i, j in itertools.product(range(4), range(4)):
        if i + j < 4 and (m_j := m >> 32 * j & _MASK32):
            product = a[i] * np.uint64(m_j)
            columns[i + j] = columns[i + j] + (product & _MASK32)
            columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    for k in range(3):
        columns[k + 1] = columns[k + 1] + (columns[k] >> 32)
    return [column & _MASK32 for column in columns[:4]]


def first_uniforms(seeds) -> np.ndarray:
    """``spawn_rng(seed).random()`` for every 64-bit seed (two entropy words:
    below 2**32, a zero high word mixes as numpy's one word does)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    s = _state_words([(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)], 8)
    # generate_state(4, uint64) holds (state high, state low, sequence high, sequence low)
    inc = _mul_add_128([s[6], s[7], s[4], s[5]], 2, [1, 0, 0, 0])
    state = _mul_add_128([s[2], s[3], s[0], s[1]], 1, inc)
    for _ in range(2):  # seeding steps the LCG once, and the first draw once more
        state = _mul_add_128(state, _PCG_MULT, inc)
    folded = (state[3] << 32 | state[2]) ^ (state[1] << 32 | state[0])
    rotation = state[3] >> 26
    return ((folded >> rotation | folded << (64 - rotation & 63)) >> 11) * 2.0**-53
