"""The array seeding path gives numpy's own bits.

``derive_seeds`` and ``first_uniforms`` replay numpy's ``SeedSequence`` and
PCG64 algorithms on whole tables; each is compared here with the scalar
functions, which build numpy's objects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slqns.seeding import derive_seed, derive_seeds, first_uniforms, spawn_rng

MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**160 + 2**96 + 5]
WORD = st.integers(0, 2**32 - 1)


def key_table(length: int) -> np.ndarray:
    """Rows of the two extreme key words and a few random ones."""
    rows = [[0] * length, [2**32 - 1] * length, [0, 2**32 - 1] * (length // 2) or [7]]
    rows += np.random.default_rng(length).integers(0, 2**32, size=(5, length)).tolist()
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("length", [1, 6])
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_derive_seeds_equal_derive_seed(master_seed, length):
    keys = key_table(length)
    seeds = derive_seeds(master_seed, keys)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master_seed, *row) for row in keys.tolist()]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**200), st.lists(st.lists(WORD, min_size=6, max_size=6), min_size=1, max_size=8))
def test_derive_seeds_equal_derive_seed_on_any_table(master_seed, keys):
    assert derive_seeds(master_seed, keys).tolist() == [derive_seed(master_seed, *row) for row in keys]


def assert_first_uniforms(seeds):
    expected = [spawn_rng(int(seed)).random() for seed in seeds]
    assert first_uniforms(seeds).tolist() == expected


def test_first_uniforms_below_two_to_the_32():
    assert_first_uniforms([0, 1, 2, 12345, 2**31, 2**32 - 1])


def test_first_uniforms_at_the_top_of_the_range():
    assert_first_uniforms([2**32, 2**63, 2**64 - 2, 2**64 - 1])


def test_first_uniforms_of_random_uint64():
    assert_first_uniforms(np.random.default_rng(8).integers(0, 2**64, size=300, dtype=np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
def test_first_uniforms_of_any_seeds(seeds):
    assert_first_uniforms(seeds)


def test_the_two_steps_chain_like_the_scalar_path():
    keys = key_table(6)
    seeds = [derive_seed(3, *row) for row in keys.tolist()]
    assert first_uniforms(derive_seeds(3, keys)).tolist() == [spawn_rng(s).random() for s in seeds]


def test_empty_input_gives_an_empty_array():
    assert derive_seeds(1, np.empty((0, 6), dtype=np.int64)).shape == (0,)
    assert derive_seeds(1, []).shape == (0,)
    assert first_uniforms([]).shape == (0,)
    assert first_uniforms(np.empty(0, dtype=np.uint64)).shape == (0,)


@pytest.mark.parametrize("master_seed, keys", [
    (-1, [[1, 2]]),
    (1, [[2**32, 0]]),
    (1, [[0, -1]]),
    (1, np.array([[0], [2**40]], dtype=np.int64)),
    (1, [[2**64]]),
])
def test_out_of_range_master_seed_or_key_raises(master_seed, keys):
    with pytest.raises(ValueError):
        derive_seeds(master_seed, keys)
