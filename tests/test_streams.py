"""The seed table against NumPy's own seeding of default_rng."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi.streams import generators, seed_table

# one, two and three 32-bit entropy words, so keys cross the 4-word pool
key_values = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 7]) | st.integers(0, 2**70)
block_indices = st.sampled_from([0, 1, 2**32 - 1, 2**32]) | st.integers(0, 2**40)


@settings(max_examples=100, deadline=None)
@given(
    key_values,
    st.lists(block_indices, min_size=1, max_size=6),
    st.lists(st.integers(0, 2**33), min_size=1, max_size=2),
    st.integers(0, 40),
)
def test_seed_table_matches_default_rng(seed, blocks, stream, n):
    table = seed_table([seed], blocks, stream)
    assert table.shape == (len(blocks), 4) and table.dtype == np.uint64
    gen = np.random.Generator(np.random.PCG64())
    for block, row, loaded in zip(blocks, table, generators(table, gen)):
        key = [seed, block, *stream]
        assert np.array_equal(row, np.random.SeedSequence(key).generate_state(4, np.uint64))
        reference = np.random.default_rng(key)
        assert loaded.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(loaded.random(n), reference.random(n))
        assert np.array_equal(loaded.integers(0, 2, n), reference.integers(0, 2, n))


@pytest.mark.parametrize(
    "prefix, blocks", [([-1], [0]), ([1], [-1]), ([1], [[0]]), ([1], [0.5])]
)
def test_seed_table_rejects_negative_or_non_integer_keys(prefix, blocks):
    with pytest.raises(ValueError):
        seed_table(prefix, blocks)
