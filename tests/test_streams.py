"""The seed table and the array draws against NumPy's own default_rng."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qviterbi.errors import SIZE_LIMIT, SizeLimitError
from qviterbi.streams import bits, draws, seed_table, uniforms

# one, two and three 32-bit entropy words, so keys cross the 4-word pool
key_values = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 7]) | st.integers(0, 2**70)
block_indices = st.sampled_from([0, 1, 2**32 - 1, 2**32]) | st.integers(0, 2**40)
# draws steps in blocks of ceil(sqrt(size)) states: sizes at and around w^2
draw_sizes = st.sampled_from([1, 2, 3, 4, 5, 15, 16, 17, 224, 225, 226, 289]) | st.integers(1, 300)


@settings(max_examples=100, deadline=None)
@given(
    key_values,
    st.lists(block_indices, min_size=1, max_size=6),
    st.lists(st.integers(0, 2**33), min_size=1, max_size=2),
)
def test_seed_table_matches_default_rng(seed, blocks, stream):
    table = seed_table([seed], blocks, stream)
    assert table.shape == (len(blocks), 4) and table.dtype == np.uint64
    for block, row in zip(blocks, table):
        key = [seed, block, *stream]
        assert np.array_equal(row, np.random.SeedSequence(key).generate_state(4, np.uint64))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(key_values, min_size=1, max_size=3),
    st.lists(block_indices, min_size=1, max_size=4),
    st.lists(key_values, max_size=3),
    draw_sizes,
)
@example([7], [0, 2**32 + 5], [2], 220)  # a probabilistic-qva block's shots at N = 10
@example([3], [0, 1, 39], [0], 8)  # a k = 2 message of four blocks
@example([3], [2**40], [2, 1], 9)
def test_draws_match_default_rng(prefix, blocks, suffix, size):
    table = seed_table(prefix, blocks, suffix)
    raw, u, b = draws(table, size), uniforms(table, size), bits(table, size)
    assert raw.shape == u.shape == b.shape == (len(blocks), size)
    assert (raw.dtype, u.dtype, b.dtype) == (np.uint64, np.float64, np.uint8)
    for r, block in enumerate(blocks):
        key = [*prefix, block, *suffix]
        assert np.array_equal(raw[r], np.random.default_rng(key).bit_generator.random_raw(size))
        assert np.array_equal(u[r], np.random.default_rng(key).random(size))
        assert np.array_equal(b[r], np.random.default_rng(key).integers(0, 2, size))


@pytest.mark.parametrize(
    "table, size", [(np.zeros((2, 3), np.uint64), 4), (np.zeros((2, 4), np.uint64), 0)]
)
def test_draws_reject_bad_tables_and_sizes(table, size):
    with pytest.raises(ValueError):
        draws(table, size)


def test_draws_refuse_more_than_the_size_bound():
    # refused before anything is allocated; the size is checked, not the table
    with pytest.raises(SizeLimitError):
        draws(np.zeros((1, 4), np.uint64), SIZE_LIMIT + 1)


@pytest.mark.parametrize(
    "prefix, blocks", [([-1], [0]), ([1], [-1]), ([1], [[0]]), ([1], [0.5])]
)
def test_seed_table_rejects_negative_or_non_integer_keys(prefix, blocks):
    with pytest.raises(ValueError):
        seed_table(prefix, blocks)
