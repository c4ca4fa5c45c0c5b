"""Seeded per-block generators of decode campaigns, derived as arrays.

Block b of a campaign draws from np.random.default_rng([seed, b, *stream]).
That generator's start state is a pure function of its key: NumPy's
SeedSequence hashes the key's 32-bit words into a 4-word pool and expands
the pool into four 64-bit words, from which PCG64 derives its 128-bit state
and increment.  seed_table runs the hash for many keys at once, one array
operation per step of the scalar algorithm, and generators loads each row
into one reused Generator.  The streams are exactly those of default_rng,
so campaign rows do not depend on how blocks are drawn.
"""
from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

# SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(values: Sequence[int]) -> list[int]:
    """The 32-bit entropy words of a key part, least significant first per value."""
    words = []
    for x in values:
        x = operator.index(x)
        if x < 0:
            raise ValueError("seed keys must be non-negative integers")
        words.append(x & _MASK32)
        while x := x >> 32:
            words.append(x & _MASK32)
    return words


def seed_table(prefix: Sequence[int], blocks, suffix: Sequence[int] = ()) -> np.ndarray:
    """Row r is SeedSequence([*prefix, blocks[r], *suffix]).generate_state(4, np.uint64).

    prefix and suffix hold non-negative integers; blocks is a 1-D int64 or
    uint64 array (or a sequence NumPy turns into one) of non-negative
    integers.  A block takes one 32-bit entropy word below 2^32 and two from
    there on, so rows are grouped by word count, and each group is
    hashed column by column with uint32 arithmetic; words beyond the pool
    size go through SeedSequence's tail loop.  Returns a (len(blocks), 4)
    uint64 array.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 1 or blocks.dtype.kind not in "iu" or np.any(blocks < 0):
        raise ValueError("blocks must be a 1-D array of non-negative integers")
    blocks = blocks.astype(np.uint64)
    head, tail = np.array(_words(prefix), np.uint32), np.array(_words(suffix), np.uint32)
    low, high = (blocks & _MASK32).astype(np.uint32), (blocks >> 32).astype(np.uint32)
    wide = high > 0
    table = np.empty((len(blocks), 4), dtype=np.uint64)
    for rows, columns in ((~wide, [low]), (wide, [low, high])):
        count = int(rows.sum())
        if count:
            table[rows] = _hash_rows(np.concatenate([
                np.broadcast_to(head, (count, len(head))),
                np.stack([c[rows] for c in columns], axis=1),
                np.broadcast_to(tail, (count, len(tail))),
            ], axis=1))
    return table


def _hash_rows(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mix_entropy and generate_state on rows of equal width.

    The hash constants evolve independently of the data, so they are Python
    ints; uint32 array arithmetic wraps modulo 2^32 as the C code does.
    """
    rows, width = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    state = np.empty((rows, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    # word pairs are little-endian: the first uint32 is the low half
    return state[:, 0::2].astype(np.uint64) | (state[:, 1::2].astype(np.uint64) << 32)


def generators(table: np.ndarray, gen: np.random.Generator) -> Iterator[np.random.Generator]:
    """gen loaded in turn with each row of a seed table.

    After loading row r, gen draws what PCG64 seeded from the SeedSequence
    of that row draws: state = ((inc + s) * M + inc) mod 2^128 with
    s = w0 * 2^64 + w1, inc = 2 * (w2 * 2^64 + w3) + 1 and M the PCG64
    multiplier, and no buffered 32-bit half.  Consume each yielded
    generator before taking the next.
    """
    bit_generator = gen.bit_generator
    for w0, w1, w2, w3 in table.tolist():
        inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
        state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
