"""Seeded per-block draws of decode campaigns, computed as arrays.

Block b of a campaign draws from np.random.default_rng([seed, b, *stream]).
That generator's start state is a pure function of its key: NumPy's
SeedSequence hashes the key's 32-bit words into a 4-word pool and expands
the pool into four 64-bit words, from which PCG64 derives its 128-bit state
and increment.  seed_table runs the hash for many keys at once, one array
operation per step of the scalar algorithm.

PCG64 is a 128-bit LCG, s -> M*s + inc mod 2^128, whose 64-bit output is
the XSL-RR permutation of the new state (O'Neill 2014).  So the j-th state
of a stream is M^j*s + (1 + M + ... + M^(j-1))*inc, and draws computes the
outputs of every row of a seed table at once on uint64 arrays: each 128-bit
state is a (high, low) pair of words, and 64 x 64 -> 128-bit products come
from 32-bit limbs.  uniforms and bits are Generator.random and
Generator.integers(0, 2, n) on top of it.  The draws are exactly those of
default_rng, so campaign rows do not depend on how blocks are drawn.
"""
from __future__ import annotations

import math
import operator
from functools import cache
from typing import Sequence

import numpy as np

from .errors import SIZE_LIMIT, SizeLimitError

# SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
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


def _mul_wide(a, b):
    """(high, low) words of the 128-bit products a*b of uint64 arrays, broadcast."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    # neither sum can carry out of 64 bits: (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64
    upper = a1 * b0 + ((a0 * b0) >> 32)
    middle = a0 * b1 + (upper & _MASK32)
    return a1 * b1 + (upper >> 32) + (middle >> 32), a * b


def _mul(x, m):
    """x*m mod 2^128 on (high, low) word pairs."""
    high, low = _mul_wide(x[1], m[1])
    return high + x[0] * m[1] + x[1] * m[0], low


def _add(x, c):
    """x + c mod 2^128 on (high, low) word pairs."""
    low = x[1] + c[1]
    return x[0] + c[0] + (low < c[1]), low


def _words128(values) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 word arrays of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


@cache
def _jumps(width: int):
    """M^j and C_j = 1 + M + ... + M^(j-1) for j = 1..width, as (high, low) word arrays.

    State j of a stream that starts at s is M^j*s + C_j*inc.
    """
    powers, sums = [_PCG64_MULT], [1]
    for _ in range(width - 1):
        powers.append(powers[-1] * _PCG64_MULT & _MASK128)
        sums.append((sums[-1] * _PCG64_MULT + 1) & _MASK128)
    jumps = _words128(powers), _words128(sums)
    for words in (*jumps[0], *jumps[1]):
        words.flags.writeable = False  # shared by every caller of this width
    return jumps


def draws(table: np.ndarray, size: int) -> np.ndarray:
    """The first `size` 64-bit PCG64 outputs of each row of a seed table.

    Row r equals default_rng(key).bit_generator.random_raw(size) for the
    key of row r.  Each row jumps to its first block of width =
    ceil(sqrt(size)) states (one column per M^j, C_j), and each later block
    steps the one before by M^width plus the row's C_width*inc, so the
    first block costs two 128-bit products a cell and the others one.
    Returns a (rows, size) uint64 array; over SIZE_LIMIT draws a row are refused.
    """
    table = np.asarray(table, dtype=np.uint64)
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError("a seed table has shape (rows, 4)")
    if size < 1:
        raise ValueError("need at least one draw")
    if size > SIZE_LIMIT:
        raise SizeLimitError(f"{size} draws per row exceeds the {SIZE_LIMIT}-draw guard")
    width = math.isqrt(size - 1) + 1
    w0, w1, w2, w3 = (table[:, i : i + 1] for i in range(4))
    # PCG64 seeding: inc = 2*(w2*2^64 + w3) + 1, start (inc + s)*M + inc, s = w0*2^64 + w1
    inc = ((w2 << 1) | (w3 >> 63), (w3 << 1) | 1)
    start = _add(_mul(_add((w0, w1), inc), _words128([_PCG64_MULT])), inc)
    powers, sums = _jumps(width)
    last = slice(width - 1, width)
    stride = (powers[0][last], powers[1][last])
    carry = _mul(inc, (sums[0][last], sums[1][last]))
    states = _add(_mul(start, powers), _mul(inc, sums))
    out = np.empty((len(table), -(-size // width), width), dtype=np.uint64)
    for b in range(out.shape[1]):
        if b:
            states = _add(_mul(states, stride), carry)
        high, low = states
        xored, rot = high ^ low, high >> 58
        out[:, b] = (xored >> rot) | (xored << ((64 - rot) & 63))
    return out.reshape(len(table), out.shape[1] * width)[:, :size]


def uniforms(table: np.ndarray, size: int) -> np.ndarray:
    """Generator.random(size) of each row's stream: (x >> 11) * 2^-53, shape (rows, size)."""
    raw = draws(table, size)
    raw >>= 11
    return raw * 2.0**-53


def bits(table: np.ndarray, size: int) -> np.ndarray:
    """Generator.integers(0, 2, size) of each row's stream, as a (rows, size) uint8 array.

    Generator.integers takes a bounded 32-bit value from each half of an
    output, low half first, and for the range {0, 1} that value is bit 31
    of the half (Lemire's method never rejects for two outcomes).
    """
    raw = draws(table, (size + 1) // 2)
    out = np.empty((len(raw), 2 * raw.shape[1]), dtype=np.uint8)
    out[:, 0::2] = (raw >> 31) & 1
    out[:, 1::2] = raw >> 63
    return out[:, :size]
