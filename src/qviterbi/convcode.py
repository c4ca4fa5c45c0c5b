"""Binary convolutional codes: shift-register encoder, trellis tables,
binary symmetric channel, and the mapping onto an Hmm over receive blocks.

State convention: the encoder state is the last m message blocks with the
newest block in the most significant position, so for the rate-1/2 (5,7)
code the move 00 --input 1--> 10 emits 11.  Output bit j of a step is the
GF(2) inner product of generator polynomial g[i][j] with the input history
of message bit i (mask bit t multiplies the block from t steps ago).

ConvCode.step is that definition bit by bit, one edge at a time; the cached
Trellis tables hold it for every edge at once, computed as array parities,
and are the one edge table every other layer reads: to_hmm, the trellis
class counts, trellis_decode and the circuits all take an edge's bit errors
against a received block from Trellis.branch_errors.  parse_blocks is the
one reading of a bit string as its blocks, and ConvCode.received_blocks the
one of a received word.  encode_rows and transmit_rows work on many words
at once, as integer arrays with a leading row axis; ConvCode.encode and
BscChannel.transmit are their one-row cases on bit strings.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import check_size, check_state
from .hmm import Hmm


def split_blocks(bits: str, size: int) -> list[str]:
    if len(bits) % size:
        raise ValueError(f"bit string length {len(bits)} not divisible by {size}")
    return [bits[i : i + size] for i in range(0, len(bits), size)]


def _check_bits(bits: str) -> None:
    if bits.strip("01"):  # what is left holds a character other than '0' and '1'
        raise ValueError("bit strings may only contain '0' and '1'")


def parse_blocks(bits: str, width: int) -> np.ndarray:
    """A bit string as the int64 array of its width-bit blocks, each read MSB first.

    A character other than '0' and '1', or a length that width does not
    divide, is refused with ValueError.
    """
    _check_bits(bits)
    return np.array([int(y, 2) for y in split_blocks(bits, width)], dtype=np.int64)


def pack_blocks(bits: np.ndarray, width: int) -> np.ndarray:
    """(..., N * width) 0/1 array -> (..., N) integers of width-bit blocks, MSB first."""
    return bits.reshape(*bits.shape[:-1], -1, width) @ (1 << np.arange(width - 1, -1, -1))


def unpack_blocks(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_blocks: (..., N) block integers -> (..., N * width) uint8 bits."""
    bits = (values[..., None] >> np.arange(width - 1, -1, -1)) & 1
    return bits.astype(np.uint8).reshape(*values.shape[:-1], -1)


class Trellis(NamedTuple):
    """The state diagram as read-only lookup tables, indexed [state, input].

    next_state and output hold each edge's successor and its n output bits
    as an integer (MSB first).
    """

    next_state: np.ndarray
    output: np.ndarray

    def branch_errors(self, blocks: np.ndarray) -> np.ndarray:
        """The bit errors of every edge against each n-bit block, packed as output is.

        Indexed [*blocks.shape, state, input]: the popcount of the edge's
        output XOR the block, the branch metric of every code-side layer.
        """
        return np.bitwise_count(self.output ^ blocks[..., None, None])


class _CodeFields(NamedTuple):
    k: int
    n: int
    m: int
    generators: tuple[tuple[int, ...], ...]


class ConvCode(_CodeFields):
    """An (n, k) binary convolutional code with memory depth m.

    generators is a k x n matrix of polynomial coefficient masks over GF(2);
    bit t of a mask is the coefficient of x^t (a delay of t message blocks).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 1 or self.n < 1 or self.m < 1:
            raise ValueError("k, n, m must all be positive")
        if self.n > 63:  # output blocks are int64 and frames pack into 64-bit words
            raise ValueError(f"n = {self.n} outputs exceeds the 63-output limit")
        if len(self.generators) != self.k or any(
            len(row) != self.n for row in self.generators
        ):
            raise ValueError("generator matrix must be k rows of n masks")
        degrees = []
        for row in self.generators:
            for mask in row:
                if mask < 0:
                    raise ValueError("generator masks must be non-negative")
                degrees.append(mask.bit_length() - 1)
        if max(degrees) != self.m:
            raise ValueError("no generator polynomial has degree exactly m")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)

    @classmethod
    def from_spec(cls, spec: str) -> "ConvCode":
        """Parse a "k,n,m;g11,g12,..." string with octal generator masks."""
        try:
            head, body = spec.split(";")
            k, n, m = (int(x) for x in head.split(","))
            masks = [int(x, 8) for x in body.split(",")]
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"malformed code spec {spec!r}") from exc
        if len(masks) != k * n:
            raise ValueError(f"expected {k * n} generator masks, got {len(masks)}")
        rows = tuple(tuple(masks[i * n : (i + 1) * n]) for i in range(k))
        return cls(k=k, n=n, m=m, generators=rows)

    def to_spec(self) -> str:
        flat = ",".join(f"{mask:o}" for row in self.generators for mask in row)
        return f"{self.k},{self.n},{self.m};{flat}"

    @property
    def state_bits(self) -> int:
        return self.k * self.m

    @property
    def num_states(self) -> int:
        return 1 << self.state_bits

    @property
    def fanout(self) -> int:
        return 1 << self.k

    def step(self, state: int, u: int) -> tuple[int, str]:
        """Advance one block: returns (next_state, output bits)."""
        kmask = (1 << self.k) - 1
        # history[t] is the message block from t steps ago (t=0 is the new input)
        history = [u & kmask] + [
            (state >> (self.k * (self.m - t))) & kmask for t in range(1, self.m + 1)
        ]
        out = []
        for j in range(self.n):
            bit = 0
            for i in range(self.k):
                mask = self.generators[i][j]
                for t in range(self.m + 1):
                    if (mask >> t) & 1:
                        bit ^= (history[t] >> (self.k - 1 - i)) & 1
            out.append("01"[bit])
        nxt = ((u & kmask) << (self.k * (self.m - 1))) | (state >> self.k)
        return nxt, "".join(out)

    def trellis(self) -> Trellis:
        """The state diagram as lookup tables, built once per code."""
        return _trellis(self)

    def encode(self, message: str, initial_state: int = 0) -> str:
        """Concatenated output blocks from walking the trellis on message blocks.

        The one-row case of encode_rows.
        """
        outputs = self.encode_rows(parse_blocks(message, self.k)[None], initial_state)[0]
        return "".join(format(y, f"0{self.n}b") for y in outputs.tolist())

    def received_blocks(self, received: str) -> np.ndarray:
        """The N >= 1 n-bit blocks of a received word (parse_blocks); an empty word is refused."""
        if not received:
            raise ValueError("received word is empty")
        return parse_blocks(received, self.n)

    def encode_rows(self, inputs: np.ndarray, initial_state: int = 0) -> np.ndarray:
        """Output blocks of many messages, read off the cached trellis tables.

        inputs has shape (rows, N) and holds each message's k-bit blocks as
        integers (MSB first); row r of the (rows, N) result holds the n-bit
        output blocks, as integers, of encoding row r from initial_state.
        The state before step t depends only on initial_state and the last
        m inputs.  Each round sets every state to the successor of the one
        before it, all steps at once, so after m rounds each state has been
        walked m steps, or from initial_state, and is exact however long
        the messages are.
        """
        initial_state = check_state(initial_state, self.num_states)
        table = self.trellis()
        states = np.full(inputs.shape, initial_state, dtype=np.int64)
        for _ in range(self.m):
            states[:, 1:] = table.next_state[states[:, :-1], inputs[:, :-1]]
        return table.output[states, inputs]

    def to_hmm(self, epsilon: float) -> Hmm:
        """Model of decode over a BSC(epsilon) channel.

        Transition rows put the uniform prior 2^-k on each legal edge so the
        branch weight depends on the received block only through its bit-error
        count, and the emission entry is bsc_weights(epsilon, n)[d] with d the
        bit-error count of the edge output against the received block.  The
        tables are read off the trellis and refused over SIZE_LIMIT cells.
        """
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie strictly inside (0, 0.5)")
        n = self.n
        check_size((self.num_states * self.fanout) << n,
                   f"{self.num_states} x {self.fanout} x 2^{n} Hmm entries")
        table = self.trellis()
        weights = bsc_weights(epsilon, n)
        errors = table.branch_errors(np.arange(1 << n))  # [block, state, input]
        return Hmm.from_tables(
            (format(v, f"0{n}b") for v in range(1 << n)),
            np.broadcast_to(table.next_state.astype(np.int32), errors.shape),
            {"trans": np.broadcast_to(1.0 / self.fanout, errors.shape),
             "emit": weights[errors], "errors": errors},
            edge_inputs={(s, nxt): u for s, row in enumerate(table.next_state.tolist())
                         for u, nxt in enumerate(row)},
            input_bits=self.k,
        )


@cache
def _trellis(code: ConvCode) -> Trellis:
    """ConvCode.step for every (state, input) at once.

    The register R = (u << k m) | state holds message bit i of the block
    from t steps ago at bit k (m - t) + k - 1 - i, so output bit j is the
    parity of R masked by generator column j's taps placed there.
    """
    check_size(code.num_states * code.fanout, f"{code.num_states} x {code.fanout} trellis edges")
    k, m = code.k, code.m
    state, u = np.ogrid[: code.num_states, : code.fanout]
    register = (u << (k * m)) | state
    output = np.zeros_like(register)
    for j in range(code.n):
        taps = sum(1 << (k * (m - t) + k - 1 - i)
                   for i in range(k) for t in range(m + 1) if (code.generators[i][j] >> t) & 1)
        output = (output << 1) | (np.bitwise_count(register & taps) & 1)
    table = Trellis(next_state=(u << (k * (m - 1))) | (state >> k), output=output)
    for array in table:
        array.flags.writeable = False  # shared by every caller of the cache
    return table


def check_epsilon(epsilon: float) -> None:
    """Refuse a crossover probability outside [0, 0.5) with ValueError."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")


def bsc_weights(epsilon: float, bits: int) -> np.ndarray:
    """epsilon^e (1-epsilon)^(bits-e) for e = 0..bits: the BSC law of every path weight.

    Entry e is the probability of receiving a given word at Hamming distance
    e from a sent word of `bits` bits.  to_hmm reads it with bits = n and
    the QVA decoders with bits = N n.
    """
    check_epsilon(epsilon)
    return np.array([(epsilon**e) * ((1.0 - epsilon) ** (bits - e)) for e in range(bits + 1)])


class BscChannel:
    """Memoryless binary symmetric channel with a private seeded generator.

    epsilon = 0 is allowed for noiseless campaigns; the useful decoding range
    is strictly inside (0, 0.5).  One channel instance serves one worker;
    clone with distinct seeds for parallel campaigns.
    """

    def __init__(self, epsilon: float, seed=0):
        check_epsilon(epsilon)
        self.epsilon = float(epsilon)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def transmit(self, codeword: str) -> tuple[str, int]:
        """Flip each bit independently with probability epsilon.

        The one-row case of transmit_rows.
        """
        _check_bits(codeword)
        # '0' and '1' differ in the low bit of their ASCII codes
        chars = np.frombuffer(codeword.encode("ascii"), dtype=np.uint8)
        uniforms = self._rng.random(len(chars))[None]
        received, flips = transmit_rows(chars[None], self.epsilon, uniforms)
        return received.tobytes().decode("ascii"), int(flips[0])

    def __repr__(self) -> str:
        return f"BscChannel(epsilon={self.epsilon}, seed={self.seed!r})"


def transmit_rows(
    codewords: np.ndarray, epsilon: float, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pass each row of a (rows, B) array of bits through a BSC(epsilon).

    Bit (r, i) flips (XORs 1 in) where uniforms[r, i], a draw from [0, 1),
    falls below epsilon.  Returns the received rows and each row's flip
    count.
    """
    flips = uniforms < epsilon
    return codewords ^ flips, flips.sum(axis=1)


# The rate-1/2 memory-2 code with octal generators (5, 7), used throughout
# the bundled experiments and as the CLI default.
CODE_5_7 = ConvCode(k=1, n=2, m=2, generators=((0b101, 0b111),))
