"""Binary convolutional codes: shift-register encoder, state diagram,
binary symmetric channel, and the mapping onto an Hmm over receive blocks.

State convention: the encoder state is the last m message blocks with the
newest block in the most significant position, so for the rate-1/2 (5,7)
code the move 00 --input 1--> 10 emits 11.  Output bit j of a step is the
GF(2) inner product of generator polynomial g[i][j] with the input history
of message bit i (mask bit t multiplies the block from t steps ago).

ConvCode.step is that definition bit by bit and builds the state diagram;
per-block work (encode, path-space build, circuits) reads the cached Trellis
tables derived from the diagram instead.  encode_rows and transmit_rows work
on many words at once, as integer arrays with a leading row axis;
ConvCode.encode and BscChannel.transmit are their one-row cases on bit
strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, NamedTuple

import numpy as np

from .hmm import Hmm


def hamming(a: str, b: str) -> int:
    """Hamming distance between equal-length bit strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def split_blocks(bits: str, size: int) -> list[str]:
    if len(bits) % size:
        raise ValueError(f"bit string length {len(bits)} not divisible by {size}")
    return [bits[i : i + size] for i in range(0, len(bits), size)]


def _check_bits(bits: str) -> None:
    if set(bits) - {"0", "1"}:
        raise ValueError("bit strings may only contain '0' and '1'")


def pack_blocks(bits: np.ndarray, width: int) -> np.ndarray:
    """(..., N * width) 0/1 array -> (..., N) integers of width-bit blocks, MSB first."""
    return bits.reshape(*bits.shape[:-1], -1, width) @ (1 << np.arange(width - 1, -1, -1))


def unpack_blocks(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_blocks: (..., N) block integers -> (..., N * width) uint8 bits."""
    bits = (values[..., None] >> np.arange(width - 1, -1, -1)) & 1
    return bits.astype(np.uint8).reshape(*values.shape[:-1], -1)


@dataclass(frozen=True)
class Transition:
    """One labeled edge of the state diagram: from --input/output--> to."""

    from_state: int
    input: int
    to_state: int
    output: str


class Trellis(NamedTuple):
    """The state diagram as read-only lookup tables, indexed [state, input].

    next_state and output hold each edge's successor and its n output bits
    as an integer (MSB first); dist[s, u, y] is the Hamming distance between
    the output of edge (s, u) and the n-bit received block whose value, read
    MSB first, is y, so dist has shape (num_states, fanout, 2^n).
    """

    next_state: np.ndarray
    output: np.ndarray
    dist: np.ndarray


def error_count(t: Transition, received_block: str) -> int:
    """Bit errors the channel must have caused if edge t produced received_block."""
    _check_bits(received_block)
    return hamming(t.output, received_block)


@dataclass(frozen=True)
class ConvCode:
    """An (n, k) binary convolutional code with memory depth m.

    generators is a k x n matrix of polynomial coefficient masks over GF(2);
    bit t of a mask is the coefficient of x^t (a delay of t message blocks).
    """

    k: int
    n: int
    m: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.m < 1:
            raise ValueError("k, n, m must all be positive")
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
        if any(d > self.m for d in degrees):
            raise ValueError("generator polynomial degree exceeds memory depth")

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

    def state_diagram(self) -> tuple[Transition, ...]:
        """All num_states * 2^k labeled edges, ordered by (state, input)."""
        return _diagram(self)

    def trellis(self) -> Trellis:
        """The state diagram as lookup tables, built once per code."""
        return _trellis(self)

    def encode(self, message: str, initial_state: int = 0) -> str:
        """Concatenated output blocks from walking the trellis on message blocks.

        The one-row case of encode_rows.
        """
        _check_bits(message)
        if len(message) % self.k:
            raise ValueError(f"message length {len(message)} not divisible by k={self.k}")
        inputs = np.array([[int(u, 2) for u in split_blocks(message, self.k)]], dtype=np.int64)
        outputs = self.encode_rows(inputs, initial_state)[0]
        return "".join(format(y, f"0{self.n}b") for y in outputs.tolist())

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
        if not 0 <= initial_state < self.num_states:
            raise ValueError("initial state out of range")
        table = self.trellis()
        states = np.full(inputs.shape, initial_state, dtype=np.int64)
        for _ in range(self.m):
            states[:, 1:] = table.next_state[states[:, :-1], inputs[:, :-1]]
        return table.output[states, inputs]

    def to_hmm(self, epsilon: float) -> Hmm:
        """Model of decode over a BSC(epsilon) channel.

        Transition rows put the uniform prior 2^-k on each legal edge so the
        branch weight depends on the received block only through its bit-error
        count, and the emission entry is epsilon^d (1-epsilon)^(n-d) with d the
        Hamming distance between the edge output and the received block.
        """
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie strictly inside (0, 0.5)")
        emissions = tuple(format(v, f"0{self.n}b") for v in range(1 << self.n))
        prior = 1.0 / self.fanout
        trans: dict = {}
        emit: dict = {}
        branch_errors: dict = {}
        edge_inputs: dict = {}
        for t in self.state_diagram():
            edge_inputs[(t.from_state, t.to_state)] = t.input
            for y in emissions:
                d = hamming(t.output, y)
                key = (t.from_state, t.to_state, y)
                trans[key] = prior
                emit[key] = (epsilon**d) * ((1.0 - epsilon) ** (self.n - d))
                branch_errors[key] = d
        return Hmm(
            num_states=self.num_states,
            emissions=emissions,
            trans=trans,
            emit=emit,
            branch_errors=branch_errors,
            edge_inputs=edge_inputs,
            input_bits=self.k,
        )


@cache
def _diagram(code: ConvCode) -> tuple[Transition, ...]:
    edges = []
    for state in range(code.num_states):
        for u in range(code.fanout):
            nxt, out = code.step(state, u)
            edges.append(Transition(state, u, nxt, out))
    return tuple(edges)


@cache
def _trellis(code: ConvCode) -> Trellis:
    diagram = code.state_diagram()
    shape = (code.num_states, code.fanout)
    blocks = [format(y, f"0{code.n}b") for y in range(1 << code.n)]
    table = Trellis(
        next_state=np.array([t.to_state for t in diagram], dtype=np.int64).reshape(shape),
        output=np.array([int(t.output, 2) for t in diagram], dtype=np.int64).reshape(shape),
        dist=np.array(
            [[hamming(t.output, y) for y in blocks] for t in diagram], dtype=np.int64
        ).reshape(*shape, len(blocks)),
    )
    for array in table:
        array.flags.writeable = False  # shared by every caller of the cache
    return table


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")


class BscChannel:
    """Memoryless binary symmetric channel with a private seeded generator.

    epsilon = 0 is allowed for noiseless campaigns; the useful decoding range
    is strictly inside (0, 0.5).  One channel instance serves one worker;
    clone with distinct seeds for parallel campaigns.
    """

    def __init__(self, epsilon: float, seed=0):
        _check_epsilon(epsilon)
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
        received, flips = transmit_rows(chars[None], self.epsilon, [self._rng])
        return received.tobytes().decode("ascii"), int(flips[0])

    def __repr__(self) -> str:
        return f"BscChannel(epsilon={self.epsilon}, seed={self.seed!r})"


def transmit_rows(
    codewords: np.ndarray, epsilon: float, generators: Iterable[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Pass each row of a (rows, B) array of bits through a BSC(epsilon).

    Row r flips (XORs 1 into) the bits where the r-th generator's random(B)
    falls below epsilon.  Returns the received rows and each row's flip
    count.
    """
    flips = np.empty(codewords.shape, dtype=bool)
    for row, gen in zip(flips, generators):
        np.less(gen.random(codewords.shape[1]), epsilon, out=row)
    return codewords ^ flips, flips.sum(axis=1)


# The rate-1/2 memory-2 code with octal generators (5, 7), used throughout
# the bundled experiments and as the CLI default.
CODE_5_7 = ConvCode(k=1, n=2, m=2, generators=((0b101, 0b111),))
