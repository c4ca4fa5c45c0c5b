"""Path-space statevector simulation of amplitude-amplified trellis search.

The simulation lives on the L = F^N admissible paths rather than the full
register Hilbert space: the marking and diffusion operators act as the
identity off that subspace, and paths are indexed by their message bits.

One amplification iteration is a phase-marking pass (each path amplitude is
multiplied by exp(i * omega * bit_error_count)) followed by inversion about
the mean restricted to the admissible subspace.

Both steps treat paths with equal exponents alike: the marking phase
depends only on the exponent, and the diffusion on no path label.  So from
the uniform start each error class keeps one common amplitude, and run_qva
and sweep_omega amplify one amplitude per class (C <= N*n + 1 for a code)
with the mean weighted by class sizes.  A code-backed space holds only its
frame and reads its classes, and its viterbi_index, off the trellis
(trellis_classes), which needs no path vector, so its cost does not follow
the L paths; its error vector is computed only when something reads it.
The class view records the class of the Viterbi path
(ClassView.viterbi_class), the class whose probability run_qva and
sweep_omega report; run_qva keeps the class amplitudes, and its result
spreads them onto the paths only when its statevector is read, with one
gather over the error counts (PathSpace.per_path) under the size guard of
that read.  The per-path operators below are the dense reference the
class engine is tested against.  Two kernels run the mark+diffuse
rounds.  _amplify steps them one at a time for sweep grids, golden-section
objectives, per-row campaigns and resumes; it picks its class-mean
reduction once per call and can continue an earlier call's state, so a
sweep at more iterations resumes the grid of one at fewer (sweep_omega's
resume).  _power, run_qva's kernel, merges the classes of equal phase and
raises the C' x C' round matrix to the k-th power by repeated squaring,
where a measured rule on C' and k says that costs less than stepping
(SQUARING_ROUNDS); _amplify is its oracle.  A sweep grid's phases
exp(i * omega * v) are computed once per grid step and exponent value v
(_grid_phases): the sweeps of one step, over frames whose exponent values
nest, read their columns from one store, which keeps the latest step that
fits PHASE_CELLS phases.

HMM-backed spaces come from viterbi.enumerate_paths, the enumeration that
also serves brute_force_decode and path_metric_multiset, in one pass that
carries both the neg-log and the bit-error totals; they group their
exponents with np.unique, and viterbi_index picks their optimum by
viterbi.first_optimum, the co-optimality rule of every decoder.

Path i of a code frame is driven by the k*N bits of i, first block most
significant.  input_blocks is the one reader of that rule on index arrays,
and code_walk its one-path case, giving a path's message bits and state
walk: PathSpace.path and .message, adaptive_decode, the unit messages of
_frame_layout and the decode campaigns of the CLI read these two.

A code path's error count is the Hamming distance from the received word
to its codeword.  The codes are linear over GF(2), so XOR doubling over the
message bits (_xor_doubling) fills y XOR the packed codewords of all F^N
messages from the packed received word y, and path_error_rows popcounts
them in place, one (rows, L) matrix; codeword_table is the doubling from
y = 0, which path_error_groups builds once and shares between its chunks.
Decode campaigns add this leading block axis: path_error_groups keeps each
received word's path errors, computed once, in row groups of at most
SIZE_LIMIT cells; adaptive_decode_rows amplifies every pending row at once
on the class axis e = 0..N*n with per-row class counts, and sample_modes,
the one measurement pass of both QVA decode modes, reads those errors,
draws the shot uniforms of many rows at once (streams.uniforms) and
samples every row of a chunk of viterbi.CHUNK_CELLS path cells from one
CDF matrix, each row searched in its own CDF as Generator.choice searches,
its uniforms in ascending order (sample_rows).  build_path_space,
adaptive_decode and measure are their one-row cases.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cache, cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

from . import streams, viterbi
from .convcode import ConvCode, bsc_weights
from .errors import SIZE_LIMIT, DecodeFailure, SizeLimitError, check_paths, check_size, check_state
from .hmm import Hmm
from .viterbi import enumerate_paths

PHASE_MODES = ("errors", "neglog")

# sample_modes draws the shot uniforms of this many (row, shot) cells at a
# time: streams.draws costs a few array passes per block of a row's stream,
# so small groups pay that overhead many times over
SHOT_CELLS = 8 * viterbi.CHUNK_CELLS

# The peak of prob_top(omega) is about 0.3 / iterations wide at half maximum,
# so sweep_omega's grid step is at most PEAK_STEP / iterations.  Up to 51
# iterations (N <= 12 for a rate-1/k code) the 0.005 sweep grid stays finer,
# and up to 26 (N <= 10) default_schedule's 0.01 grid, SCHEDULE_GRID, does.
PEAK_STEP = 0.27
SCHEDULE_GRID = 0.01

# sweep_omega refuses grids of more (point, class, iteration) amplitude
# updates: `sweep --n-steps 20` makes about 2.5e8 (1.7 s on a 2-vCPU host),
# so the bound is about half a minute of sweeping
SWEEP_WORK_LIMIT = 1 << 32

# run_qva's rounds go by repeated squaring (_power) from SQUARING_ROUNDS rounds
# on at most SQUARING_CLASSES classes of distinct phase.  With one BLAS thread
# on a 2-vCPU host, squaring first beat stepping (~1.6 us of call overhead a
# round) at k ~ 32 for C' <= 24, ~48 for C' = 32 and ~64 for C' = 40 (then
# ~200 for C' = 64 and ~1500 for C' = 128).  Over 40 classes OpenBLAS may
# split the product over threads: unpinned, a 44 x 44 one took 16 ms there,
# 20 us pinned.
SQUARING_ROUNDS = 64
SQUARING_CLASSES = 40

# _grid_phases keeps the sweep grid phases of one grid step, one column per
# exponent value, up to PHASE_CELLS phases (16 MB) in all.  Its one entry is
# replaced whole, never changed in place, so a reader gets a matching pair.
PHASE_CELLS = 1 << 20
_phases: dict = {}  # {step: ({exponent value: column}, read-only (points, K) table)}


class ClassView(NamedTuple):
    """The distinct exponents of a path space, in order of first path index.

    counts[c] paths carry exponent values[c] and first[c] is the smallest of
    their indices.  viterbi_class is the class that holds the space's
    viterbi_index, the class whose probability run_qva and sweep_omega
    report.  The view holds per-class arrays only; PathSpace.per_path puts
    a per-class array on the paths.
    """

    values: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    viterbi_class: int


class PathSpace:
    """Ordered admissible paths with their per-path phase exponents.

    A code-backed space holds only its frame: the code, the received word's
    n-bit blocks and the start state.  Its paths are indexed by their
    message bits read as an integer, L = F^N is a Python int, state
    sequences are reconstructed on demand, and errors, the paths' integer
    bit-error counts, is computed on its first read (path_error_rows, which
    refuses over SIZE_LIMIT paths); classes and viterbi_index never read
    it.  HMM-backed spaces keep their model and the enumeration's level
    table (viterbi.Paths), and read paths off it.  Every other space is
    given its exponents: errors, and weights, the negative log path
    probabilities (general HMM mode).
    """

    def __init__(
        self,
        n_steps: int,
        errors: np.ndarray | None,
        weights: np.ndarray | None,
        *,
        code: ConvCode | None = None,
        blocks: np.ndarray | None = None,
        initial_state: int = 0,
        paths: viterbi.Paths | None = None,
        hmm: Hmm | None = None,
    ):
        self.n_steps = n_steps
        self._errors = errors
        self.weights = weights
        self.code = code
        self.blocks = blocks
        self.initial_state = initial_state
        self._paths = paths
        self._hmm = hmm
        ref = errors if errors is not None else weights
        self.L = len(ref) if code is None else code.fanout**n_steps
        # per phase mode: the class view, the key->class rank, and the per-path
        # keys (None on the trellis route, whose keys are the errors)
        self._classes: dict[str, tuple[ClassView, np.ndarray, np.ndarray | None]] = {}

    @property
    def errors(self) -> np.ndarray | None:
        """The paths' bit-error counts; a code-backed space computes them on the first read.

        That read is the one-row case of path_error_rows, and every later
        one returns the same array.
        """
        if self._errors is None and self.code is not None:
            self._errors = path_error_rows(self.code, self.blocks[None], self.initial_state)[0]
        return self._errors

    def exponents(self, phase_mode: str = "errors") -> np.ndarray:
        if phase_mode == "errors":
            if self.errors is None:
                raise ValueError("this path space carries no integer error counts")
            return self.errors
        if phase_mode == "neglog":
            if self.weights is None:
                raise ValueError("this path space carries no log-probability weights")
            if not np.all(np.isfinite(self.weights)):
                raise ValueError("a zero-probability path has no neglog phase")
            return self.weights
        raise ValueError(f"unknown phase mode {phase_mode!r}")

    def classes(self, phase_mode: str = "errors") -> ClassView:
        """Paths grouped by exponent, cached per phase mode.

        Classes are ordered by their first path index, so an argmax over
        classes picks the class that holds the first maximal path.  A
        code-backed space reads its error classes off the trellis
        (trellis_classes), without reading its errors, and its Viterbi
        path's class is the lowest-error one; any other space factorises its
        exponents with np.unique and finds that class at its viterbi_index.
        Beside the view, rank maps a path's key (an error count, or the
        sorted rank of its exponent) to its class, for per_path.
        """
        if phase_mode not in self._classes:
            if self.code is not None and phase_mode == "errors":
                values, counts, first = trellis_classes(self.code, self.blocks, self.initial_state)
                slots, size, keys = values, self.n_steps * self.code.n + 1, None
            else:
                values, first, keys, counts = np.unique(
                    self.exponents(phase_mode), return_index=True, return_inverse=True,
                    return_counts=True,
                )
                slots = np.argsort(first)
                values, counts, first, size = values[slots], counts[slots], first[slots], len(slots)
            rank = np.zeros(size, dtype=np.intp)
            rank[slots] = np.arange(len(slots))
            top = values.argmin() if keys is None else rank[keys[self.viterbi_index]]
            self._classes[phase_mode] = ClassView(values, counts, first, int(top)), rank, keys
        return self._classes[phase_mode][0]

    def per_path(self, per_class: np.ndarray, phase_mode: str = "errors") -> np.ndarray:
        """per_class[c] on every path of class c of classes(phase_mode): one gather over L.

        per_class[rank] puts the classes on the keys, and the paths' keys
        gather it: a code-backed space's errors, read here, or the sorted
        ranks of any other space's exponents.
        """
        self.classes(phase_mode)
        _, rank, keys = self._classes[phase_mode]
        return per_class[rank][self.errors if keys is None else keys]

    @cached_property
    def viterbi_index(self) -> int:
        """Index of the most probable path, the first of the co-optimal ones.

        A code-backed space takes the first path of the class its class view
        records as the Viterbi path's, with no pass over its L paths; any
        other picks it by viterbi.first_optimum, the co-optimality rule of
        every decoder.
        """
        if self.code is not None:
            view = self.classes()
            return int(view.first[view.viterbi_class])
        return viterbi.first_optimum(self.errors if self.errors is not None else self.weights)[0]

    def path(self, index: int) -> tuple[int, ...]:
        """State sequence of path `index`, including the start state."""
        return self._walk(index)[1]

    def message(self, index: int) -> str | None:
        """Message bits driving path `index`; IndexError outside [0, L).

        A code-backed space's path order is message order, so they are the
        bits of the index (code_walk); an HMM-backed space reads them off
        its model's edge inputs (Hmm.message), None where it has none.
        """
        return self._walk(index)[0]

    def _walk(self, index: int) -> tuple[str | None, tuple[int, ...]]:
        """(message, path) of path `index`."""
        if not 0 <= index < self.L:
            raise IndexError("path index out of range")
        if self._paths is not None:
            path = tuple(self._paths.rows([index])[0].tolist())
            return self._hmm.message(path), path
        if self.code is None:
            raise ValueError("this path space carries no paths")
        return code_walk(self.code, self.n_steps, index, self.initial_state)

    def exponent_multiset(self) -> Counter:
        view = self.classes("errors")
        return Counter(dict(zip(view.values.tolist(), view.counts.tolist())))


def input_blocks(code: ConvCode, n_steps: int, indices: np.ndarray) -> np.ndarray:
    """The N k-bit input blocks driving each code-path index, shape (..., N).

    This is the one reader of code-path indices: path i of an N-step frame
    is driven by the k*N bits of i, first block most significant.
    """
    back = code.k * np.arange(n_steps - 1, -1, -1)
    return (indices[..., None] >> back) & (code.fanout - 1)


def code_walk(
    code: ConvCode, n_steps: int, index: int, initial_state: int = 0
) -> tuple[str, tuple[int, ...]]:
    """Message bits of code path `index` and its state walk from initial_state.

    The one-path case of input_blocks, as Python ints: the bits of index,
    and the states its blocks drive, start state included.
    """
    k, successors = code.k, _successors(code)
    mask, walk = (1 << k) - 1, [initial_state]
    for shift in range(k * (n_steps - 1), -1, -k):
        walk.append(successors[walk[-1]][(index >> shift) & mask])
    return format(index, "b").zfill(k * n_steps), tuple(walk)


@cache
def _successors(code: ConvCode) -> tuple[tuple[int, ...], ...]:
    """Trellis.next_state as Python ints, [state][input], for walks one edge at a time."""
    return tuple(map(tuple, code.trellis().next_state.tolist()))


def build_path_space(code: ConvCode, received: str, initial_state: int = 0) -> PathSpace:
    """The path space of a received word: its code, n-bit blocks and start state.

    Path i is the one driven by the k*N message bits of i (most significant
    block first) starting from initial_state.  Nothing of F^N entries is
    built here: the errors are read on demand, and the classes off the
    trellis, whose int64 class counts are exact while k*N <= 62, so a
    longer frame raises SizeLimitError.
    """
    initial_state = check_state(initial_state, code.num_states)
    blocks = code.received_blocks(received)
    if code.k * len(blocks) > 62:
        raise SizeLimitError(f"{code.fanout}^{len(blocks)} paths exceeds the class count bound")
    return PathSpace(len(blocks), None, None, code=code, blocks=blocks, initial_state=initial_state)


def trellis_classes(
    code: ConvCode, blocks: np.ndarray, initial_state: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The error classes (values, counts, first) of a code frame, read off its trellis alone.

    blocks holds the N received n-bit blocks as integers; no path-error
    vector is read or built, so the cost does not follow the F^N paths.
    The class arrays are those of ClassView: values[c] errors on counts[c]
    paths, the first of them path first[c].  The bit errors of
    every edge at every step are one Trellis.branch_errors call.  One
    backward pass over the trellis then gives, for each state s before each
    step, the paths from s to the end grouped by error total, the weight
    enumerator of that trellis section (Viterbi 1971):
    - counts[s] packs the number of paths with e errors into bits W*e up to
      W*(e + 1) of one Python int, W = k*N + 1 bits holding up to F^N, so an
      edge with b errors adds its successor's int shifted by W*b;
    - reach[s] has bit e set where that number is not zero.
    The class counts are read off counts[initial_state] before step 0, as
    int64 (exact while k*N < 63).  One descent from the start state then
    walks the message tree in path order carrying the set of totals still to
    place: each node hands every total to its first branch whose successor
    can reach the rest of it, so totals whose first paths share a prefix
    descend it together, and the leaves come out in ascending path index,
    each the first path of its class, as top_index's first-maximum rule
    needs.  The cost is O(N*S*F) integer steps plus one node per distinct
    prefix of the first paths.
    """
    table = code.trellis()
    n_steps, states, fanout = len(blocks), code.num_states, code.fanout
    width = code.k * n_steps + 1
    successors = _successors(code)
    errs = table.branch_errors(blocks).tolist()  # [t][s][u]
    counts, reach = [1] * states, [1] * states
    reaches = [reach]
    for row in reversed(errs):
        next_counts, next_reach = [], []
        for succ, bits in zip(successors, row):
            c = r = 0
            for s, b in zip(succ, bits):
                c += counts[s] << width * b
                r |= reach[s] << b
            next_counts.append(c)
            next_reach.append(r)
        counts, reach = next_counts, next_reach
        reaches.append(reach)
    reaches.reverse()  # reaches[t][s]: the totals from state s before step t

    values, first = [], []
    # (step, state, errors so far, index so far, totals left for the suffix, first branch to try)
    stack = [(0, initial_state, 0, 0, reaches[0][initial_state], 0)]
    while stack:
        t, s, total, index, left, u = stack.pop()
        while t < n_steps:
            succ, bits, ahead = successors[s], errs[t][s], reaches[t + 1]
            while not (taken := (left >> bits[u]) & ahead[succ[u]]):
                u += 1
            b = bits[u]
            if taken << b != left:  # the other totals try the later branches afterwards
                stack.append((t, s, total, index, left ^ taken << b, u + 1))
            t += 1
            s = succ[u]
            total += b
            index = index * fanout + u
            left = taken
            u = 0
        values.append(total)
        first.append(index)

    start, mask = counts[initial_state], (1 << width) - 1
    class_counts = [(start >> width * e) & mask for e in values]
    return (np.array(values, dtype=np.int64), np.array(class_counts, dtype=np.int64),
            np.array(first, dtype=np.intp))


def codeword_table(code: ConvCode, n_steps: int) -> np.ndarray:
    """Packed codewords of all F^N messages from state 0, shape (W, F^N) uint64.

    The code is linear over GF(2), so the codeword of message i is the XOR
    of the codewords of its set bits: the zero-start case of _xor_doubling,
    in F^N XORs per word.  Column i is message i in path order, in the word
    layout of _frame_layout.
    """
    unit_words = _frame_layout(code, n_steps)[1]
    words = np.empty((unit_words.shape[1], 1 << len(unit_words)), dtype=np.uint64)
    return _xor_doubling(words, 0, unit_words[:, :, None])


def _xor_doubling(out: np.ndarray, start, units) -> np.ndarray:
    """Column i of out (rows, 2^J) set to start XOR the units[j] of the set bits j of i.

    start and each of the J units broadcast against a column of out; doubling,
    out[:, h:2h] = out[:, :h] ^ units[j] with h = 2^j, fills it in place.
    """
    out[:, :1] = start
    for j, unit in enumerate(units):
        h = 1 << j
        np.bitwise_xor(out[:, :h], unit, out=out[:, h : 2 * h])
    return out


@cache
def _frame_layout(code: ConvCode, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """How an N-block frame packs into 64-bit words, and its unit codewords.

    Frames of over SIZE_LIMIT paths are refused, before any array is built.
    blocks.astype(np.uint64) @ weights packs (rows, N) n-bit blocks into
    (rows, W) words: word w holds blocks w * G .. w * G + G - 1 counted back
    from the last one (G = 64 // n), the last block in its lowest bits, so
    the words are the frame's bit string read in 64-bit pieces from the
    end.  Row j of unit_words is the packed codeword from state 0 of the
    message whose only set bit is bit j of the path index, so the frame
    has 2^len(unit_words) = F^N paths.  Both are built once per code and
    frame length (k*N <= 24 rows under the size guard).
    """
    check_size(check_paths(code.fanout, n_steps), f"{code.fanout}^{n_steps} paths")
    per_word = 64 // code.n
    back = np.arange(n_steps - 1, -1, -1)  # block t counted back from the last
    shifts = (code.n * (back % per_word)).astype(np.uint64)
    weights = np.zeros((n_steps, -(-n_steps // per_word)), dtype=np.uint64)
    weights[np.arange(n_steps), back // per_word] = 1 << shifts
    units = input_blocks(code, n_steps, 1 << np.arange(code.k * n_steps))
    unit_words = code.encode_rows(units).astype(np.uint64) @ weights
    for array in (weights, unit_words):
        array.flags.writeable = False  # shared by every caller of the cache
    return weights, unit_words


def path_error_rows(
    code: ConvCode, ys: np.ndarray, initial_state: int = 0, table: np.ndarray | None = None
) -> np.ndarray:
    """Bit-error counts of all F^N paths, one row per received word.

    ys has shape (rows, N) and holds each word's n-bit blocks as integers
    (MSB first); row r of the (rows, F^N) int64 result is indexed by message
    like build_path_space.  A path's error count is the Hamming distance
    from the received word to its codeword, summed over its 64-bit words.
    The codeword from initial_state is the zero-input response from there
    XOR the codeword from state 0, so the response is XORed into the
    received words once.  Each word of y XOR the codewords is popcounted in
    place, so a one-word frame allocates only the result.  Without a table,
    that word is filled by _xor_doubling started from the packed received
    word, (y ^ cw_i) = (y ^ cw_{i-h}) ^ unit_j; callers that decode many
    chunks of one frame length pass codeword_table(code, N) instead, and
    the word is y XOR its row: one XOR a chunk, where the doubling makes
    k*N numpy calls.
    """
    n_steps = ys.shape[1]
    layout, unit_words = _frame_layout(code, n_steps)
    if check_state(initial_state, code.num_states):
        ys = ys ^ code.encode_rows(np.zeros((1, n_steps), dtype=np.int64), initial_state)
    received = ys.astype(np.uint64) @ layout
    errors = np.empty((len(received), 1 << len(unit_words)), dtype=np.uint64)
    words = errors  # the first word's XORs are popcounted in place, the others beside it
    for w in range(received.shape[1]):
        if w == 1:
            words = np.empty_like(errors)
        if table is None:
            _xor_doubling(words, received[:, w, None], unit_words[:, w])
        else:
            np.bitwise_xor(received[:, w, None], table[w], out=words)
        np.bitwise_count(words, out=words)
        if w:
            errors += words
    return errors.view(np.int64)


def build_path_space_hmm(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> PathSpace:
    """Enumerate admissible paths of a general HMM with neg-log weights.

    The space keeps the level table of viterbi.enumerate_paths, the source
    of its weights and, for code-derived HMMs, of its bit-error counts.
    """
    has_errors = "errors" in h.tables
    costs = ("neglog", "errors") if has_errors else ("neglog",)
    paths = enumerate_paths(h, emissions, initial_state, costs)
    if not len(paths.totals[0]):
        raise ValueError("no admissible path; check the model and emissions")
    return PathSpace(
        n_steps=len(emissions),
        errors=paths.totals[1] if has_errors else None,
        weights=paths.totals[0],
        initial_state=initial_state,
        paths=paths,
        hmm=h,
    )


class _QvaFields(NamedTuple):
    omega: float
    iterations: int
    phase_mode: str = "errors"


class QvaParams(_QvaFields):
    """Phase unit, iteration count, and phase-exponent source for a run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.omega <= math.pi:
            raise ValueError("omega must lie in [0, pi]")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)


class RunResult(NamedTuple):
    """The final class amplitudes plus the probabilities the experiments report.

    amplitudes[c] is the amplitude of every path of class c of
    space.classes(phase_mode).  statevector puts them on the paths on each
    read, with PathSpace.per_path, under the size guard of that gather.
    """

    amplitudes: np.ndarray
    prob_top: float      # probability of the classically optimal path
    top_index: int       # argmax of the measured distribution
    space: PathSpace
    phase_mode: str = "errors"

    @property
    def statevector(self) -> np.ndarray:
        return self.space.per_path(self.amplitudes, self.phase_mode)


def uniform_superposition(ps: PathSpace) -> np.ndarray:
    """Equal amplitude 1/sqrt(L) on every admissible path."""
    if ps.L < 1:
        raise ValueError("empty path space")
    check_size(ps.L, f"{ps.L} paths")
    return np.full(ps.L, 1.0 / math.sqrt(ps.L), dtype=complex)


def phase_mark(ps: PathSpace, v: np.ndarray, params: QvaParams) -> np.ndarray:
    """Multiply amplitude i by exp(i * omega * exponent_i); norm preserved."""
    x = ps.exponents(params.phase_mode)
    return v * np.exp(1j * params.omega * x)


def diffuse(v: np.ndarray) -> np.ndarray:
    """Inversion about the mean restricted to the admissible subspace.

    Row i of the operator is 2/L everywhere except -(L-2)/L on the diagonal,
    the standard Grover diffusion.
    """
    L = len(v)
    return (2.0 / L) * v.sum() - v


def _amplify(
    g: np.ndarray, iterations: int, counts: np.ndarray | None = None,
    state: np.ndarray | None = None,
) -> np.ndarray:
    """Mark+diffuse rounds on marking rows g of shape (..., C), from uniform or from state.

    Entry c of a row stands for counts[..., c] paths that share one amplitude,
    so the mean is weighted by counts; counts=None makes every entry one path.
    One-dimensional counts serve every row of g.  Counts of shape (rows, C)
    give each row its own classes and path total, and g broadcasts against
    them; a zero-count entry is carried along but never enters the mean.
    The reduction is chosen once, before the first round: a plain sum, a
    per-row weighted sum, or one BLAS dot/gemv, against counts cast to
    complex once.  A state returned by an earlier call with the same g and
    counts is continued in place, so k1 rounds and then k2 - k1 more from
    their state equal k2 rounds.
    """
    per_row = counts is not None and counts.ndim > 1
    if counts is None:
        L = g.shape[-1]
    else:
        # complex @ int64 bypasses BLAS (~15x slower), and complex @ float casts every round
        weights = counts.astype(complex)
        L = counts.sum(axis=-1, keepdims=True) if per_row else int(counts.sum())
    if state is None:
        state = np.empty(counts.shape if per_row else g.shape, dtype=complex)
        state[...] = 1.0 / (np.sqrt(L) if per_row else math.sqrt(L))
    if counts is None:
        total = partial(state.sum, axis=-1, keepdims=True)
    elif per_row:
        total = lambda: (state * weights).sum(axis=-1, keepdims=True)
    elif state.ndim == 1:
        total = partial(state.dot, weights)
    else:
        total = lambda: (state @ weights)[..., None]
    scale = 2.0 / L
    for _ in range(iterations):
        state *= g
        np.subtract(scale * total(), state, out=state)
    return state


def _power(g: np.ndarray, iterations: int, counts: np.ndarray) -> np.ndarray:
    """_amplify from uniform on one row g with counts, by repeated squaring where that pays.

    Classes of equal phase keep equal amplitudes, so they are merged first:
    exact ties stay exact, and top_index keeps its first-path rule.  On the
    C' merged classes with path counts w, one round is the matrix
    (2/L) * 1 (w*g)^T - diag(g), and its k-th power is applied to the
    uniform state by binary powering, in log2(k) C' x C' products.  Under
    SQUARING_ROUNDS rounds or over SQUARING_CLASSES classes, _amplify steps
    the rounds.
    """
    if iterations >= SQUARING_ROUNDS:
        phases, inverse = np.unique(g, return_inverse=True)
        size = len(phases)
        if size <= SQUARING_CLASSES:
            L = int(counts.sum())
            matrix = np.tile((2.0 / L) * np.bincount(inverse, counts) * phases, (size, 1))
            matrix.flat[:: size + 1] -= phases
            state = np.full(size, 1.0 / math.sqrt(L), dtype=complex)
            while True:
                if iterations & 1:
                    state = matrix @ state
                iterations >>= 1
                if not iterations:
                    return state[inverse]
                matrix = matrix @ matrix
    return _amplify(g, iterations, counts)


def amplify_phases(g: np.ndarray, iterations: int) -> np.ndarray:
    """Run `iterations` mark+diffuse rounds from uniform with marking diagonal g."""
    return _amplify(np.asarray(g, dtype=complex), iterations)


def run_qva(ps: PathSpace, params: QvaParams) -> RunResult:
    """Uniform superposition, then `iterations` mark+diffuse rounds.

    The rounds run on the class view, by _power: repeated squaring of the
    round matrix where the cost rule favours it, else _amplify's stepping.
    prob_top is the probability of measuring the classical-Viterbi optimal
    path; top_index is the most likely measurement outcome.  Nothing of L
    entries is read or built here: the result keeps the class amplitudes,
    and its statevector is gathered only when read.
    """
    view = ps.classes(params.phase_mode)
    v = _power(np.exp(1j * params.omega * view.values), params.iterations, view.counts)
    probs = np.abs(v) ** 2
    return RunResult(v, float(probs[view.viterbi_class]), int(view.first[np.argmax(probs)]),
                     ps, params.phase_mode)


def single_iteration_prob(g: np.ndarray, target: int) -> float:
    """Closed form for the target probability after one mark+diffuse round.

    For a unit-modulus marking diagonal g the amplitude of entry t after one
    round from uniform is -(g_t (L-2) - 2 sum_{i != t} g_i) / L^(3/2).
    """
    g = np.asarray(g, dtype=complex)
    L = len(g)
    if L < 2:
        raise ValueError("need at least two paths")
    if not 0 <= target < L:
        raise ValueError("target index out of range")
    if np.max(np.abs(np.abs(g) - 1.0)) > 1e-9:
        raise ValueError("marking diagonal must have unit modulus entries")
    rest = g.sum() - g[target]
    return float(np.abs(g[target] * (L - 2) - 2.0 * rest) ** 2 / L**3)


class SweepResult(NamedTuple):
    """A swept curve and its refined peak; amplitudes holds the grid's class
    amplitudes after `iterations` rounds on the class view `view`, for resume."""

    omega_star: float
    prob_star: float
    omegas: np.ndarray
    probs: np.ndarray
    top_indices: np.ndarray
    iterations: int
    amplitudes: np.ndarray
    view: ClassView


def _golden_max(f, lo: float, hi: float, tol: float = 1e-4) -> tuple[float, float]:
    """Golden-section maximization of a unimodal-enough bracket."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _grid_phases(step: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sweep grid of step `step` over (0, pi) and its phases exp(1j * omega * x), (points, C).

    Each phase is formed as np.exp(1j * omegas[:, None] * x[None, :]) forms
    it, but a column is computed once per grid step and exponent value: the
    values of x missing from the store go through one np.exp, and the store
    keeps one step's columns, as a read-only (points, K) table of at most
    PHASE_CELLS phases.  A call that would take it past that bound computes
    all its columns afresh and leaves it as it was; a call on a new step
    that fits replaces it.
    """
    omegas = np.arange(step, math.pi, step)
    columns, table = _phases.get(step, ({}, np.empty((len(omegas), 0), dtype=complex)))
    new = x[[v not in columns for v in x.tolist()]]
    if (len(columns) + len(new)) * len(omegas) > PHASE_CELLS:
        return omegas, np.exp(1j * omegas[:, None] * x[None, :])
    if len(new):
        table = np.hstack([table, np.exp(1j * omegas[:, None] * new[None, :])])
        table.flags.writeable = False
        columns = {**columns, **dict(zip(new.tolist(), range(len(columns), table.shape[1])))}
        _phases.clear()
        _phases[step] = columns, table
    return omegas, table.take([columns[v] for v in x.tolist()], axis=1)


def sweep_omega(
    ps: PathSpace,
    iterations: int,
    grid: float = 0.005,
    phase_mode: str = "errors",
    *,
    resume: SweepResult | None = None,
) -> SweepResult:
    """Grid search over omega in (0, pi), then golden-section refinement.

    The objective is the probability of the classically optimal path after
    the given number of iterations.  Its peak narrows like 1/iterations, so
    the grid step is at most PEAK_STEP / iterations and the refinement
    tolerance shrinks with it; `grid` is the step while it is finer.  Grids
    of over SIZE_LIMIT points, checked before the point count is formed, or
    of over SIZE_LIMIT (point, class) amplitudes, or whose iterations would
    make over SWEEP_WORK_LIMIT amplitude updates, are refused.  The full
    grid curve is returned so callers can plot or diff it.

    resume takes an earlier result on the same path space and phase mode
    (another raises ValueError).  When it has the same grid and no more
    iterations, the grid continues from a copy of its amplitudes, with
    results equal to a fresh sweep's; otherwise the sweep starts afresh.
    """
    if not 0.0 < grid < math.pi:
        raise ValueError("grid step must lie in (0, pi)")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if iterations > SWEEP_WORK_LIMIT:  # over it at any grid; PEAK_STEP / iterations may overflow
        raise SizeLimitError(f"{iterations} iterations exceeds the sweep work guard")
    view = ps.classes(phase_mode)
    if resume is not None and resume.view is not view:
        raise ValueError("resume must come from a sweep of the same path space and phase mode")
    x = view.values
    peak_step = PEAK_STEP / iterations
    step = min(grid, peak_step)
    check_size(math.pi / step, f"the grid of step {step!r}")  # before int(): pi / 1e-320 is inf
    points = int(math.pi / step)
    check_size(points * len(x), f"{points} grid points x {len(x)} classes")
    if points * len(x) * iterations > SWEEP_WORK_LIMIT:
        raise SizeLimitError(
            f"{points} grid points x {len(x)} classes x {iterations} iterations"
            " exceeds the sweep work guard"
        )
    omegas, g = _grid_phases(step, x)

    state, done = None, 0
    if resume and resume.iterations <= iterations and np.array_equal(resume.omegas, omegas):
        state, done = resume.amplitudes.copy(), resume.iterations
    amps = _amplify(g, iterations - done, view.counts, state)
    probs = np.abs(amps[:, view.viterbi_class]) ** 2
    top_indices = view.first[np.argmax(np.abs(amps) ** 2, axis=1)]

    best = int(np.argmax(probs))

    def objective(w: float) -> float:
        v = _amplify(np.exp(1j * w * x), iterations, view.counts)
        return float(np.abs(v[view.viterbi_class]) ** 2)

    lo = max(omegas[best] - step, 1e-9)
    hi = min(omegas[best] + step, math.pi - 1e-9)
    w_star, p_star = _golden_max(objective, lo, hi, min(1e-4, peak_step / 50.0))
    if probs[best] > p_star:
        w_star, p_star = float(omegas[best]), float(probs[best])
    return SweepResult(
        omega_star=w_star,
        prob_star=p_star,
        omegas=omegas,
        probs=probs,
        top_indices=top_indices,
        iterations=iterations,
        amplitudes=amps,
        view=view,
    )


def sample_rows(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Histograms of draws from each row of unnormalised float64 probabilities p (rows, L).

    Row r draws one path per uniform of u[r], u of shape (rows, size) with
    entries in [0, 1), exactly as Generator.choice(L, size, p=p[r] / p[r].sum())
    does from a generator whose random(size) is u[r], minus its validation:
    p is normalised into its CDF in place, and each row's uniforms are looked
    up in its own CDF row, in ascending order (on a sorted copy of u).
    Returns the (rows, L) draw counts; the first maximum of a row, its
    argmax, is the mode_of tie rule.
    """
    if u.shape[1] < 1:
        raise ValueError("need at least one draw")
    total = p.sum(axis=-1, keepdims=True)
    if not (np.all(np.isfinite(total)) and np.all(total > 0.0)):
        raise ValueError("probabilities must have a positive finite sum")
    cdf = np.cumsum(np.divide(p, total, out=p), axis=-1, out=p)
    cdf /= cdf[:, -1:]
    counts = np.empty(p.shape, dtype=np.int64)
    # a histogram does not depend on draw order, and searchsorted narrows each
    # search from the previous hit when its keys ascend
    for row, cdf_row, u_row in zip(counts, cdf, np.sort(u, axis=-1)):
        row[:] = np.bincount(cdf_row.searchsorted(u_row, side="right"), minlength=len(cdf_row))
    return counts


def measure(v: np.ndarray, seed, shots: int) -> Counter:
    """Histogram of `shots` seeded draws from |v|^2, keyed in ascending outcome order.

    The one-row case of sample_rows, with the uniforms of np.random.default_rng(seed).
    """
    p = np.asarray(np.abs(v), dtype=float) ** 2
    counts = sample_rows(p[None], np.random.default_rng(seed).random(shots)[None])[0]
    drawn = np.flatnonzero(counts)
    return Counter(dict(zip(drawn.tolist(), counts[drawn].tolist())))


def _row_slices(rows: int, cells: int, width: int) -> list[slice]:
    """Consecutive slices over rows of `width` cells, at most `cells` cells (and one row) each."""
    step = max(1, cells // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def path_error_groups(code: ConvCode, ys: np.ndarray, initial_state: int = 0):
    """(row slice, path_error_rows) pairs over ys, at most SIZE_LIMIT path cells a pair.

    Each group's errors are computed CHUNK_CELLS path cells at a time and
    kept in the narrowest unsigned dtype that holds N*n: uint8 below 256,
    otherwise uint16 (N*n <= 24 * 63 under the size guard).
    """
    table = codeword_table(code, ys.shape[1])
    dtype = np.uint8 if ys.shape[1] * code.n < 256 else np.uint16
    for group in _row_slices(len(ys), SIZE_LIMIT, table.shape[1]):
        group_ys = ys[group]
        errors = np.empty((len(group_ys), table.shape[1]), dtype=dtype)
        for part in _row_slices(len(group_ys), viterbi.CHUNK_CELLS, table.shape[1]):
            errors[part] = path_error_rows(code, group_ys[part], initial_state, table)
        yield group, errors


def sample_modes(
    errors: np.ndarray, value_probs: np.ndarray, seeds: np.ndarray, size: int
) -> np.ndarray:
    """Mode of `size` draws for every row of path errors (rows, F^N), as path_error_groups gives.

    Row r draws path i with probability proportional to value_probs[r, e_i],
    e_i = errors[r, i] (value_probs may be a broadcast view of one
    (N*n + 1)-vector), from the stream of row r of the seed table `seeds`
    (streams.uniforms).  The uniforms are drawn for groups of rows of at
    most SHOT_CELLS draws, and sampled CHUNK_CELLS path cells at a time.
    Returns the (3, rows) int64 array of each row's mode (its first
    maximum, the mode_of tie rule), the mode's count and its error count.
    """
    if size < 1:
        raise ValueError("need at least one draw")
    out = np.empty((3, len(errors)), dtype=np.int64)
    for rows in _row_slices(len(errors), SHOT_CELLS, size):
        u = streams.uniforms(seeds[rows], size)
        for part in _row_slices(len(u), viterbi.CHUNK_CELLS, errors.shape[1]):
            chunk = errors[rows][part]
            # value_probs[r, errors[r, i]] as one flat gather (take_along_axis is ~4x
            # slower); the keys are freed before sample_rows allocates its counts
            offsets = value_probs.shape[1] * np.arange(len(chunk))[:, None]
            hist = sample_rows(value_probs[rows][part].ravel()[chunk + offsets], u[part])
            modes = hist.argmax(axis=1)
            at = (np.arange(len(modes)), modes)
            out[:, rows][:, part] = (modes, hist[at], chunk[at])
    return out


def mode_of(counts: Counter) -> tuple[int, int]:
    """Most frequent outcome; ties broken toward the smallest index."""
    if not counts:
        raise ValueError("empty histogram")
    index = min(counts, key=lambda i: (-counts[i], i))
    return index, counts[index]


class ScheduleEntry(NamedTuple):
    """One error class of an adaptive schedule.

    max_errors is the class's re-encoding budget: a measured mode is accepted
    when its re-encoded codeword is within max_errors bits of the received
    word.
    """

    omega: float
    iterations: int
    trials: int
    max_errors: int


class ClassAttempt(NamedTuple):
    class_index: int
    max_errors: int
    mode_index: int
    mode_count: int
    distance: int
    accepted: bool


class AdaptiveDecodeResult(NamedTuple):
    message: str
    path: tuple[int, ...]
    metric: int          # re-encoding distance of the accepted mode
    accepted_class: int
    attempts: tuple[ClassAttempt, ...]


def adaptive_decode(
    code: ConvCode,
    received: str,
    schedule: Sequence[ScheduleEntry],
    seed=0,
) -> AdaptiveDecodeResult:
    """Adaptive decoding over a schedule of error classes.

    For each class, run the amplification at the class's phase unit, take the
    mode of `trials` single-shot measurements, and accept it if re-encoding
    lands within the class's error budget of the received word.  Classes are
    consulted in the given order; exhaustion raises DecodeFailure.  This is
    the one-row case of adaptive_decode_rows.
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    ys = code.received_blocks(received)[None]
    # class c measures with default_rng([*seed, c]): c takes the block column
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    tables = [streams.seed_table(seeds, [cls]) for cls in range(len(schedule))]
    found = adaptive_decode_rows(code, ys, schedule, tables)[:, :, 0].tolist()
    attempts = tuple(ClassAttempt(cls, entry.max_errors, *row[:3], bool(row[3]))
                     for cls, (entry, row) in enumerate(zip(schedule, found)) if row[0] >= 0)
    last = attempts[-1]
    if not last.accepted:
        raise DecodeFailure(f"all {len(schedule)} error classes exhausted: {list(attempts)}")
    return AdaptiveDecodeResult(
        *code_walk(code, ys.shape[1], last.mode_index),  # message and path
        metric=last.distance,
        accepted_class=last.class_index,
        attempts=attempts,
    )


def adaptive_decode_rows(
    code: ConvCode,
    ys: np.ndarray,
    schedule: Sequence[ScheduleEntry],
    tables: Sequence[np.ndarray],
) -> np.ndarray:
    """adaptive_decode on every received word of ys, shape (rows, N) as in path_error_rows.

    Each row's path errors and class counts (on the value axis e = 0..N*n)
    are computed once, in the row groups of path_error_groups; a schedule
    entry is then one amplification and one sample_modes pass for the
    group's pending rows.  Row r measures class c with row r of the seed
    table tables[c].  Returns the (entries, 4, rows) int64 array of each
    entry's mode, mode count, error count (the re-encoding distance) and
    acceptance (1 within max_errors) per row, -1 where an earlier entry
    had accepted the row.
    """
    for entry in schedule:
        QvaParams(omega=entry.omega, iterations=entry.iterations)  # validates the entry
    n_values = ys.shape[1] * code.n + 1
    values = np.arange(n_values)
    found = np.full((len(schedule), 4, len(ys)), -1, dtype=np.int64)
    for group, errors in path_error_groups(code, ys):
        counts = np.concatenate([
            np.bincount((chunk + n_values * np.arange(len(chunk))[:, None]).ravel(),
                        minlength=len(chunk) * n_values).reshape(-1, n_values)
            for chunk in (errors[part] for part in
                          _row_slices(len(errors), viterbi.CHUNK_CELLS, errors.shape[1]))
        ])
        pending = np.arange(len(errors))  # errors and counts keep the pending rows only
        for cls, entry in enumerate(schedule):
            if not len(pending):
                break
            g = np.exp(1j * entry.omega * values)
            probs = np.abs(_amplify(g, entry.iterations, counts)) ** 2
            measured = sample_modes(errors, probs, tables[cls][group][pending], entry.trials)
            accepted = measured[2] <= entry.max_errors
            found[cls][:, group.start + pending] = np.vstack([measured, accepted])
            pending, errors, counts = pending[~accepted], errors[~accepted], counts[~accepted]
    return found


def formula_iterations(code: ConvCode, n_steps: int) -> int:
    """ceil(pi/4 * sqrt(F^N)), the usual amplitude-amplification count (path_iterations)."""
    return path_iterations(code.fanout, n_steps)


def path_iterations(fanout: int, n_steps: int) -> int:
    """ceil(pi/4 * sqrt(F^N)), the amplitude-amplification count over F^N paths.

    The closed form of Boyer, Brassard, Hoyer and Tapp (1998), taken in
    floats: a frame whose F^N lies beyond float range raises ValueError
    before F^N is formed.  No path count bounds it, since nothing of F^N
    entries is built.
    """
    if n_steps * math.log2(fanout) >= sys.float_info.max_exp:
        raise ValueError(f"{fanout}^{n_steps} paths lies beyond float range")
    return math.ceil(math.pi / 4.0 * math.sqrt(float(fanout**n_steps)))


def representative_received(code: ConvCode, n_steps: int, n_errors: int) -> str:
    """All-zero codeword with n_errors flips spread one per block."""
    bits = list("0" * (n_steps * code.n))
    total = len(bits)
    if n_errors < 0:
        raise ValueError("n_errors must be non-negative")
    if n_errors > total:
        raise ValueError("more errors than codeword bits")
    for i in range(n_errors):
        pos = (i % n_steps) * code.n + (i // n_steps)
        bits[pos] = "1"
    return "".join(bits)


def default_schedule(
    code: ConvCode,
    n_steps: int,
    epsilon: float,
    max_errors: int = 2,
    trials: int = 7,
    iterations: int | None = None,
) -> list[ScheduleEntry]:
    """Schedule over error classes 0..max_errors, most probable first.

    In a frame of B = N n bits, class e has probability p_e =
    comb(B, e) * bsc_weights(epsilon, B)[e] and cost -log p_e (inf where p_e
    underflows to 0); viterbi.first_optimum over the costs left picks each
    next class, so near-tied classes go fewer errors first.  A class's phase
    unit is swept on the SCHEDULE_GRID grid over the paths from state 0, where
    every iterated decode starts, of a received word with e channel errors.
    """
    if iterations is None:
        iterations = formula_iterations(code, n_steps)
    total_bits = n_steps * code.n
    if max_errors < 0:
        raise ValueError("max_errors must be non-negative")
    if max_errors > total_bits:
        raise ValueError("more errors than codeword bits")
    weights = bsc_weights(epsilon, total_bits)
    probs = [math.comb(total_bits, e) * weights[e] for e in range(max_errors + 1)]
    costs = np.array([-math.log(p) if p > 0.0 else math.inf for p in probs])
    left, order = list(range(max_errors + 1)), []
    while left:
        order.append(left.pop(viterbi.first_optimum(costs[left])[0]))
    schedule = []
    for e in order:
        rep = representative_received(code, n_steps, e)
        sw = sweep_omega(build_path_space(code, rep), iterations, SCHEDULE_GRID)
        schedule.append(ScheduleEntry(sw.omega_star, iterations, trials, max_errors=e))
    return schedule
