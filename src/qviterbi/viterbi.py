"""Classical most-likely-path decoding.

viterbi_decode is the dynamic-programming decoder used as ground truth for
the quantum simulations.  trellis_decode runs the same dynamic program on a
code's trellis table for many received words at once, with a leading block
axis, CHUNK_CELLS branch costs at a time; decode campaigns use it, and
the two decoders are its oracles.
walk_paths is the one enumeration of admissible paths, read off the Hmm and
never off the trellis tables: brute_force_decode, path_metric_multiset and
qva.build_path_space_hmm are its visitors, the oracles of every fast path.

Code-derived HMMs (those carrying branch_errors metadata) are decoded with
exact integer bit-error metrics; general HMMs fall back to negative log
probability with a small comparison slack.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .convcode import Trellis
from .errors import SIZE_LIMIT, NoPathError, SizeLimitError
from .hmm import Hmm

# Relative slack for float metric comparisons; integer metrics compare exactly.
FLOAT_SLACK = 1e-12

# Cells a row-axis pass holds at once (trellis_decode's (rows, N, S, F) branch
# costs, qva.sample_modes' (rows, F^N) paths), so campaigns' working sets do not
# grow with their block counts.
CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class DecodeResult:
    """A decoded path, the message driving it, its metric, and the tie count.

    path includes the start state, so it has one more entry than the number
    of receive blocks.  metric is the total bit-error count for code-derived
    HMMs and the negative log probability otherwise.  ties counts co-optimal
    paths; the reported path is the lexicographically smallest of them.
    """

    path: tuple[int, ...]
    message: str | None
    metric: float
    ties: int


def _neglog(h: Hmm, i: int, j: int, y: str) -> float:
    """-log P(j|i,y)P(y|i,j) of a branch; infinite when it has probability zero."""
    p = h.trans[(i, j, y)] * h.emit.get((i, j, y), 0.0)
    return math.inf if p == 0.0 else -math.log(p)


def _branch_cost(h: Hmm, i: int, j: int, y: str) -> float:
    if h.branch_errors is not None:
        return h.branch_errors[(i, j, y)]
    return _neglog(h, i, j, y)


def _slack(h: Hmm, value: float) -> float:
    if h.branch_errors is not None:
        return 0.0
    return FLOAT_SLACK * max(1.0, abs(value))


def _check_emissions(h: Hmm, emissions: Sequence[str]) -> None:
    if len(emissions) < 1:
        raise ValueError("need at least one receive block")
    for y in emissions:
        if y not in h._emission_set:
            raise ValueError(f"emission {y!r} not in the model alphabet")


def _message(h: Hmm, path: Sequence[int]) -> str | None:
    if h.edge_inputs is None or h.input_bits is None:
        return None
    blocks = [
        format(h.edge_inputs[(path[t], path[t + 1])], f"0{h.input_bits}b")
        for t in range(len(path) - 1)
    ]
    return "".join(blocks)


def viterbi_decode(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> DecodeResult:
    """Most probable state path given the receive blocks.

    Runs a backward cost-to-go pass followed by a greedy forward traceback,
    so that among co-optimal paths the lexicographically smallest state
    sequence is returned deterministically.
    """
    _check_emissions(h, emissions)
    if not 0 <= initial_state < h.num_states:
        raise ValueError("initial state out of range")
    n = len(emissions)
    q = h.num_states

    # cost-to-go[t][i]: best total branch cost from state i at time t to the end
    to_go = [[math.inf] * q for _ in range(n + 1)]
    ways = [[0] * q for _ in range(n + 1)]
    to_go[n] = [0.0] * q
    ways[n] = [1] * q
    for t in range(n - 1, -1, -1):
        y = emissions[t]
        for i in range(q):
            candidates = [
                (_branch_cost(h, i, j, y) + to_go[t + 1][j], j)
                for j, _p in h.successors(i, y)
            ]
            if not candidates:
                continue
            best = min(c for c, _ in candidates)
            if best == math.inf:
                continue
            tol = _slack(h, best)
            to_go[t][i] = best
            ways[t][i] = sum(ways[t + 1][j] for c, j in candidates if c <= best + tol)

    total = to_go[0][initial_state]
    if total == math.inf:
        raise NoPathError(f"no admissible path from state {initial_state}")

    path = [initial_state]
    i = initial_state
    for t in range(n):
        y = emissions[t]
        tol = _slack(h, to_go[t][i])
        for j, _p in h.successors(i, y):
            if _branch_cost(h, i, j, y) + to_go[t + 1][j] <= to_go[t][i] + tol:
                path.append(j)
                i = j
                break
    metric = int(total) if h.branch_errors is not None else total
    return DecodeResult(
        path=tuple(path),
        message=_message(h, path),
        metric=metric,
        ties=ways[0][initial_state],
    )


def trellis_decode(
    table: Trellis, ys: np.ndarray, initial_state: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Bit-error Viterbi decoding of every row of ys on a code's trellis table.

    ys has shape (rows, N) and holds each received word's n-bit blocks as
    integers (MSB first); a branch costs the popcount of its output XOR the
    block.  A backward cost-to-go pass of shape (rows, S) is followed by a
    forward traceback that takes the smallest co-optimal successor state,
    the tie rule of viterbi_decode, in chunks of rows whose branch costs
    hold CHUNK_CELLS cells.  Returns the message block driving each step,
    shape (rows, N), and each row's bit-error count.
    """
    num_states = table.next_state.shape[0]
    if not 0 <= initial_state < num_states:
        raise ValueError("initial state out of range")
    rows, n = ys.shape
    chunk = max(1, CHUNK_CELLS // (n * table.next_state.size))
    if rows > chunk:
        parts = [trellis_decode(table, ys[s : s + chunk], initial_state)
                 for s in range(0, rows, chunk)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    branch = np.bitwise_count(table.output ^ ys[..., None, None])  # [row, step, state, input]
    to_go = np.zeros((n + 1, rows, num_states), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        to_go[t] = (branch[:, t] + to_go[t + 1][:, table.next_state]).min(axis=-1)

    r = np.arange(rows)
    state = np.full(rows, initial_state)
    inputs = np.empty((rows, n), dtype=np.int64)
    for t in range(n):
        succ = table.next_state[state]
        cost = branch[r, t, state] + to_go[t + 1][r[:, None], succ]
        best = cost == to_go[t][r, state][:, None]
        inputs[:, t] = np.where(best, succ, num_states).argmin(axis=-1)
        state = succ[r, inputs[:, t]]
    return inputs, to_go[0][:, initial_state]


def walk_paths(
    h: Hmm,
    emissions: Sequence[str],
    initial_state: int,
    cost: Callable,
    visit: Callable,
    skip_infinite: bool = False,
) -> None:
    """Depth-first walk over every admissible path, in lexicographic order.

    At each leaf, visit(trail, total) gets the state sequence (start state
    included; the list is reused, so copy it to keep it) and the sum of
    cost(h, i, j, y) over the path's branches, added from its start (an int
    when every cost is one).  With skip_infinite, a prefix whose cost is
    already infinite is not extended, so paths of probability zero are
    never visited.
    """
    _check_emissions(h, emissions)
    n = len(emissions)
    fan = h.fanout().fanout
    if fan**n > SIZE_LIMIT:
        raise SizeLimitError(f"about {fan}^{n} paths exceeds the size guard")
    trail = [initial_state]

    def step(i: int, t: int, acc: float) -> None:
        if t == n:
            visit(trail, acc)
            return
        y = emissions[t]
        for j, _p in h.successors(i, y):
            total = acc + cost(h, i, j, y)
            if skip_infinite and total == math.inf:
                continue
            trail.append(j)
            step(j, t + 1, total)
            trail.pop()

    step(initial_state, 0, 0)


def brute_force_decode(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> DecodeResult:
    """Exhaustive oracle: walk every admissible path and keep the best.

    Paths arrive in lexicographic order, so the first optimum seen is the
    lexicographically smallest; the walk does not extend prefixes of
    probability zero.
    """
    best_metric = math.inf
    best_path: tuple[int, ...] | None = None
    ties = 0

    def keep(trail: list[int], total: float) -> None:
        nonlocal best_metric, best_path, ties
        tol = _slack(h, min(total, best_metric))
        if total < best_metric - tol:
            best_metric, best_path, ties = total, tuple(trail), 1
        elif abs(total - best_metric) <= tol:
            ties += 1

    # integer bit-error costs are never infinite
    walk_paths(h, emissions, initial_state, _branch_cost, keep, h.branch_errors is None)
    if best_path is None:
        raise NoPathError(f"no admissible path from state {initial_state}")
    metric = int(best_metric) if h.branch_errors is not None else best_metric
    return DecodeResult(
        path=best_path,
        message=_message(h, best_path),
        metric=metric,
        ties=ties,
    )


def path_metric_multiset(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> Counter:
    """Multiset of total bit-error counts over all admissible paths.

    These are exactly the exponents appearing on the phase-marking diagonal,
    so this enumeration serves as the oracle for the path-space builder.
    """
    if h.branch_errors is None:
        raise ValueError("integer branch metrics required (code-derived HMM)")
    out: Counter = Counter()
    walk_paths(h, emissions, initial_state, _branch_cost, lambda _trail, e: out.update((e,)))
    return out
