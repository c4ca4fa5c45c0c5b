"""Classical most-likely-path decoding.

viterbi_decode is the dynamic-programming decoder used as ground truth for
the quantum simulations, on each step's rows of the Hmm's branch tables.
trellis_decode runs the same dynamic program on a code's trellis table for
many received words at once, with a leading block axis, CHUNK_CELLS branch
costs at a time; decode campaigns use it, and the two decoders are its oracles.
enumerate_paths is the one enumeration of admissible paths, read off the
Hmm's tables and never off the trellis tables, one level at a time on arrays;
brute_force_decode, path_metric_multiset and qva.build_path_space_hmm, the
oracles of every fast path, are array reductions over its path totals.

Code-derived HMMs (those with an "errors" table) are decoded with exact
integer bit-error metrics, general HMMs with negative log probability.
Every decoder keeps the first path, in lexicographic order, whose total
lies within the slack of the optimum (first_optimum on path totals).
"""
from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from .convcode import Trellis
from .errors import NoPathError, check_paths, check_size, check_state
from .hmm import Hmm

# Relative slack for float metric comparisons; integer metrics compare exactly.
FLOAT_SLACK = 1e-12

# Cells a row-axis pass holds at once (trellis_decode's (rows, N, S, F) branch
# costs, qva.sample_modes' (rows, F^N) paths), so campaigns' working sets do not
# grow with their block counts.
CHUNK_CELLS = 1 << 14


class DecodeResult(NamedTuple):
    """A decoded path, the message driving it, its metric, and the tie count.

    path includes the start state, so it has one more entry than the number
    of receive blocks.  metric is the path's total bit-error count for
    code-derived HMMs and its negative log probability otherwise.  The path is
    the first co-optimal one, and ties counts co-optimal paths; viterbi_decode
    counts them state by state, so where float totals lie about one slack
    apart its count can differ from brute_force_decode's.
    """

    path: tuple[int, ...]
    message: str | None
    metric: float
    ties: int


def _slack(exact: bool, value: float) -> float:
    return 0 if exact else FLOAT_SLACK * max(1.0, abs(value))


def _check_emissions(h: Hmm, emissions: Sequence[str]) -> list[int]:
    """The table row of each emission, once all are in the model alphabet."""
    if len(emissions) < 1:
        raise ValueError("need at least one receive block")
    for y in emissions:
        if y not in h.symbols:
            raise ValueError(f"emission {y!r} not in the model alphabet")
    return [h.symbols[y] for y in emissions]


def viterbi_decode(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> DecodeResult:
    """Most probable state path given the receive blocks.

    Runs a backward cost-to-go pass followed by a greedy forward traceback
    that keeps the first successor from which some path stays within the
    optimum's budget, so the first co-optimal path is returned.
    """
    rows = _check_emissions(h, emissions)
    initial_state = check_state(initial_state, h.num_states)
    n = len(emissions)
    q = h.num_states
    costs = h.tables.get("errors", h.tables["neglog"])
    exact = "errors" in h.tables

    # cost-to-go[t][i]: best total branch cost from state i at time t to the end
    to_go = [[math.inf] * q for _ in range(n + 1)]
    ways = [[0] * q for _ in range(n + 1)]
    to_go[n] = [0.0] * q
    ways[n] = [1] * q
    for t in range(n - 1, -1, -1):
        for i, (succ, cost) in enumerate(zip(h.succ[rows[t]].tolist(), costs[rows[t]].tolist())):
            candidates = [(c + to_go[t + 1][j], j) for j, c in zip(succ, cost) if j >= 0]
            # a state without a finite continuation costs inf; no finite state counts its ways
            best = min((c for c, _ in candidates), default=math.inf)
            tol = _slack(exact, best)
            to_go[t][i] = best
            ways[t][i] = sum(ways[t + 1][j] for c, j in candidates if c <= best + tol)

    total = to_go[0][initial_state]
    if total == math.inf:
        raise NoPathError(f"no admissible path from state {initial_state}")

    budget = total + _slack(exact, total)
    path, prefix = [initial_state], 0
    for t in range(n):
        i = path[-1]
        for j, c in zip(h.succ[rows[t], i].tolist(), costs[rows[t], i].tolist()):
            if j >= 0 and prefix + c + to_go[t + 1][j] <= budget:
                path.append(j)
                prefix += c
                break
    return DecodeResult(
        path=tuple(path),
        message=h.message(path),
        metric=prefix,
        ties=ways[0][initial_state],
    )


def trellis_decode(
    table: Trellis, ys: np.ndarray, initial_state: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Bit-error Viterbi decoding of every row of ys on a code's trellis table.

    ys has shape (rows, N) and holds each received word's n-bit blocks as
    integers (MSB first); a branch costs its Trellis.branch_errors.  A
    backward cost-to-go pass of shape (rows, S) is followed by a forward
    traceback that takes the smallest co-optimal successor state, the tie
    rule of viterbi_decode, in chunks of rows whose branch costs hold
    CHUNK_CELLS cells.  Returns the message block driving each step,
    shape (rows, N), and each row's bit-error count.
    """
    num_states = table.next_state.shape[0]
    initial_state = check_state(initial_state, num_states)
    rows, n = ys.shape
    chunk = max(1, CHUNK_CELLS // (n * table.next_state.size))
    if rows > chunk:
        parts = [trellis_decode(table, ys[s : s + chunk], initial_state)
                 for s in range(0, rows, chunk)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    branch = table.branch_errors(ys)  # [row, step, state, input]
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


class Paths(NamedTuple):
    """Every admissible path of an Hmm, stored one trellis level at a time.

    states[t][p] is the state at time t of the p-th length-t prefix and
    parents[t][p] the index of its length-(t - 1) prefix (0 at t = 0); each
    level's prefixes are in lexicographic order.  totals[c][p] sums cost c
    over the branches of path p, added from its start.
    """

    states: list[np.ndarray]
    parents: list[np.ndarray]
    totals: list[np.ndarray]

    def rows(self, index: np.ndarray) -> np.ndarray:
        """The state sequences of the paths index, start state included, one row each."""
        out = np.empty((len(index), len(self.states)), dtype=np.int32)
        for t in range(len(self.states) - 1, -1, -1):
            out[:, t] = self.states[t][index]
            index = self.parents[t][index]
        return out


def enumerate_paths(
    h: Hmm, emissions: Sequence[str], initial_state: int, costs: Sequence[str],
    finite_only: bool = False,
) -> Paths:
    """Every admissible path from initial_state, in lexicographic order.

    Each trellis level extends all prefixes of the one before at once:
    successors and the costs named in costs ("errors", "neglog") are read
    off the Hmm for every prefix's state, padding is masked out, and the
    kept (prefix, successor) pairs are taken in C order, which keeps the
    paths lexicographic.  With finite_only, a prefix whose total is already
    infinite is not extended, so paths of probability zero never appear.
    """
    rows = _check_emissions(h, emissions)
    initial_state = check_state(initial_state, h.num_states)
    n = len(emissions)
    fan = h.fanout()
    check_size(check_paths(fan, n), f"about {fan}^{n} paths")
    # int32 indices hold the at most SIZE_LIMIT paths the guard lets through
    state = np.array([initial_state], dtype=np.int32)
    states, parents = [state], [np.zeros(1, dtype=np.int32)]
    totals = [np.zeros(1, dtype=np.int64 if c == "errors" else float) for c in costs]
    for a in rows:
        succ = h.succ[a, state]
        totals = [acc[:, None] + h.tables[c][a, state] for acc, c in zip(totals, costs)]
        keep = succ >= 0
        if finite_only:
            for acc in totals:
                keep &= acc != math.inf
        flat = np.flatnonzero(keep)
        state = succ.ravel()[flat]
        states.append(state)
        parents.append((flat // succ.shape[1]).astype(np.int32))
        totals = [acc.ravel()[flat] for acc in totals]
    return Paths(states, parents, totals)


def first_optimum(totals: np.ndarray) -> tuple[int, int | float, int]:
    """The first co-optimal path total in path order: (index, total, ties).

    A total is co-optimal when it lies within the slack of the minimum, which
    for integer totals means equal to it; ties counts the co-optimal totals.
    With no finite total, every total ties at inf.
    """
    best = totals.min()
    within = totals <= best + _slack(totals.dtype.kind == "i", best)
    index = int(within.argmax())
    return index, totals[index].item(), int(np.count_nonzero(within))


def brute_force_decode(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> DecodeResult:
    """Exhaustive oracle: enumerate every admissible path and keep the best.

    Prefixes of probability zero are not extended.  first_optimum, which
    qva.PathSpace.viterbi_index shares, keeps the first co-optimal path in
    path order, which is lexicographic.
    """
    integer = "errors" in h.tables
    # integer bit-error costs are never infinite
    cost = "errors" if integer else "neglog"
    paths = enumerate_paths(h, emissions, initial_state, [cost], finite_only=not integer)
    if not len(paths.totals[0]):
        raise NoPathError(f"no admissible path from state {initial_state}")
    leaf, best, ties = first_optimum(paths.totals[0])
    path = tuple(paths.rows([leaf])[0].tolist())
    return DecodeResult(path=path, message=h.message(path), metric=best, ties=ties)


def path_metric_multiset(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> Counter:
    """Multiset of total bit-error counts over all admissible paths.

    These are exactly the exponents appearing on the phase-marking diagonal,
    so this enumeration serves as the oracle for the path-space builder.
    """
    if "errors" not in h.tables:
        raise ValueError("integer branch metrics required (code-derived HMM)")
    totals = enumerate_paths(h, emissions, initial_state, ("errors",)).totals[0]
    values, counts = np.unique(totals, return_counts=True)
    return Counter(dict(zip(values.tolist(), counts.tolist())))
