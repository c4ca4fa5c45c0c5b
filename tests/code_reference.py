"""String-level reference for the code side, built from ConvCode.step alone.

The library reads every edge off the cached Trellis arrays; these helpers
walk the edges one at a time with ConvCode.step and count bit errors on bit
strings, so the tests can check the array-built tables against them.
neglog and branch_cost read one branch's cost off an Hmm's dict views, for
the recursive path walks that check viterbi.enumerate_paths.
"""
import math

from qviterbi.hmm import Hmm


def hamming(a: str, b: str) -> int:
    """Hamming distance between equal-length bit strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def edges_by_step(code):
    """Every edge (state, input, next_state, output bits) in (state, input) order."""
    return [
        (state, u, *code.step(state, u))
        for state in range(code.num_states)
        for u in range(code.fanout)
    ]


def reference_to_hmm(code, epsilon: float) -> Hmm:
    """ConvCode.to_hmm as it was built edge by edge, with string Hamming distances."""
    emissions = tuple(format(v, f"0{code.n}b") for v in range(1 << code.n))
    prior = 1.0 / code.fanout
    trans, emit, branch_errors, edge_inputs = {}, {}, {}, {}
    for state, u, nxt, output in edges_by_step(code):
        edge_inputs[(state, nxt)] = u
        for y in emissions:
            d = hamming(output, y)
            key = (state, nxt, y)
            trans[key] = prior
            emit[key] = (epsilon**d) * ((1.0 - epsilon) ** (code.n - d))
            branch_errors[key] = d
    return Hmm(
        num_states=code.num_states,
        emissions=emissions,
        trans=trans,
        emit=emit,
        branch_errors=branch_errors,
        edge_inputs=edge_inputs,
        input_bits=code.k,
    )


def neglog(h: Hmm, i: int, j: int, y: str) -> float:
    """-log P(j|i,y)P(y|i,j) of a branch, read off the views; inf at probability zero."""
    p = h.trans[(i, j, y)] * h.emit.get((i, j, y), 0.0)
    return math.inf if p == 0.0 else -math.log(p)


def branch_cost(h: Hmm, i: int, j: int, y: str) -> float:
    """A branch's bit errors where the model has them, else its neglog."""
    if h.branch_errors is not None:
        return h.branch_errors[(i, j, y)]
    return neglog(h, i, j, y)
