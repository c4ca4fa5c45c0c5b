"""Hidden Markov models with per-transition emissions.

The transition table holds P(j | i, y), the probability of stepping from
state i to state j given that emission y was observed, and the emission
table holds P(y | i, j).  Both are sparse maps keyed (i, j, y); missing
keys read as probability zero, which matches the trellis semantics where
most state pairs are unreachable.  Instances are immutable after
construction (derived tables are cached on first use) and safe to share
read-only across parallel workers.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

# Stochasticity identities are exact on paper; double precision forces a tolerance.
PROB_TOL = 1e-12

Key = tuple[int, int, str]


@dataclass(frozen=True)
class RowCheck:
    """Outcome of a row-stochasticity scan over all (state, emission) rows."""

    passed: bool
    residual: float
    worst_row: tuple[int, str] | None


class Hmm:
    """Finite HMM over integer states and a finite emission alphabet.

    Parameters
    ----------
    num_states : number of hidden states, indexed 0..num_states-1.
    emissions : the emission alphabet (strings).
    trans : map (i, j, y) -> P(j | i, y).
    emit : map (i, j, y) -> P(y | i, j).
    branch_errors, edge_inputs, input_bits : optional metadata attached by
        code-derived constructors.  branch_errors holds the integer bit-error
        count of each branch, edge_inputs maps (i, j) to the message block
        driving that edge, and input_bits is the block width in bits.  They
        enable exact integer decode metrics and message reconstruction.
    """

    def __init__(
        self,
        num_states: int,
        emissions: Iterable[str],
        trans: Mapping[Key, float],
        emit: Mapping[Key, float],
        *,
        branch_errors: Mapping[Key, int] | None = None,
        edge_inputs: Mapping[tuple[int, int], int] | None = None,
        input_bits: int | None = None,
    ):
        if num_states < 1:
            raise ValueError("num_states must be positive")
        self.num_states = int(num_states)
        self.emissions = tuple(emissions)
        if len(set(self.emissions)) != len(self.emissions):
            raise ValueError("duplicate emission symbols")
        self._emission_set = frozenset(self.emissions)

        self.trans = dict(trans)
        self.emit = dict(emit)
        n, emissions = self.num_states, self._emission_set
        for name, table in (("trans", self.trans), ("emit", self.emit)):
            for (i, j, y), p in table.items():
                if not (0 <= i < n and 0 <= j < n and y in emissions and 0.0 <= p <= 1.0):
                    self._check_key(i, j, y, where=name)  # the first bad entry names the error
                    raise ValueError(f"{name}[{(i, j, y)}] = {p} outside [0, 1]")

        self.branch_errors = dict(branch_errors) if branch_errors is not None else None
        self.edge_inputs = dict(edge_inputs) if edge_inputs is not None else None
        self.input_bits = input_bits

        # per-symbol successor and cost arrays, built on first use by viterbi
        self._branch_arrays: dict = {}

    def _check_key(self, i: int, j: int, y: str, where: str = "table") -> None:
        if not (0 <= i < self.num_states and 0 <= j < self.num_states):
            raise ValueError(f"{where} key ({i}, {j}, {y!r}) has out-of-range state")
        if y not in self._emission_set:
            raise ValueError(f"{where} key ({i}, {j}, {y!r}) has unknown emission")

    def successors(self, i: int, y: str) -> tuple[tuple[int, float], ...]:
        """Transitions (j, P(j|i,y)) with positive probability, ordered by j."""
        return self._succ.get((i, y), ())

    @cached_property
    def _succ(self) -> dict[tuple[int, str], tuple[tuple[int, float], ...]]:
        succ: dict[tuple[int, str], list[tuple[int, float]]] = defaultdict(list)
        for (i, j, y), p in self.trans.items():
            if p > 0.0:
                succ[(i, y)].append((j, p))
        return {key: tuple(sorted(v)) for key, v in succ.items()}

    def joint_prob(self, i: int, j: int, y: str) -> float:
        """Joint branch weight P(j|i,y) * P(y|i,j); absent entries read as 0."""
        self._check_key(i, j, y, where="joint_prob")
        key = (i, j, y)
        return self.trans.get(key, 0.0) * self.emit.get(key, 0.0)

    def check_row_stochastic(self) -> RowCheck:
        """Verify sum_j P(j|i,y) = 1 for every (i, y) row of the transition table."""
        sums: dict[tuple[int, str], float] = defaultdict(float)
        for (i, _j, y), p in self.trans.items():
            sums[(i, y)] += p
        worst, worst_row = 0.0, None
        for i in range(self.num_states):
            for y in self.emissions:
                residual = abs(sums.get((i, y), 0.0) - 1.0)
                if residual > worst:
                    worst, worst_row = residual, (i, y)
        return RowCheck(passed=worst <= PROB_TOL, residual=worst, worst_row=worst_row)

    def fanout(self) -> int:
        """The most successors of any state under one emission, computed once."""
        return self._fanout

    @cached_property
    def _fanout(self) -> int:
        return max(map(len, self._succ.values()), default=0)

    def to_json_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "emissions": list(self.emissions),
            "trans": [[i, j, y, p] for (i, j, y), p in sorted(self.trans.items())],
            "emit": [[i, j, y, p] for (i, j, y), p in sorted(self.emit.items())],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Hmm":
        """The model of a to_json_dict document, refusing keys it does not read.

        A legacy "initial" is accepted only as the point mass on state 0.
        """
        unknown = set(doc) - {"num_states", "emissions", "trans", "emit", "initial"}
        if unknown:
            raise ValueError(f"unknown HMM document keys {sorted(unknown)}")
        h = cls(
            num_states=doc["num_states"],
            emissions=doc["emissions"],
            trans={(i, j, y): p for i, j, y, p in doc["trans"]},
            emit={(i, j, y): p for i, j, y, p in doc["emit"]},
        )
        if "initial" in doc and doc["initial"] != [1.0] + [0.0] * (h.num_states - 1):
            raise ValueError("initial must be the point mass on state 0, where decoders start")
        return h

    def __repr__(self) -> str:
        return (
            f"Hmm(num_states={self.num_states}, emissions={len(self.emissions)}, "
            f"branches={len(self.trans)})"
        )


def load_hmm(path) -> Hmm:
    """Load an HMM fixture from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return Hmm.from_json_dict(json.load(fh))


def dump_hmm(h: Hmm, path) -> None:
    """Write an HMM fixture as JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(h.to_json_dict(), fh, indent=2)
        fh.write("\n")
