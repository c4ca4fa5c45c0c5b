"""Hidden Markov models with per-transition emissions, stored as branch tables.

P(j | i, y) is the probability of stepping from state i to state j given
that emission y was observed, and P(y | i, j) that of y on that step.  The
tables are indexed [symbol, state, slot], with symbol row symbols[y]: succ
holds each row's successors of positive P(j | i, y), ascending, padded with
-1, and "trans", "emit", "neglog" (-log of their product) and, for code
models, "errors" hold each branch's value in the same cell.  The (i, j, y)
maps Hmm() takes are views over the branches: entries of transition
probability 0, and emission entries off the branches, are checked and
dropped.  Instances are immutable and safe to share read-only.
"""
from __future__ import annotations

import json
import math
from collections import defaultdict
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# Stochasticity identities are exact on paper; double precision forces a tolerance.
PROB_TOL = 1e-12

Key = tuple[int, int, str]


class RowCheck(NamedTuple):
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
    emit : map (i, j, y) -> P(y | i, j); an absent entry reads 0 on a branch.
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
        self.symbols = {y: a for a, y in enumerate(self.emissions)}
        if len(self.symbols) != len(self.emissions):
            raise ValueError("duplicate emission symbols")

        for name, table in (("trans", trans), ("emit", emit)):
            for (i, j, y), p in table.items():
                self._check_key(i, j, y, where=name)
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"{name}[{(i, j, y)}] = {p} outside [0, 1]")

        successors = defaultdict(list)  # (symbol, state) -> successors of positive probability
        for (i, j, y), p in trans.items():
            if p > 0.0:
                successors[self.symbols[y], int(i)].append(int(j))
        width = max(map(len, successors.values()), default=0)
        self.succ = np.full((len(self.emissions), self.num_states, width), -1, dtype=np.int32)
        for (a, i), row in successors.items():
            self.succ[a, i, : len(row)] = sorted(row)
        cells, keys = self._branches()
        tables = {}
        for name, source in (("trans", trans), ("emit", emit), ("errors", branch_errors)):
            if source is not None:
                tables[name] = np.zeros(self.succ.shape, dtype=int if name == "errors" else float)
                tables[name][cells] = [source.get(key, 0) for key in keys]
        self._store(tables, edge_inputs, input_bits)

    @classmethod
    def from_tables(cls, emissions: Iterable[str], succ: np.ndarray, tables: dict, **meta) -> Hmm:
        """The model of succ and the "trans", "emit" and optional "errors" tables, unchecked."""
        h = cls.__new__(cls)
        h.num_states, h.emissions, h.succ = succ.shape[1], tuple(emissions), succ
        h.symbols = {y: a for a, y in enumerate(h.emissions)}
        h._store(tables, **meta)
        return h

    def _store(self, tables: dict, edge_inputs=None, input_bits=None) -> None:
        # math.log once per distinct weight: np.log can differ from it in the last bit
        weights, at = np.unique(tables["trans"] * tables["emit"], return_inverse=True)
        neglog = [-math.log(p) if p > 0.0 else math.inf for p in weights.tolist()]
        self.tables = tables | {"neglog": np.array(neglog)[at]}
        for array in (self.succ, *self.tables.values()):
            array.flags.writeable = False
        self.edge_inputs = dict(edge_inputs) if edge_inputs is not None else None
        self.input_bits = input_bits

    def _check_key(self, i: int, j: int, y: str, where: str = "table") -> None:
        if not (0 <= i < self.num_states and 0 <= j < self.num_states):
            raise ValueError(f"{where} key ({i}, {j}, {y!r}) has out-of-range state")
        if i % 1 or j % 1:
            raise ValueError(f"{where} key ({i}, {j}, {y!r}) has non-integer state")
        if y not in self.symbols:
            raise ValueError(f"{where} key ({i}, {j}, {y!r}) has unknown emission")

    def _branches(self) -> tuple[tuple[np.ndarray, ...], list[Key]]:
        """The cells of the branches, in (state, slot, symbol) order, and their keys."""
        i, slot, a = np.nonzero(self.succ.transpose(1, 2, 0) >= 0)
        ys = [self.emissions[x] for x in a.tolist()]
        return (a, i, slot), list(zip(i.tolist(), self.succ[a, i, slot].tolist(), ys))

    def _view(self, name: str) -> dict:
        cells, keys = self._branches()
        return dict(zip(keys, self.tables[name][cells].tolist()))

    @cached_property
    def trans(self) -> dict[Key, float]:
        return self._view("trans")

    @cached_property
    def emit(self) -> dict[Key, float]:
        return self._view("emit")

    @cached_property
    def branch_errors(self) -> dict[Key, int] | None:
        return self._view("errors") if "errors" in self.tables else None

    def successors(self, i: int, y: str) -> tuple[tuple[int, float], ...]:
        """Transitions (j, P(j|i,y)) with positive probability, ordered by j."""
        a = self.symbols[y]
        row = zip(self.succ[a, i].tolist(), self.tables["trans"][a, i].tolist())
        return tuple((j, p) for j, p in row if j >= 0)

    def joint_prob(self, i: int, j: int, y: str) -> float:
        """Joint branch weight P(j|i,y) * P(y|i,j); absent entries read as 0."""
        self._check_key(i, j, y, where="joint_prob")
        a, i = self.symbols[y], int(i)
        weights = self.tables["trans"][a, i] * self.tables["emit"][a, i]
        return float(weights[self.succ[a, i] == j].sum())

    def check_row_stochastic(self) -> RowCheck:
        """Verify sum_j P(j|i,y) = 1 for every (i, y) row of the transition table."""
        residual = np.abs(self.tables["trans"].sum(axis=-1).T - 1.0)  # [state, symbol]
        worst, worst_row = float(residual.max(initial=0.0)), None
        if worst > 0.0:  # the first worst row in (state, symbol) order
            i, a = np.argwhere(residual == worst)[0].tolist()
            worst_row = (i, self.emissions[a])
        return RowCheck(passed=worst <= PROB_TOL, residual=worst, worst_row=worst_row)

    def fanout(self) -> int:
        """The most successors of any state under one emission: the table width."""
        return self.succ.shape[-1]

    def message(self, path: Sequence[int]) -> str | None:
        """The input_bits-bit edge inputs along a state path, joined; None without edge inputs."""
        if self.edge_inputs is None or self.input_bits is None:
            return None
        width = f"0{self.input_bits}b"
        return "".join(format(self.edge_inputs[edge], width) for edge in zip(path, path[1:]))

    def to_json_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "emissions": list(self.emissions),
            "trans": [[i, j, y, p] for (i, j, y), p in sorted(self.trans.items())],
            "emit": [[i, j, y, p] for (i, j, y), p in sorted(self.emit.items())],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Hmm":
        """The model of a to_json_dict document; bad keys, fields and entries raise ValueError.

        A legacy "initial" is accepted only as the point mass on state 0.
        """
        required = {"num_states", "emissions", "trans", "emit"}
        if unknown := set(doc) - required - {"initial"}:
            raise ValueError(f"unknown HMM document keys {sorted(unknown)}")
        if missing := required - set(doc):
            raise ValueError(f"missing HMM document keys {sorted(missing)}")
        if type(doc["num_states"]) is not int:
            raise ValueError(f"num_states is {doc['num_states']!r}, not an integer")
        emissions = doc["emissions"]
        if not (isinstance(emissions, list) and all(type(y) is str for y in emissions)):
            raise ValueError(f"emissions is {emissions!r}, not a list of symbols")
        maps = {"trans": {}, "emit": {}}
        for name, table in maps.items():
            if not isinstance(doc[name], list):
                raise ValueError(f"{name} is {doc[name]!r}, not a list of entries")
            for entry in doc[name]:
                i, j, y, p = entry if isinstance(entry, list) and len(entry) == 4 else [None] * 4
                if not (type(i) is type(j) is int and type(y) is str):
                    raise ValueError(f"{name} entry {entry!r} is not [state, state, symbol, p]")
                if type(p) not in (int, float):
                    raise ValueError(f"{name} entry ({i}, {j}, {y!r}): {p!r} is not a number")
                if (i, j, y) in table:
                    raise ValueError(f"{name} entry ({i}, {j}, {y!r}) is repeated")
                table[i, j, y] = p
        h = cls(doc["num_states"], emissions, **maps)
        if "initial" in doc and doc["initial"] != [1.0] + [0.0] * (h.num_states - 1):
            raise ValueError("initial must be the point mass on state 0, where decoders start")
        return h

    def __repr__(self) -> str:
        return (
            f"Hmm(num_states={self.num_states}, emissions={len(self.emissions)}, "
            f"branches={np.count_nonzero(self.succ >= 0)})"
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
