"""Spans and counts recorded around the public functions of qviterbi.

The tracer wraps functions from outside the package: it replaces every
reference to a target function in the loaded qviterbi modules (and the CLI
command table) with a wrapper, and puts the originals back on exit.  Each
wrapper records a span (name, start, end, parent span id, workload id) in
memory and adds the layer's counts.  Nothing under src/ is modified.
"""
from __future__ import annotations

import inspect
import itertools
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# Computed, not measured: one mark+diffuse pass reads and writes the complex128
# vector twice (mark, then diffuse) and reads the int64 exponent once.
BYTES_PER_AMP_UPDATE = 2 * (16 + 16) + 8


def _count_sweep(a, res, add):
    points = len(res.omegas)
    add("grid_points", points)
    add("amp_updates", points * a["ps"].L * a["iterations"])


def _count_run_qva(a, res, add):
    updates = a["ps"].L * a["params"].iterations
    add("iterations", a["params"].iterations)
    add("amp_updates", updates)
    add("bytes_computed", updates * BYTES_PER_AMP_UPDATE)


def _count_adaptive(a, res, add):
    if res is None:  # DecodeFailure: every class of the schedule was tried
        add("attempts", len(a["schedule"]))
    else:
        add("attempts", len(res.attempts))
        add("accepted", 1)


# layer name -> (module, attribute, class or None, counter, track peak memory)
LAYERS = {
    "qva.sweep_omega": ("qva", "sweep_omega", None, _count_sweep, True),
    "qva.amplify_phases": (
        "qva", "amplify_phases", None,
        lambda a, r, add: add("amp_updates", len(a["g"]) * a["iterations"]), False),
    "qva.run_qva": ("qva", "run_qva", None, _count_run_qva, False),
    "qva.build_path_space": (
        "qva", "build_path_space", None, lambda a, r, add: add("paths", r.L), False),
    "qva.default_schedule": ("qva", "default_schedule", None, None, False),
    "qva.adaptive_decode": ("qva", "adaptive_decode", None, _count_adaptive, False),
    "qva.measure": ("qva", "measure", None, lambda a, r, add: add("shots", a["shots"]), False),
    "trials.amplitude_loaded_state": ("trials", "amplitude_loaded_state", None, None, False),
    "trials.run_trials": ("trials", "run_trials", None, lambda a, r, add: add("draws", a["r"]), False),
    "viterbi.viterbi_decode": (
        "viterbi", "viterbi_decode", None,
        lambda a, r, add: add("trellis_steps", len(a["emissions"])), False),
    "viterbi.brute_force_decode": ("viterbi", "brute_force_decode", None, None, False),
    "convcode.encode": ("convcode", "encode", "ConvCode", None, False),
    "convcode.transmit": ("convcode", "transmit", "BscChannel", None, False),
    "hmm.to_hmm": ("convcode", "to_hmm", "ConvCode", None, False),
    "circuits.chain_state": (
        "circuits", "chain_state", None, lambda a, r, add: add("dense_dim", len(r)), True),
    "circuits.step_block": ("circuits", "step_block", None, None, False),
    "cli.cmd_table": ("cli", "cmd_table", None, None, False),
    "cli.cmd_verify": ("cli", "cmd_verify", None, None, False),
    "cli.run_decode_campaign": ("cli", "run_decode_campaign", None, None, False),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "calls", "iterations", "amp_updates", "grid_points", "draws", "trellis_steps",
    "dense_dim", "paths", "shots", "attempts", "bytes_computed",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


@dataclass
class TraceRecord:
    """Everything one traced repetition recorded."""

    workload: str
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    peak_alloc: dict = field(default_factory=lambda: defaultdict(int))

    def self_seconds(self) -> dict[str, float]:
        """Per layer: summed span durations minus the time child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.span_id]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def exact_counts(self) -> dict:
        return {
            (layer, key): value
            for layer, values in self.counts.items()
            for key, value in values.items()
            if key in EXACT_COUNTS
        }


class Tracer:
    """Context manager that wraps the LAYERS functions while it is active."""

    def __init__(self, workload: str):
        self.record = TraceRecord(workload)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> TraceRecord:
        mods = {
            name[len("qviterbi."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("qviterbi.")
        }
        self._decode_failure = mods["errors"].DecodeFailure
        for layer, (mod, attr, cls, counter, peak) in LAYERS.items():
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            orig = getattr(owner, attr)
            wrapped = self._wrap(layer, orig, counter, peak)
            if cls:
                self._patch(owner, attr, wrapped)
                continue
            for m in list(mods.values()) + [sys.modules["qviterbi"]]:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)
            for key, value in list(mods["cli"].COMMANDS.items()):
                if value is orig:
                    self._undo.append((mods["cli"].COMMANDS, key, orig))
                    mods["cli"].COMMANDS[key] = wrapped
        return self.record

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def _patch(self, owner, key, wrapped) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def _wrap(self, layer, orig, counter, peak):
        record = self.record
        stack = self._stack
        signature = inspect.signature(orig) if counter else None
        counts = record.counts[layer]

        def add(key, value):
            counts[key] += value

        def count(args, kwargs, result):
            counts["calls"] += 1
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result, add)

        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            own_malloc = peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except self._decode_failure:
                count(args, kwargs, None)
                raise
            finally:
                end = time.perf_counter()
                if own_malloc:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    record.peak_alloc[layer] = max(record.peak_alloc[layer], peak_bytes)
                stack.pop()
                record.spans.append(Span(span_id, layer, start, end, parent, record.workload))
            count(args, kwargs, result)
            return result

        return wrapper


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
