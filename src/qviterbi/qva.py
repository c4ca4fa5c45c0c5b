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
with the mean weighted by class sizes.  The per-path operators below are the
dense reference the class engine is tested against.

HMM-backed spaces come from viterbi.walk_paths, the enumeration that also
serves brute_force_decode and path_metric_multiset.

Decode campaigns add a leading block axis: path_error_rows builds the error
counts of many received words as one (rows, L) matrix, adaptive_decode_rows
amplifies every row at once on the value-indexed class axis e = 0..max with
per-row class counts, and sample_rows draws every row's measurements from
one CDF matrix.  build_path_space, adaptive_decode and _sample are their
one-row cases.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import streams
from .convcode import ConvCode, _check_bits, split_blocks
from .errors import DecodeFailure, SizeLimitError
from .hmm import Hmm
from .viterbi import _branch_cost, _neglog, walk_paths

PATH_SPACE_LIMIT = 1 << 24

PHASE_MODES = ("errors", "neglog")

# The peak of prob_top(omega) is about 0.3 / iterations wide at half maximum,
# so sweep_omega's grid step is at most PEAK_STEP / iterations.  Up to 51
# iterations (N <= 12 for a rate-1/k code) the 0.005 sweep grid stays finer,
# and up to 26 (N <= 10) the 0.01 schedule grid does.
PEAK_STEP = 0.27


class ClassView(NamedTuple):
    """The distinct exponents of a path space, in order of first path index.

    counts[c] paths carry exponent values[c]; first[c] is the smallest of
    their indices and inverse[i] is the class of path i.
    """

    values: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    inverse: np.ndarray


class PathSpace:
    """Ordered admissible paths with their per-path phase exponents.

    Code-backed spaces index paths by the message bits read as an integer
    and reconstruct state sequences on demand; HMM-backed spaces store the
    enumerated paths explicitly.  errors holds integer bit-error counts,
    weights holds negative log path probabilities (general HMM mode).
    """

    def __init__(
        self,
        n_steps: int,
        errors: np.ndarray | None,
        weights: np.ndarray | None,
        *,
        code: ConvCode | None = None,
        initial_state: int = 0,
        explicit_paths: tuple[tuple[int, ...], ...] | None = None,
        input_bits: int | None = None,
    ):
        self.n_steps = n_steps
        self.errors = errors
        self.weights = weights
        self.code = code
        self.initial_state = initial_state
        self._paths = explicit_paths
        self._input_bits = input_bits
        ref = errors if errors is not None else weights
        self.L = int(len(ref))
        self._classes: dict[str, ClassView] = {}

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
        classes picks the class that holds the first maximal path.  Integer
        exponents spanning at most L values (every code-backed space) are
        binned by offset from their minimum, in O(L) without a sort; float
        and sparse integer exponents are factorised by np.unique.
        """
        view = self._classes.get(phase_mode)
        if view is None:
            x = self.exponents(phase_mode)
            if x.dtype.kind == "i" and int(x.max()) - int(x.min()) <= self.L:
                codes = x.astype(np.int64, copy=False) - x.min()
            else:
                codes = np.unique(x, return_inverse=True)[1]
            counts = np.bincount(codes)
            first = np.full(len(counts), self.L, dtype=np.intp)
            np.minimum.at(first, codes, np.arange(self.L))
            # absent codes keep first = L and sort behind every present one
            order = np.argsort(first)[: np.count_nonzero(counts)]
            rank = np.empty(len(counts), dtype=np.intp)
            rank[order] = np.arange(len(order))
            first = first[order]
            view = ClassView(x[first], counts[order], first, rank[codes])
            self._classes[phase_mode] = view
        return view

    @property
    def viterbi_index(self) -> int:
        """Index of the most probable path (ties go to the smallest index)."""
        ref = self.errors if self.errors is not None else self.weights
        return int(np.argmin(ref))

    def path(self, index: int) -> tuple[int, ...]:
        """State sequence of path `index`, including the start state."""
        if not 0 <= index < self.L:
            raise IndexError("path index out of range")
        if self._paths is not None:
            return self._paths[index]
        k = self.code.k
        next_state = self.code.trellis().next_state
        state = self.initial_state
        out = [state]
        for t in range(self.n_steps):
            u = (index >> (k * (self.n_steps - 1 - t))) & ((1 << k) - 1)
            state = next_state.item(state, u)
            out.append(state)
        return tuple(out)

    def paths(self) -> list[tuple[int, ...]]:
        """Materialized path list; guarded because it is O(L * N) memory."""
        if self.L > (1 << 16):
            raise SizeLimitError("path list too large to materialize; use path(i)")
        return [self.path(i) for i in range(self.L)]

    def message(self, index: int) -> str | None:
        """Message bits driving path `index` (code-backed spaces only)."""
        if self._input_bits is None:
            return None
        return format(index, f"0{self._input_bits * self.n_steps}b")

    def exponent_multiset(self) -> Counter:
        if self.errors is None:
            raise ValueError("this path space carries no integer error counts")
        view = self.classes("errors")
        return Counter(dict(zip(view.values.tolist(), view.counts.tolist())))


def build_path_space(code: ConvCode, received: str, initial_state: int = 0) -> PathSpace:
    """Enumerate all message sequences and their total bit-error counts.

    Path i is the one driven by the k*N message bits of i (most significant
    block first) starting from initial_state; its errors come from the
    one-row case of path_error_rows.
    """
    _check_bits(received)
    blocks = split_blocks(received, code.n)
    n = len(blocks)
    if n < 1:
        raise ValueError("received word is empty")
    if not 0 <= initial_state < code.num_states:
        raise ValueError("initial state out of range")
    ys = np.array([[int(y, 2) for y in blocks]], dtype=np.int64)
    return PathSpace(
        n_steps=n,
        errors=path_error_rows(code, ys, initial_state)[0],
        weights=None,
        code=code,
        initial_state=initial_state,
        input_bits=code.k,
    )


def path_error_rows(code: ConvCode, ys: np.ndarray, initial_state: int = 0) -> np.ndarray:
    """Bit-error counts of all F^N paths, one row per received word.

    ys has shape (rows, N) and holds each word's n-bit blocks as integers
    (MSB first); row r of the (rows, F^N) result is indexed by message like
    build_path_space.  The paths grow forward over the trellis one step at a
    time: each prefix splits into its F successors and a row-major ravel
    appends the step's input below the earlier ones, so after step t the
    prefixes are already in message-index order.  The work is about
    F/(F-1) * L gathers per row rather than N * L.  The per-step branch error
    counts come from the code's cached trellis table.
    """
    rows, n = ys.shape
    if code.fanout**n > PATH_SPACE_LIMIT:
        raise SizeLimitError(f"{code.fanout}^{n} paths exceeds the path-space guard")
    table = code.trellis()
    by_block = table.dist.transpose(2, 0, 1)  # [received block, state, input]
    states = np.array([initial_state], dtype=np.int64)
    errors = np.zeros((rows, 1), dtype=np.int64)
    for t in range(n):
        step = by_block[ys[:, t, None], states]  # (rows, prefixes, inputs)
        errors = (errors[:, :, None] + step).reshape(rows, -1)
        if t + 1 < n:
            states = table.next_state[states].ravel()
    return errors


def build_path_space_hmm(h: Hmm, emissions: Sequence[str], initial_state: int = 0) -> PathSpace:
    """Enumerate admissible paths of a general HMM with neg-log weights.

    Paths and weights come from viterbi.walk_paths; code-derived HMMs get
    their bit-error counts from a second walk in the same path order.
    """
    paths: list[tuple[int, ...]] = []
    weights: list[float] = []

    def keep(trail: list[int], weight: float) -> None:
        paths.append(tuple(trail))
        weights.append(weight)

    walk_paths(h, emissions, initial_state, _neglog, keep)
    if not paths:
        raise ValueError("no admissible path; check the model and emissions")
    errors: list[int] = []
    has_errors = h.branch_errors is not None
    if has_errors:
        walk_paths(h, emissions, initial_state, _branch_cost, lambda _trail, e: errors.append(e))
    return PathSpace(
        n_steps=len(emissions),
        errors=np.asarray(errors, dtype=np.int64) if has_errors else None,
        weights=np.asarray(weights, dtype=float),
        initial_state=initial_state,
        explicit_paths=tuple(paths),
        input_bits=h.input_bits if h.edge_inputs is not None else None,
    )


@dataclass(frozen=True)
class QvaParams:
    """Phase unit, iteration count, and phase-exponent source for a run."""

    omega: float
    iterations: int
    phase_mode: str = "errors"

    def __post_init__(self):
        if not 0.0 <= self.omega <= math.pi:
            raise ValueError("omega must lie in [0, pi]")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}")


@dataclass(frozen=True)
class RunResult:
    """Final statevector plus the probabilities the experiments report."""

    statevector: np.ndarray
    prob_top: float      # probability of the classically optimal path
    top_index: int       # argmax of the measured distribution


def uniform_superposition(ps: PathSpace) -> np.ndarray:
    """Equal amplitude 1/sqrt(L) on every admissible path."""
    if ps.L < 1:
        raise ValueError("empty path space")
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


def _amplify(g: np.ndarray, iterations: int, counts: np.ndarray | None = None) -> np.ndarray:
    """Mark+diffuse rounds from uniform on marking rows g of shape (..., C).

    Entry c of a row stands for counts[..., c] paths that share one amplitude,
    so the mean is weighted by counts; counts=None makes every entry one path.
    One-dimensional counts serve every row of g.  Counts of shape (rows, C)
    give each row its own classes and path total, and g broadcasts against
    them; a zero-count entry is carried along but never enters the mean.
    """
    per_row = counts is not None and counts.ndim > 1
    shape = counts.shape if per_row else g.shape
    if counts is None:
        L = g.shape[-1]
    else:
        weights = counts.astype(float)  # complex @ int64 bypasses BLAS, ~15x slower
        L = counts.sum(axis=-1, keepdims=True) if per_row else int(counts.sum())
    scale = 2.0 / L
    batched = len(shape) > 1
    v = np.empty(shape, dtype=complex)
    v[...] = 1.0 / (np.sqrt(L) if per_row else math.sqrt(L))
    for _ in range(iterations):
        v *= g
        if counts is None:
            total = v.sum(axis=-1)
        elif per_row:
            total = (v * weights).sum(axis=-1)
        else:
            total = v @ weights
        if batched:
            total = total[..., None]
        np.subtract(scale * total, v, out=v)
    return v


def amplify_phases(g: np.ndarray, iterations: int) -> np.ndarray:
    """Run `iterations` mark+diffuse rounds from uniform with marking diagonal g."""
    return _amplify(np.asarray(g, dtype=complex), iterations)


def run_qva(ps: PathSpace, params: QvaParams) -> RunResult:
    """Uniform superposition, then `iterations` mark+diffuse rounds.

    prob_top is the probability of measuring the classical-Viterbi optimal
    path; top_index is the most likely measurement outcome.
    """
    view = ps.classes(params.phase_mode)
    v = _amplify(np.exp(1j * params.omega * view.values), params.iterations, view.counts)
    probs = np.abs(v) ** 2
    return RunResult(
        statevector=v[view.inverse],
        prob_top=float(probs[view.inverse[ps.viterbi_index]]),
        top_index=int(view.first[np.argmax(probs)]),
    )


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


@dataclass(frozen=True)
class SweepResult:
    omega_star: float
    prob_star: float
    omegas: np.ndarray
    probs: np.ndarray
    top_indices: np.ndarray


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


def sweep_omega(
    ps: PathSpace,
    iterations: int,
    grid: float = 0.005,
    phase_mode: str = "errors",
) -> SweepResult:
    """Grid search over omega in (0, pi), then golden-section refinement.

    The objective is the probability of the classically optimal path after
    the given number of iterations.  Its peak narrows like 1/iterations, so
    the grid step is at most PEAK_STEP / iterations and the refinement
    tolerance shrinks with it; `grid` is the step while it is finer.  The
    full grid curve is returned so callers can plot or diff it.
    """
    if not 0.0 < grid < math.pi:
        raise ValueError("grid step must lie in (0, pi)")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    view = ps.classes(phase_mode)
    x = view.values
    vit = view.inverse[ps.viterbi_index]
    peak_step = PEAK_STEP / iterations
    step = min(grid, peak_step)
    omegas = np.arange(step, math.pi, step)

    amps = _amplify(np.exp(1j * omegas[:, None] * x[None, :]), iterations, view.counts)
    probs = np.abs(amps[:, vit]) ** 2
    top_indices = view.first[np.argmax(np.abs(amps) ** 2, axis=1)]

    best = int(np.argmax(probs))

    def objective(w: float) -> float:
        v = _amplify(np.exp(1j * w * x), iterations, view.counts)
        return float(np.abs(v[vit]) ** 2)

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
    )


def sample_rows(
    p: np.ndarray, generators: Iterable[np.random.Generator], size: int
) -> np.ndarray:
    """Histograms of `size` draws from each row of unnormalised probabilities p (rows, L).

    Row r draws with the r-th generator exactly as
    Generator.choice(L, size, p=p[r] / p[r].sum()) does, minus its
    validation: one CDF matrix serves every row, and each row's uniforms are
    looked up in its own CDF.  Returns the (rows, L) draw counts; the first
    maximum of a row, its argmax, is the mode_of tie rule.
    """
    if size < 1:
        raise ValueError("need at least one draw")
    total = p.sum(axis=-1, keepdims=True)
    if not (np.all(np.isfinite(total)) and np.all(total > 0.0)):
        raise ValueError("probabilities must have a positive finite sum")
    cdf = np.cumsum(p / total, axis=-1)
    cdf /= cdf[:, -1:]
    counts = np.empty(p.shape, dtype=np.int64)
    for row, cdf_row, gen in zip(counts, cdf, generators):
        row[:] = np.bincount(cdf_row.searchsorted(gen.random(size), side="right"),
                             minlength=len(cdf_row))
    return counts


def _sample(v: np.ndarray, seed, size: int) -> Counter:
    """Histogram of `size` seeded draws from |v|^2, keyed in ascending outcome order.

    The one-row case of sample_rows, with the generator np.random.default_rng(seed).
    """
    p = np.abs(np.asarray(v)) ** 2
    counts = sample_rows(p[None], [np.random.default_rng(seed)], size)[0]
    drawn = np.flatnonzero(counts)
    return Counter(dict(zip(drawn.tolist(), counts[drawn].tolist())))


def measure(v: np.ndarray, seed, shots: int) -> Counter:
    """Sample `shots` outcomes from |v|^2 with a seeded generator."""
    return _sample(v, seed, shots)


def mode_of(counts: Counter) -> tuple[int, int]:
    """Most frequent outcome; ties broken toward the smallest index."""
    if not counts:
        raise ValueError("empty histogram")
    index = min(counts, key=lambda i: (-counts[i], i))
    return index, counts[index]


@dataclass(frozen=True)
class ScheduleEntry:
    """One error class of an adaptive schedule.

    max_errors is the class's re-encoding budget: a measured mode is accepted
    when its re-encoded codeword is within max_errors bits of the received
    word.
    """

    omega: float
    iterations: int
    trials: int
    max_errors: int


@dataclass(frozen=True)
class ClassAttempt:
    class_index: int
    max_errors: int
    mode_index: int
    mode_count: int
    distance: int
    accepted: bool


@dataclass(frozen=True)
class AdaptiveDecodeResult:
    message: str
    path: tuple[int, ...]
    metric: int          # re-encoding distance of the accepted mode
    accepted_class: int
    attempts: tuple[ClassAttempt, ...]


def _seed_list(seed) -> list:
    if seed is None:
        return [0]
    if isinstance(seed, (list, tuple)):
        return list(seed)
    return [seed]


def adaptive_decode(
    code: ConvCode,
    received: str,
    schedule: Sequence[ScheduleEntry],
    initial_state: int = 0,
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
    if not received:
        raise ValueError("received word is empty")
    ps = build_path_space(code, received, initial_state)
    # class c measures with default_rng([*seed, c]): c takes the block column
    tables = [streams.seed_table(_seed_list(seed), [cls]) for cls in range(len(schedule))]
    gen = np.random.Generator(np.random.PCG64())
    attempts = adaptive_decode_rows(ps.errors[None], schedule, tables, gen)[0]
    last = attempts[-1]
    if not last.accepted:
        raise DecodeFailure(f"all {len(schedule)} error classes exhausted: {list(attempts)}")
    return AdaptiveDecodeResult(
        message=ps.message(last.mode_index),
        path=ps.path(last.mode_index),
        metric=last.distance,
        accepted_class=last.class_index,
        attempts=attempts,
    )


def adaptive_decode_rows(
    errors: np.ndarray,
    schedule: Sequence[ScheduleEntry],
    tables: Sequence[np.ndarray],
    gen: np.random.Generator,
) -> list[tuple[ClassAttempt, ...]]:
    """adaptive_decode on every row of a (rows, L) path_error_rows matrix.

    The classes live on the value axis e = 0..max error, with per-row counts,
    so one schedule entry is one amplification and one sample_rows call for
    all rows still pending.  Row r measures class c with row r of the seed
    table tables[c], loaded into gen (see streams.generators), and a mode's
    re-encoding distance is its path's error count.  Returns each row's
    attempts; the last one is accepted unless the schedule was exhausted.
    """
    for entry in schedule:
        QvaParams(omega=entry.omega, iterations=entry.iterations)  # validates the entry
    rows = len(errors)
    n_values = int(errors.max()) + 1
    keys = errors + n_values * np.arange(rows)[:, None]
    counts = np.bincount(keys.ravel(), minlength=rows * n_values).reshape(rows, n_values)
    values = np.arange(n_values)
    attempts: list[list[ClassAttempt]] = [[] for _ in range(rows)]
    pending = list(range(rows))
    for cls, entry in enumerate(schedule):
        if not pending:
            break
        g = np.exp(1j * entry.omega * values)
        amps = _amplify(g, entry.iterations, counts[pending])
        path_errors = errors[pending]
        # |v[errors[r]]|^2 of each row's class amplitudes v, gathered onto paths
        p = np.take_along_axis(np.abs(amps) ** 2, path_errors, axis=1)
        hist = sample_rows(p, streams.generators(tables[cls][pending], gen), entry.trials)
        modes = hist.argmax(axis=1)
        distances = np.take_along_axis(path_errors, modes[:, None], axis=1)[:, 0]
        left = []
        for r, mode, count, distance in zip(
            pending, modes.tolist(), hist.max(axis=1).tolist(), distances.tolist()
        ):
            accepted = distance <= entry.max_errors
            attempts[r].append(
                ClassAttempt(cls, entry.max_errors, mode, count, distance, accepted)
            )
            if not accepted:
                left.append(r)
        pending = left
    return [tuple(a) for a in attempts]


def formula_iterations(code: ConvCode, n_steps: int) -> int:
    """ceil(pi/4 * sqrt(F^N)), the usual amplitude-amplification count."""
    return math.ceil(math.pi / 4.0 * math.sqrt(float(code.fanout**n_steps)))


def representative_received(code: ConvCode, n_steps: int, n_errors: int) -> str:
    """All-zero codeword with n_errors flips spread one per block."""
    bits = list("0" * (n_steps * code.n))
    total = len(bits)
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
    grid: float = 0.01,
    initial_state: int = 0,
) -> list[ScheduleEntry]:
    """Schedule over error classes 0..max_errors ordered by class probability.

    The phase unit of each class is precomputed by sweeping on a
    representative received word with that many channel errors.
    """
    if iterations is None:
        iterations = formula_iterations(code, n_steps)
    total_bits = n_steps * code.n
    classes = list(range(max_errors + 1))
    classes.sort(
        key=lambda e: -(
            math.comb(total_bits, e) * epsilon**e * (1.0 - epsilon) ** (total_bits - e)
        )
    )
    schedule = []
    for e in classes:
        rep = representative_received(code, n_steps, e)
        sw = sweep_omega(build_path_space(code, rep, initial_state), iterations, grid)
        schedule.append(
            ScheduleEntry(
                omega=sw.omega_star,
                iterations=iterations,
                trials=trials,
                max_errors=e,
            )
        )
    return schedule
