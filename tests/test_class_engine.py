"""Property tests over random codes and received words.

The table-driven encoder is checked against walking ConvCode.step block by
block, the channel against flipping bits one at a time, and the sampler
against Generator.choice; the row encoder, row channel and row sampler
are checked against their one-row cases, row by row.  The path-space builder is checked against
re-encoding every message with the step walk, and the class view, which a
code-backed space reads off its trellis, against a sort-based grouping of
the enumerated path errors, and at N = 40, past the size guard, each
class's first path against re-encoding it; runs on it against runs on the
same errors grouped by np.unique, bit for bit.  run_qva and sweep_omega
amplify one amplitude per distinct exponent; their reference is the public
per-path chain uniform_superposition -> phase_mark -> diffuse, which touches
all L amplitudes on every iteration, and run_qva's squaring kernel, _power,
is checked against the stepping kernel _amplify.  Classical Viterbi is
checked against brute-force enumeration and the path space, and every
path space's messages against the edge inputs along its paths.

The block axis of decode campaigns is checked row by row: path_error_rows
against re-encoding every message with the step walk, also where a frame
spans several 64-bit words, trellis_decode against viterbi_decode and
brute_force_decode, per-row class counts in the kernel against
one-dimensional runs, and whole campaigns against the per-block loop they
replaced, which is kept below as the reference.
"""
import contextlib
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from code_reference import hamming
from qviterbi import cli, qva, streams, viterbi
from qviterbi.convcode import BscChannel, ConvCode, split_blocks, transmit_rows
from qviterbi.errors import SizeLimitError
from qviterbi.hmm import Hmm
from qviterbi.qva import (
    PathSpace,
    QvaParams,
    _amplify,
    build_path_space,
    build_path_space_hmm,
    default_schedule,
    diffuse,
    measure,
    mode_of,
    path_error_rows,
    sample_rows,
    phase_mark,
    run_qva,
    sweep_omega,
    uniform_superposition,
)
from qviterbi.trials import required_trials, run_trials
from qviterbi.viterbi import brute_force_decode, trellis_decode, viterbi_decode

TOL = 1e-12
MAX_STEPS_K1 = 8  # at most 2^8 paths for every k

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def codes(draw, max_memory=2):
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, max_memory))
    masks = draw(st.lists(st.integers(0, (1 << (m + 1)) - 1), min_size=k * n, max_size=k * n))
    masks[0] |= 1 << m  # some generator must have degree exactly m
    return ConvCode(k=k, n=n, m=m, generators=tuple(
        tuple(masks[i * n : (i + 1) * n]) for i in range(k)
    ))


@st.composite
def frames(draw):
    """A code and a received word with at most 256 paths."""
    code = draw(codes())
    n_steps = draw(st.integers(1, MAX_STEPS_K1 // code.k))
    bits = draw(st.lists(st.sampled_from("01"), min_size=n_steps * code.n,
                         max_size=n_steps * code.n))
    return code, "".join(bits)


@st.composite
def integer_exponents(draw):
    """int64 exponents with repeats, from a small value range or a sparse one."""
    pool = draw(st.lists(st.integers(-4, 4) | st.integers(-(2**63), 2**63 - 1),
                         min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=64))
    return np.array(values, dtype=np.int64)


omegas = st.floats(0.0, math.pi)
iteration_counts = st.integers(1, 12)
seeds = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3)


def encode_by_step(code, message, initial_state=0):
    """Reference encoder: ConvCode.step on each message block, never the trellis table."""
    state = initial_state
    out = []
    for block in split_blocks(message, code.k):
        state, bits = code.step(state, int(block, 2))
        out.append(bits)
    return "".join(out)


def sorted_classes(x):
    """Sort-based class view: np.unique, reordered by first path index."""
    values, first, inverse, counts = np.unique(
        x, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return values[order], counts[order], first[order], rank[inverse]


def class_of_every_path(ps, phase_mode="errors"):
    """The class index of every path, through the space's per-path gather."""
    return ps.per_path(np.arange(len(ps.classes(phase_mode).first)), phase_mode)


def assert_classes_match_sort(ps, phase_mode):
    view = ps.classes(phase_mode)
    got_fields = (view.values, view.counts, view.first, class_of_every_path(ps, phase_mode))
    for got, want in zip(got_fields, sorted_classes(ps.exponents(phase_mode)), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def dense_state(ps, params):
    v = uniform_superposition(ps)
    for _ in range(params.iterations):
        v = diffuse(phase_mark(ps, v, params))
    return v


def assert_same_top(top, probs, ps, phase_mode):
    """top is the dense first maximum, unless another class ties it within TOL."""
    near = np.flatnonzero(probs >= probs.max() - TOL)
    assert top in near
    if len(np.unique(ps.exponents(phase_mode)[near])) == 1:
        assert top == near[0]


def assert_run_matches_dense(ps, params):
    result = run_qva(ps, params)
    v = dense_state(ps, params)
    probs = np.abs(v) ** 2
    assert np.max(np.abs(result.statevector - v)) <= TOL
    assert abs(np.linalg.norm(result.statevector) - 1.0) <= TOL
    assert abs(result.prob_top - probs[ps.viterbi_index]) <= TOL
    assert_same_top(result.top_index, probs, ps, params.phase_mode)


@PROPERTY_SETTINGS
@given(frames(), st.data())
def test_build_matches_reencoding(frame, data):
    code, received = frame
    s0 = data.draw(st.integers(0, code.num_states - 1))
    ps = build_path_space(code, received, s0)
    assert ps.errors.dtype == np.int64
    assert ps.L == code.fanout**ps.n_steps
    for i in range(ps.L):
        assert ps.errors[i] == hamming(encode_by_step(code, ps.message(i), s0), received)
    assert_classes_match_sort(ps, "errors")


@st.composite
def message_spaces(draw):
    """(path space, its model's edge inputs and block width): an HMM whose states'
    fanouts differ, or a code frame with k = 1, 2 from a drawn start state."""
    if draw(st.booleans()):
        code, received = draw(frames())
        h = code.to_hmm(0.1)
        ps = build_path_space(code, received, draw(st.integers(0, code.num_states - 1)))
        return ps, h.edge_inputs, h.input_bits
    bits, q = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    trans, edge_inputs = {}, {}
    for i in range(q):
        succ = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=min(q, 1 << bits),
                             unique=True))
        for j, u in zip(succ, draw(st.permutations(range(1 << bits)))):
            trans[i, j, "a"] = 1.0 / len(succ)
            edge_inputs[i, j] = u
    h = Hmm(q, ("a",), trans, dict.fromkeys(trans, 1.0), edge_inputs=edge_inputs,
            input_bits=bits)
    return build_path_space_hmm(h, ["a"] * draw(st.integers(1, 4))), edge_inputs, bits


# state 1 has one successor, so paths 2-4 are not the index bits 010, 011, 100
UNEQUAL_FANOUT = {(0, 0): 0, (0, 1): 1, (1, 0): 1}
UNEQUAL_FANOUT_HMM = Hmm(2, ("a",), {(0, 0, "a"): 0.5, (0, 1, "a"): 0.5, (1, 0, "a"): 1.0},
                         {(0, 0, "a"): 1.0, (0, 1, "a"): 1.0, (1, 0, "a"): 1.0},
                         edge_inputs=UNEQUAL_FANOUT, input_bits=1)


@PROPERTY_SETTINGS
@given(message_spaces())
@example((build_path_space_hmm(UNEQUAL_FANOUT_HMM, ["a"] * 3), UNEQUAL_FANOUT, 1))
def test_messages_are_the_edge_inputs_along_each_path(space):
    ps, edge_inputs, bits = space
    for i in range(ps.L):
        path = ps.path(i)
        inputs = [edge_inputs[path[t], path[t + 1]] for t in range(ps.n_steps)]
        assert ps.message(i) == "".join(format(u, f"0{bits}b") for u in inputs)
    for i in (-1, ps.L):
        with pytest.raises(IndexError):
            ps.message(i)


@PROPERTY_SETTINGS
@given(codes(), st.data())
def test_encode_matches_step_walk(code, data):
    s0 = data.draw(st.integers(0, code.num_states - 1))
    bits = data.draw(st.lists(st.sampled_from("01"), max_size=12 * code.k))
    message = "".join(bits[: len(bits) - len(bits) % code.k])
    assert code.encode(message, s0) == encode_by_step(code, message, s0)


@PROPERTY_SETTINGS
@given(codes(), st.data())
def test_encode_rows_match_encode(code, data):
    s0 = data.draw(st.integers(0, code.num_states - 1))
    n_steps = data.draw(st.integers(0, 10))
    steps = st.lists(st.integers(0, code.fanout - 1), min_size=n_steps, max_size=n_steps)
    messages = data.draw(st.lists(steps, min_size=1, max_size=5))
    inputs = np.array(messages, dtype=np.int64).reshape(len(messages), n_steps)
    outputs = code.encode_rows(inputs, s0)
    for blocks, row in zip(messages, outputs.tolist()):
        message = "".join(format(u, f"0{code.k}b") for u in blocks)
        expected = encode_by_step(code, message, s0)
        assert "".join(format(y, f"0{code.n}b") for y in row) == expected
        assert code.encode(message, s0) == expected


@PROPERTY_SETTINGS
@given(st.text("01", max_size=64), st.floats(0.0, 0.49), seeds)
def test_transmit_matches_per_bit_flips(codeword, epsilon, seed):
    clone = np.random.default_rng(seed)
    flips = [f < epsilon for f in clone.random(len(codeword))]
    expected = "".join("10"[int(b)] if f else b for b, f in zip(codeword, flips))
    assert BscChannel(epsilon, seed=seed).transmit(codeword) == (expected, sum(flips))


@PROPERTY_SETTINGS
@given(st.integers(1, 64), st.floats(0.0, 0.49), st.integers(0, 2**40), st.data())
def test_transmit_rows_match_one_row_channel(width, epsilon, seed, data):
    words = data.draw(st.lists(st.text("01", min_size=width, max_size=width),
                               min_size=1, max_size=5))
    codewords = np.array([[int(bit) for bit in word] for word in words], dtype=np.uint8)
    table = streams.seed_table([seed], np.arange(len(words)), [1])
    received, flips = transmit_rows(codewords, epsilon, streams.uniforms(table, width))
    for r, (word, got, n_flips) in enumerate(zip(words, received, flips.tolist())):
        expected = BscChannel(epsilon, seed=[seed, r, 1]).transmit(word)
        assert ("".join(map(str, got)), n_flips) == expected


amplitudes = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@PROPERTY_SETTINGS
@given(
    st.lists(amplitudes, min_size=1, max_size=40),
    st.lists(amplitudes, min_size=40, max_size=40),
    seeds,
    st.integers(1, 300),
)
def test_sample_matches_generator_choice(real, imag, seed, size):
    v = np.array(real) + 1j * np.array(imag[: len(real)])
    p = np.abs(v) ** 2
    if p.sum() == 0.0:
        with pytest.raises(ValueError):
            measure(v, seed, size)
        return
    draws = np.random.default_rng(seed).choice(len(p), size, p=p / p.sum())
    expected = Counter(dict(zip(*(a.tolist() for a in np.unique(draws, return_counts=True)))))
    got = measure(v, seed, size)
    assert got == expected
    assert list(got) == sorted(got)


@PROPERTY_SETTINGS
@given(
    st.integers(1, 40),
    st.lists(st.lists(amplitudes, min_size=80, max_size=80), min_size=1, max_size=5),
    st.integers(0, 2**32),
    st.integers(1, 300),
)
@example(2, [[1.0] * 80] * 3, 0, 2)  # equal halves: two-draw ties go to the smaller index
def test_sample_rows_match_one_row_sampler(length, parts, seed, size):
    real = np.array([row[:length] for row in parts])
    v = real + 1j * np.array([row[40 : 40 + length] for row in parts])
    v[:, 0] += np.abs(v).sum(axis=1) == 0.0  # every row needs a positive total
    table = streams.seed_table([seed], np.arange(len(v)), [2])
    counts = sample_rows(np.abs(v) ** 2, streams.uniforms(table, size))
    for r, (row, row_counts) in enumerate(zip(v, counts)):
        expected = measure(row, [seed, r, 2], size)
        drawn = np.flatnonzero(row_counts)
        assert dict(zip(drawn.tolist(), row_counts[drawn].tolist())) == expected
        assert mode_of(expected) == (row_counts.argmax(), row_counts.max())


def test_sample_rows_renormalise_the_cdf():
    # the cumsum of ten equal probabilities ends one ulp below 1, at the
    # largest uniform Generator.random can return; that draw is the last path
    p = np.ones((1, 10))
    end = np.cumsum(p[0] / p.sum())[-1]
    assert end == np.nextafter(1.0, 0.0)
    assert sample_rows(p, np.array([[end]])).tolist() == [[0] * 9 + [1]]


masses = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(1e-12, 1e3)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(1, 40),
    st.lists(st.lists(masses, min_size=40, max_size=40), min_size=1, max_size=6),
    st.integers(512, 1100),
    st.integers(0, 2**32),
    st.integers(1, 300),
)
@example(2, [[1.0] * 40], 512, 0, 2)  # a tied pair in every row
def test_sample_rows_match_generator_choice_row_by_row(length, templates, rows, seed, size):
    p = np.array([row[:length] for row in templates])
    p[p.sum(axis=1) == 0.0, 0] = 1.0  # every row needs a positive total
    p = p[np.random.default_rng(seed).integers(len(p), size=rows)]
    u = np.array([np.random.default_rng([seed, r]).random(size) for r in range(rows)])
    counts = sample_rows(p.copy(), u)
    for r, row in enumerate(p):
        draws = np.random.default_rng([seed, r]).choice(length, size, p=row / row.sum())
        assert np.array_equal(counts[r], np.bincount(draws, minlength=length)), r


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(st.lists(masses, min_size=12, max_size=12), min_size=1, max_size=6),
    st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.integers(0, 11), min_size=1, max_size=40),
)
@example(3, [[1.0] * 12], [0, 0.1, 1, 1 - 2.0**-53])  # CDF 1/3, 2/3, 1: counts [1, 1, 2]
def test_sample_rows_match_searchsorted_on_any_uniforms(length, templates, picks):
    # floats off Generator.random's 2^-53 grid too; an integer pick is one of
    # the row's CDF entries below 1, a uniform that side="right" puts above it
    p = np.array([row[:length] for row in templates])
    p[p.sum(axis=1) == 0.0, 0] = 1.0  # every row needs a positive total
    cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    u = np.empty((len(p), len(picks)))
    for u_row, row in zip(u, cdf):
        below = row[row < 1.0]
        u_row[:] = [x if isinstance(x, float) else below[x % len(below)] if len(below) else 0.0
                    for x in picks]
    counts = sample_rows(p, u)
    for r, (row, u_row) in enumerate(zip(cdf, u)):
        expected = np.bincount(row.searchsorted(u_row, side="right"), minlength=length)
        assert np.array_equal(counts[r], expected), r


@pytest.mark.parametrize("v", [np.zeros(4), np.array([1.0, np.nan]), np.array([np.inf, 1.0])])
def test_sample_rejects_vectors_without_a_finite_positive_total(v):
    with pytest.raises(ValueError):
        measure(v, 0, 5)
    # Generator.choice, which the sampler replaced, raised on these too
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        np.random.default_rng(0).choice(len(v), 5, p=np.abs(v) ** 2 / np.sum(np.abs(v) ** 2))


@PROPERTY_SETTINGS
@given(frames(), st.floats(0.01, 0.49), st.data())
def test_classes_match_sort_on_hmm_spaces(frame, epsilon, data):
    code, received = frame
    s0 = data.draw(st.integers(0, code.num_states - 1))
    ps = build_path_space_hmm(code.to_hmm(epsilon), split_blocks(received, code.n), s0)
    assert_classes_match_sort(ps, "neglog")
    assert_classes_match_sort(ps, "errors")


@PROPERTY_SETTINGS
@given(integer_exponents())
@example(np.array([2**63 - 1, -(2**63), 0, 2**63 - 1], dtype=np.int64))
def test_classes_match_sort_on_given_exponents(errors):
    assert_classes_match_sort(PathSpace(n_steps=1, errors=errors, weights=None), "errors")


@PROPERTY_SETTINGS
@given(frames(), st.data())
def test_viterbi_matches_brute_force(frame, data):
    code, received = frame
    s0 = data.draw(st.integers(0, code.num_states - 1))
    blocks = split_blocks(received, code.n)
    h = code.to_hmm(0.1)
    a = viterbi_decode(h, blocks, s0)
    b = brute_force_decode(h, blocks, s0)
    assert (a.metric, a.path, a.message, a.ties) == (b.metric, b.path, b.message, b.ties)
    # the tie rule: the lexicographically smallest state path of least metric
    ps = build_path_space(code, received, s0)
    best = np.flatnonzero(ps.errors == ps.errors.min())
    assert a.metric == ps.errors.min() and a.ties == len(best)
    first = min(best.tolist(), key=ps.path)
    assert (a.path, a.message) == (ps.path(first), ps.message(first))


@PROPERTY_SETTINGS
@given(frames(), omegas, iteration_counts)
def test_run_matches_dense_on_code_spaces(frame, omega, iterations):
    code, received = frame
    ps = build_path_space(code, received)
    assert_run_matches_dense(ps, QvaParams(omega=omega, iterations=iterations))


@PROPERTY_SETTINGS
@given(frames(), st.floats(0.01, 0.49), omegas, iteration_counts)
def test_run_matches_dense_on_neglog_spaces(frame, epsilon, omega, iterations):
    code, received = frame
    ps = build_path_space_hmm(code.to_hmm(epsilon), split_blocks(received, code.n))
    params = QvaParams(omega=omega, iterations=iterations, phase_mode="neglog")
    assert_run_matches_dense(ps, params)


@PROPERTY_SETTINGS
@given(frames(), st.integers(0, 2**32 - 1), omegas, iteration_counts)
def test_run_matches_dense_on_permuted_spaces(frame, seed, omega, iterations):
    # a permutation moves each class's first path index away from its
    # lowest-metric path, which exercises the first-maximum tie rule
    code, received = frame
    ps = build_path_space(code, received)
    perm = np.random.default_rng(seed).permutation(ps.L)
    shuffled = PathSpace(n_steps=ps.n_steps, errors=ps.errors[perm], weights=None)
    assert_run_matches_dense(shuffled, QvaParams(omega=omega, iterations=iterations))


@PROPERTY_SETTINGS
@given(frames(), st.sampled_from([0.3, 0.45, 0.7]), st.integers(1, 6))
def test_sweep_grid_matches_dense(frame, grid, iterations):
    code, received = frame
    ps = build_path_space(code, received)
    sweep = sweep_omega(ps, iterations, grid)
    for w, prob, top in zip(sweep.omegas, sweep.probs, sweep.top_indices):
        probs = np.abs(dense_state(ps, QvaParams(omega=float(w), iterations=iterations))) ** 2
        assert abs(prob - probs[ps.viterbi_index]) <= TOL
        assert_same_top(int(top), probs, ps, "errors")


@PROPERTY_SETTINGS
@given(frames())
def test_class_view_partitions_paths(frame):
    code, received = frame
    ps = build_path_space(code, received)
    view = ps.classes()
    inverse = class_of_every_path(ps)
    assert int(view.counts.sum()) == ps.L
    assert np.array_equal(view.values[inverse], ps.errors)
    assert np.all(np.diff(view.first) > 0)
    assert np.array_equal(inverse[view.first], np.arange(len(view.first)))
    assert all(type(e) is int for e in ps.exponent_multiset())


@PROPERTY_SETTINGS
@given(frames(), st.floats(0.01, 0.49), st.data())
def test_class_view_records_the_viterbi_class(frame, epsilon, data):
    # the trellis route records the lowest-error class, the np.unique route the
    # class of viterbi_index; both are the class of the space's Viterbi path
    code, received = frame
    s0 = data.draw(st.integers(0, code.num_states - 1))
    ps = build_path_space(code, received, s0)
    hmm_space = build_path_space_hmm(code.to_hmm(epsilon), split_blocks(received, code.n), s0)
    bare = PathSpace(n_steps=ps.n_steps, errors=ps.errors[::-1].copy(), weights=None)
    for space, phase_mode in ((ps, "errors"), (bare, "errors"), (hmm_space, "errors"),
                              (hmm_space, "neglog")):
        view = space.classes(phase_mode)
        assert type(view.viterbi_class) is int
        assert view.viterbi_class == class_of_every_path(space, phase_mode)[space.viterbi_index]
    view = ps.classes()
    assert view.values[view.viterbi_class] == ps.errors.min()


def test_exact_tie_across_classes_goes_to_first_path():
    # at omega = 0 every class keeps the same amplitude in both engines, so
    # the dense argmax is path 0 whichever class holds it
    ps = build_path_space(ConvCode.from_spec("1,2,2;5,7"), "0" * 10)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(ps.L)
        shuffled = PathSpace(n_steps=ps.n_steps, errors=ps.errors[perm], weights=None)
        params = QvaParams(omega=0.0, iterations=3)
        dense = np.abs(dense_state(shuffled, params)) ** 2
        assert run_qva(shuffled, params).top_index == int(np.argmax(dense)) == 0


CODE_171_133 = ConvCode.from_spec("1,2,6;171,133")


@st.composite
def trellis_frames(draw):
    """A code with m <= 3, or the K = 7 (171,133) code, a start state and a word at N <= 12.

    k = 2 words stop at N = 6, so no frame has more than 4096 paths.
    """
    code = draw(codes(max_memory=3) | st.just(CODE_171_133))
    n_steps = draw(st.integers(1, 12 // code.k))
    bits = draw(st.lists(st.sampled_from("01"), min_size=n_steps * code.n,
                         max_size=n_steps * code.n))
    return code, draw(st.integers(0, code.num_states - 1)), "".join(bits)


def assert_trellis_classes_match_enumeration(code, s0, received):
    """The trellis class view of build_path_space against np.unique over path_error_rows."""
    ps = build_path_space(code, received, s0)
    errors = path_error_rows(code, block_values(code, [received]), s0)[0]
    view = ps.classes()
    got_fields = (view.values, view.counts, view.first, class_of_every_path(ps))
    for got, want in zip(got_fields, sorted_classes(errors), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert ps.viterbi_index == viterbi.first_optimum(errors)[0]


@PROPERTY_SETTINGS
@given(trellis_frames())
def test_trellis_classes_match_enumeration(frame):
    assert_trellis_classes_match_enumeration(*frame)


@pytest.mark.parametrize(
    "spec, n_steps, s0, seed",
    [
        ("1,2,2;5,7", 1, 0, 0),
        ("1,2,2;5,7", 1, 3, 1),
        ("1,2,6;171,133", 1, 45, 2),
        ("2,3,1;1,2,3,3,1,2", 1, 2, 3),
        ("1,2,2;5,7", 18, 0, 4),
        ("1,2,2;5,7", 18, 2, 5),
        ("1,2,6;171,133", 18, 37, 6),
    ],
)
def test_trellis_classes_match_enumeration_at_the_ends(spec, n_steps, s0, seed):
    code = ConvCode.from_spec(spec)
    received = "".join(map(str, np.random.default_rng(seed).integers(0, 2, n_steps * code.n)))
    assert_trellis_classes_match_enumeration(code, s0, received)
    assert_trellis_classes_match_enumeration(code, s0, "0" * (n_steps * code.n))


@pytest.mark.parametrize("spec", ["1,2,2;5,7", "1,2,6;171,133"])
def test_trellis_classes_at_forty_steps_read_the_trellis_alone(spec):
    # 2^40 paths, far past the size guard: no L-entry array may be built
    code, n_steps = ConvCode.from_spec(spec), 40
    received = "".join(map(str, np.random.default_rng(40).integers(0, 2, n_steps * code.n)))
    blocks = code.received_blocks(received)
    tracemalloc.start()
    try:
        values, counts, first = qva.trellis_classes(code, blocks, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert int(counts.sum()) == 1 << n_steps
    assert np.all(np.diff(first) > 0)
    for e, index in zip(values.tolist(), first.tolist()):
        message = qva.code_walk(code, n_steps, index)[0]
        assert hamming(code.encode(message), received) == e


@pytest.mark.parametrize("spec", ["1,2,2;5,7", "1,2,6;171,133"])
def test_class_reads_at_forty_steps_allocate_no_path_array(spec):
    # a code space holds only its frame, so its class reads run past the size guard
    code, n_steps = ConvCode.from_spec(spec), 40
    received = "".join(map(str, np.random.default_rng(41).integers(0, 2, n_steps * code.n)))
    tracemalloc.start()
    try:
        ps = build_path_space(code, received)
        view, index, multiset = ps.classes(), ps.viterbi_index, ps.exponent_multiset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert ps.L == sum(multiset.values()) == 1 << n_steps
    assert index == view.first[view.viterbi_class]
    e = hamming(code.encode(ps.message(index)), received)
    assert e == view.values[view.viterbi_class] == min(multiset)
    with pytest.raises(SizeLimitError):
        ps.errors


@pytest.mark.parametrize("spec", ["1,2,2;5,7", "1,2,6;171,133"])
def test_run_at_forty_steps_stays_on_the_classes(spec):
    # omega = 0 keeps the uniform state, and every value on the way is a power of two
    code, n_steps = ConvCode.from_spec(spec), 40
    tracemalloc.start()
    try:
        ps = build_path_space(code, "0" * (n_steps * code.n))
        result = run_qva(ps, QvaParams(omega=0.0, iterations=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert result.prob_top == 2.0**-40 and result.top_index == 0
    with pytest.raises(SizeLimitError, match=r"^2\^40 paths exceeds the size guard$"):
        result.statevector


@settings(max_examples=30, deadline=None)
@given(trellis_frames(), omegas, st.integers(1, 6), st.sampled_from([0.3, 0.7]))
# run_qva's squaring route, at least SQUARING_ROUNDS rounds on few classes
@example((ConvCode.from_spec("1,2,2;5,7"), 1, "011010001110100101110010"), 0.37, 70, 0.7)
@example((ConvCode.from_spec("1,2,2;5,7"), 0, "0" * 28), 0.0, 101, 0.7)
@example((CODE_171_133, 5, "1101000111010010111001101001"), math.pi, 64, 0.3)
def test_runs_equal_those_of_the_space_from_errors_alone(frame, omega, iterations, grid):
    """The trellis view and np.unique's give bit-identical runs and sweeps."""
    code, s0, received = frame
    ps = build_path_space(code, received, s0)
    alone = PathSpace(n_steps=ps.n_steps, errors=ps.errors, weights=None)
    params = QvaParams(omega=omega, iterations=iterations)
    got, want = run_qva(ps, params), run_qva(alone, params)
    assert got.statevector.tobytes() == want.statevector.tobytes()
    assert (repr(got.prob_top), got.top_index) == (repr(want.prob_top), want.top_index)
    got, want = sweep_omega(ps, iterations, grid), sweep_omega(alone, iterations, grid)
    for name in ("omegas", "probs", "top_indices", "amplitudes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (repr(got.omega_star), repr(got.prob_star)) == (repr(want.omega_star), repr(want.prob_star))


# ---------------------------------------------------------------------------
# block axis


@st.composite
def word_rows(draw):
    """A code, a start state and 1-4 received words of one frame length."""
    code = draw(codes())
    n_steps = draw(st.integers(1, MAX_STEPS_K1 // code.k))
    bits = st.lists(st.sampled_from("01"), min_size=n_steps * code.n, max_size=n_steps * code.n)
    words = ["".join(w) for w in draw(st.lists(bits, min_size=1, max_size=4))]
    return code, draw(st.integers(0, code.num_states - 1)), words


def block_values(code, words):
    return np.array([[int(y, 2) for y in split_blocks(w, code.n)] for w in words])


def assert_errors_match_reencoding(code, s0, words, indices=None):
    """path_error_rows against hamming(encode_by_step(message), word), path by path."""
    n_steps = len(words[0]) // code.n
    rows = path_error_rows(code, block_values(code, words), s0)
    assert rows.dtype == np.int64 and rows.shape == (len(words), code.fanout**n_steps)
    if indices is None:
        indices = range(rows.shape[1])
    for i in indices:
        codeword = encode_by_step(code, format(i, f"0{code.k * n_steps}b"), s0)
        assert rows[:, i].tolist() == [hamming(codeword, word) for word in words]


@PROPERTY_SETTINGS
@given(word_rows())
def test_path_error_rows_match_reencoding(frame):
    code, s0, words = frame
    assert_errors_match_reencoding(code, s0, words)


@pytest.mark.parametrize(
    "spec, n_steps, s0, sampled",
    [
        ("1,7,2;5,7,3,1,6,4,7", 10, 3, False),  # 70 bits: words of 9 and 1 blocks
        ("1,5,3;17,13,15,11,7", 13, 5, False),  # 65 bits: words of 12 and 1 blocks
        ("1,4,2;5,7,3,6", 16, 2, True),  # exactly 64 bits, the top bit of one word in use
    ],
)
def test_path_error_rows_across_words(spec, n_steps, s0, sampled):
    code = ConvCode.from_spec(spec)
    rng = np.random.default_rng([n_steps, s0])
    words = ["".join(map(str, rng.integers(0, 2, n_steps * code.n))) for _ in range(3)]
    words.append("1" * (n_steps * code.n))
    indices = None
    if sampled:
        last = code.fanout**n_steps - 1
        indices = [0, last, *rng.integers(0, last, 400).tolist()]
    assert_errors_match_reencoding(code, s0, words, indices)


@pytest.mark.parametrize(
    "spec, n_steps, s0",
    [
        ("1,2,2;5,7", 12, 0),
        ("1,2,2;5,7", 12, 3),
        ("2,3,1;1,2,3,3,1,2", 5, 1),  # k = 2
        ("1,7,2;5,7,3,1,6,4,7", 10, 3),  # 70 bits: two packed words
    ],
)
def test_path_error_rows_without_table_match_the_table_route(spec, n_steps, s0):
    # XOR doubling from each received word against popcounts of y ^ codeword_table
    code = ConvCode.from_spec(spec)
    ys = np.random.default_rng([n_steps, s0]).integers(0, 1 << code.n, (5, n_steps))
    ys[0] = (1 << code.n) - 1
    want = path_error_rows(code, ys, s0, qva.codeword_table(code, n_steps))
    got = path_error_rows(code, ys, s0)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(path_error_rows(code, ys[2:3], s0), want[2:3])


def test_build_path_space_allocates_one_path_array():
    code, n_steps = ConvCode.from_spec("1,2,2;5,7"), 16
    received = "".join(map(str, np.random.default_rng(16).integers(0, 2, 2 * n_steps)))
    build_path_space(code, received).errors  # the per-frame-length layout is cached
    ps = build_path_space(code, received)
    tracemalloc.start()
    try:
        ps.errors  # the first read builds the one path array
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * 2**n_steps


@pytest.mark.parametrize(
    "spec, n_steps, dtype",
    [
        ("1,2,2;5,7", 8, np.uint8),
        ("1,40,1;" + ",".join(["3"] * 40), 7, np.uint16),  # N n = 280 > 255
    ],
)
def test_path_error_groups_hold_every_count(spec, n_steps, dtype):
    code = ConvCode.from_spec(spec)
    rng = np.random.default_rng(n_steps)
    ys = rng.integers(0, 1 << code.n, (9, n_steps))
    ys[0] = (1 << code.n) - 1  # the all-ones word: counts up to N n
    with row_groups_of(2, code.fanout**n_steps):
        groups = list(qva.path_error_groups(code, ys, 1))
    assert [g.start for g, _ in groups] == [0, 2, 4, 6, 8]
    assert all(errors.dtype == dtype for _, errors in groups)
    got = np.concatenate([errors for _, errors in groups])
    assert np.array_equal(got, path_error_rows(code, ys, 1))


@PROPERTY_SETTINGS
@given(word_rows())
def test_trellis_decode_matches_viterbi_and_brute_force(frame):
    code, s0, words = frame
    inputs, metrics = trellis_decode(code.trellis(), block_values(code, words), s0)
    h = code.to_hmm(0.1)
    for steps, metric, word in zip(inputs.tolist(), metrics.tolist(), words):
        blocks = split_blocks(word, code.n)
        message = "".join(format(u, f"0{code.k}b") for u in steps)
        dp = viterbi_decode(h, blocks, s0)
        assert (message, metric) == (dp.message, dp.metric)
        # the tie rule: the lexicographically smallest state path of least metric
        path = [s0]
        for u in steps:
            path.append(code.trellis().next_state.item(path[-1], u))
        assert tuple(path) == brute_force_decode(h, blocks, s0).path


@pytest.mark.parametrize("k, n, m", [(1, 9, 2), (2, 13, 1), (1, 20, 3), (1, 24, 1), (1, 63, 2)])
def test_trellis_decode_on_wide_outputs(k, n, m):
    # to_hmm would list 2^n receive blocks per edge, so the path space is the oracle
    rng = np.random.default_rng([k, n, m])
    masks = rng.integers(0, 1 << (m + 1), k * n)
    masks[0] |= 1 << m
    code = ConvCode(k, n, m, tuple(tuple(masks[i * n : (i + 1) * n].tolist()) for i in range(k)))
    n_steps, s0 = 10 // k, int(rng.integers(code.num_states))
    words = ["".join(map(str, rng.integers(0, 2, n_steps * n)))]
    for flips in (0, 3, n):
        message = "".join(map(str, rng.integers(0, 2, n_steps * k)))
        bits = np.array(list(encode_by_step(code, message, s0)), dtype=int)
        bits[rng.choice(len(bits), flips, replace=False)] ^= 1
        words.append("".join(map(str, bits)))
    inputs, metrics = trellis_decode(code.trellis(), block_values(code, words), s0)
    for steps, metric, word in zip(inputs.tolist(), metrics.tolist(), words):
        ps = build_path_space(code, word, s0)
        index = int("".join(format(u, f"0{k}b") for u in steps), 2)
        # the smallest state path of least metric drives the smallest message index
        assert metric == ps.errors.min() == ps.errors[index]
        assert index == ps.viterbi_index


@PROPERTY_SETTINGS
@given(
    st.lists(st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any),
             min_size=1, max_size=5),
    omegas,
    iteration_counts,
)
def test_amplify_per_row_counts_match_one_row_runs(counts, omega, iterations):
    counts = np.array(counts, dtype=np.int64)
    g = np.exp(1j * omega * np.arange(counts.shape[1]))
    rows = _amplify(g, iterations, counts)
    for row, row_counts in zip(rows, counts):
        assert np.max(np.abs(row - _amplify(g, iterations, row_counts))) <= TOL


def reference_amplify(g, iterations, counts=None):
    """The kernel as it was before it chose its reduction once per call, kept verbatim."""
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


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("counts_kind", ["none", "shared", "per-row"])
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.data())
def test_amplify_matches_reference_kernel(counts_kind, batched, seed, iterations, data):
    # bit for bit, from uniform and split into k1 rounds and then the rest
    rng = np.random.default_rng(seed)
    rows, classes = int(rng.integers(1, 701)), int(rng.integers(1, 41))
    g = np.exp(1j * rng.uniform(0.0, math.pi, (rows, classes) if batched else classes))
    counts = None
    if counts_kind != "none":
        counts = rng.integers(0, 6, (rows, classes) if counts_kind == "per-row" else classes)
        counts[..., rng.integers(classes)] += 1  # every row keeps a path
    expected = reference_amplify(g, iterations, counts)
    assert np.array_equal(_amplify(g, iterations, counts), expected)
    first = data.draw(st.integers(0, iterations))
    state = _amplify(g, first, counts)
    assert np.array_equal(_amplify(g, iterations - first, counts, state), expected)


@pytest.mark.parametrize("phase", ["drawn", "zero", "pi", "repeated"])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2000), omegas)
def test_power_matches_amplify(phase, seed, iterations, omega):
    # the squaring route at every k, against the stepping kernel as its oracle
    rng = np.random.default_rng(seed)
    classes = int(rng.integers(1, 41))
    counts = rng.integers(1, 1 << int(rng.integers(1, 21)), classes)
    values = rng.integers(0, 3 if phase == "repeated" else 64, classes)
    g = np.exp(1j * {"zero": 0.0, "pi": math.pi}.get(phase, omega) * values)
    with mock.patch.object(qva, "SQUARING_ROUNDS", 0):
        got = qva._power(g, iterations, counts)
    assert np.max(np.abs(got - _amplify(g, iterations, counts))) <= TOL
    assert abs(float(counts @ np.abs(got) ** 2) - 1.0) <= TOL
    _, first, inverse = np.unique(g, return_index=True, return_inverse=True)
    assert np.array_equal(got, got[first][inverse])  # equal phases, equal amplitudes


def test_exact_tie_on_the_squaring_route_goes_to_first_path():
    # test_exact_tie_across_classes_goes_to_first_path at k = 101: at omega = 0
    # the classes merge into one, so they tie exactly (unmerged, the squared
    # rounds part the 22 classes of N = 13 by rounding)
    code = ConvCode.from_spec("1,2,2;5,7")
    params = QvaParams(omega=0.0, iterations=101)
    assert params.iterations >= qva.SQUARING_ROUNDS
    for n_steps in (13, 14):
        ps = build_path_space(code, "0" * 2 * n_steps)
        assert run_qva(ps, params).top_index == 0
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(ps.L)
            shuffled = PathSpace(n_steps=ps.n_steps, errors=ps.errors[perm], weights=None)
            assert run_qva(shuffled, params).top_index == 0


def test_squaring_rule_keeps_neglog_spaces_stepping():
    # a neglog space has a class per path, C = L: at L's formula count a space
    # of few enough classes has too few rounds, while the (5,7) frames of
    # N = 14..18 square
    assert qva.path_iterations(qva.SQUARING_CLASSES, 1) < qva.SQUARING_ROUNDS
    code = ConvCode.from_spec("1,2,2;5,7")
    for n_steps in (14, 16, 18):
        ps = build_path_space(code, "01" * n_steps)
        assert len(ps.classes().values) <= qva.SQUARING_CLASSES
        assert qva.formula_iterations(code, n_steps) >= qva.SQUARING_ROUNDS


def per_block_campaign(cfg):
    """The decode campaign one block at a time through the one-word API.

    This is the loop run_decode_campaign replaced: a choice-drawn message,
    HMM Viterbi, and for the iterated mode one run_qva per class with the
    mode re-encoded to check it.
    """
    code = ConvCode.from_spec(cfg.code)
    eps_dec = cli._decode_epsilon(cfg.epsilon)
    hmm = code.to_hmm(eps_dec)
    if cfg.mode == "iterated-qva":
        schedule = default_schedule(
            code, cfg.n_steps, eps_dec, max_errors=cfg.max_errors,
            trials=cfg.trials or 7, iterations=cfg.iterations,
        )
    prob_r = cfg.trials or required_trials(cfg.n_steps)
    results = []
    for block in range(cfg.campaigns):
        rng = np.random.default_rng([cfg.seed, block, 0])
        message = "".join(rng.choice(["0", "1"], cfg.n_steps * code.k))
        channel = BscChannel(cfg.epsilon, seed=[cfg.seed, block, 1])
        received, flips = channel.transmit(code.encode(message))
        row = {
            "block": block,
            "seed": [cfg.seed, block],
            "flips": flips,
            "received": " ".join(split_blocks(received, code.n)),
            "truth": message,
        }
        ps = build_path_space(code, received)
        if cfg.mode == "classical":
            row["decoded"] = viterbi_decode(hmm, split_blocks(received, code.n)).message
        elif cfg.mode == "iterated-qva":
            row["decoded"] = row["accepted_class"] = None
            for cls, entry in enumerate(schedule):
                run = run_qva(ps, QvaParams(omega=entry.omega, iterations=entry.iterations))
                mode, _ = mode_of(measure(run.statevector, [cfg.seed, block, 2, cls], entry.trials))
                if hamming(code.encode(ps.message(mode)), received) <= entry.max_errors:
                    row["decoded"], row["accepted_class"] = ps.message(mode), cls
                    break
        else:
            e = ps.errors.astype(float)
            weights = eps_dec**e * (1.0 - eps_dec) ** (cfg.n_steps * code.n - e)
            state = np.sqrt(weights).astype(complex) / math.sqrt(float(weights.sum()))
            outcome = run_trials(state, prob_r, [cfg.seed, block, 2])
            row["decoded"] = ps.message(outcome.mode_index)
            row["mode_index"], row["mode_count"] = outcome.mode_index, outcome.mode_count
        row["correct"] = int(row["decoded"] == message)
        results.append(row)
    errors = sum(1 - row["correct"] for row in results)
    summary = {
        "blocks": cfg.campaigns,
        "block_errors": errors,
        "block_error_rate": errors / cfg.campaigns,
        "decode_failures": sum(row["decoded"] is None for row in results),
    }
    if cfg.mode == "probabilistic-qva":
        summary["trials_per_block"] = prob_r
    return results, summary


def campaign_config(spec, mode, n_steps, campaigns, seed, epsilon=0.05, max_errors=2):
    base = cli.resolve_config(cli.build_parser().parse_args(["decode"]))
    return base._replace(
        code=spec, mode=mode, n_steps=n_steps, campaigns=campaigns, seed=seed,
        epsilon=epsilon, max_errors=max_errors, n_range=(n_steps, n_steps),
    )


def row_groups_of(rows, paths):
    """Bound qva.path_error_groups at `rows` rows of `paths` paths a group (None: as is).

    The bound is SIZE_LIMIT path cells, so SIZE_LIMIT is patched only while
    the groups are formed: the schedule's sweeps read it too.
    """
    if rows is None:
        return contextlib.nullcontext()
    groups = qva.path_error_groups

    def bounded(*args):
        with mock.patch.object(qva, "SIZE_LIMIT", rows * paths):
            yield from groups(*args)

    return mock.patch.object(qva, "path_error_groups", bounded)


@settings(max_examples=25, deadline=None)
@given(
    codes(),
    st.sampled_from(cli.DECODE_MODES),
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.05, 0.2]),
    st.sampled_from([1, 8, 1 << 14]),
    st.sampled_from([None, 1, 3]),
)
@example(ConvCode.from_spec("1,2,2;5,7"), "iterated-qva", 4, 20, 3, 0.2, 1 << 14, 3)
def test_campaign_rows_match_per_block_loop(
    code, mode, n_steps, campaigns, seed, epsilon, chunk_paths, group_rows
):
    n_steps = min(n_steps, MAX_STEPS_K1 // code.k)
    cfg = campaign_config(code.to_spec(), mode, n_steps, campaigns, seed, epsilon,
                          max_errors=min(2, n_steps * code.n))
    with mock.patch.object(viterbi, "CHUNK_CELLS", chunk_paths), \
            row_groups_of(group_rows, code.fanout**n_steps):
        rows = cli.run_decode_campaign(cfg)
    assert rows == per_block_campaign(cfg)


@pytest.mark.parametrize("chunk_cells", [8, 1 << 14])
@pytest.mark.parametrize("group_rows", [None, 7])
def test_adaptive_decode_rows_count_each_block_once(chunk_cells, group_rows):
    code, n_steps, blocks = ConvCode.from_spec("1,2,2;5,7"), 6, 40
    ys = np.random.default_rng(5).integers(0, 1 << code.n, (blocks, n_steps))
    schedule = default_schedule(code, n_steps, 0.1)
    tables = [streams.seed_table([5], np.arange(blocks), [2, c]) for c in range(len(schedule))]
    expected = qva.adaptive_decode_rows(code, ys, schedule, tables)
    rows = []

    def counted(code, ys, *args):
        rows.append(len(ys))
        return path_error_rows(code, ys, *args)

    with mock.patch.object(qva, "path_error_rows", counted), \
            mock.patch.object(viterbi, "CHUNK_CELLS", chunk_cells), \
            row_groups_of(group_rows, code.fanout**n_steps):
        found = qva.adaptive_decode_rows(code, ys, schedule, tables)
    assert sum(rows) == blocks
    assert np.array_equal(found, expected)
    assert (found[-1, 0] >= 0).any()  # blocks went through every entry of the schedule


@pytest.mark.parametrize("mode", cli.DECODE_MODES)
@pytest.mark.parametrize(
    "spec, n_steps, campaigns",
    [
        ("1,2,2;5,7", 10, 37),  # 16 blocks per chunk, the last chunk short
        ("2,3,1;1,2,3,3,1,2", 7, 3),  # 4^7 paths: one block per chunk
    ],
)
def test_campaign_rows_match_per_block_loop_at_full_chunks(mode, spec, n_steps, campaigns):
    cfg = campaign_config(spec, mode, n_steps, campaigns, seed=23, epsilon=0.08)
    assert cli.run_decode_campaign(cfg) == per_block_campaign(cfg)


@pytest.mark.parametrize("mode", ["iterated-qva", "probabilistic-qva"])
def test_campaign_rows_match_per_block_loop_over_shot_groups(mode):
    # sample_modes draws the uniforms of SHOT_CELLS (row, shot) cells a group: at 200
    # cells, iterated-qva's 7 shots a block give groups of 28 rows, and
    # probabilistic-qva's 88 shots a block at N = 6 groups of 2
    cfg = campaign_config("1,2,2;5,7", mode, 6, 60, seed=29, epsilon=0.08)
    with mock.patch.object(qva, "SHOT_CELLS", 200):
        rows = cli.run_decode_campaign(cfg)
    assert rows == per_block_campaign(cfg)
