import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from code_reference import branch_cost, edges_by_step, hamming, neglog
from qviterbi import circuits, qva, viterbi
from qviterbi.convcode import ConvCode, split_blocks
from qviterbi.errors import SIZE_LIMIT, NoPathError, SizeLimitError
from qviterbi.hmm import Hmm
from qviterbi.qva import build_path_space_hmm
from qviterbi.viterbi import brute_force_decode, path_metric_multiset, viterbi_decode


def blocks_of(received, n=2):
    return split_blocks(received, n)


def random_general_hmm(rng, num_states=3, emissions=("u", "v")):
    """Row-stochastic random HMM with every (i, y) row populated."""
    trans, emit = {}, {}
    for i in range(num_states):
        for y in emissions:
            weights = rng.uniform(0.1, 1.0, num_states)
            weights /= weights.sum()
            for j in range(num_states):
                trans[(i, j, y)] = float(weights[j])
                emit[(i, j, y)] = float(rng.uniform(0.05, 1.0))
    return Hmm(num_states, emissions, trans, emit)


class TestKnownDecodes:
    def test_all_zero_word(self, hmm01):
        result = viterbi_decode(hmm01, blocks_of("00000000"))
        assert result.message == "0000"
        assert result.metric == 0
        assert result.ties == 1
        assert result.path == (0, 0, 0, 0, 0)

    def test_clean_impulse_word(self, hmm01):
        result = viterbi_decode(hmm01, blocks_of("11011100"))
        assert result.message == "1000" and result.metric == 0
        assert result.path == (0, 2, 1, 0, 0)

    def test_single_flip_still_decodes(self, hmm01):
        # flip one bit of the clean word for message 1000
        result = viterbi_decode(hmm01, blocks_of("10011100"))
        oracle = brute_force_decode(hmm01, blocks_of("10011100"))
        assert result.message == "1000" and result.metric == 1
        assert oracle.metric == result.metric and oracle.message == result.message

    def test_metric_is_integer_for_code_hmm(self, hmm01):
        assert isinstance(viterbi_decode(hmm01, blocks_of("1100")).metric, int)


class TestTies:
    def test_equidistant_block_reports_ties(self, hmm01):
        # receive block 01 sits one flip from both outputs leaving state 00
        result = viterbi_decode(hmm01, ["01"])
        assert result.metric == 1
        assert result.ties == 2
        # lexicographically smallest path wins: successor 0 over successor 2
        assert result.path == (0, 0)
        assert result.message == "0"

    def test_brute_force_agrees_on_ties(self, hmm01):
        a = viterbi_decode(hmm01, ["01"])
        b = brute_force_decode(hmm01, ["01"])
        assert (a.path, a.metric, a.ties) == (b.path, b.metric, b.ties)


class TestBruteForceKnownWords:
    def test_two_clean_blocks(self, hmm01):
        assert brute_force_decode(hmm01, ["00", "00"]).metric == 0

    def test_word_that_is_itself_a_codeword(self, code, hmm01):
        # 00 00 00 11 encodes message 0001 exactly, so the unterminated
        # trellis enumeration finds a zero-error path
        assert code.encode("0001") == "00000011"
        result = brute_force_decode(hmm01, ["00", "00", "00", "11"])
        assert result.metric == 0
        assert result.message == "0001"


class TestNoPath:
    def test_unreachable_trellis(self):
        trans = {(0, 1, "a"): 1.0, (1, 1, "b"): 1.0}
        emit = {k: 1.0 for k in trans}
        h = Hmm(2, ("a", "b"), trans, emit)
        # state 0 has no successor on emission "b"
        with pytest.raises(NoPathError):
            viterbi_decode(h, ["b"])
        with pytest.raises(NoPathError):
            brute_force_decode(h, ["b"])

    def test_empty_emissions_rejected(self, hmm01):
        with pytest.raises(ValueError):
            viterbi_decode(hmm01, [])

    def test_unknown_emission_rejected(self, hmm01):
        with pytest.raises(ValueError):
            viterbi_decode(hmm01, ["0x"])


class TestOracleEquivalence:
    def test_random_instances(self, code, hmm01, make_instance):
        for c in range(200):
            _msg, received, n = make_instance([21, c], n_high=8)
            blocks = blocks_of(received)
            a = viterbi_decode(hmm01, blocks)
            b = brute_force_decode(hmm01, blocks)
            assert a.metric == b.metric
            assert a.path == b.path
            assert a.ties == b.ties

    def test_path_edges_exist_and_metric_consistent(self, code, hmm01, make_instance):
        outputs = {(state, nxt): out for state, _u, nxt, out in edges_by_step(code)}
        for c in range(50):
            _msg, received, n = make_instance([22, c], n_high=8)
            blocks = blocks_of(received)
            result = viterbi_decode(hmm01, blocks)
            total = 0
            for t in range(n):
                total += hamming(outputs[(result.path[t], result.path[t + 1])], blocks[t])
            assert total == result.metric


class TestGeneralHmm:
    def test_float_mode_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for c in range(50):
            h = random_general_hmm(rng)
            emissions = [("u", "v")[int(x)] for x in rng.integers(0, 2, 5)]
            a = viterbi_decode(h, emissions)
            b = brute_force_decode(h, emissions)
            assert a.metric == pytest.approx(b.metric, abs=1e-9)
            assert a.path == b.path

    def test_metric_is_negative_log_probability(self):
        rng = np.random.default_rng(32)
        h = random_general_hmm(rng)
        emissions = ["u", "v", "u"]
        result = viterbi_decode(h, emissions)
        prob = 1.0
        for t, y in enumerate(emissions):
            prob *= h.joint_prob(result.path[t], result.path[t + 1], y)
        assert result.metric == pytest.approx(-math.log(prob), abs=1e-9)

    def test_message_is_none_without_code_metadata(self):
        rng = np.random.default_rng(33)
        h = random_general_hmm(rng)
        assert viterbi_decode(h, ["u"]).message is None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(1, 4),
    n=st.integers(1, 5),
    start=st.integers(0, 3),
)
# brute_force_decode keeps a path 1 ulp above the smallest total, which it reaches first
@example(seed=198, num_states=3, n=5, start=0)
@example(seed=2643, num_states=4, n=5, start=2)
def test_zero_probability_branches_match_oracles(seed, num_states, n, start):
    """About half the emission entries are 0, so many branches cost infinity."""
    rng = np.random.default_rng(seed)
    dense = random_general_hmm(rng, num_states)
    emit = {key: p if rng.random() < 0.5 else 0.0 for key, p in dense.emit.items()}
    h = Hmm(num_states, dense.emissions, dense.trans, emit)
    emissions = [("u", "v")[int(x)] for x in rng.integers(0, 2, n)]
    start %= num_states
    ps = build_path_space_hmm(h, emissions, start)
    try:
        b = brute_force_decode(h, emissions, start)
    except NoPathError:
        with pytest.raises(NoPathError):
            viterbi_decode(h, emissions, start)
        assert np.all(ps.weights == math.inf)
        return
    a = viterbi_decode(h, emissions, start)
    assert a.metric == pytest.approx(b.metric, abs=1e-9)
    assert a.path == b.path
    assert b.path == ps.path(ps.viterbi_index)
    assert b.metric == ps.weights[ps.viterbi_index]


def test_brute_force_does_not_extend_zero_probability_prefixes():
    """Half the emissions are 0 at N = 8; only finite prefixes are extended."""
    rng = np.random.default_rng(66)
    dense = random_general_hmm(rng, 3)
    emit = {key: p if rng.random() < 0.5 else 0.0 for key, p in dense.emit.items()}
    h = Hmm(3, dense.emissions, dense.trans, emit)
    emissions = [("u", "v")[int(x)] for x in rng.integers(0, 2, 8)]
    # the enumeration keeps, level by level, exactly the prefixes of finite
    # cost, counted forward: finite[s] of them end in state s
    paths = viterbi.enumerate_paths(h, emissions, 0, ("neglog",), finite_only=True)
    finite = Counter({0: 1})
    for t, y in enumerate(emissions, start=1):
        nxt = Counter()
        for i, ways in finite.items():
            for j, _p in h.successors(i, y):
                if h.joint_prob(i, j, y) > 0.0:
                    nxt[j] += ways
        finite = nxt
        assert Counter(paths.states[t].tolist()) == finite
    assert finite, "the instance must have a path of positive probability"
    b = brute_force_decode(h, emissions)
    a = viterbi_decode(h, emissions)
    assert a.metric == pytest.approx(b.metric, abs=1e-9) and a.path == b.path
    assert b.ties == 1
    # the path space still holds every admissible path, zero-probability ones included
    ps = build_path_space_hmm(h, emissions)
    assert ps.L == 3**8 > sum(finite.values())
    assert b.metric == ps.weights.min() and b.path == ps.path(int(np.argmin(ps.weights)))


class TestMetricMonotonicity:
    def test_single_flip_changes_metric_by_at_most_one(self, code, hmm01, make_instance):
        rng = np.random.default_rng(41)
        for c in range(60):
            _msg, received, _n = make_instance([41, c], n_high=7)
            base = viterbi_decode(hmm01, blocks_of(received)).metric
            pos = int(rng.integers(0, len(received)))
            flipped = received[:pos] + ("1" if received[pos] == "0" else "0") + received[pos + 1 :]
            other = viterbi_decode(hmm01, blocks_of(flipped)).metric
            assert abs(base - other) <= 1


class TestPathMetricMultiset:
    def test_four_step_zero_error_word(self, hmm01):
        multiset = path_metric_multiset(hmm01, blocks_of("0" * 8))
        assert multiset == Counter({0: 1, 2: 1, 3: 3, 4: 5, 5: 4, 6: 1, 7: 1})

    def test_one_step_zero_block(self, hmm01):
        assert path_metric_multiset(hmm01, ["00"]) == Counter({0: 1, 2: 1})

    def test_size_is_fanout_power(self, hmm01, make_instance):
        for c in range(10):
            _msg, received, n = make_instance([51, c], n_high=8)
            multiset = path_metric_multiset(hmm01, blocks_of(received))
            assert sum(multiset.values()) == 2**n

    def test_requires_code_metadata(self):
        rng = np.random.default_rng(52)
        with pytest.raises(ValueError):
            path_metric_multiset(random_general_hmm(rng), ["u"])


class TestGuards:
    def test_enumeration_guard(self, hmm01):
        with pytest.raises(SizeLimitError):
            brute_force_decode(hmm01, ["00"] * 30)
        with pytest.raises(SizeLimitError):
            path_metric_multiset(hmm01, ["00"] * 30)


# ---------------------------------------------------------------------------
# The recursive walk that enumerate_paths replaced, kept as its reference,
# with the visitors the three oracles ran on it.


def walk_paths(h, emissions, initial_state, cost, visit, skip_infinite=False):
    """Depth-first walk over every admissible path, in lexicographic order.

    At each leaf, visit(trail, total) gets the state sequence (start state
    included; the list is reused, so copy it to keep it) and the sum of
    cost(h, i, j, y) over the path's branches, added from its start (an int
    when every cost is one).  With skip_infinite, a prefix whose cost is
    already infinite is not extended, so paths of probability zero are
    never visited.
    """
    viterbi._check_emissions(h, emissions)
    n = len(emissions)
    fan = h.fanout()
    if fan**n > SIZE_LIMIT:
        raise SizeLimitError(f"about {fan}^{n} paths exceeds the size guard")
    trail = [initial_state]

    def step(i, t, acc):
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


def walk_collect(h, emissions, start, cost, skip_infinite=False):
    trails, totals = [], []

    def keep(trail, total):
        trails.append(tuple(trail))
        totals.append(total)

    walk_paths(h, emissions, start, cost, keep, skip_infinite)
    return trails, totals


def walk_brute_force(h, emissions, initial_state=0):
    """The first walked path whose total lies within the slack of the smallest."""
    trails, totals = walk_collect(
        h, emissions, initial_state, branch_cost, h.branch_errors is None
    )
    if not trails:
        raise NoPathError(f"no admissible path from state {initial_state}")
    best = min(totals)
    tol = viterbi._slack(h.branch_errors is not None, best)
    within = [p for p, total in enumerate(totals) if total <= best + tol]
    path = trails[within[0]]
    return viterbi.DecodeResult(
        path=path, message=h.message(path), metric=totals[within[0]], ties=len(within)
    )


def random_sparse_hmm(rng, num_states, emissions=("u", "v")):
    """Random HMM with missing successors and some zero-probability emissions."""
    trans, emit = {}, {}
    for i in range(num_states):
        for y in emissions:
            for j in range(num_states):
                if rng.random() < 0.7:
                    trans[(i, j, y)] = float(rng.uniform(0.05, 1.0))
                    emit[(i, j, y)] = float(rng.uniform(0.05, 1.0)) if rng.random() < 0.7 else 0.0
    return Hmm(num_states, emissions, trans, emit)


@st.composite
def oracle_instances(draw):
    """(hmm, emissions, start): sparse general HMMs and code HMMs with k = 1, 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        h = random_sparse_hmm(rng, draw(st.integers(1, 4)))
        n = draw(st.integers(1, 5))
    else:
        k, n_out, m = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
        masks = rng.integers(0, 1 << (m + 1), size=(k, n_out))
        masks[int(rng.integers(k)), int(rng.integers(n_out))] |= 1 << m
        code = ConvCode(k=k, n=n_out, m=m, generators=tuple(map(tuple, masks.tolist())))
        h = code.to_hmm(float(rng.uniform(0.01, 0.3)))
        n = draw(st.integers(1, 8 // k))
    emissions = [h.emissions[int(x)] for x in rng.integers(0, len(h.emissions), n)]
    return h, emissions, draw(st.integers(0, h.num_states - 1))


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (NoPathError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(oracle_instances())
def test_enumeration_matches_recursive_walk(instance):
    h, emissions, start = instance
    costs = [("neglog", neglog)]
    if h.branch_errors is not None:
        costs.append(("errors", branch_cost))
    for finite_only in (False, True):
        for name, cost in costs:
            trails, totals = walk_collect(h, emissions, start, cost, finite_only)
            paths = viterbi.enumerate_paths(h, emissions, start, (name,), finite_only)
            every = paths.rows(np.arange(len(trails)))
            assert [tuple(row) for row in every.tolist()] == trails
            assert [tuple(paths.rows([p])[0].tolist()) for p in range(len(trails))] == trails
            assert paths.totals[0].tolist() == totals  # bit-identical, inf included

    got = outcome(brute_force_decode, h, emissions, start)
    assert got == outcome(walk_brute_force, h, emissions, start)
    if isinstance(got, viterbi.DecodeResult):
        assert type(got.metric) is (int if h.branch_errors is not None else float)

    trails, weights = walk_collect(h, emissions, start, neglog)
    ps = outcome(build_path_space_hmm, h, emissions, start)
    if not trails:
        assert ps == (ValueError, "no admissible path; check the model and emissions")
        return
    assert [ps.path(p) for p in range(ps.L)] == trails
    assert ps.weights.tolist() == weights
    if h.branch_errors is None:
        assert ps.errors is None
        return
    _trails, errors = walk_collect(h, emissions, start, branch_cost)
    assert ps.errors.tolist() == errors
    assert path_metric_multiset(h, emissions, start) == Counter(errors)


@pytest.mark.parametrize(
    "offsets, winner, ties",
    [
        # the smallest total is the path to 3's; the paths to 2 and 4 lie
        # within tol of it and the one to 1 does not, so the path to 2 is
        # the first co-optimal one
        ((0.0, 0.6, 1.2, 0.7), 2, 3),
        # every total is within tol of the smallest, the path to 3's
        ((0.0, 0.6, 0.9), 1, 3),
        # the path to 3 lies 1.4 tol above the smallest total, the path to
        # 2's, so only the paths to 1 and 2 are co-optimal
        ((0.0, 0.9, -0.5), 1, 2),
    ],
    # the case names stay those of earlier versions of this test, whose rule
    # kept a running best, so each case's result can be followed across them
    ids=["offsets0-3-2", "offsets1-1-3", "offsets2-1-3"],
)
def test_float_near_ties_follow_the_sequential_slack_rule(offsets, winner, ties):
    """Totals a - offset * tol on the one-step paths 0 -> 1, 2, ..., in that order.

    Taken in that sequence, the first path within the slack of the optimum wins.
    """
    base = 2.0
    tol = viterbi.FLOAT_SLACK * base
    targets = [base - offset * tol for offset in offsets]
    trans = {(0, j, "a"): 0.25 for j in range(1, len(offsets) + 1)}
    emit = {(0, j, "a"): 4.0 * math.exp(-v) for j, v in enumerate(targets, start=1)}
    h = Hmm(5, ("a",), trans, emit)
    totals = [neglog(h, 0, j, "a") for j in range(1, len(offsets) + 1)]
    assert totals == pytest.approx(targets, abs=0.05 * tol)
    result = brute_force_decode(h, ["a"])
    assert result == walk_brute_force(h, ["a"]) == viterbi_decode(h, ["a"])
    assert (result.path, result.metric, result.ties) == ((0, winner), totals[winner - 1], ties)
    ps = build_path_space_hmm(h, ["a"])
    assert ps.path(ps.viterbi_index) == (0, winner)


def near_tie_hmm(rng):
    """2-4 states, equal transitions, emissions of a few weights each nudged by a few slacks."""
    num_states = int(rng.integers(2, 5))
    bases, nudges = (0.5, 0.3, 0.2), (0.0, 3e-12, -3e-12, 6e-12, -6e-12, 1e-11)
    keys = [(i, j, y) for i in range(num_states) for y in ("u", "v") for j in range(num_states)]
    trans = {key: 1.0 / num_states for key in keys}
    emit = {key: rng.choice(bases) * (1.0 + rng.choice(nudges)) for key in keys}
    return Hmm(num_states, ("u", "v"), trans, emit)


@pytest.mark.parametrize("seed", range(4))
def test_the_three_oracles_name_one_path_on_float_near_ties(seed):
    """viterbi_decode, brute_force_decode and viterbi_index agree on path and metric."""
    for case in range(100):
        rng = np.random.default_rng([seed, case])
        h = near_tie_hmm(rng)
        emissions = [("u", "v")[int(x)] for x in rng.integers(0, 2, int(rng.integers(1, 7)))]
        a, b = viterbi_decode(h, emissions), brute_force_decode(h, emissions)
        ps = build_path_space_hmm(h, emissions)
        assert a.path == b.path == ps.path(ps.viterbi_index), (seed, case)
        assert a.metric == b.metric == ps.weights[ps.viterbi_index], (seed, case)


def test_first_optimum_of_a_million_descending_totals():
    """Every total is a new running minimum, the worst case of a sequential scan."""
    totals = np.linspace(30, 1, 2**20)
    start = time.perf_counter()
    assert viterbi.first_optimum(totals) == (2**20 - 1, 1.0, 1)
    assert time.perf_counter() - start < 0.25


def test_start_states_out_of_range_are_rejected(hmm01):
    for start in (7, -1, 4):
        for oracle in (brute_force_decode, path_metric_multiset, build_path_space_hmm):
            with pytest.raises(ValueError, match="initial state out of range"):
                oracle(hmm01, ["00", "11"], start)


def _space(ps):
    return ps.errors.tolist(), [ps.path(i) for i in range(ps.L)]


# Every function that takes a start state, each as (code, its Hmm, state) -> a result,
# on one three-block word: BLOCKS as strings, YS as block integers
BLOCKS, YS = ["00", "11", "01"], np.array([[0, 3, 1]])
START_STATE_CALLS = {
    "encode": lambda code, h, s: code.encode("10110", s),
    "encode_rows": lambda code, h, s: code.encode_rows(np.array([[1, 0, 1, 1, 0]]), s).tolist(),
    "path_error_rows": lambda code, h, s: qva.path_error_rows(code, YS, s).tolist(),
    "build_path_space": lambda code, h, s: _space(qva.build_path_space(code, "".join(BLOCKS), s)),
    "build_path_space_hmm": lambda code, h, s: _space(build_path_space_hmm(h, BLOCKS, s)),
    "trellis_decode": lambda code, h, s: [
        a.tolist() for a in viterbi.trellis_decode(code.trellis(), YS, s)
    ],
    "viterbi_decode": lambda code, h, s: viterbi_decode(h, BLOCKS, s),
    "brute_force_decode": lambda code, h, s: brute_force_decode(h, BLOCKS, s),
    "path_metric_multiset": lambda code, h, s: path_metric_multiset(h, BLOCKS, s),
    "chain_state": lambda code, h, s: circuits.chain_state(code, "0011", 0.68, s).tolist(),
    "path_reference": lambda code, h, s: circuits.path_reference(code, "0011", 0.68, s).tolist(),
}


@pytest.mark.parametrize("name", sorted(START_STATE_CALLS))
def test_start_state_must_be_an_integer_state(code, hmm01, name):
    call = START_STATE_CALLS[name]
    for start in (1.5, np.float64(2.0), 0.0):  # never truncated to a state
        with pytest.raises(TypeError):
            call(code, hmm01, start)
    assert repr(call(code, hmm01, np.int64(2))) == repr(call(code, hmm01, 2))
    with pytest.raises(ValueError, match="^initial state out of range$"):
        call(code, hmm01, code.num_states)


def test_brute_force_memory_at_a_million_paths(hmm01):
    """int32 levels keep the 2^20-path enumeration's peak allocation low."""
    blocks = blocks_of("0110" * 10)
    tracemalloc.start()
    try:
        result = brute_force_decode(hmm01, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == viterbi_decode(hmm01, blocks)
    assert peak < 64 * 2**20
