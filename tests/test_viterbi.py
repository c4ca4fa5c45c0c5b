import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi.convcode import hamming, split_blocks
from qviterbi.errors import NoPathError, SizeLimitError
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
        edges = {(t.from_state, t.to_state): t for t in code.state_diagram()}
        for c in range(50):
            _msg, received, n = make_instance([22, c], n_high=8)
            blocks = blocks_of(received)
            result = viterbi_decode(hmm01, blocks)
            total = 0
            for t in range(n):
                edge = edges[(result.path[t], result.path[t + 1])]
                total += hamming(edge.output, blocks[t])
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
    first_best = int(np.argmin(ps.weights))
    assert b.path == ps.path(first_best)
    assert b.metric == ps.weights[first_best]


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
