import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from code_reference import edges_by_step, reference_to_hmm
from qviterbi.convcode import BscChannel, ConvCode
from qviterbi.viterbi import brute_force_decode, viterbi_decode


def xor_bits(a: str, b: str) -> str:
    return "".join("01"[x != y] for x, y in zip(a, b))


class TestSpecString:
    def test_parse_octal_masks(self, code):
        parsed = ConvCode.from_spec("1,2,2;5,7")
        assert parsed == code
        assert parsed.generators == ((0b101, 0b111),)
        assert parsed.to_spec() == "1,2,2;5,7"

    def test_malformed_specs(self):
        # output blocks are int64: 63 outputs fit, 64 do not
        wide = "1,64,1;" + ",".join(["3"] * 64)
        for bad in ("", "1,2,2", "1,2,2;5", "a,b,c;5,7", "1,2,2;5,7,3", wide):
            with pytest.raises(ValueError):
                ConvCode.from_spec(bad)
        assert ConvCode.from_spec("1,63,1;" + ",".join(["3"] * 63)).n == 63

    def test_degree_must_match_memory(self):
        with pytest.raises(ValueError):
            ConvCode(k=1, n=2, m=3, generators=((0b101, 0b111),))


def code_edges(code):
    """Every edge (state, input, next_state, output bits) read off the trellis tables."""
    table = code.trellis()
    rows = zip(table.next_state.tolist(), table.output.tolist())
    return [
        (state, u, nxt, format(out, f"0{code.n}b"))
        for state, row in enumerate(rows)
        for u, (nxt, out) in enumerate(zip(*row))
    ]


class TestStateDiagram:
    def test_matches_hand_derived_edges(self, code):
        edges = {(s, u): (nxt, out) for s, u, nxt, out in code_edges(code)}
        assert edges == {
            (0, 0): (0, "00"),
            (0, 1): (2, "11"),
            (1, 0): (0, "11"),
            (1, 1): (2, "00"),
            (2, 0): (1, "01"),
            (2, 1): (3, "10"),
            (3, 0): (1, "10"),
            (3, 1): (3, "01"),
        }

    def test_edge_counts(self, code):
        table = code.trellis()
        assert table.next_state.shape == table.output.shape == (code.num_states, code.fanout)
        for s in range(code.num_states):
            # the inputs leaving a state reach distinct successors
            assert len(set(table.next_state[s].tolist())) == code.fanout

    def test_output_cosets(self, code):
        # outputs leaving a state differ by the input-1 output from the zero
        # state, a consequence of linearity; their error counts against any
        # fixed receive block therefore total the same for every block
        shift = code.encode("1")[: code.n]
        for s in range(code.num_states):
            outs = [out for state, _u, _nxt, out in code_edges(code) if state == s]
            assert xor_bits(outs[0], outs[1]) == shift
        for value in range(4):
            total = int(np.bitwise_count(code.trellis().output ^ value).sum())
            assert total == 8


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_trellis_tables_match_step(k, n, m, seed):
    """Every (state, input) entry of the array-built tables is what step gives."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << (m + 1), size=(k, n))
    masks[int(rng.integers(k)), int(rng.integers(n))] |= 1 << m
    code = ConvCode(k=k, n=n, m=m, generators=tuple(map(tuple, masks.tolist())))
    steps = [[code.step(state, u) for u in range(code.fanout)] for state in range(code.num_states)]
    table = code.trellis()
    assert table.next_state.tolist() == [[nxt for nxt, _out in row] for row in steps]
    assert table.output.tolist() == [[int(out, 2) for _nxt, out in row] for row in steps]


class TestEncode:
    def test_all_zero_fixed_point(self, code):
        assert code.encode("0000") == "00000000"

    def test_impulse_walk(self, code):
        assert code.encode("1000") == "11011100"

    def test_shifted_impulse_walk(self, code):
        assert code.encode("0010") == "00001101"

    def test_length_and_validation(self, code):
        assert len(code.encode("0" * 6)) == 12
        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        with pytest.raises(ValueError):
            wide.encode("011")  # not divisible by k=2
        with pytest.raises(ValueError):
            code.encode("01x")
        for state in (-1, code.num_states):
            with pytest.raises(ValueError):
                code.encode("01", state)

    def test_linearity_over_gf2(self, code):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            a = "".join(rng.choice(["0", "1"], n))
            b = "".join(rng.choice(["0", "1"], n))
            lhs = code.encode(xor_bits(a, b))
            rhs = xor_bits(code.encode(a), code.encode(b))
            assert lhs == rhs

    def test_wide_code_shapes(self):
        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        assert wide.num_states == 4
        word = wide.encode("0110")
        assert len(word) == 6
        # zero input from zero state stays silent
        assert wide.encode("00") == "000"


class TestErrorCount:
    def test_lattice_arrows(self, code, hmm01):
        # edges 00->00, 00->10 and 10->01 emit 00, 11 and 01: 0, 2 and 1 errors against 00
        errors = np.bitwise_count(code.trellis().output ^ 0b00)
        assert [errors[0, 0], errors[0, 1], errors[2, 0]] == [0, 2, 1]
        keys = [(0, 0, "00"), (0, 2, "00"), (2, 1, "00")]
        assert [hmm01.branch_errors[key] for key in keys] == [0, 2, 1]


class TestChannel:
    def test_zero_epsilon_is_transparent(self):
        channel = BscChannel(0.0, seed=1)
        word = "0110100111"
        received, flips = channel.transmit(word)
        assert received == word and flips == 0

    def test_fixed_seed_reproducible(self):
        a = BscChannel(0.1, seed=1234).transmit("01101001" * 4)
        b = BscChannel(0.1, seed=1234).transmit("01101001" * 4)
        assert a == b

    def test_flip_count_consistency(self):
        word = "0" * 1000
        received, flips = BscChannel(0.2, seed=7).transmit(word)
        assert received.count("1") == flips

    def test_empirical_flip_rate(self):
        word = "0" * 1_000_000
        _received, flips = BscChannel(0.1, seed=99).transmit(word)
        assert abs(flips / 1e6 - 0.1) < 1e-3

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            BscChannel(0.5)
        with pytest.raises(ValueError):
            BscChannel(-0.01)


class TestToHmm:
    def test_emission_values(self, code, hmm01):
        # clean edge 00->00 against receive block 00
        assert hmm01.emit[(0, 0, "00")] == pytest.approx(0.81, abs=1e-15)
        # edge 00->10 outputs 11, two flips away from 00
        assert hmm01.emit[(0, 2, "00")] == pytest.approx(0.01, abs=1e-15)
        assert hmm01.branch_errors[(0, 2, "00")] == 2

    def test_uniform_prior(self, code, hmm01):
        for y in hmm01.emissions:
            assert hmm01.trans[(0, 0, y)] == 0.5
            assert hmm01.trans[(0, 2, y)] == 0.5

    def test_row_stochastic_for_all_epsilon(self, code):
        for eps in (0.02, 0.1, 0.25, 0.49):
            assert code.to_hmm(eps).check_row_stochastic().passed

    def test_not_doubly_normalized_at_typical_epsilon(self, code):
        # sum_j P(j|i,y) P(y|i,j) over state 00's row on block 00 is 0.5*0.81 + 0.5*0.01
        h = code.to_hmm(0.1)
        assert sum(h.joint_prob(0, j, "00") for j in range(code.num_states)) == pytest.approx(0.41)

    def test_epsilon_domain(self, code):
        for bad in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ValueError):
                code.to_hmm(bad)

    def test_edge_metadata(self, code, hmm01):
        for state, u, nxt, _out in edges_by_step(code):
            assert hmm01.edge_inputs[(state, nxt)] == u
        assert hmm01.input_bits == 1


@st.composite
def small_codes(draw):
    k, n, m = draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    masks = draw(st.lists(st.integers(0, (1 << (m + 1)) - 1), min_size=k * n, max_size=k * n))
    masks[draw(st.integers(0, k * n - 1))] |= 1 << m  # some generator has degree exactly m
    return ConvCode(k=k, n=n, m=m, generators=tuple(
        tuple(masks[i * n : (i + 1) * n]) for i in range(k)
    ))


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.floats(1e-6, 0.5, exclude_max=True))
def test_to_hmm_matches_step_reference(code, epsilon):
    """The table-built model equals the edge-by-edge one, entry for entry and in order."""
    got, want = code.to_hmm(epsilon), reference_to_hmm(code, epsilon)
    assert got.emissions == want.emissions and got.input_bits == want.input_bits
    for name in ("trans", "emit", "branch_errors", "edge_inputs"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name
    assert got.check_row_stochastic() == want.check_row_stochastic()


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.floats(1e-6, 0.5, exclude_max=True))
def test_to_hmm_tables_match_step_reference(code, epsilon):
    """The trellis-filled tables equal those the dict path fills from the edge-by-edge maps."""
    got, want = code.to_hmm(epsilon), reference_to_hmm(code, epsilon)
    assert got.succ.shape == want.succ.shape == (1 << code.n, code.num_states, code.fanout)
    assert np.array_equal(got.succ, want.succ)
    assert got.tables.keys() == want.tables.keys() == {"trans", "emit", "errors", "neglog"}
    for name in ("trans", "emit", "errors"):
        assert np.array_equal(got.tables[name], want.tables[name]), name
    assert got.tables["neglog"].tobytes() == want.tables["neglog"].tobytes()


def test_wide_code_model_memory():
    """The 16-output code's model is 2^16 symbols of tables, with no map keyed (i, j, y)."""
    code = ConvCode.from_spec("1,16,2;" + ",".join(["5,7"] * 8))
    blocks = [format(0x1234, "016b"), format(0xBEEF, "016b")]
    tracemalloc.start()
    try:
        h = code.to_hmm(0.1)
        assert h.fanout() == 2
        result = brute_force_decode(h, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == viterbi_decode(h, blocks)
    assert peak < 64 * 2**20
