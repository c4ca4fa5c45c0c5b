import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi.convcode import BscChannel, ConvCode, Transition, error_count, hamming


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


class TestStateDiagram:
    def test_matches_hand_derived_edges(self, code):
        edges = {(t.from_state, t.input): (t.to_state, t.output) for t in code.state_diagram()}
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
        diagram = code.state_diagram()
        assert len(diagram) == code.num_states * code.fanout
        for s in range(code.num_states):
            outgoing = [t for t in diagram if t.from_state == s]
            assert len(outgoing) == code.fanout
            assert len({t.input for t in outgoing}) == code.fanout

    def test_output_cosets(self, code):
        # outputs leaving a state differ by the input-1 output from the zero
        # state, a consequence of linearity; their error counts against any
        # fixed receive block therefore total the same for every block
        shift = code.encode("1")[: code.n]
        for s in range(code.num_states):
            outs = [t.output for t in code.state_diagram() if t.from_state == s]
            assert xor_bits(outs[0], outs[1]) == shift
        for value in range(4):
            y = format(value, "02b")
            total = sum(error_count(t, y) for t in code.state_diagram())
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
    assert code.state_diagram() == tuple(
        Transition(state, u, *edge) for state, row in enumerate(steps) for u, edge in enumerate(row)
    )


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
    def test_lattice_arrows(self, code):
        t00 = Transition(0, 0, 0, "00")
        t11 = Transition(0, 1, 2, "11")
        t01 = Transition(2, 0, 1, "01")
        assert error_count(t00, "00") == 0
        assert error_count(t11, "00") == 2
        assert error_count(t01, "00") == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_count(Transition(0, 0, 0, "00"), "0")

    def test_hamming_validation(self):
        assert hamming("0110", "0101") == 2
        with pytest.raises(ValueError):
            hamming("01", "011")


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
        assert not code.to_hmm(0.1).check_doubly_normalized()

    def test_epsilon_domain(self, code):
        for bad in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ValueError):
                code.to_hmm(bad)

    def test_edge_metadata(self, code, hmm01):
        for t in code.state_diagram():
            assert hmm01.edge_inputs[(t.from_state, t.to_state)] == t.input
        assert hmm01.input_bits == 1
