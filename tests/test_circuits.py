import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi.circuits import (
    TwoLevelRotation,
    chain_state,
    chain_step_blocks,
    controlled_block,
    equal_up_to_global_phase,
    gate_counts,
    is_unitary,
    path_reference,
    state_preparation,
    step_block,
    step_blocks,
    step_circuit_00,
    successor_superposition,
)
from qviterbi.convcode import ConvCode
from qviterbi.errors import SizeLimitError
from qviterbi.hmm import Hmm

TOL = 1e-10


class TestTwoLevelRotation:
    def test_identity_outside_subspace(self):
        m = TwoLevelRotation(1, 3, 0.7).matrix(5)
        assert is_unitary(m)
        for idx in (0, 2, 4):
            basis = np.zeros(5)
            basis[idx] = 1.0
            assert np.allclose(m @ basis, basis, atol=1e-15)

    def test_block_entries(self):
        m = TwoLevelRotation(0, 2, 0.3).matrix(3)
        c, s = math.cos(0.3), math.sin(0.3)
        assert m[0, 0] == pytest.approx(c) and m[2, 0] == pytest.approx(s)
        assert m[0, 2] == pytest.approx(-s) and m[2, 2] == pytest.approx(c)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            TwoLevelRotation(1, 1, 0.5).matrix(3)
        with pytest.raises(ValueError):
            TwoLevelRotation(0, 5, 0.5).matrix(3)


class TestStatePreparation:
    def test_trivial_target_is_identity(self):
        u, thetas = state_preparation(np.array([1.0, 0.0]))
        assert np.allclose(u, np.eye(2), atol=1e-15)
        assert thetas[0] == pytest.approx(0.0)

    def test_balanced_pair_single_rotation(self):
        t = 1.0 / math.sqrt(2.0)
        u, thetas = state_preparation(np.array([t, t]))
        assert thetas[0] == pytest.approx(math.pi / 4)
        assert np.allclose(u[:, 0], [t, t], atol=1e-12)
        # matrix entries carry cos(theta) = t directly
        assert u[0, 0] == pytest.approx(t)

    def test_random_r5_target(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        u, _ = state_preparation(x)
        # direct matrix-multiplication oracle
        e0 = np.zeros(5)
        e0[0] = 1.0
        assert np.max(np.abs(u @ e0 - x)) <= TOL
        assert is_unitary(u)

    def test_hundred_random_targets(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            x = rng.standard_normal(k + 1)
            x /= np.linalg.norm(x)
            u, _ = state_preparation(x)
            assert np.max(np.abs(u[:, 0] - x)) <= TOL
            assert is_unitary(u)

    def test_first_column_is_spherical_coordinates(self):
        # independent direction: pick angles, form the rotation product, and
        # compare the first column against the closed-form coordinates
        rng = np.random.default_rng(31)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            thetas = rng.uniform(-math.pi / 2, math.pi / 2, k)
            u = np.eye(k + 1, dtype=complex)
            for j, theta in enumerate(thetas, start=1):
                u = u @ TwoLevelRotation(0, j, theta).matrix(k + 1)
            expected = np.empty(k + 1)
            expected[0] = np.prod(np.cos(thetas))
            for j in range(1, k + 1):
                expected[j] = math.sin(thetas[j - 1]) * np.prod(np.cos(thetas[j:]))
            assert np.allclose(u[:, 0], expected, atol=1e-12)
            # and the recovery round-trips
            _u2, recovered = state_preparation(np.real(u[:, 0]))
            assert np.allclose(recovered, thetas, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            state_preparation(np.zeros(3))
        with pytest.raises(ValueError):
            state_preparation(np.array([0.9, 0.9]))
        with pytest.raises(ValueError):
            state_preparation(np.array([1.0]))
        with pytest.raises(ValueError):
            state_preparation(np.array([1.0 + 0j, 0.0]))


class TestControlledBlock:
    def test_reduces_to_controlled_not_up_to_phase(self):
        u, _ = state_preparation(np.array([0.0, 1.0]))
        gate = controlled_block(1, u, 2)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(np.abs(gate), np.abs(cnot), atol=1e-12)
        assert is_unitary(gate)

    def test_identity_block_is_identity(self):
        assert np.allclose(controlled_block(0, np.eye(3), 4), np.eye(12), atol=1e-15)

    def test_off_control_states_unchanged(self):
        u, _ = state_preparation(np.array([0.5, 0.5, 0.5, 0.5]))
        gate = controlled_block(2, u, 3)
        for j in range(12):
            if not 8 <= j < 12:
                basis = np.zeros(12)
                basis[j] = 1.0
                assert np.allclose(gate @ basis, basis, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            controlled_block(3, np.eye(2), 3)
        with pytest.raises(ValueError):
            controlled_block(0, np.ones((2, 3)), 2)


class TestStepBlock:
    def test_unitary_for_every_receive_block(self, code):
        for value in range(4):
            block = step_block(code, format(value, "02b"), 0.68)
            assert is_unitary(block)

    def test_first_columns_are_successor_superpositions(self, code):
        q = code.num_states
        for value in range(4):
            y = format(value, "02b")
            v = step_block(code, y, 0.9)
            for i in range(q):
                column = v[i * q : (i + 1) * q, i * q]
                psi = successor_superposition(code, i, y, 0.9)
                assert np.allclose(column, psi, atol=1e-12)
                assert np.sum(np.abs(column) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_reference_mapping_row_for_state_10(self, code):
        # |10>|00> maps to |10> (e^{i w}|01> + e^{i w}|11>)/sqrt(2)
        psi = successor_superposition(code, 2, "00", 0.68)
        expected = np.zeros(4, dtype=complex)
        expected[1] = expected[3] = np.exp(1j * 0.68) / math.sqrt(2.0)
        assert np.allclose(psi, expected, atol=1e-12)

    def test_phase_multiset_per_block_is_label_invariant(self, code):
        # states 00 and 01 carry phases {0, 2w}; states 10 and 11 carry {w, w}
        for state, expected in [(0, [0, 2]), (1, [0, 2]), (2, [1, 1]), (3, [1, 1])]:
            psi = successor_superposition(code, state, "00", 0.5)
            found = sorted(
                round(a / 0.5) for a in np.angle(psi[np.abs(psi) > 1e-12]) % (2 * math.pi)
            )
            assert found == expected

    def test_block_diagonal_structure(self, code):
        q = code.num_states
        v = step_block(code, "01", 0.3)
        for i in range(q):
            for j in range(q):
                if i != j:
                    sub = v[i * q : (i + 1) * q, j * q : (j + 1) * q]
                    assert np.max(np.abs(sub)) == 0.0

    def test_first_column_agrees_with_canonical_preparation(self, code):
        # magnitudes via the rotation-product constructor, phases multiplied
        # in afterwards, must reproduce the structured block's first column
        psi = successor_superposition(code, 1, "00", 0.77)
        magnitudes = np.abs(psi)
        u, _ = state_preparation(magnitudes)
        phased = np.exp(1j * np.angle(psi)) * u[:, 0]
        block = step_block(code, "00", 0.77)[4:8, 4]
        assert np.allclose(phased, block, atol=1e-12)

    def test_received_block_length_validated(self, code):
        with pytest.raises(ValueError):
            step_block(code, "0", 0.5)
        for bad in ("0x", "+1", " 1"):  # int(block, 2) alone reads "+1" and " 1" as 1
            with pytest.raises(ValueError):
                step_block(code, bad, 0.5)
            with pytest.raises(ValueError):
                successor_superposition(code, 0, bad, 0.5)

    def test_successor_state_validated(self, code):
        for state in (-1, code.num_states):
            with pytest.raises(ValueError):
                successor_superposition(code, state, "00", 0.5)

    def test_wide_code_blocks(self):
        # two message bits per step, single memory block: four-way fan-out
        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        v = step_block(wide, "101", 0.44)
        assert is_unitary(v)
        q = wide.num_states
        for i in range(q):
            column = v[i * q : (i + 1) * q, i * q]
            assert np.allclose(column, successor_superposition(wide, i, "101", 0.44), atol=1e-12)


@st.composite
def codes_with_block(draw):
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    masks = draw(st.lists(st.integers(0, (1 << (m + 1)) - 1), min_size=k * n, max_size=k * n))
    masks[0] |= 1 << m  # some generator must have degree exactly m
    code = ConvCode(k=k, n=n, m=m, generators=tuple(
        tuple(masks[i * n : (i + 1) * n]) for i in range(k)
    ))
    return code, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=60, deadline=None)
@given(codes_with_block(), st.floats(0.0, math.pi))
def test_step_blocks_feed_every_view_of_the_step(code_and_block, omega):
    code, y = code_and_block
    received = format(y, f"0{code.n}b")
    blocks = step_blocks(code, received, omega)
    q = code.num_states
    assert blocks.shape == (q, q, q)
    assert all(is_unitary(b) for b in blocks)
    if q <= 16:  # the dense form has q^4 entries
        dense = step_block(code, received, omega)
        expected = np.zeros_like(dense)
        for i in range(q):
            expected[i * q : (i + 1) * q, i * q : (i + 1) * q] = blocks[i]
        assert np.array_equal(dense, expected)
    trellis = code.trellis()
    for i in range(q):
        psi = successor_superposition(code, i, received, omega)
        assert np.array_equal(psi, blocks[i, :, 0])
        built = np.zeros(q, dtype=complex)
        built[trellis.next_state[i]] = np.exp(1j * omega * trellis.dist[i, :, y]) / math.sqrt(
            code.fanout
        )
        # (1/sqrt 2)^k and 1/sqrt(2^k) differ by an ulp for k >= 2
        assert np.max(np.abs(psi - built)) <= (0.0 if code.k == 1 else 1e-15)


class TestStepCircuit:
    def test_matches_block_for_twenty_random_phase_units(self, code):
        rng = np.random.default_rng(41)
        for _ in range(20):
            omega = float(rng.uniform(0.01, math.pi - 0.01))
            circuit = step_circuit_00(omega)
            block = step_block(code, "00", omega)
            assert equal_up_to_global_phase(circuit, block, TOL)
            assert is_unitary(circuit)

    def test_zero_phase_unit_is_pure_fanout(self, code):
        circuit = step_circuit_00(0.0)
        assert np.allclose(circuit, step_block(code, "00", 0.0), atol=1e-12)
        # every nonzero entry is then +-1/sqrt(2) or 1
        mags = np.abs(circuit[np.abs(circuit) > 1e-12])
        assert set(np.round(mags, 12)) <= {1.0, round(1 / math.sqrt(2), 12)}

    def test_reference_mapping_rows(self):
        w = 0.68
        circuit = step_circuit_00(w)
        # control state 10: e^{iw} (|01> + |11>)/sqrt(2) on the target register
        col = circuit[:, 2 * 4]
        expected = np.zeros(16, dtype=complex)
        expected[2 * 4 + 1] = expected[2 * 4 + 3] = np.exp(1j * w) / math.sqrt(2)
        assert np.allclose(col, expected, atol=1e-12)


class TestChain:
    def test_single_step_chain_is_the_step_block(self, code):
        assert np.allclose(
            chain_step_blocks(code, "00", 0.68), step_block(code, "00", 0.68), atol=1e-15
        )

    def test_two_step_chain_supported_on_admissible_paths(self, code):
        received = "0000"
        state = chain_state(code, received, 0.68)
        support = np.flatnonzero(np.abs(state) > 1e-12)
        expected_support = np.flatnonzero(path_reference(code, received, 0.68))
        assert len(expected_support) == 4
        assert np.array_equal(support, expected_support)

    def test_amplitudes_match_path_level(self, code):
        for received in ("0000", "1101", "0110"):
            state = chain_state(code, received, 0.47)
            assert np.max(np.abs(state - path_reference(code, received, 0.47))) <= 1e-12

    def test_nonzero_initial_state(self, code):
        received, omega = "0110", 0.47
        n = 2
        unitary = chain_step_blocks(code, received, omega)
        for s0 in (1, 2, 3):
            state = chain_state(code, received, omega, initial_state=s0)
            column = unitary[:, s0 << (code.state_bits * n)]
            assert np.max(np.abs(state - column)) <= 1e-12
            reference = path_reference(code, received, omega, initial_state=s0)
            assert np.max(np.abs(state - reference)) <= 1e-12

    def test_chain_unitary(self, code):
        assert is_unitary(chain_step_blocks(code, "0000", 0.9))

    def test_qubit_guard(self, code):
        with pytest.raises(SizeLimitError):
            chain_step_blocks(code, "00" * 6, 0.5)
        with pytest.raises(SizeLimitError):
            chain_state(code, "00" * 6, 0.5)
        with pytest.raises(SizeLimitError):
            path_reference(code, "00" * 6, 0.5)

    def test_wide_code_chain_matches_path_level(self):
        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        received = "101010"
        state = chain_state(wide, received, 0.3)
        assert np.max(np.abs(state - path_reference(wide, received, 0.3))) <= 1e-12


    def test_constraint_length_seven_chain_matches_path_level(self):
        # the standard (171,133) code: one step spans two 6-qubit registers
        k7 = ConvCode.from_spec("1,2,6;171,133")
        for received in ("00", "01", "10", "11"):
            state = chain_state(k7, received, 0.68)
            assert np.max(np.abs(state - path_reference(k7, received, 0.68))) <= 1e-12


class TestGateCounts:
    def test_reference_code_counts(self, code):
        counts = gate_counts(code, 4)
        assert counts.rotations == 4 * 4 * 2 == 32
        assert counts.control_logic == 32  # (log2 2)^2 = 1
        assert counts.total == 64

    def test_linear_in_steps(self, code):
        assert gate_counts(code, 8).total == 2 * gate_counts(code, 4).total

    def test_unit_fanout_has_no_control_logic(self):
        trans = {(i, (i + 1) % 3, "a"): 1.0 for i in range(3)}
        emit = {k: 1.0 for k in trans}
        chain = Hmm(3, ("a",), trans, emit)
        counts = gate_counts(chain, 5)
        assert counts.control_logic == 0
        assert counts.total == counts.rotations == 5 * 3 * 1

    def test_accounting_identity(self, code):
        for n in (1, 3, 10):
            counts = gate_counts(code, n)
            q, f = code.num_states, code.fanout
            assert counts.total == n * q * f + n * q * f * int(math.log2(f)) ** 2

    def test_wide_code(self):
        wide = ConvCode(k=2, n=3, m=1, generators=((1, 2, 3), (3, 1, 2)))
        counts = gate_counts(wide, 2)
        assert counts.rotations == 2 * 4 * 4
        assert counts.control_logic == 2 * 4 * 4 * 4  # (log2 4)^2 = 4


class TestGlobalPhaseComparison:
    def test_phase_multiplied_matrices_compare_equal(self):
        rng = np.random.default_rng(53)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert equal_up_to_global_phase(np.exp(1j * 1.23) * m, m, 1e-10)

    def test_distinct_matrices_compare_unequal(self):
        assert not equal_up_to_global_phase(np.eye(2), np.diag([1.0, -1.0]), 1e-10)
