"""Gate constructions for the trellis step operators.

Everything here is verified at desk scale against the path-level simulator:
state-preparation unitaries built from two-level rotations, controlled
blocks, the per-step fan-out-plus-phase operator, its explicit gate-level
form for the bundled (5,7) code, the full-register chain of step operators,
and the analytic gate-count accounting.

The step operator is held as its (S, S, S) stack of per-control blocks
(step_blocks); the dense two-register matrix is built only for comparison
with the gate-level circuit.  The Gray-code synthesis down to elementary
gates is counted by gate_counts but never emitted as a netlist.
"""
from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .convcode import ConvCode, parse_blocks
from .errors import SizeLimitError, check_size, check_state
from .hmm import Hmm
from .qva import build_path_space

UNITARY_TOL = 1e-10

# Dense chains get big fast; 12 qubits (4096 x 4096) is the ceiling.
CHAIN_QUBIT_LIMIT = 12

_H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True when a == e^{i phi} b entrywise for a single phase phi."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_a, flat_b = a.ravel(), b.ravel()
    anchor = int(np.argmax(np.abs(flat_b)))
    if abs(flat_b[anchor]) <= tol:
        return bool(np.max(np.abs(flat_a)) <= tol)
    phase = flat_a[anchor] / flat_b[anchor]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(flat_a - phase * flat_b)) <= tol)


class TwoLevelRotation(NamedTuple):
    """Planar rotation acting on span{|a>, |b>} and as identity elsewhere.

    The angle parameterizes matrix entries directly: cos(theta) on the
    diagonal of the 2x2 block, so theta plays the role of the t-parameter
    t = cos(theta) with the sign of sin(theta) kept.
    """

    a: int
    b: int
    theta: float

    def matrix(self, dim: int) -> np.ndarray:
        if not (0 <= self.a < dim and 0 <= self.b < dim) or self.a == self.b:
            raise ValueError("rotation indices must be distinct and in range")
        m = np.eye(dim, dtype=complex)
        c, s = math.cos(self.theta), math.sin(self.theta)
        m[self.a, self.a] = c
        m[self.a, self.b] = -s
        m[self.b, self.a] = s
        m[self.b, self.b] = c
        return m


def state_preparation(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary sending basis state 0 to a real unit vector, plus its angles.

    Builds the product R(theta_1)_{0,1} R(theta_2)_{0,2} ... R(theta_K)_{0,K}
    whose first column is the target; the angles are the spherical
    coordinates of the target, recovered from prefix norms so entries of
    either sign are reachable.
    """
    if np.iscomplexobj(target):
        raise ValueError("target must be a real vector")
    x = np.asarray(target, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("target must be a vector in R^(K+1) with K >= 1")
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise ValueError("target must have unit norm")
    dim = len(x)
    thetas = np.empty(dim - 1)
    for j in range(1, dim):
        # prefix "radius"; for j = 1 it is the signed first component
        pj = x[0] if j == 1 else float(np.linalg.norm(x[:j]))
        thetas[j - 1] = math.atan2(x[j], pj)
    u = np.eye(dim, dtype=complex)
    for j, theta in enumerate(thetas, start=1):
        u = u @ TwoLevelRotation(0, j, theta).matrix(dim)
    return u, thetas


def controlled_block(control_value: int, u: np.ndarray, num_control_levels: int) -> np.ndarray:
    """Block-diagonal operator: u on the control=k block, identity elsewhere."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("block must be a square matrix")
    if not 0 <= control_value < num_control_levels:
        raise ValueError("control value out of range")
    d = u.shape[0]
    out = np.eye(num_control_levels * d, dtype=complex)
    lo = control_value * d
    out[lo : lo + d, lo : lo + d] = u
    return out


def step_blocks(code: ConvCode, received_block: str, omega: float) -> np.ndarray:
    """One trellis step as its stack of per-control blocks, shape (S, S, S).

    Block i sends target |0> to the phase-weighted superposition over i's
    successors (fan-out and marking combined, as on the first amplification
    pass): a phase diagonal times Hadamards on the fresh message bits times
    the NOT pattern copying the retained control bits, as the gate-level
    construction realizes it.  Stacks over SIZE_LIMIT entries are refused.
    """
    check_size(code.num_states**3, f"{code.num_states}^3 step-block entries")
    if len(received_block) != code.n:
        raise ValueError(f"received block must have {code.n} bits")
    errors = code.trellis().branch_errors(parse_blocks(received_block, code.n))
    return _edge_phase_blocks(code, errors[0], omega)


def _edge_phase_blocks(code: ConvCode, errors: np.ndarray, omega: float) -> np.ndarray:
    """step_blocks from the bit errors of every edge against the block, shape (states, inputs)."""
    h_k = reduce(np.kron, [_H1] * code.k)
    suffix_bits = code.k * (code.m - 1)
    low = (1 << suffix_bits) - 1
    states = np.arange(code.num_states)
    i, j, c = np.ix_(states, states, states)
    copies = (j & low) == (c & low) ^ (i >> code.k)
    phases = np.exp(1j * omega * errors[i, j >> suffix_bits])
    return np.where(copies, phases * h_k[j >> suffix_bits, c >> suffix_bits], 0.0)


def step_block(code: ConvCode, received_block: str, omega: float) -> np.ndarray:
    """The step operator as one block-diagonal unitary on two state registers."""
    blocks = step_blocks(code, received_block, omega)
    q = len(blocks)
    out = np.zeros((q, q, q, q), dtype=complex)
    out[np.arange(q), :, np.arange(q), :] = blocks
    return out.reshape(q * q, q * q)


def _controlled_1q(n_qubits: int, control: int, cval: int, target: int, gate: np.ndarray) -> np.ndarray:
    """Single-qubit gate on `target`, active when `control` reads cval.

    Qubits are numbered from the most significant bit of the basis index.
    """
    dim = 1 << n_qubits
    cpos = n_qubits - 1 - control
    tpos = n_qubits - 1 - target
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if (b >> cpos) & 1 != cval:
            m[b, b] = 1.0
            continue
        tbit = (b >> tpos) & 1
        b0 = b & ~(1 << tpos)
        m[b0, b] = gate[0, tbit]
        m[b0 | (1 << tpos), b] = gate[1, tbit]
    return m


def _rz(phi: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)


def step_circuit_00(omega: float) -> np.ndarray:
    """Gate-level step operator of the (5,7) code for received block 00.

    Four qubits (two control, two target, most significant first), seven
    gates: an anti-controlled and a controlled Hadamard fanning out the new
    message bit, a NOT-conjugated phase rotation by 2*omega putting the
    two-error phase on the right branch, a controlled global phase of omega
    for the one-error-per-branch states, and a final NOT copying the
    retained control bit into the target register.
    """
    gates = [
        _controlled_1q(4, 0, 0, 2, _H1),
        _controlled_1q(4, 0, 1, 2, _H1),
        _controlled_1q(4, 1, 1, 2, _X),
        _controlled_1q(4, 0, 0, 2, _rz(2.0 * omega)),
        _controlled_1q(4, 1, 1, 2, _X),
        _controlled_1q(4, 0, 1, 3, np.exp(1j * omega) * np.eye(2)),
        _controlled_1q(4, 0, 1, 3, _X),
    ]
    u = np.eye(16, dtype=complex)
    for gate in gates:
        u = gate @ u
    return u


def _chain_qubits(code: ConvCode, n_steps: int) -> int:
    """Qubits of N+1 state registers, refused above CHAIN_QUBIT_LIMIT."""
    total_bits = (n_steps + 1) * code.state_bits
    if total_bits > CHAIN_QUBIT_LIMIT:
        raise SizeLimitError(
            f"chain needs {total_bits} qubits, over the {CHAIN_QUBIT_LIMIT}-qubit guard"
        )
    return total_bits


def chain_state(code: ConvCode, received: str, omega: float, initial_state: int = 0) -> np.ndarray:
    """State the chain of step operators produces from |initial_state>|0...0>.

    Register t of the N+1 state registers holds the state after t steps.
    Step t touches only registers t-1 and t, so it is one matmul of the step
    blocks against a (left, Q, Q, rest) view of the state, broadcast over
    the control register t-1; the full chain unitary is never formed.  The
    qubit guard keeps every step's (S, S, S) stack far under SIZE_LIMIT.
    """
    initial_state = check_state(initial_state, code.num_states)
    blocks = code.received_blocks(received)
    n = len(blocks)
    q_bits = code.state_bits
    x = np.zeros(1 << _chain_qubits(code, n), dtype=complex)
    x[initial_state << (q_bits * n)] = 1.0
    for t, errors in enumerate(code.trellis().branch_errors(blocks), start=1):
        v = _edge_phase_blocks(code, errors, omega)
        x = (v @ x.reshape(1 << (q_bits * (t - 1)), len(v), len(v), -1)).reshape(x.shape)
    return x


def path_reference(
    code: ConvCode, received: str, omega: float, initial_state: int = 0
) -> np.ndarray:
    """The state chain_state should produce, built from the path space.

    Each admissible path (s_0, ..., s_N) from initial_state gets amplitude
    exp(i omega e) / sqrt(L), where e is its bit-error count, at the index
    that holds s_t in register t (register 0 most significant).
    """
    ps = build_path_space(code, received, initial_state)
    n = ps.n_steps
    reference = np.zeros(1 << _chain_qubits(code, n), dtype=complex)
    for i in range(ps.L):
        index = 0
        for t, s in enumerate(ps.path(i)):
            index |= s << (code.state_bits * (n - t))
        reference[index] = np.exp(1j * omega * ps.errors[i]) / math.sqrt(ps.L)
    return reference


class GateCount(NamedTuple):
    """Analytic elementary-operation counts for one full marking pass."""

    rotations: int
    control_logic: int
    total: int


def gate_counts(source: ConvCode | Hmm, n_steps: int) -> GateCount:
    """Rotation and Gray-code control-logic counts for N chained steps.

    Each of the N steps carries |Q| controlled blocks; each block needs F
    two-level rotations plus F (log2 F)^2 subspace-changing operations, so
    the total is N |Q| F (1 + (log2 F)^2).
    """
    fan = source.fanout if isinstance(source, ConvCode) else source.fanout()
    if fan < 1:
        raise ValueError("fanout must be at least 1")
    log_f = (fan - 1).bit_length()  # ceil(log2 F), exact for every F
    rotations = n_steps * source.num_states * fan
    control_logic = rotations * log_f * log_f
    return GateCount(rotations, control_logic, total=rotations + control_logic)
