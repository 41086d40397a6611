"""Shared test utilities: independent oracles and fixture builders."""

from __future__ import annotations

import numpy as np

from qmine import (Circuit, Gate, RegisterLayout, StateVector, build_diffusion,
                   build_hash_circuit, build_oracle, enumerate_solutions,
                   grover_iteration, new_zero_state, prepare)
from qmine.toyhash import GOLDEN_RATIO_32, HashParams


def permute_oracle(x: int, m: int, r: int, true_chi: bool = False) -> int:
    """Independent integer-twiddling evaluation of the sponge permutation
    (second route, deliberately structured unlike the package code)."""
    full = (1 << m) - 1
    for j in range(r):
        for i in range(m):
            a = (x >> ((i + 1) % m)) & 1
            if true_chi:
                a ^= 1
            b = (x >> ((i + 2) % m)) & 1
            x ^= (a & b) << i
        for i in range(m):
            x ^= ((x >> ((i + 3) % m)) & 1) << i
        x = ((x << 1) | (x >> (m - 1))) & full
        x ^= ((j + 1) * GOLDEN_RATIO_32) & full
    return x


def hash_oracle(blocks: list[int], m: int, r: int, true_chi: bool = False) -> int:
    state = 0
    for block in blocks:
        state = permute_oracle(state ^ block, m, r, true_chi)
    return state


def find_header_with_count(nonce_bits: int, params: HashParams, zeros: int,
                           count: int, seed: int = 0,
                           attempts: int = 20000) -> tuple[list[int], list[int]]:
    """Search random 4-block headers until one has exactly ``count``
    nonces clearing the difficulty; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        header = [int(b) for b in rng.integers(0, params.mask + 1, size=4)]
        solutions = enumerate_solutions(header, params, nonce_bits, zeros)
        if len(solutions) == count:
            return header, solutions
    raise AssertionError(f"no header with exactly {count} solution(s) found "
                         f"(n={nonce_bits}, zeros={zeros})")


def simulated_gates_per_iteration(nonce_bits: int, params: HashParams, zeros: int,
                                  header_blocks=(0, 0, 0, 0)) -> int:
    """Gates one search iteration applies, counted by simulating it on a
    prepared state (independent of ``SearchProblem.gates_per_iteration``,
    which counts from circuit lengths)."""
    layout = RegisterLayout.standard(nonce_bits, params.digest_bits)
    state = new_zero_state(layout.total_qubits)
    prepare(state, layout)
    before = state.total_gates
    grover_iteration(state, layout,
                     build_hash_circuit(layout, list(header_blocks), params),
                     build_oracle(layout, zeros), build_diffusion(layout))
    return state.total_gates - before


def set_register(state: StateVector, qubits, value: int) -> None:
    for i, q in enumerate(qubits):
        if (value >> i) & 1:
            state.apply_gate(Gate.x(q))


def basis_state(num_qubits: int, index: int) -> StateVector:
    state = new_zero_state(num_qubits)
    set_register(state, range(num_qubits), index)
    return state


def random_amplitudes(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def random_circuit(num_qubits: int, num_gates: int,
                   rng: np.random.Generator) -> Circuit:
    circuit = Circuit(num_qubits, label="random")
    for _ in range(num_gates):
        kind = rng.choice(["H", "X", "SWAP", "MCX"])
        if kind in ("H", "X"):
            q = int(rng.integers(num_qubits))
            circuit.append(Gate.h(q) if kind == "H" else Gate.x(q))
        elif kind == "SWAP":
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(Gate.swap(int(a), int(b)))
        else:
            arity = int(rng.integers(1, min(3, num_qubits - 1) + 1))
            picks = rng.choice(num_qubits, size=arity + 1, replace=False)
            controls = [(int(q), bool(rng.integers(2))) for q in picks[:-1]]
            circuit.append(Gate.mcx(controls, int(picks[-1])))
    return circuit


# -- gate-by-gate dense reference ---------------------------------------------
#
# Every gate sweeps all 2^q amplitudes, viewed as a (2,)*q tensor whose
# axis q-1-k is qubit k, so all selections are basic (view) indexing.  The
# package's support-tracked evaluator must match it bit for bit.

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def _dense_slices(num_qubits: int, fixed, target: int, target_bit: int) -> tuple:
    idx: list[object] = [slice(None)] * num_qubits
    for qubit, positive in fixed:
        idx[num_qubits - 1 - qubit] = 1 if positive else 0
    idx[num_qubits - 1 - target] = target_bit
    return tuple(idx)


def dense_apply_gates(state: StateVector, gates) -> None:
    """Drop-in reference for ``StateVector.apply_gates``."""
    gates = list(gates)
    for gate in gates:
        for q in gate.qubits():
            state._check_qubit(q)
    state.gate_counts.update(gate.kind for gate in gates)
    q = state.num_qubits
    view = state.amplitudes.reshape((2,) * q)
    for gate in gates:
        if gate.kind == "H":
            i0 = _dense_slices(q, (), gate.targets[0], 0)
            i1 = _dense_slices(q, (), gate.targets[0], 1)
            lo = view[i0].copy()
            view[i0] = (lo + view[i1]) * _SQRT1_2
            view[i1] = (lo - view[i1]) * _SQRT1_2
            continue
        if gate.kind == "SWAP":
            # exchange the |a=1,b=0> and |a=0,b=1> blocks
            a, b = gate.targets
            i0 = _dense_slices(q, ((b, False),), a, 1)
            i1 = _dense_slices(q, ((b, True),), a, 0)
        else:  # X, MCX: exchange the target's halves where the controls hold
            i0 = _dense_slices(q, gate.controls, gate.targets[0], 0)
            i1 = _dense_slices(q, gate.controls, gate.targets[0], 1)
        tmp = view[i0].copy()
        view[i0] = view[i1]
        view[i1] = tmp


def dense_register_distribution(state: StateVector, register) -> np.ndarray:
    """Drop-in reference for ``StateVector.register_distribution``: a
    bincount over every basis index, zero-probability ones included."""
    register = list(register)
    if not register:
        raise ValueError("register must name at least one qubit")
    for q in register:
        state._check_qubit(q)
    a = state.amplitudes
    probs = a.real * a.real + a.imag * a.imag
    idx = np.arange(state.dim, dtype=np.int64)
    values = np.zeros(state.dim, dtype=np.int64)
    for pos, q in enumerate(register):
        values |= ((idx >> q) & 1) << pos
    return np.bincount(values, weights=probs, minlength=1 << len(register))


def max_global_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise deviation between two state vectors after removing a
    global phase (aligned on the largest amplitude of ``a``)."""
    k = int(np.argmax(np.abs(a)))
    phase = b[k] / a[k]
    return float(np.max(np.abs(a * phase - b)))
