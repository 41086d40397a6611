"""Shared test utilities: independent oracles and fixture builders."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from itertools import groupby

import numpy as np

import qmine.toyhash
from qmine import (Circuit, Digest, Gate, MiningParams, MiningResult,
                   RegisterLayout, SearchProblem, StateVector, build_diffusion,
                   build_hash_circuit, build_oracle, emit_rotate_left, enumerate_solutions,
                   grover_iteration, hash_classical, invert, iteration_count,
                   new_zero_state, prepare, round_constant)
from qmine.chain import (REASON_DIFFICULTY, REASON_DIGEST_MISMATCH,
                         REASON_GENESIS_PREV, REASON_HEADER_RANGE,
                         REASON_NONCE_RANGE, REASON_PREV_LINK, Block, Chain,
                         serialize_header)
from qmine.miner import UNKNOWN_COUNT_GROWTH
from qmine.statevector import permute_labels
from qmine.toyhash import GOLDEN_RATIO_32, HashParams


def count_rounds_calls(monkeypatch) -> list:
    """Wrap ``toyhash._rounds``; the returned list grows by one per call."""
    calls, rounds = [], qmine.toyhash._rounds

    def counted(state, params):
        calls.append(state)
        return rounds(state, params)

    monkeypatch.setattr(qmine.toyhash, "_rounds", counted)
    return calls


def reference_walk(marked: np.ndarray, iterations: int) -> np.ndarray:
    """``SearchProblem.distribution`` by the integer recurrence, one step per
    iteration from A = C = 1: A, C <- (2M - N) A - 2(N - M) C,
    2M A + (2M - N) C, then A^2 or C^2 over N^(2k+1) per nonce."""
    space, solutions = len(marked), int(marked.sum())
    a = c = 1
    for _ in range(iterations):
        a, c = ((2 * solutions - space) * a - 2 * (space - solutions) * c,
                2 * solutions * a + (2 * solutions - space) * c)
    scale = space ** (2 * iterations + 1)
    return np.where(marked, a * a / scale, c * c / scale)


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


def reference_hash_circuit(layout: RegisterLayout, header_blocks,
                           params: HashParams, service=()) -> Circuit:
    """The hash builders' circuit emitted one gate at a time: per header
    block its X gates and r rounds, then the nonce CNOTs and r rounds.
    With ``service`` qubits every chi AND goes through one of them, as in
    ``build_hash_circuit_outofplace``."""
    m, h = params.digest_bits, layout.hash
    circuit = Circuit(layout.total_qubits,
                      label="hash-outofplace" if service else "hash")

    def emit_round(j):
        for i in range(m):
            operands = [(h[(i + 1) % m], not params.true_chi), (h[(i + 2) % m], True)]
            if service:
                product = Gate.mcx(operands, service[i])
                circuit.extend([product, Gate.cnot(service[i], h[i]), product])
            else:
                circuit.append(Gate.mcx(operands, h[i]))
        for i in range(m):
            circuit.append(Gate.cnot(h[(i + 3) % m], h[i]))
        emit_rotate_left(circuit, h, 1)
        rc = round_constant(j, m)
        for i in range(m):
            if (rc >> i) & 1:
                circuit.append(Gate.x(h[i]))

    for block in header_blocks:
        for i in range(m):
            if (block >> i) & 1:
                circuit.append(Gate.x(h[i]))
        for j in range(params.rounds):
            emit_round(j)
    for i, q in enumerate(layout.nonce):
        circuit.append(Gate.cnot(q, h[i]))
    for j in range(params.rounds):
        emit_round(j)
    return circuit


def reference_compile(header_blocks, layout: RegisterLayout, params: HashParams,
                      zeros: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels that hash, oracle and unhash move the 2^n nonces to, in one
    ``permute_labels`` pass over every gate, and the marked mask read off
    them: ``SearchProblem.build`` without its cached tables."""
    hash_circuit = build_hash_circuit(layout, list(header_blocks), params)
    labels = permute_labels(np.arange(1 << len(layout.nonce)),
                            hash_circuit.gates + build_oracle(layout, zeros).gates
                            + invert(hash_circuit).gates)
    return labels, (labels & (1 << layout.functional)) != 0


@lru_cache(maxsize=None)
def sponge_table(params: HashParams) -> np.ndarray:
    """Entry v is ``hash_classical([v]).value``, the sponge permutation of
    state v, for every m-bit v; built once per parameter set and read-only."""
    table = np.array([hash_classical([v], params).value
                      for v in range(1 << params.digest_bits)])
    table.setflags(write=False)
    return table


def reference_enumerate_solutions(header_blocks, hash_params: HashParams,
                                  nonce_bits: int, zeros: int) -> list[int]:
    """``enumerate_solutions`` hashing the whole header again for every nonce."""
    return [v for v in range(1 << nonce_bits)
            if hash_classical(list(header_blocks) + [v], hash_params)
            .meets_difficulty(zeros)]


def reference_mine_classical(header_blocks, params: MiningParams,
                             nonce_bits: int) -> MiningResult:
    """``mine_classical`` hashing the whole header again for every nonce."""
    hp = params.hash_params
    digest = Digest(0, hp.digest_bits)
    for value in range(1 << nonce_bits):
        digest = hash_classical(list(header_blocks) + [value], hp)
        if digest.meets_difficulty(params.difficulty_zeros):
            return MiningResult(value, format(value, f"0{nonce_bits}b"), digest,
                                True, 0, 1.0, 0, value + 1)
    last = (1 << nonce_bits) - 1
    return MiningResult(last, format(last, f"0{nonce_bits}b"), digest,
                        False, 0, 0.0, 0, 1 << nonce_bits)


def reference_validate_block(block: Block, params: HashParams,
                             nonce_bits: int) -> list[str]:
    """One block's reasons in ``Chain.validate``, hashing the header alone
    through ``hash_classical`` if no field or the nonce is out of range."""
    reasons, header = [], block.header
    try:
        blocks = serialize_header(header, params)
    except ValueError:
        reasons.append(REASON_HEADER_RANGE)
    if not 0 <= header.nonce < 1 << nonce_bits:
        reasons.append(REASON_NONCE_RANGE)
    elif not reasons and hash_classical(blocks + [header.nonce], params) != block.digest:
        reasons.append(REASON_DIGEST_MISMATCH)
    if (0 <= header.difficulty_zeros <= params.digest_bits
            and not block.digest.meets_difficulty(header.difficulty_zeros)):
        reasons.append(REASON_DIFFICULTY)
    return reasons


def reference_chain_validate(chain: Chain) -> list[str]:
    """``Chain.validate``'s reasons, one block at a time, each block's own
    reasons before its link."""
    reasons, blocks = [], chain.blocks
    for i, block in enumerate(blocks):
        reasons += [f"block {i}: {r}" for r in
                    reference_validate_block(block, chain.hash_params, chain.nonce_bits)]
        if i == 0:
            if block.header.prev_digest != 0:
                reasons.append(f"block 0: {REASON_GENESIS_PREV}")
        elif block.header.prev_digest != blocks[i - 1].digest.value:
            reasons.append(f"block {i}: {REASON_PREV_LINK}")
    return reasons


def reference_permute_labels(labels, gates) -> list[int]:
    """``permute_labels`` one label and one gate at a time, on Python ints."""
    out = []
    for label in map(int, labels):
        for gate in gates:
            t = gate.targets[0]
            if gate.kind == "X":
                label ^= 1 << t
            elif gate.kind == "SWAP":
                u = gate.targets[1]
                if (label >> t & 1) != (label >> u & 1):
                    label ^= 1 << t | 1 << u
            elif all(label >> q & 1 == positive for q, positive in gate.controls):
                label ^= 1 << t
        out.append(label)
    return out


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
    prepared state (independent of ``gates_per_iteration``, which counts
    from the builders' structure)."""
    layout = RegisterLayout.standard(nonce_bits, params.digest_bits)
    state = new_zero_state(layout.total_qubits)
    prepare(state, layout)
    before = sum(state.gate_counts.values())
    grover_iteration(state, layout,
                     build_hash_circuit(layout, list(header_blocks), params),
                     build_oracle(layout, zeros), build_diffusion(layout))
    return sum(state.gate_counts.values()) - before


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


def random_circuit(num_qubits: int, num_gates: int, rng: np.random.Generator,
                   kinds=("H", "X", "SWAP", "MCX")) -> Circuit:
    """Random gates of the given kinds; MCX controls have random polarity."""
    circuit = Circuit(num_qubits, label="random")
    for _ in range(num_gates):
        kind = rng.choice(list(kinds))
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
    idx = np.arange(len(state.amplitudes), dtype=np.int64)
    values = np.zeros(len(state.amplitudes), dtype=np.int64)
    for pos, q in enumerate(register):
        values |= ((idx >> q) & 1) << pos
    return np.bincount(values, weights=probs, minlength=1 << len(register))


def reference_mine_quantum(header_blocks, layout: RegisterLayout,
                           params: MiningParams, *, exact_readout: bool = False,
                           apply_gates=dense_apply_gates,
                           distribution=dense_register_distribution) -> MiningResult:
    """``mine_quantum`` as a gate-by-gate simulation of the whole register:
    every round prepares a fresh state and applies hash, oracle, unhash and
    diffusion through ``apply_gates``; the solution mass comes from the
    classical solution list and the sampled readout draws from the nonce
    ``distribution`` with ``Generator.choice``, which ``sample_readout``
    equals, so the engine's sampler is checked against an independent draw."""
    n = len(layout.nonce)
    hp, zeros = params.hash_params, params.difficulty_zeros
    hash_circuit = build_hash_circuit(layout, list(header_blocks), hp)
    iteration = (hash_circuit.gates + build_oracle(layout, zeros).gates
                 + invert(hash_circuit).gates + build_diffusion(layout).gates)
    preparation = ([Gate.h(q) for q in layout.nonce]
                   + [Gate.x(layout.functional), Gate.h(layout.functional)])
    state = new_zero_state(layout.total_qubits)
    rng = np.random.default_rng(params.rng_seed)
    solutions = enumerate_solutions(header_blocks, hp, n, zeros)

    def run_round(k):
        state.reset()
        apply_gates(state, preparation)
        for _ in range(k):
            apply_gates(state, iteration)
        dist = distribution(state, layout.nonce)
        mass = float(dist[solutions].sum()) if solutions else 0.0
        if exact_readout:
            # the lowest nonce of the most likely class, whose members the
            # gates leave unequal in their last bits
            value = int(np.flatnonzero(dist >= dist.max() * (1 - 1e-9))[0])
        else:
            p = dist / dist.sum()
            value = int(rng.choice(p.shape[0], p=p))
        digest = hash_classical(list(header_blocks) + [value], hp)
        return value, mass, digest

    def result(value, mass, digest, used, hashes):
        return MiningResult(value, format(value, f"0{n}b"), digest,
                            digest.meets_difficulty(zeros), used, mass,
                            sum(state.gate_counts.values()), hashes)

    if params.solution_count_hint is not None:
        k = iteration_count(n, params.solution_count_hint)
        return result(*run_round(k), k, 1)
    budget_cap = params.max_grover_rounds * math.ceil(math.pi / 4 * math.sqrt(1 << n))
    used = hashes = t = 0
    while True:
        k_t = math.ceil(UNKNOWN_COUNT_GROWTH ** t)
        value, mass, digest = run_round(k_t)
        used, hashes, t = used + k_t, hashes + 1, t + 1
        if digest.meets_difficulty(zeros) or used > budget_cap:
            return result(value, mass, digest, used, hashes)


def assert_matches_reference(result: MiningResult, reference: MiningResult) -> None:
    """Every field equal, except the solution mass: the two class amplitudes
    and the gate-by-gate reference round it differently, to 1e-12."""
    mass = reference.success_probability_at_measurement
    assert abs(result.success_probability_at_measurement - mass) <= 1e-12
    assert replace(result, success_probability_at_measurement=mass) == reference


def reference_run(problem: SearchProblem, layout: RegisterLayout, b: np.ndarray,
                  iterations: int) -> np.ndarray:
    """Apply ``iterations`` more search iterations to the 2^n amplitudes ``b``
    in place and return the nonce distribution: the negation on the problem's
    ``marked`` nonces, then ``build_diffusion(layout)`` gate by gate, each H as a
    butterfly and each run of X/SWAP/MCX gates as one gather.  It rounds as
    the dense state vector does, bit for bit."""
    nonces = np.arange(len(b))
    steps = []
    for is_h, run in groupby(build_diffusion(layout).gates, key=lambda g: g.kind == "H"):
        run = list(run)  # every gate is self-inverse: gather by the reverse
        if is_h:
            steps += [g.targets[0] for g in run]
        else:
            steps.append(permute_labels(nonces, run[::-1]))
    for _ in range(iterations):
        np.negative(b, out=b, where=problem.marked)
        for step in steps:
            if isinstance(step, int):
                pairs = b.reshape(-1, 2, 1 << step)
                x0, x1 = pairs[:, 0], pairs[:, 1]
                pairs[:, 0], pairs[:, 1] = (x0 + x1) * _SQRT1_2, (x0 - x1) * _SQRT1_2
            else:
                b[:] = b[step]
    p = b.real * b.real + b.imag * b.imag
    return p + p


def max_global_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise deviation between two state vectors after removing a
    global phase (aligned on the largest amplitude of ``a``)."""
    k = int(np.argmax(np.abs(a)))
    phase = b[k] / a[k]
    return float(np.max(np.abs(a * phase - b)))
