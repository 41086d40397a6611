"""Grover-search mining over a simulated quantum register.

The register is split into nonce / hash / service / functional parts.
Each search iteration makes the hash computation part of the oracle:

    hash circuit -> threshold oracle -> inverse hash circuit -> diffusion

The inverse pass unwinds the hash (and any service) register to |0...0>,
breaking its entanglement with the nonce register so the diffusion
operator can act on the nonce qubits alone.  The functional qubit is
held in |-> throughout, turning the oracle's controlled bit-flip into a
phase flip on the marked branches (phase kickback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, apply_circuit, invert
from .statevector import StateVector, new_zero_state
from .toyhash import Digest, HashParams, build_hash_circuit, hash_classical

UNKNOWN_COUNT_GROWTH = 6 / 5  # per-round budget ratio when the solution count is unknown


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit indices for the four register parts.

    The global order is fixed for reproducibility: nonce at 0..n-1, hash
    next, then service, functional last.
    """

    nonce: tuple[int, ...]
    hash: tuple[int, ...]
    service: tuple[int, ...]
    functional: int

    def __post_init__(self):
        n, m, s = len(self.nonce), len(self.hash), len(self.service)
        expected = (tuple(range(n)),
                    tuple(range(n, n + m)),
                    tuple(range(n + m, n + m + s)),
                    n + m + s)
        if (self.nonce, self.hash, self.service, self.functional) != expected:
            raise ValueError("layout must follow the fixed order "
                             "nonce|hash|service|functional from qubit 0")

    @staticmethod
    def standard(nonce_bits: int, digest_bits: int, service_bits: int = 0) -> "RegisterLayout":
        if nonce_bits < 1 or digest_bits < 1:
            raise ValueError("nonce and hash registers must be non-empty")
        n, m, s = nonce_bits, digest_bits, service_bits
        return RegisterLayout(
            nonce=tuple(range(n)),
            hash=tuple(range(n, n + m)),
            service=tuple(range(n + m, n + m + s)),
            functional=n + m + s,
        )

    @property
    def total_qubits(self) -> int:
        return len(self.nonce) + len(self.hash) + len(self.service) + 1


@dataclass(frozen=True)
class MiningParams:
    difficulty_zeros: int
    hash_params: HashParams
    max_grover_rounds: int = 3
    solution_count_hint: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.difficulty_zeros <= self.hash_params.digest_bits:
            raise ValueError(f"difficulty_zeros must be in 0.."
                             f"{self.hash_params.digest_bits}, "
                             f"got {self.difficulty_zeros}")
        if self.max_grover_rounds < 1:
            raise ValueError("max_grover_rounds must be >= 1")
        if self.solution_count_hint is not None and self.solution_count_hint < 1:
            raise ValueError("solution_count_hint must be >= 1 when given")


@dataclass(frozen=True)
class MiningResult:
    nonce: int
    nonce_bits: str
    digest: Digest
    success: bool
    grover_iterations_used: int
    success_probability_at_measurement: float
    total_gates: int
    hashes_tried: int

    def as_record(self) -> dict:
        """Flat scalar record for CSV / report serialization."""
        return {
            "nonce": self.nonce,
            "nonce_bits": self.nonce_bits,
            "digest_hex": self.digest.hex,
            "success": self.success,
            "grover_iterations": self.grover_iterations_used,
            "success_probability": self.success_probability_at_measurement,
            "total_gates": self.total_gates,
            "hashes_tried": self.hashes_tried,
        }


# -- circuit pieces ------------------------------------------------------------


def prepare(state: StateVector, layout: RegisterLayout) -> None:
    """Uniform superposition on the nonce register; functional qubit to
    |-> (X then H) so the oracle kicks back a phase.  Hash and service
    qubits stay |0>."""
    state.apply_gates([Gate.h(q) for q in layout.nonce]
                      + [Gate.x(layout.functional), Gate.h(layout.functional)])


def build_oracle(layout: RegisterLayout, zeros: int) -> Circuit:
    """Difficulty-threshold oracle: flip the functional qubit when the
    top ``zeros`` hash bits are all 0 (negative controls on the leading
    hash qubits).  zeros=0 degenerates to an unconditional flip, i.e. a
    global phase."""
    m = len(layout.hash)
    if not 0 <= zeros <= m:
        raise ValueError(f"zeros must be in 0..{m}, got {zeros}")
    circuit = Circuit(layout.total_qubits, label=f"oracle-z{zeros}")
    if zeros == 0:
        circuit.append(Gate.x(layout.functional))
    else:
        controls = [(layout.hash[m - 1 - i], False) for i in range(zeros)]
        circuit.append(Gate.mcx(controls, layout.functional))
    return circuit


def build_diffusion(layout: RegisterLayout) -> Circuit:
    """Reflection about the uniform superposition, acting only on the
    nonce register: H^n X^n (H MCX H on the last qubit) X^n H^n, equal to
    2|s><s| - 1 up to global phase."""
    nonce = layout.nonce
    n = len(nonce)
    if n == 0:
        raise ValueError("diffusion needs a non-empty nonce register")
    circuit = Circuit(layout.total_qubits, label="diffusion")
    for q in nonce:
        circuit.append(Gate.h(q))
    for q in nonce:
        circuit.append(Gate.x(q))
    last = nonce[-1]
    circuit.append(Gate.h(last))
    if n == 1:
        circuit.append(Gate.x(last))  # zero-control MCX is a plain X
    else:
        circuit.append(Gate.mcx([(q, True) for q in nonce[:-1]], last))
    circuit.append(Gate.h(last))
    for q in nonce:
        circuit.append(Gate.x(q))
    for q in nonce:
        circuit.append(Gate.h(q))
    return circuit


def grover_iteration(state: StateVector, layout: RegisterLayout,
                     hash_circuit: Circuit, oracle: Circuit, diffusion: Circuit,
                     *, hash_inverse: Circuit | None = None) -> None:
    """One search iteration: hash, oracle, unwind hash, diffuse.

    On exit the hash and service registers are exactly back on the
    |0...0> branch (the unwind is a gate-for-gate inverse of the hash,
    and the oracle never writes to either register).
    """
    if layout.total_qubits > state.num_qubits:
        raise ValueError("layout does not fit the state")
    if hash_inverse is None:
        hash_inverse = invert(hash_circuit)
    apply_circuit(state, hash_circuit)
    apply_circuit(state, oracle)
    apply_circuit(state, hash_inverse)
    apply_circuit(state, diffusion)


@dataclass(frozen=True)
class SearchProblem:
    """The circuits of one search iteration for one header, built once
    and shared by every run of that search."""

    layout: RegisterLayout
    hash_circuit: Circuit
    hash_inverse: Circuit
    oracle: Circuit
    diffusion: Circuit

    @staticmethod
    def build(header_blocks: Sequence[int], layout: RegisterLayout,
              hash_params: HashParams, zeros: int) -> "SearchProblem":
        hash_circuit = build_hash_circuit(layout, header_blocks, hash_params)
        return SearchProblem(layout, hash_circuit, invert(hash_circuit),
                             build_oracle(layout, zeros), build_diffusion(layout))

    @property
    def gates_per_iteration(self) -> int:
        """Gates one iteration applies, counted from the circuits alone."""
        return (len(self.hash_circuit) + len(self.oracle)
                + len(self.hash_inverse) + len(self.diffusion))

    def run(self, state: StateVector, iterations: int) -> np.ndarray:
        """Apply ``iterations`` more search iterations to ``state`` and
        return the distribution of the nonce register."""
        for _ in range(iterations):
            grover_iteration(state, self.layout, self.hash_circuit, self.oracle,
                             self.diffusion, hash_inverse=self.hash_inverse)
        return state.register_distribution(self.layout.nonce)


# -- schedules and analysis ------------------------------------------------------


def iteration_count(nonce_bits: int, solution_count: int) -> int:
    """Iterations for the best success probability with ``solution_count``
    marked values: floor(pi/4 * sqrt(2^n / M)), at least 1, except 0 when
    every value is marked."""
    space = 1 << nonce_bits
    if not 1 <= solution_count <= space:
        raise ValueError(f"solution_count must be in 1..{space}, "
                         f"got {solution_count}")
    if solution_count == space:
        return 0
    k = math.floor(math.pi / 4 * math.sqrt(space / solution_count))
    return max(k, 1)


def analytic_success_probability(nonce_bits: int, solution_count: int,
                                 iterations: int) -> float:
    """Closed-form success probability sin^2((2k+1) * asin(sqrt(M/2^n)))."""
    space = 1 << nonce_bits
    if not 1 <= solution_count <= space:
        raise ValueError(f"solution_count must be in 1..{space}, "
                         f"got {solution_count}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    theta = math.asin(math.sqrt(solution_count / space))
    return math.sin((2 * iterations + 1) * theta) ** 2


@dataclass(frozen=True)
class ResourceEstimate:
    classical_hashes: int
    classical_seconds: float
    classical_hours: float
    classical_days: float
    quantum_iterations: int
    quantum_gate_count: int
    quantum_seconds: float
    assumptions: dict


def estimate_resources(nonce_bits: int, hash_rate: float, gate_time: float,
                       gates_per_iteration: int) -> ResourceEstimate:
    """Project wall-clock costs of exhausting a nonce space classically
    versus amplitude amplification, under explicit throughput assumptions."""
    if hash_rate <= 0 or gate_time <= 0 or gates_per_iteration <= 0:
        raise ValueError("rates and gate counts must be positive")
    classical_hashes = 1 << nonce_bits
    classical_seconds = classical_hashes / hash_rate
    quantum_iterations = iteration_count(nonce_bits, 1)
    quantum_gate_count = quantum_iterations * gates_per_iteration
    return ResourceEstimate(
        classical_hashes=classical_hashes,
        classical_seconds=classical_seconds,
        classical_hours=classical_seconds / 3600.0,
        classical_days=classical_seconds / 86400.0,
        quantum_iterations=quantum_iterations,
        quantum_gate_count=quantum_gate_count,
        quantum_seconds=quantum_gate_count * gate_time,
        assumptions={
            "hash_rate": hash_rate,
            "gate_time": gate_time,
            "gates_per_iteration": gates_per_iteration,
        },
    )


def enumerate_solutions(header_blocks: Sequence[int], hash_params: HashParams,
                        nonce_bits: int, zeros: int) -> list[int]:
    """All nonce values whose digest clears the difficulty, by classical
    exhaustion (desk scale only)."""
    return [v for v in range(1 << nonce_bits)
            if hash_classical(list(header_blocks) + [v], hash_params)
            .meets_difficulty(zeros)]


# -- the miner -------------------------------------------------------------------


def mine_quantum(header_blocks: Sequence[int], layout: RegisterLayout,
                 params: MiningParams, *, exact_readout: bool = False) -> MiningResult:
    """Run the full search and return a classically verified result.

    With a solution-count hint the optimal iteration count is used
    directly.  Without one, rounds of exponentially growing budget
    (ratio 6/5) each end in one readout plus classical verification,
    until success or until the cumulative iteration budget
    max_grover_rounds * ceil(pi/4 * sqrt(2^n)) is exhausted — failure
    then may mean no solution exists.

    ``exact_readout`` replaces sampling with the argmax-probability
    nonce for deterministic runs; sampling uses params.rng_seed.
    """
    n = len(layout.nonce)
    hp = params.hash_params
    zeros = params.difficulty_zeros
    state = new_zero_state(layout.total_qubits)
    problem = SearchProblem.build(header_blocks, layout, hp, zeros)
    rng = np.random.default_rng(params.rng_seed)
    solutions = enumerate_solutions(header_blocks, hp, n, zeros)

    def run_round(num_iterations: int) -> tuple[int, float, Digest, bool]:
        state.reset()
        prepare(state, layout)
        dist = problem.run(state, num_iterations)
        solution_mass = float(dist[solutions].sum()) if solutions else 0.0
        if exact_readout:
            value = int(np.argmax(dist))
        else:
            value = state.measure_register(layout.nonce, rng).value
        digest = hash_classical(list(header_blocks) + [value], hp)
        return value, solution_mass, digest, digest.meets_difficulty(zeros)

    def result(value, digest, ok, used, mass, hashes) -> MiningResult:
        return MiningResult(
            nonce=value,
            nonce_bits=format(value, f"0{n}b"),
            digest=digest,
            success=ok,
            grover_iterations_used=used,
            success_probability_at_measurement=mass,
            total_gates=state.total_gates,
            hashes_tried=hashes,
        )

    if params.solution_count_hint is not None:
        k = iteration_count(n, params.solution_count_hint)
        value, mass, digest, ok = run_round(k)
        return result(value, digest, ok, k, mass, 1)

    budget_cap = params.max_grover_rounds * math.ceil(math.pi / 4 * math.sqrt(1 << n))
    used = 0
    hashes = 0
    t = 0
    while True:
        k_t = math.ceil(UNKNOWN_COUNT_GROWTH ** t)
        value, mass, digest, ok = run_round(k_t)
        used += k_t
        hashes += 1
        if ok or used > budget_cap:
            return result(value, digest, ok, used, mass, hashes)
        t += 1
