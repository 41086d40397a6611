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
from functools import lru_cache
from itertools import count
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, apply_circuit, invert
# new_zero_state and build_hash_circuit stay bound here for tracers that
# wrap miner.new_zero_state and miner.build_hash_circuit
from .statevector import StateVector, new_zero_state, permute_labels, sample_readout
from .toyhash import (Digest, HashParams, _check_layout, _shared_gates,
                      build_hash_circuit, check_block, check_nonce_width,
                      check_zeros, has_leading_zeros, hash_classical,
                      hash_gate_count, hash_many)

UNKNOWN_COUNT_GROWTH = 6 / 5  # per-round budget ratio when the solution count is unknown
MAX_ESTIMATE_BITS = 1023  # the estimator's counts must convert to finite floats


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit indices for the four register parts.

    The hash register is non-empty, the nonce register has 1..len(hash)
    qubits (``check_nonce_width``), and the global order is fixed for
    reproducibility: nonce at 0..n-1, hash next, then service, functional
    last.
    """

    nonce: tuple[int, ...]
    hash: tuple[int, ...]
    service: tuple[int, ...]
    functional: int

    def __post_init__(self):
        if not self.hash:
            raise ValueError("the hash register must be non-empty")
        check_nonce_width(len(self.nonce), len(self.hash))
        qubits = self.nonce + self.hash + self.service + (self.functional,)
        if qubits != tuple(range(len(qubits))):
            raise ValueError("layout must follow the fixed order "
                             "nonce|hash|service|functional from qubit 0")

    @staticmethod
    def standard(nonce_bits: int, digest_bits: int, service_bits: int = 0) -> "RegisterLayout":
        check_nonce_width(nonce_bits, digest_bits)  # before any tuple is built
        n, m, s = nonce_bits, digest_bits, service_bits
        return RegisterLayout(tuple(range(n)), tuple(range(n, n + m)),
                              tuple(range(n + m, n + m + s)), n + m + s)

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
        check_zeros(self.difficulty_zeros, self.hash_params.digest_bits)
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
    check_zeros(zeros, m)
    circuit = Circuit(layout.total_qubits, label=f"oracle-z{zeros}")
    if zeros == 0:
        circuit.append(Gate.x(layout.functional))
    else:
        controls = [(layout.hash[m - 1 - i], False) for i in range(zeros)]
        circuit.append(Gate.mcx(controls, layout.functional))
    return circuit


def build_diffusion(layout: RegisterLayout) -> Circuit:
    """Reflection about the uniform superposition, acting only on the
    nonce register: H^n X^n (H MCX H on the last qubit) X^n H^n.  H MCX H
    is a phase flip on |1...1>, so the circuit is exactly 1 - 2|s><s|, the
    reflection ``SearchProblem.distribution`` applies to its two class
    amplitudes."""
    nonce = layout.nonce
    n = len(nonce)
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


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """One header's search: the two numbers mining reads from its compile.

    Between iterations the state is sum_v b_v |v>|0...0>|-> (its functional
    |1> branch is exactly -b), so hash, oracle and unhash only negate b on
    the ``marked`` nonces v, marks[prefix ^ v] (``_cached_search_tables``),
    as the sponge absorbs v into the state the header leaves.  The diffusion
    circuit is 1 - 2|s><s| on the nonce register.  Both keep all marked
    nonces at one amplitude and all others at another, so ``distribution``
    follows those two, not b.  ``prefix`` is the sponge state after the
    header, which ``build`` reads off the round table;
    ``hash_classical([prefix ^ v])`` is nonce v's digest.  The circuits come
    from ``build_hash_circuit``, ``build_oracle`` and ``build_diffusion``,
    their gate count from ``gates_per_iteration``."""

    prefix: int
    marked: np.ndarray

    @staticmethod
    def build(header_blocks: Sequence[int], layout: RegisterLayout,
              hash_params: HashParams, zeros: int) -> "SearchProblem":
        _check_layout(layout, hash_params)
        header_blocks = tuple(check_block(b, hash_params) for b in header_blocks)
        forward, marks = _cached_search_tables(layout, hash_params, zeros)
        prefix = 0  # header_prefix, one table lookup per block
        for block in header_blocks:
            prefix = int(forward[prefix ^ block])
        return SearchProblem(prefix, marks[np.arange(1 << len(layout.nonce)) ^ prefix])

    def distribution(self, iterations: int) -> np.ndarray:
        """The nonce distribution after ``iterations`` search iterations from
        ``prepare``'s state.  With N = 2^n and M marked, the marked and other
        amplitudes are A and C over sqrt(N) N^k, where (A, C) = G^k (1, 1) for
        one iteration's integer map G = [[2M - N, -2(N - M)], [2M, 2M - N]].
        G is u + K with u = 2M - N and K^2 = -4M(N - M), so G^k = x + yK is
        raised by squaring in O(log k) exact int products; each probability,
        A^2 or C^2 over N^(2k+1), is one correctly rounded int / int
        division."""
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        space, solutions = len(self.marked), int(self.marked.sum())
        u, square = 2 * solutions - space, -4 * solutions * (space - solutions)
        x, y = 1, 0
        for bit in format(iterations, "b"):
            x, y = x * x + square * y * y, 2 * x * y
            if bit == "1":
                x, y = u * x + square * y, x + u * y
        a, c = x - 2 * (space - solutions) * y, x + 2 * solutions * y
        scale = space ** (2 * iterations + 1)
        return np.where(self.marked, a * a / scale, c * c / scale)


def gates_per_iteration(layout: RegisterLayout, header_blocks: Sequence[int],
                        hash_params: HashParams) -> int:
    """Gates one search iteration applies, from the builders' structure: hash
    and unhash, the oracle's one gate and the diffusion's 4n + 3."""
    _check_layout(layout, hash_params)
    n = len(layout.nonce)
    return 2 * hash_gate_count(n, header_blocks, hash_params) + 1 + 4 * n + 3


@lru_cache(maxsize=8)
def _cached_search_tables(layout: RegisterLayout, hash_params: HashParams,
                          zeros: int) -> tuple:
    """The engine's two tables, read off the cached gates, read-only:
    ``forward``, where the r rounds every hash circuit repeats move each hash
    value, in the narrowest unsigned dtype; and ``marks``, whether the oracle
    fires on field forward[x].  The nonce CNOTs copy nonce v into the field's
    low bits, as the sponge absorbs v into state s as s ^ v, so hash and
    oracle flip nonce v iff marks[prefix ^ v] and the unhash clears the
    field, provided the rounds act only on the field, nonce CNOT i reads
    nonce qubit i and writes hash qubit i, and every oracle gate reads only
    the field and writes only the functional qubit."""
    oracle = build_oracle(layout, zeros).gates  # checks zeros before any table
    cnots, rounds = _shared_gates(layout.nonce, layout.hash, hash_params)
    low, width, functional = layout.hash[0], len(layout.hash), layout.functional
    if any(g.mask >> low + width or g.mask & (1 << low) - 1 for g in rounds):
        raise ValueError("the gate block acts outside the hash register")
    field, values = (1 << width) - 1 << low, np.arange(1 << width) << low
    if (cnots != tuple(Gate.cnot(q, layout.hash[i]) for i, q in enumerate(layout.nonce))
            or any(g.targets != (functional,) or g.mask & ~(field | 1 << functional)
                   for g in oracle)):
        raise ValueError("hash, oracle and unhash must return every nonce "
                         "with the hash and service registers at |0...0>")
    forward = permute_labels(values, rounds) >> low
    forward = forward.astype(np.min_scalar_type((1 << width) - 1))
    marks = (permute_labels(values, oracle) & 1 << functional != 0)[forward]
    for table in (forward, marks):
        table.setflags(write=False)
    return forward, marks


# -- schedules and analysis ------------------------------------------------------


def _solution_space(nonce_bits: int, solution_count: int) -> int:
    """2^n, once ``solution_count`` is a count of marked values in it."""
    space = 1 << nonce_bits
    if not 1 <= solution_count <= space:
        raise ValueError(f"solution_count must be in 1..{space}, "
                         f"got {solution_count}")
    return space


def iteration_count(nonce_bits: int, solution_count: int) -> int:
    """Iterations for the best success probability with ``solution_count``
    marked values: floor(pi/4 * sqrt(2^n / M)), at least 1, except 0 when
    every value is marked."""
    space = _solution_space(nonce_bits, solution_count)
    if solution_count == space:
        return 0
    k = math.floor(math.pi / 4 * math.sqrt(space / solution_count))
    return max(k, 1)


def analytic_success_probability(nonce_bits: int, solution_count: int,
                                 iterations: int) -> float:
    """Closed-form success probability sin^2((2k+1) * asin(sqrt(M/2^n)))."""
    space = _solution_space(nonce_bits, solution_count)
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


def estimate_resources(nonce_bits: int, hash_rate: float, gate_time: float,
                       gates_per_iteration: int) -> ResourceEstimate:
    """Project wall-clock costs of exhausting a nonce space classically
    versus amplitude amplification, under explicit throughput assumptions."""
    if not 0 <= nonce_bits <= MAX_ESTIMATE_BITS:
        raise ValueError(f"nonce bits must be in 0..{MAX_ESTIMATE_BITS}, "
                         f"got {nonce_bits}")
    if not (0 < hash_rate < math.inf and 0 < gate_time < math.inf
            and gates_per_iteration > 0):
        raise ValueError("rates must be positive and finite, gate counts positive")
    classical_hashes = 1 << nonce_bits
    classical_seconds = classical_hashes / hash_rate
    quantum_iterations = iteration_count(nonce_bits, 1)
    quantum_gate_count = quantum_iterations * gates_per_iteration
    if quantum_gate_count.bit_length() > MAX_ESTIMATE_BITS:
        raise ValueError("gates per iteration too large: the projected gate "
                         "count overflows a float")
    quantum_seconds = quantum_gate_count * gate_time
    if math.inf in (classical_seconds, quantum_seconds):
        raise ValueError("rates too extreme: the projected time overflows a float")
    return ResourceEstimate(
        classical_hashes=classical_hashes,
        classical_seconds=classical_seconds,
        classical_hours=classical_seconds / 3600.0,
        classical_days=classical_seconds / 86400.0,
        quantum_iterations=quantum_iterations,
        quantum_gate_count=quantum_gate_count,
        quantum_seconds=quantum_seconds,
    )


def header_prefix(header_blocks: Sequence[int], hash_params: HashParams) -> int:
    """The sponge state after absorbing the header, 0 for an empty one.

    Absorbing v into state s is absorbing s ^ v into the zero state, so
    ``hash_classical([prefix ^ v])`` equals ``hash_classical(header + [v])``
    for every block v and costs one permutation instead of len(header) + 1."""
    return hash_classical(list(header_blocks), hash_params).value if header_blocks else 0


def _scan(header_blocks: Sequence[int], hash_params: HashParams, nonce_bits: int,
          zeros: int) -> tuple[np.ndarray, np.ndarray]:
    """Every nonce's digest and whether it clears the difficulty, by classical
    exhaustion (desk scale only): one ``hash_many`` call over all 2^n nonces."""
    check_nonce_width(nonce_bits, hash_params.digest_bits)
    check_zeros(zeros, hash_params.digest_bits)
    prefix = header_prefix(header_blocks, hash_params)
    digests = hash_many(prefix, np.arange(1 << nonce_bits), hash_params)
    return digests, has_leading_zeros(digests, hash_params.digest_bits, zeros)


def enumerate_solutions(header_blocks: Sequence[int], hash_params: HashParams,
                        nonce_bits: int, zeros: int) -> list[int]:
    """All nonce values whose digest clears the difficulty, in ascending order."""
    return np.flatnonzero(_scan(header_blocks, hash_params, nonce_bits, zeros)[1]).tolist()


def mine_classical(header_blocks: Sequence[int], params: MiningParams,
                   nonce_bits: int) -> MiningResult:
    """Exhaustive baseline: the lowest nonce whose digest clears the
    difficulty, else the last nonce; ties against the quantum miner are
    broken toward the smallest nonce by construction.  ``_scan`` hashes every
    nonce, but ``hashes_tried`` counts those up to the one returned."""
    hp = params.hash_params
    digests, solved = _scan(header_blocks, hp, nonce_bits, params.difficulty_zeros)
    success = bool(solved.any())
    value = int(solved.argmax()) if success else solved.size - 1
    return MiningResult(
        nonce=value, nonce_bits=format(value, f"0{nonce_bits}b"),
        digest=Digest(int(digests[value]), hp.digest_bits), success=success,
        grover_iterations_used=0, success_probability_at_measurement=float(success),
        total_gates=0, hashes_tried=value + 1)


# -- the miner -------------------------------------------------------------------


def mine_quantum(header_blocks: Sequence[int], layout: RegisterLayout,
                 params: MiningParams, *, exact_readout: bool = False) -> MiningResult:
    """Run the full search and return a classically verified result.

    Rounds of k_t iterations each end in one readout plus classical
    verification.  With a solution-count hint the schedule is one round at
    the optimal iteration count.  Without one it is k_t = ceil(1.2^t), run
    until success or until the iterations used exceed the cap
    max_grover_rounds * ceil(pi/4 * sqrt(2^n)).
    The round that crosses the cap runs in full, so a failed run reports
    between cap + 1 and cap + k_t iterations; failure then may mean no
    solution exists.

    Every round restarts from the prepared state, as a device must.

    ``exact_readout`` replaces sampling with the argmax-probability
    nonce for deterministic runs; sampling uses params.rng_seed.  It reads
    the lowest nonce of the strictly likelier class, the lowest solution
    whenever it succeeds.  The classes tie at k = 0 for every M (a hint of
    2^n runs 0 iterations), and at k >= 1 only where A^2 = C^2 in
    ``SearchProblem.distribution``, which by Niven's theorem needs M / 2^n
    in {1/4, 1/2, 3/4}; every nonce is then equally likely, and exact
    readout returns nonce 0.

    Verification hashes each distinct nonce read once, as the single block
    ``hash_classical([problem.prefix ^ value])``: the header's sponge state
    comes from the search's compile, so no header block is hashed here.
    """
    n = len(layout.nonce)
    hp = params.hash_params
    zeros = params.difficulty_zeros
    problem = SearchProblem.build(header_blocks, layout, hp, zeros)
    if params.solution_count_hint is None:
        schedule = (math.ceil(UNKNOWN_COUNT_GROWTH ** t) for t in count())
    else:
        schedule = [iteration_count(n, params.solution_count_hint)]
    budget_cap = params.max_grover_rounds * math.ceil(math.pi / 4 * math.sqrt(1 << n))
    rng = None if exact_readout else np.random.default_rng(params.rng_seed)
    digests: dict[int, Digest] = {}  # a nonce read again is not hashed again
    used = hashes = 0
    for k in schedule:
        dist = problem.distribution(k)
        value = int(np.argmax(dist)) if exact_readout else sample_readout(dist, rng)
        if value not in digests:
            digests[value] = hash_classical([problem.prefix ^ value], hp)
        ok = digests[value].meets_difficulty(zeros)
        used += k
        hashes += 1
        if ok or used > budget_cap:
            break
    return MiningResult(
        nonce=value,
        nonce_bits=format(value, f"0{n}b"),
        digest=digests[value],
        success=ok,
        grover_iterations_used=used,
        success_probability_at_measurement=float(dist[problem.marked].sum()),
        # prepare (n + 2 gates) once per round, plus every iteration
        total_gates=hashes * (n + 2) + used * gates_per_iteration(layout, header_blocks, hp),
        hashes_tried=hashes,
    )
