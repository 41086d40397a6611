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
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, apply_circuit, invert
# new_zero_state stays bound here for tracers that wrap miner.new_zero_state
from .statevector import _SQRT1_2, StateVector, new_zero_state, permute_labels
from .toyhash import (Digest, HashParams, _shared_gates, build_hash_circuit,
                      check_block, hash_classical)

UNKNOWN_COUNT_GROWTH = 6 / 5  # per-round budget ratio when the solution count is unknown
MAX_ESTIMATE_BITS = 1023  # the estimator's counts must convert to finite floats


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
    nonce register: H^n X^n (H MCX H on the last qubit) X^n H^n.  H MCX H
    is a phase flip on |1...1>, so the circuit is exactly 1 - 2|s><s|, the
    operator ``SearchProblem.run`` applies as b - 2 mean(b)."""
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


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """The circuits of one search iteration for one header, built once
    and shared by every run of that search.

    Between iterations the state is sum_v b_v |v>|0...0>|-> (its functional
    |1> branch is exactly -b), so hash, oracle and unhash only negate b on
    the ``marked`` nonces, read off the circuits at build.  The diffusion
    circuit is 1 - 2|s><s| on the nonce register, so ``run`` keeps the 2^n
    amplitudes b and applies it as b - 2 mean(b): one iteration is one
    negation and one reflection about the mean."""

    layout: RegisterLayout
    hash_circuit: Circuit
    hash_inverse: Circuit
    oracle: Circuit
    diffusion: Circuit
    marked: np.ndarray

    @staticmethod
    def build(header_blocks: Sequence[int], layout: RegisterLayout,
              hash_params: HashParams, zeros: int) -> "SearchProblem":
        hash_circuit = build_hash_circuit(layout, header_blocks, hash_params)
        hash_inverse = invert(hash_circuit)
        oracle = _cached_oracle(layout, zeros)
        diffusion = _cached_diffusion(layout)
        nonces = np.arange(1 << len(layout.nonce))
        functional = 1 << layout.functional
        labels = fused_permute_labels(nonces, hash_circuit.gates + oracle.gates
                                      + hash_inverse.gates, layout, hash_params)
        if ((labels & ~functional) != nonces).any():
            raise ValueError("hash, oracle and unhash must return every nonce "
                             "with the hash and service registers at |0...0>")
        # each problem owns its gate lists
        return SearchProblem(layout, hash_circuit, hash_inverse,
                             *(Circuit(c.num_qubits, list(c.gates), c.label)
                               for c in (oracle, diffusion)),
                             (labels & functional) != 0)

    @property
    def gates_per_iteration(self) -> int:
        """Gates one iteration applies, counted from the circuits alone."""
        return (len(self.hash_circuit) + len(self.oracle)
                + len(self.hash_inverse) + len(self.diffusion))

    def prepared(self) -> np.ndarray:
        """The amplitudes b of ``prepare``'s state, as ``run`` takes them:
        each of its n + 1 H gates scales every non-zero amplitude by 1/sqrt(2)."""
        scale = math.prod([_SQRT1_2] * (len(self.layout.nonce) + 1))
        return np.full(len(self.marked), scale, dtype=np.complex128)

    def run(self, b: np.ndarray, iterations: int) -> np.ndarray:
        """Apply ``iterations`` more search iterations to ``b`` in place and
        return the distribution of the nonce register."""
        for _ in range(iterations):
            np.negative(b, out=b, where=self.marked)
            b -= 2 * (b.sum() / len(b))  # b.mean()'s float operations
        p = b.real * b.real + b.imag * b.imag
        return p + p  # both functional branches, in the order readout adds them


@lru_cache(maxsize=8)
def _cached_oracle(layout: RegisterLayout, zeros: int) -> Circuit:
    return build_oracle(layout, zeros)


@lru_cache(maxsize=8)
def _cached_diffusion(layout: RegisterLayout) -> Circuit:
    return build_diffusion(layout)


@lru_cache(maxsize=8)
def _cached_round_tables(layout: RegisterLayout, hash_params: HashParams) -> tuple:
    """The r-round gate block that every hash circuit for these parameters
    repeats, and the permutations of the hash register's 2^m values that
    the block and its reverse apply.  Every gate is self-inverse, so the
    reverse undoes the block and its table is the forward table's inverse."""
    block = _shared_gates(layout.nonce, layout.hash, hash_params, ())[2]
    forward = _register_table(block, layout.hash)
    backward = np.empty_like(forward)
    backward[forward] = np.arange(len(forward), dtype=forward.dtype)
    backward.setflags(write=False)
    return block, forward, backward


def _register_table(gates: Sequence[Gate], register: Sequence[int]) -> np.ndarray:
    """Entry v is the value that X/SWAP/MCX ``gates`` move value v of the
    contiguous ``register`` to, read off the gates in one pass over all
    2^len(register) values; read-only, in the narrowest unsigned dtype."""
    low, width = register[0], len(register)
    if any(g.mask >> low + width or g.mask & (1 << low) - 1 for g in gates):
        raise ValueError("the gate block acts outside the hash register")
    values = permute_labels(np.arange(1 << width) << low, gates) >> low
    table = values.astype(np.min_scalar_type((1 << width) - 1))
    table.setflags(write=False)
    return table


def fused_permute_labels(labels: np.ndarray, gates: list, layout: RegisterLayout,
                         hash_params: HashParams) -> np.ndarray:
    """``permute_labels(labels, gates)``, except that each slice of ``gates``
    equal to the cached round block, or to its reverse, is one gather of
    the labels' hash field through that block's table.  The field is kept
    unpacked between slices, and a run made only of X gates on the hash
    register is one XOR of it."""
    block, forward, backward = _cached_round_tables(layout, hash_params)
    low, mask = layout.hash[0], len(forward) - 1
    field, size, reverse = mask << low, len(block), block[::-1]
    # labels = rest | values << low; int64 values index faster than uint8/16
    labels = np.asarray(labels, dtype=np.int64)
    rest, values = labels & ~field, labels >> low & mask
    # flips: a run's X gates on the hash field XORed, negative if it has others
    start = i = flips = 0
    while True:
        # a header's circuits splice the cached block itself, so a slice
        # compares equal on identity; any other gate list is still exact
        if i == len(gates):
            table = None
        elif gates[i] is block[0] and tuple(gates[i:i + size]) == block:
            table = forward
        elif gates[i] is reverse[0] and tuple(gates[i:i + size]) == reverse:
            table = backward
        else:
            g, i = gates[i], i + 1
            flips = flips ^ g.mask if g.kind == "X" and not g.mask & ~field else -1
            continue
        if flips < 0:
            rest = permute_labels(np.bitwise_or(rest, values << low, out=rest), gates[start:i])
            rest, values = rest & ~field, rest >> low & mask
        elif flips:
            values ^= flips >> low
        if table is None:
            return rest | values << low
        values = table[values].astype(np.int64)
        i, start, flips = i + size, i + size, 0


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


def header_prefix(header_blocks: Sequence[int], hash_params: HashParams) -> int:
    """The sponge state after absorbing the header, 0 for an empty one.

    Absorbing v into state s is absorbing s ^ v into the zero state, so
    ``hash_classical([prefix ^ v])`` equals ``hash_classical(header + [v])``
    for every block v and costs one permutation instead of len(header) + 1."""
    return hash_classical(list(header_blocks), hash_params).value if header_blocks else 0


def enumerate_solutions(header_blocks: Sequence[int], hash_params: HashParams,
                        nonce_bits: int, zeros: int) -> list[int]:
    """All nonce values whose digest clears the difficulty, by classical
    exhaustion (desk scale only)."""
    prefix = header_prefix(header_blocks, hash_params)
    return [v for v in range(1 << nonce_bits)
            if hash_classical([prefix ^ check_block(v, hash_params)], hash_params)
            .meets_difficulty(zeros)]


# -- the miner -------------------------------------------------------------------


def sample_readout(dist: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probability ``dist / dist.sum()`` by inverse-CDF
    sampling from one uniform draw of ``rng``: the algorithm of
    ``rng.choice(len(dist), p=dist / dist.sum())``, without its checks of p."""
    cdf = (dist / dist.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def mine_quantum(header_blocks: Sequence[int], layout: RegisterLayout,
                 params: MiningParams, *, exact_readout: bool = False,
                 problem: SearchProblem | None = None) -> MiningResult:
    """Run the full search and return a classically verified result.

    With a solution-count hint the optimal iteration count is used
    directly.  Without one, rounds of exponentially growing budget
    (ratio 6/5) each end in one readout plus classical verification,
    until success or until the cumulative iteration budget
    max_grover_rounds * ceil(pi/4 * sqrt(2^n)) is exhausted — failure
    then may mean no solution exists.

    Readout does not change the amplitudes, and each round's budget is at
    least the last one's, so one state is carried across the rounds and
    advanced by the difference: a header simulates max k_t iterations,
    although ``grover_iterations_used`` reports sum k_t, the cost of
    restarting every round as a device must.

    ``exact_readout`` replaces sampling with the argmax-probability
    nonce for deterministic runs; sampling uses params.rng_seed.  The
    iterations leave every marked nonce with one probability and every
    unmarked nonce with another, bit for bit, so exact readout returns the
    lowest nonce of the more likely class: the lowest solution whenever it
    succeeds.  Where the two classes are equally likely in exact arithmetic,
    as at M = 2^n / 2, rounding decides between them.
    ``problem`` is the header's ``SearchProblem``, when the caller has
    built it already.
    """
    n = len(layout.nonce)
    hp = params.hash_params
    zeros = params.difficulty_zeros
    if problem is None:
        problem = SearchProblem.build(header_blocks, layout, hp, zeros)
    prefix = header_prefix(header_blocks, hp)
    amplitudes = problem.prepared()
    rng = np.random.default_rng(params.rng_seed)

    def run_round(more_iterations: int) -> tuple[int, np.ndarray, Digest, bool]:
        dist = problem.run(amplitudes, more_iterations)
        value = int(np.argmax(dist)) if exact_readout else sample_readout(dist, rng)
        digest = hash_classical([prefix ^ value], hp)
        return value, dist, digest, digest.meets_difficulty(zeros)

    def result(value, digest, ok, used, dist, hashes) -> MiningResult:
        return MiningResult(
            nonce=value,
            nonce_bits=format(value, f"0{n}b"),
            digest=digest,
            success=ok,
            grover_iterations_used=used,
            success_probability_at_measurement=float(dist[problem.marked].sum()),
            # prepare (n + 2 gates) once per round, plus every iteration
            total_gates=hashes * (n + 2) + used * problem.gates_per_iteration,
            hashes_tried=hashes,
        )

    if params.solution_count_hint is not None:
        k = iteration_count(n, params.solution_count_hint)
        value, dist, digest, ok = run_round(k)
        return result(value, digest, ok, k, dist, 1)

    budget_cap = params.max_grover_rounds * math.ceil(math.pi / 4 * math.sqrt(1 << n))
    used = 0
    hashes = 0
    k_last = 0
    t = 0
    while True:
        k_t = math.ceil(UNKNOWN_COUNT_GROWTH ** t)
        value, dist, digest, ok = run_round(k_t - k_last)
        used += k_t
        hashes += 1
        if ok or used > budget_cap:
            return result(value, digest, ok, used, dist, hashes)
        k_last, dist = k_t, None  # not held while the next round runs
        t += 1
