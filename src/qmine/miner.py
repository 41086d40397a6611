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
from functools import cached_property, lru_cache
from itertools import count
from typing import Iterator, Sequence

import numpy as np

from .circuit import Circuit, Gate, apply_circuit, invert
# new_zero_state stays bound here for tracers that wrap miner.new_zero_state
from .statevector import StateVector, new_zero_state, permute_labels
from .toyhash import (Digest, HashParams, _check_layout, _shared_gates,
                      build_hash_circuit, check_block, check_zeros,
                      has_leading_zeros, hash_classical, hash_gate_count,
                      hash_many)

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
    """One header's search, compiled once and shared by every run of it.

    Between iterations the state is sum_v b_v |v>|0...0>|-> (its functional
    |1> branch is exactly -b), so hash, oracle and unhash only negate b on
    the ``marked`` nonces, marks[absorb ^ prefix] (``_cached_search_tables``)
    for the sponge state the header leaves.  The diffusion circuit is
    1 - 2|s><s| on the nonce register.  Both keep all marked nonces at one
    amplitude and all others at another, so ``distribution`` follows those
    two, not b.  ``prefix`` is the sponge state after the header, which
    ``build`` reads off the round table; ``hash_classical([prefix ^ v])`` is
    nonce v's digest.  Each problem builds its own circuits on first use."""

    layout: RegisterLayout
    header_blocks: tuple[int, ...]
    hash_params: HashParams
    zeros: int
    prefix: int
    marked: np.ndarray

    @staticmethod
    def build(header_blocks: Sequence[int], layout: RegisterLayout,
              hash_params: HashParams, zeros: int) -> "SearchProblem":
        _check_layout(layout, hash_params)
        header_blocks = tuple(check_block(b, hash_params) for b in header_blocks)
        forward, absorb, marks = _cached_search_tables(layout, hash_params, zeros)
        prefix = 0  # header_prefix, one table lookup per block
        for block in header_blocks:
            prefix = int(forward[prefix ^ block])
        return SearchProblem(layout, header_blocks, hash_params, zeros, prefix,
                             marks[absorb ^ prefix])

    @cached_property
    def hash_circuit(self) -> Circuit:
        return build_hash_circuit(self.layout, self.header_blocks, self.hash_params)

    @cached_property
    def hash_inverse(self) -> Circuit:
        return invert(self.hash_circuit)

    @cached_property
    def oracle(self) -> Circuit:
        return build_oracle(self.layout, self.zeros)

    @cached_property
    def diffusion(self) -> Circuit:
        return build_diffusion(self.layout)

    @property
    def gates_per_iteration(self) -> int:
        """The module's ``gates_per_iteration`` for this header's search."""
        return gates_per_iteration(self.layout, self.header_blocks, self.hash_params)

    def distribution(self, iterations: int) -> np.ndarray:
        """The nonce distribution after ``iterations`` search iterations from
        ``prepare``'s state.  With N = 2^n and M marked, the marked and other
        amplitudes are A and C over sqrt(N) N^k, integers that start at 1
        and map to (2M - N) A - 2(N - M) C and 2M A + (2M - N) C per
        iteration; each probability, A^2 or C^2 over N^(2k+1), is one
        correctly rounded int / int division."""
        return next(self.distributions(iterations))

    def distributions(self, first: int = 0) -> Iterator[np.ndarray]:
        """``distribution(k)`` for k = first, first + 1, ..., carrying A and C
        from one k to the next and dividing only at the k yielded."""
        space, solutions = len(self.marked), int(self.marked.sum())
        a = c = 1
        for k in count():
            if k >= first:
                scale = space ** (2 * k + 1)
                yield np.where(self.marked, a * a / scale, c * c / scale)
            a, c = ((2 * solutions - space) * a - 2 * (space - solutions) * c,
                    2 * solutions * a + (2 * solutions - space) * c)


def gates_per_iteration(layout: RegisterLayout, header_blocks: Sequence[int],
                        hash_params: HashParams) -> int:
    """Gates one search iteration applies, from the builders' structure: hash
    and unhash, the oracle's one gate and the diffusion's 4n + 3."""
    _check_layout(layout, hash_params)
    n = len(layout.nonce)
    return 2 * hash_gate_count(n, header_blocks, hash_params) + 1 + 4 * n + 3


@lru_cache(maxsize=8)
def _cached_round_tables(layout: RegisterLayout, hash_params: HashParams) -> tuple:
    """The r-round gate block every hash circuit repeats, and its register table."""
    block = _shared_gates(layout.nonce, layout.hash, hash_params, ())[2]
    return block, _register_table(block, layout.hash)


@lru_cache(maxsize=8)
def _cached_search_tables(layout: RegisterLayout, hash_params: HashParams,
                          zeros: int) -> tuple:
    """The round table ``forward`` and, read off the gates, ``absorb``,
    what the nonce CNOTs XOR into nonce v's hash field, and ``marks``, whether
    the oracle fires on field forward[x].  Hash and oracle then flip nonce v
    iff marks[absorb[v] ^ prefix] and the unhash clears the field, provided the
    CNOTs read only nonce qubits and write only the hash field and the oracle
    reads only that field and writes only the functional qubit."""
    cnots = _shared_gates(layout.nonce, layout.hash, hash_params, ())[1]
    _, forward = _cached_round_tables(layout, hash_params)
    oracle = build_oracle(layout, zeros).gates
    low, functional = layout.hash[0], 1 << layout.functional
    nonce_mask, field = (1 << len(layout.nonce)) - 1, (len(forward) - 1) << low
    nonces, values = np.arange(nonce_mask + 1), np.arange(len(forward)) << low
    labels = np.concatenate((values, values | functional))
    absorbed = permute_labels(nonces, cnots) ^ nonces
    flipped = permute_labels(labels, oracle) ^ labels
    if (any(g.kind == "SWAP" or g.mask & ~(nonce_mask | 1 << g.targets[0]) for g in cnots)
            or (absorbed & ~field).any()
            or any(g.mask & ~(field | functional) for g in oracle)
            or (flipped & ~functional).any()):
        raise ValueError("hash, oracle and unhash must return every nonce "
                         "with the hash and service registers at |0...0>")
    absorb, marks = absorbed >> low, (flipped[:len(values)] != 0)[forward]
    for table in (absorb, marks):
        table.setflags(write=False)
    return forward, absorb, marks


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
    exhaustion (desk scale only): one ``hash_many`` call over all 2^n
    nonces, which names nonce 2^m if n > m."""
    prefix = header_prefix(header_blocks, hash_params)
    check_zeros(zeros, hash_params.digest_bits)  # before hash_many names a wide nonce
    digests = hash_many(prefix, np.arange(1 << nonce_bits), hash_params)
    return np.flatnonzero(has_leading_zeros(digests, hash_params.digest_bits, zeros)).tolist()


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

    Every round restarts from the prepared state, as a device must.

    ``exact_readout`` replaces sampling with the argmax-probability
    nonce for deterministic runs; sampling uses params.rng_seed.  It reads
    the lowest nonce of the strictly likelier class, the lowest solution
    whenever it succeeds.  The classes tie only where A^2 = C^2 in
    ``SearchProblem.distribution``, which by Niven's theorem needs M / 2^n
    in {1/4, 1/2, 3/4}; every nonce is then equally likely, and exact
    readout returns nonce 0.

    Verification hashes each distinct nonce read once, as the single block
    ``hash_classical([problem.prefix ^ value])``: the header's sponge state
    comes from the search's compile, so no header block is hashed here.
    ``problem`` is the header's ``SearchProblem``, when the caller has
    built it already; one built for another header, layout, hash_params or
    zeros is a ValueError.
    """
    n = len(layout.nonce)
    hp = params.hash_params
    zeros = params.difficulty_zeros
    if problem is None:
        problem = SearchProblem.build(header_blocks, layout, hp, zeros)
    else:
        for name, built, wanted in (
                ("header", problem.header_blocks, tuple(header_blocks)),
                ("layout", problem.layout, layout),
                ("hash_params", problem.hash_params, hp),
                ("zeros", problem.zeros, zeros)):
            if built != wanted:
                raise ValueError(f"problem was built for {name} {built!r}, "
                                 f"not {wanted!r}")
    rng = None if exact_readout else np.random.default_rng(params.rng_seed)
    digests: dict[int, Digest] = {}  # a nonce read again is not hashed again

    def run_round(iterations: int) -> tuple[int, np.ndarray, Digest, bool]:
        dist = problem.distribution(iterations)
        value = int(np.argmax(dist)) if exact_readout else sample_readout(dist, rng)
        if value not in digests:
            digests[value] = hash_classical([problem.prefix ^ value], hp)
        digest = digests[value]
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
    t = 0
    while True:
        k_t = math.ceil(UNKNOWN_COUNT_GROWTH ** t)
        value, dist, digest, ok = run_round(k_t)
        used += k_t
        hashes += 1
        if ok or used > budget_cap:
            return result(value, digest, ok, used, dist, hashes)
        t += 1
