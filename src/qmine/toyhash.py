"""ToyKeccak: a parameterized, desk-scale sponge hash.

Single-rate sponge (block width = digest width) over an m-bit state,
4 <= m <= 16, built solely from XOR / AND / rotate / constants so it has
a direct reversible-circuit realization.  Two implementations are
provided and must agree bit-for-bit: the classical reference
(``hash_classical``, which checks its blocks and runs ``absorb``, the one
sponge loop from the zero state, also run on int64 arrays for ``hash_many``'s
``prefix ^ v`` blocks and a chain's header columns) and the circuit builders
that hash every nonce value in superposition.

Round structure (sequential in-place semantics, index ascending — the
circuit is a gate-for-gate transcription, so the classical code must
keep exactly this update order):

    chi-like : h[i] ^= h[(i+1) mod m] AND h[(i+2) mod m]
    linear   : h[i] ^= h[(i+3) mod m]
    rotate   : left-rotate by 1, new[i] = old[(i-1) mod m]
    constant : h ^= RC_j, RC_j = low m bits of (j+1) * 0x9E3779B9

``true_chi=True`` inverts the first AND operand (a negative control in
the circuit), matching the chi nonlinearity of real sponge designs; the
default keeps the plain AND.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .circuit import Circuit, Gate, emit_rotate_left

if TYPE_CHECKING:
    from .miner import RegisterLayout

GOLDEN_RATIO_32 = 0x9E3779B9

MIN_DIGEST_BITS = 4
MAX_DIGEST_BITS = 16
MAX_ROUNDS = 8


@dataclass(frozen=True)
class HashParams:
    digest_bits: int
    rounds: int
    true_chi: bool = False

    def __post_init__(self):
        if not MIN_DIGEST_BITS <= self.digest_bits <= MAX_DIGEST_BITS:
            raise ValueError(f"digest_bits must be in {MIN_DIGEST_BITS}.."
                             f"{MAX_DIGEST_BITS}, got {self.digest_bits}")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}, got {self.rounds}")

    @property
    def mask(self) -> int:
        return (1 << self.digest_bits) - 1


@dataclass(frozen=True)
class Digest:
    """m-bit digest; bit i of ``value`` is hash bit i, bit m-1 is the
    leading (most significant) bit tested by the difficulty rule."""

    value: int
    width: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"digest value {self.value:#x} does not fit "
                             f"in {self.width} bits")

    @property
    def hex(self) -> str:
        return format(self.value, f"0{hex_digits(self.width)}x")

    def meets_difficulty(self, zeros: int) -> bool:
        return has_leading_zeros(self.value, self.width, zeros)


def hex_digits(bits: int) -> int:
    """Hex digits that print every value of a bits-bit field."""
    return (bits + 3) // 4


def has_leading_zeros(value, width: int, zeros: int):
    """True iff the top ``zeros`` bits of a width-bit value are all 0, on an
    int or elementwise on an int64 array of width-bit values."""
    return value >> (width - check_zeros(zeros, width)) == 0


def check_zeros(zeros: int, width: int) -> int:
    """``zeros`` itself if it is a difficulty for a width-bit digest, else
    ValueError."""
    if not 0 <= zeros <= width:
        raise ValueError(f"zeros must be in 0..{width}, got {zeros}")
    return zeros


def check_nonce_width(nonce_bits: int, digest_bits: int) -> int:
    """``nonce_bits`` itself if a nonce of that many bits, 1..digest_bits,
    is one sponge block of a digest_bits-bit hash, else ValueError.  It reads
    the width alone, so it runs before anything that wide is built or hashed."""
    if not 1 <= nonce_bits <= digest_bits:
        raise ValueError(f"nonce_bits must be in 1..{digest_bits}, got {nonce_bits}")
    return nonce_bits


def round_constant(round_index: int, digest_bits: int) -> int:
    return ((round_index + 1) * GOLDEN_RATIO_32) & ((1 << digest_bits) - 1)


# -- classical reference -------------------------------------------------------


def permute(state_bits: int, params: HashParams) -> int:
    """Apply the full r-round permutation to an m-bit state value."""
    if not 0 <= state_bits <= params.mask:
        raise ValueError(f"state {state_bits:#x} does not fit in {params.digest_bits} bits")
    return _rounds(state_bits, params)


def _rounds(state_bits, params: HashParams):
    """``permute`` unchecked, on an int or elementwise on an int64 array."""
    m = params.digest_bits
    bits = [(state_bits >> i) & 1 for i in range(m)]
    for j in range(params.rounds):
        for i in range(m):
            first = bits[(i + 1) % m] ^ 1 if params.true_chi else bits[(i + 1) % m]
            bits[i] ^= first & bits[(i + 2) % m]
        for i in range(m):
            bits[i] ^= bits[(i + 3) % m]
        bits = [bits[(i - 1) % m] for i in range(m)]
        rc = round_constant(j, m)
        bits = [b ^ ((rc >> i) & 1) for i, b in enumerate(bits)]
    return sum(b << i for i, b in enumerate(bits))


def hash_classical(message_blocks: Sequence[int], params: HashParams) -> Digest:
    """Sponge absorb: state ^= block, permute; digest is the final state.
    Every block is checked before ``absorb`` runs the loop."""
    if not message_blocks:
        raise ValueError("message must contain at least one block")
    for block in message_blocks:
        check_block(block, params)
    return Digest(absorb(message_blocks, params), params.digest_bits)


def absorb(blocks, params: HashParams):
    """The sponge loop unchecked from the zero state, ``state = _rounds(state
    ^ block)`` for each block in turn: on ints, or elementwise on int64
    arrays, one ``_rounds`` call per block whatever the arrays' length."""
    state = 0
    for block in blocks:
        state = _rounds(state ^ block, params)
    return state


def hash_many(prefix: int, values: np.ndarray, params: HashParams) -> np.ndarray:
    """``hash_classical([prefix ^ v]).value`` for each v of ``values`` as an
    int64 array, through the rounds run on all v at once; an out-of-range
    prefix or value raises ``check_block``'s error for the lowest one."""
    values = np.asarray(values, dtype=np.int64)
    check_block(prefix, params)
    outside = values[(values < 0) | (values > params.mask)]
    if outside.size:
        check_block(int(outside.min()), params)
    return absorb([prefix ^ values], params)


def check_block(block: int, params: HashParams) -> int:
    """``block`` itself if it fits one sponge block, else ValueError."""
    if not 0 <= block <= params.mask:
        raise ValueError(f"block {block:#x} does not fit in "
                         f"{params.digest_bits} bits")
    return block


# -- reversible-circuit realization --------------------------------------------


def _emit_round(circuit: Circuit, hash_qubits: Sequence[int], round_index: int,
                params: HashParams) -> None:
    m = params.digest_bits
    for i in range(m):
        operands = [(hash_qubits[(i + 1) % m], not params.true_chi),
                    (hash_qubits[(i + 2) % m], True)]
        circuit.append(Gate.mcx(operands, hash_qubits[i]))
    for i in range(m):
        circuit.append(Gate.cnot(hash_qubits[(i + 3) % m], hash_qubits[i]))
    emit_rotate_left(circuit, hash_qubits, 1)
    rc = round_constant(round_index, m)
    for i in range(m):
        if (rc >> i) & 1:
            circuit.append(Gate.x(hash_qubits[i]))


def _check_layout(layout: "RegisterLayout", params: HashParams) -> None:
    if len(layout.hash) != params.digest_bits:
        raise ValueError(f"layout hash register has {len(layout.hash)} qubits, "
                         f"params need {params.digest_bits}")


@lru_cache(maxsize=8)
def _shared_gates(nonce: tuple[int, ...], hash_qubits: tuple[int, ...],
                  params: HashParams) -> tuple:
    """The nonce CNOTs and all r rounds: shared by all headers."""
    rounds = Circuit(max(nonce + hash_qubits) + 1)
    for j in range(params.rounds):
        _emit_round(rounds, hash_qubits, j, params)
    return (tuple(Gate.cnot(q, hash_qubits[i]) for i, q in enumerate(nonce)),
            tuple(rounds.gates))


def build_hash_circuit(layout: "RegisterLayout", header_blocks: Sequence[int],
                       params: HashParams) -> Circuit:
    """Circuit mapping |v>|0^m> to |v>|hash_classical(header + [v])> for
    every basis nonce v.  Fully in-place on the hash register: chi as
    CCNOTs, linear as CNOTs, rotation as a SWAP network, constants as X
    gates — no service qubits."""
    _check_layout(layout, params)
    circuit = Circuit(layout.total_qubits, label="hash")
    nonce_cnots, rounds = _shared_gates(layout.nonce, layout.hash, params)
    # header_blocks may be empty: the nonce block below is always absorbed
    for block in header_blocks:
        check_block(block, params)
        circuit.extend(Gate.x(q) for i, q in enumerate(layout.hash) if (block >> i) & 1)
        circuit.extend(rounds)
    # the nonce is always the final block, so the header prefix above is
    # nonce-independent and can be reused across mining attempts
    circuit.extend(nonce_cnots)
    circuit.extend(rounds)
    return circuit


def hash_gate_count(nonce_bits: int, header_blocks: Sequence[int],
                    params: HashParams) -> int:
    """``len(build_hash_circuit(...))`` from the builder's structure: a round
    is m chi MCX, m CNOTs, m - 1 rotation SWAPs (one m-cycle) and an X per
    set bit of its constant; the rounds follow each header block's X per set
    bit and the nonce's n CNOTs."""
    m = params.digest_bits
    rounds = sum(3 * m - 1 + round_constant(j, m).bit_count() for j in range(params.rounds))
    xs = sum(check_block(b, params).bit_count() for b in header_blocks)
    return xs + nonce_bits + (len(header_blocks) + 1) * rounds


def build_hash_circuit_outofplace(layout: "RegisterLayout",
                                  header_blocks: Sequence[int],
                                  params: HashParams) -> Circuit:
    """Demonstration variant: ``build_hash_circuit`` with every chi AND
    routed through a service qubit that is uncomputed back to |0>.  Same
    hash-register output, strictly more gates.  It only rewrites gates, so it
    builds at any m and r; ``statevector.QUBIT_CAP`` bounds what simulates."""
    _check_layout(layout, params)
    if len(layout.service) < params.digest_bits:
        raise ValueError(f"need {params.digest_bits} service qubits, "
                         f"layout has {len(layout.service)}")
    circuit = Circuit(layout.total_qubits, label="hash-outofplace")
    for gate in build_hash_circuit(layout, header_blocks, params).gates:
        # each chi AND is computed into a fresh scratch qubit, folded into h[i],
        # then uncomputed; legal because the fold targets h[i], never the two operands
        if gate.kind == "MCX" and len(gate.controls) == 2:
            scratch = layout.service[gate.targets[0] - layout.hash[0]]
            product = Gate.mcx(gate.controls, scratch)
            circuit.extend([product, Gate.cnot(scratch, gate.targets[0]), product])
        else:
            circuit.append(gate)
    return circuit
