"""State-vector simulator with dense storage and support-tracked gates.

Holds all 2^q complex amplitudes of a q-qubit register and applies gates
from the closed set {H, X, SWAP, multi-controlled X} only to the basis
states that carry amplitude.  Basis convention: basis index b encodes
qubit k as bit k of b (qubit 0 is the least significant bit).  Every gate
except H is a permutation of the amplitudes, so circuits built purely
from X/SWAP/MCX are bit-exact and their inverses cancel exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from .circuit import Gate

DEFAULT_QUBIT_CAP = 26  # 2^26 complex128 amplitudes ~ 1 GiB
HARD_QUBIT_LIMIT = 28   # ceiling for the cap itself (4 GiB of amplitudes)

_SQRT1_2 = 1.0 / np.sqrt(2.0)


class CapacityError(ValueError):
    """Requested register exceeds the configured qubit cap."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """One sampled readout of a qubit register.

    ``bits`` is the MSB-first rendering of ``value``; bit i of ``value``
    is the sampled state of the i-th qubit in the measured register.
    """

    bits: str
    value: int
    probability: float


class StateVector:
    """Mutable amplitude array for ``num_qubits`` qubits.

    Owned by one logical thread at a time; gate application mutates in
    place.  All gates applied to this state are tallied in
    ``gate_counts`` (by gate kind), which feeds the mining resource
    reports.
    """

    def __init__(self, num_qubits: int, *, cap: int = DEFAULT_QUBIT_CAP):
        cap = min(cap, HARD_QUBIT_LIMIT)
        if num_qubits < 1 or num_qubits > cap:
            raise CapacityError(
                f"num_qubits must be in 1..{cap} (got {num_qubits}); "
                f"raise the cap explicitly to simulate more"
            )
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.amplitudes[0] = 1.0
        self.gate_counts: Counter[str] = Counter()

    # -- bookkeeping -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts.values())

    def reset(self) -> None:
        """Return to |0...0> without clearing the gate tally."""
        self.amplitudes[:] = 0.0
        self.amplitudes[0] = 1.0

    def total_probability(self) -> float:
        a = self.amplitudes
        return float(np.sum(a.real * a.real + a.imag * a.imag))

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.num_qubits:
            raise IndexError(f"qubit {q} out of range for {self.num_qubits}-qubit state")

    # -- gate application --------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        self.apply_gates((gate,))

    def apply_gates(self, gates: Sequence[Gate]) -> None:
        """Apply gates in order to the support (the non-zero amplitudes), which
        is found once per call: callers may write ``amplitudes`` in between."""
        for gate in gates:
            for q in gate.qubits():
                self._check_qubit(q)
        self.gate_counts.update(gate.kind for gate in gates)
        support = np.flatnonzero(self.amplitudes != 0)
        for is_h, run in groupby(gates, key=lambda g: g.kind == "H"):
            if not is_h:
                support = self._permute(support, run)
                continue
            for gate in run:
                support = self._hadamard(support, 1 << gate.targets[0])

    def _permute(self, support: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
        # X/SWAP/MCX rewrite the support's basis labels with bit operations;
        # the amplitudes then move in one scatter, so they stay bit-exact
        labels = support.copy()
        for gate in gates:
            t = gate.targets[0]
            if gate.kind == "X":
                labels ^= 1 << t
            elif gate.kind == "SWAP":  # flip both bits where they differ
                both = (1 << t) | (1 << gate.targets[1])
                pair = labels & both
                np.bitwise_xor(labels, both, out=labels,
                               where=(pair != 0) & (pair != both))
            else:  # MCX: flip the target where every control holds
                care = want = 0
                for q, positive in gate.controls:
                    care |= 1 << q
                    want |= positive << q
                np.bitwise_xor(labels, 1 << t, out=labels,
                               where=(labels & care) == want)
        # a permutation maps the support onto a set of the same size, so
        # clearing the old positions first leaves every other entry zero
        values = self.amplitudes[support]
        self.amplitudes[support] = 0.0
        self.amplitudes[labels] = values
        return labels

    def _hadamard(self, support: np.ndarray, bit: int) -> np.ndarray:
        # each (lo, lo|bit) pair meeting the support once: members without
        # the bit, and the zero lo partners of members with it
        amps = self.amplitudes
        high = (support & bit) != 0
        partners = support[high] ^ bit
        lo = np.concatenate((support[~high], partners[amps[partners] == 0]))
        hi = lo | bit
        x0, x1 = amps[lo], amps[hi]
        amps[lo] = (x0 + x1) * _SQRT1_2
        amps[hi] = (x0 - x1) * _SQRT1_2
        touched = np.concatenate((lo, hi))
        return touched[amps[touched] != 0]

    # -- readout -----------------------------------------------------------

    def probability_of(self, assignment: Mapping[int, int]) -> float:
        """Total probability of all basis states matching a partial
        bit-assignment {qubit index: 0 or 1}."""
        care = want = 0
        for q, bit in assignment.items():
            self._check_qubit(q)
            care |= 1 << q
            want |= (bit & 1) << q
        support = np.flatnonzero(self.amplitudes != 0)
        sel = self.amplitudes[support[(support & care) == want]]
        return float(np.sum(sel.real * sel.real + sel.imag * sel.imag))

    def register_distribution(self, register: Iterable[int]) -> np.ndarray:
        """Marginal Born-rule distribution over a register; entry v is the
        probability of reading value v (register[i] contributes bit i)."""
        register = list(register)
        if not register:
            raise ValueError("register must name at least one qubit")
        for q in register:
            self._check_qubit(q)
        # in ascending order the bincount adds the same non-zero terms in
        # the same order as a sweep over every basis state
        support = np.flatnonzero(self.amplitudes != 0)
        a = self.amplitudes[support]
        probs = a.real * a.real + a.imag * a.imag
        values = np.zeros(support.shape[0], dtype=np.int64)
        for pos, q in enumerate(register):
            values |= ((support >> q) & 1) << pos
        return np.bincount(values, weights=probs, minlength=1 << len(register))

    def measure_register(self, register: Iterable[int],
                         rng: np.random.Generator) -> MeasurementOutcome:
        """Sample a bitstring for ``register`` with Born-rule probability.

        Non-collapsing: the state vector is left untouched, so tests can
        read exact probabilities and sample from the same state.  The rng
        must be seeded by the caller.
        """
        register = list(register)
        dist = self.register_distribution(register)
        dist = dist / dist.sum()  # guard fp drift; errors are ~1e-16
        value = int(rng.choice(dist.shape[0], p=dist))
        return MeasurementOutcome(
            bits=format(value, f"0{len(register)}b"),
            value=value,
            probability=float(dist[value]),
        )


def new_zero_state(num_qubits: int, *, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Fresh |0...0> state; raises CapacityError beyond the qubit cap."""
    return StateVector(num_qubits, cap=cap)


def assignment_for(register: Iterable[int], value: int) -> dict[int, int]:
    """Bit-assignment pinning ``register`` to ``value`` (bit i -> register[i])."""
    return {q: (value >> i) & 1 for i, q in enumerate(register)}
