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
from itertools import groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from .circuit import Gate

QUBIT_CAP = 26  # 2^26 complex128 amplitudes ~ 1 GiB

_SQRT1_2 = 1.0 / np.sqrt(2.0)


class CapacityError(ValueError):
    """Requested register exceeds the qubit cap."""


def sample_readout(dist: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probability ``dist / dist.sum()`` by inverse-CDF
    sampling from one uniform draw of ``rng``: the algorithm of
    ``rng.choice(len(dist), p=dist / dist.sum())``, without its checks of p."""
    cdf = (dist / dist.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def permute_labels(labels: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
    """The basis labels that ``labels`` move to under X/SWAP/MCX ``gates``,
    applied in order, as a new int64 array."""
    # each gate is a few passes over every label; X only toggles bit k of
    # ``flips``, the pending complement of bit k.  Only int64 arrays are
    # shifted: numpy 1.x casts by value and may narrow a shifted bool array
    out, flips = np.array(labels, dtype=np.int64), 0
    for gate in gates:
        t = gate.targets[0]
        if gate.kind == "X":
            flips ^= 1 << t
        elif gate.kind == "SWAP":  # toggle both bits where they differ
            u = gate.targets[1]
            both = 1 << t | 1 << u
            diff = out >> t
            diff ^= out >> u
            diff &= 1
            diff *= both
            out ^= diff
            flips ^= ((flips >> t ^ flips >> u) & 1) * both
        elif gate.kind == "MCX":  # flip the target where every control holds
            care = want = 0
            for q, positive in gate.controls:
                care |= 1 << q
                want |= (positive ^ (flips >> q & 1)) << q
            out ^= ((out & care) == want).astype(np.int64) << t
        else:
            raise ValueError(f"{gate.kind} is not a permutation gate")
    return out ^ flips


class StateVector:
    """Mutable amplitude array for ``num_qubits`` qubits.

    Owned by one logical thread at a time; gate application mutates in
    place.  All gates applied to this state are tallied in
    ``gate_counts`` (by gate kind), the reference the closed-form
    gate counts are tested against.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1 or num_qubits > QUBIT_CAP:
            raise CapacityError(f"num_qubits must be in 1..{QUBIT_CAP} (got {num_qubits})")
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.amplitudes[0] = 1.0
        self.gate_counts: Counter[str] = Counter()

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Return to |0...0> without clearing the gate tally."""
        self.amplitudes[:] = 0.0
        self.amplitudes[0] = 1.0

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.num_qubits:
            raise IndexError(f"qubit {q} out of range for {self.num_qubits}-qubit state")

    # -- gate application --------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        self.apply_gates((gate,))

    def apply_gates(self, gates: Sequence[Gate]) -> None:
        """Apply gates in order to the support (the non-zero amplitudes), which
        is found once per call: callers may write ``amplitudes`` in between."""
        if any(gate.mask >> self.num_qubits for gate in gates):
            for q in (q for gate in gates for q in gate.qubits()):
                self._check_qubit(q)  # names the first qubit out of range
        self.gate_counts.update(gate.kind for gate in gates)
        support = np.flatnonzero(self.amplitudes != 0)
        for is_h, run in groupby(gates, key=lambda g: g.kind == "H"):
            if not is_h:
                support = self._permute(support, run)
                continue
            for gate in run:
                support = self._hadamard(support, 1 << gate.targets[0])

    def _permute(self, support: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
        labels = permute_labels(support, gates)
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
                         rng: np.random.Generator) -> int:
        """A value of ``register`` drawn with Born-rule probability (bit i
        from register[i]) by ``sample_readout``.

        Non-collapsing: the state vector is left untouched, so tests can
        read exact probabilities and sample from the same state.  The rng
        must be seeded by the caller.  A state with no amplitude left (only
        writing ``amplitudes`` makes one) raises ValueError.
        """
        dist = self.register_distribution(register)
        if not dist.sum() > 0:  # also NaN: sample_readout does not check p
            raise ValueError("the state has no amplitude to measure")
        return sample_readout(dist, rng)


def new_zero_state(num_qubits: int) -> StateVector:
    """Fresh |0...0> state; raises CapacityError beyond the qubit cap."""
    return StateVector(num_qubits)


def assignment_for(register: Iterable[int], value: int) -> dict[int, int]:
    """Bit-assignment pinning ``register`` to ``value`` (bit i -> register[i])."""
    return {q: (value >> i) & 1 for i, q in enumerate(register)}
