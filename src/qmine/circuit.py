"""Reversible-gate IR and classical-primitive constructions.

The gate set {H, X, SWAP, MCX-with-polarity} is closed under inversion:
every member is self-inverse, so a circuit is inverted by reversing its
gate order.  CNOT is MCX with one positive control, CCNOT with two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .statevector import StateVector

GATE_KINDS = ("H", "X", "SWAP", "MCX")


@dataclass(frozen=True)
class Gate:
    """One gate: ``kind``, target qubits, and (for MCX) controls as
    (qubit, positive) pairs — positive=False fires on |0>."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want_targets = {"H": 1, "X": 1, "SWAP": 2, "MCX": 1}[self.kind]
        if len(self.targets) != want_targets:
            raise ValueError(f"{self.kind} takes {want_targets} target(s), "
                             f"got {self.targets}")
        if self.kind != "MCX" and self.controls:
            raise ValueError(f"{self.kind} takes no controls")
        if self.kind == "MCX" and not self.controls:
            raise ValueError("MCX needs at least one control")
        qubits = list(self.qubits())
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate qubits must be distinct: {qubits}")
        # bit q per qubit q, -1 if one is negative: mask >> width != 0 iff out of range
        object.__setattr__(self, "mask", -1 if min(qubits) < 0
                           else sum(map((1).__lshift__, qubits)))

    def qubits(self) -> Iterator[int]:
        yield from self.targets
        for q, _ in self.controls:
            yield q

    @staticmethod
    def h(q: int) -> "Gate":
        return Gate("H", (q,))

    @staticmethod
    def x(q: int) -> "Gate":
        return Gate("X", (q,))

    @staticmethod
    def swap(a: int, b: int) -> "Gate":
        return Gate("SWAP", (a, b))

    @staticmethod
    def mcx(controls: Iterable[tuple[int, bool]], target: int) -> "Gate":
        return Gate("MCX", (target,), tuple(controls))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate("MCX", (target,), ((control, True),))

    @staticmethod
    def ccnot(c1: int, c2: int, target: int) -> "Gate":
        return Gate("MCX", (target,), ((c1, True), (c2, True)))


@dataclass
class Circuit:
    """Ordered gate list over ``num_qubits`` qubits.

    Mutable while being built (append/extend); treat as read-only once
    handed to the simulator so it can be shared across runs.
    """

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    label: str = ""

    def append(self, gate: Gate) -> None:
        if gate.mask >> self.num_qubits:
            bad = next(q for q in gate.qubits() if not 0 <= q < self.num_qubits)
            raise IndexError(f"qubit {bad} out of range for "
                             f"{self.num_qubits}-qubit circuit {self.label!r}")
        self.gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for g in gates:
            self.append(g)  # names the first bad qubit; the gates before it stay

    def __len__(self) -> int:
        return len(self.gates)


# -- classical primitives ----------------------------------------------------

def emit_xor_into(circuit: Circuit, a: int, b: int, target: int) -> None:
    """target ^= a XOR b via two CNOTs; operands are left unchanged.

    The target must be a service qubit the caller prepared in |0> for the
    result to literally equal a XOR b.
    """
    if len({a, b, target}) != 3:
        raise ValueError(f"xor-into qubits must be distinct: {a}, {b}, {target}")
    circuit.append(Gate.cnot(a, target))
    circuit.append(Gate.cnot(b, target))


def emit_and_into(circuit: Circuit, a: int, b: int, target: int) -> None:
    """target ^= a AND b via one CCNOT."""
    if len({a, b, target}) != 3:
        raise ValueError(f"and-into qubits must be distinct: {a}, {b}, {target}")
    circuit.append(Gate.ccnot(a, b, target))


def emit_not(circuit: Circuit, a: int) -> None:
    circuit.append(Gate.x(a))


def emit_rotate_left(circuit: Circuit, register: Sequence[int], k: int) -> None:
    """Cyclic left rotation of a register's bits: new[i] = old[(i-k) mod len].

    Realized as the cycle decomposition of the index permutation, each
    cycle as transpositions; gate order is fixed (ascending cycle start)
    so emitted circuits are bit-reproducible.
    """
    length = len(register)
    if length == 0:
        raise ValueError("cannot rotate an empty register")
    if not 0 <= k < length:
        raise ValueError(f"rotation {k} out of range 0..{length - 1}")
    if k == 0:
        return
    seen = [False] * length
    for start in range(length):
        if seen[start]:
            continue
        # content at position j moves to (j + k) mod length
        cycle = [start]
        seen[start] = True
        j = (start + k) % length
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = (j + k) % length
        for pos in cycle[1:]:
            circuit.append(Gate.swap(register[cycle[0]], register[pos]))


# -- whole-circuit operations ------------------------------------------------

def invert(circuit: Circuit) -> Circuit:
    """Exact inverse: gate order reversed (every gate is self-inverse)."""
    return Circuit(circuit.num_qubits, list(reversed(circuit.gates)),
                   label=f"{circuit.label}^-1" if circuit.label else "")


def apply_circuit(state: "StateVector", circuit: Circuit) -> None:
    """Apply gates in order; the state tallies per-kind gate counts."""
    if circuit.num_qubits > state.num_qubits:
        raise ValueError(f"circuit needs {circuit.num_qubits} qubits, "
                         f"state has {state.num_qubits}")
    state.apply_gates(circuit.gates)


def format_circuit(circuit: Circuit) -> str:
    """Stable one-gate-per-line dump: KIND targets... [controls with +/-].

    The format is frozen for golden-file tests; extend only by appending
    new gate kinds.
    """
    lines = []
    for g in circuit.gates:
        parts = [g.kind] + [str(t) for t in g.targets]
        parts += [("+" if positive else "-") + str(q) for q, positive in g.controls]
        lines.append(" ".join(parts))
    return "\n".join(lines)
