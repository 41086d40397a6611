import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import CapacityError, Gate, assignment_for, new_zero_state
from helpers import (dense_apply_gates, dense_register_distribution,
                     random_amplitudes, random_circuit, set_register)

SQ = 1 / np.sqrt(2)


class TestNewZeroState:
    def test_single_qubit(self):
        s = new_zero_state(1)
        assert np.allclose(s.amplitudes, [1, 0])

    def test_three_qubits(self):
        s = new_zero_state(3)
        assert s.amplitudes[0] == 1
        assert not s.amplitudes[1:].any()

    def test_capacity_error_names_cap(self):
        with pytest.raises(CapacityError, match="28"):
            new_zero_state(29, cap=28)

    def test_zero_qubits_rejected(self):
        with pytest.raises(CapacityError):
            new_zero_state(0)

    def test_default_cap(self):
        with pytest.raises(CapacityError, match="26"):
            new_zero_state(27)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        s = new_zero_state(1)
        s.apply_gate(Gate.h(0))
        assert np.allclose(s.amplitudes, [SQ, SQ])

    def test_x_on_zero(self):
        s = new_zero_state(1)
        s.apply_gate(Gate.x(0))
        assert np.allclose(s.amplitudes, [0, 1])

    def test_mcx_polarity(self):
        # controls: q1 positive, q2 negative; on |q2=0,q1=1,q0=0> the
        # target q0 must flip
        s = new_zero_state(3)
        s.apply_gate(Gate.x(1))
        s.apply_gate(Gate.mcx([(1, True), (2, False)], 0))
        assert abs(s.amplitudes[0b011]) == 1.0

    def test_mcx_unsatisfied_control(self):
        s = new_zero_state(3)
        s.apply_gate(Gate.x(2))  # q2=1 breaks the negative control
        s.apply_gate(Gate.mcx([(1, True), (2, False)], 0))
        assert abs(s.amplitudes[0b100]) == 1.0

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate.swap(1, 1)
        with pytest.raises(ValueError):
            Gate.mcx([(0, True)], 0)

    def test_out_of_range_rejected(self):
        s = new_zero_state(2)
        with pytest.raises(IndexError):
            s.apply_gate(Gate.x(2))

    def test_batch_validated_before_any_gate(self):
        s = new_zero_state(2)
        with pytest.raises(IndexError):
            s.apply_gates([Gate.h(0), Gate.x(1), Gate.x(2)])
        assert s.amplitudes[0] == 1.0 and not s.amplitudes[1:].any()
        assert s.total_gates == 0

    def test_norm_preserved_per_gate(self):
        s = new_zero_state(4)
        for g in (Gate.h(0), Gate.h(2), Gate.cnot(0, 1), Gate.swap(1, 3)):
            s.apply_gate(g)
            assert abs(s.total_probability() - 1) < 1e-12


class TestProbabilityOf:
    def test_uniform_two_qubit_marginal(self):
        s = new_zero_state(2)
        s.apply_gate(Gate.h(0))
        s.apply_gate(Gate.h(1))
        assert s.probability_of({0: 0}) == pytest.approx(0.5, abs=1e-12)

    def test_zero_state_all_zero(self):
        s = new_zero_state(3)
        assert s.probability_of({0: 0, 1: 0, 2: 0}) == 1.0

    def test_uniform_four_qubit_point(self):
        s = new_zero_state(4)
        for q in range(4):
            s.apply_gate(Gate.h(q))
        # nonce value 0101 (bit i of the value on qubit i)
        assert s.probability_of(assignment_for(range(4), 0b0101)) == pytest.approx(
            1 / 16, abs=1e-12)

    def test_invalid_qubit(self):
        s = new_zero_state(2)
        with pytest.raises(IndexError):
            s.probability_of({5: 0})


class TestMeasureRegister:
    def test_deterministic_state(self):
        s = new_zero_state(3)
        set_register(s, range(3), 0b101)
        out = s.measure_register([0, 1, 2], np.random.default_rng(0))
        assert out.bits == "101"
        assert out.value == 0b101
        assert out.probability == 1.0

    def test_seeded_reproducibility(self):
        s = new_zero_state(1)
        s.apply_gate(Gate.h(0))
        a = s.measure_register([0], np.random.default_rng(42))
        b = s.measure_register([0], np.random.default_rng(42))
        assert a == b

    def test_non_collapsing(self):
        s = new_zero_state(2)
        s.apply_gate(Gate.h(0))
        before = s.amplitudes.copy()
        s.measure_register([0, 1], np.random.default_rng(1))
        assert np.array_equal(s.amplitudes, before)

    def test_uniform_sampling_statistics(self):
        # binomial: sigma = sqrt(p(1-p)/N); each frequency within 5 sigma
        s = new_zero_state(2)
        s.apply_gate(Gate.h(0))
        s.apply_gate(Gate.h(1))
        rng = np.random.default_rng(2024)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            counts[s.measure_register([0, 1], rng).value] += 1
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts / n - 0.25) < 5 * sigma)

    def test_empty_register(self):
        s = new_zero_state(2)
        with pytest.raises(ValueError):
            s.measure_register([], np.random.default_rng(0))


class TestInvariants:
    def test_norm_preservation_long_random_circuit(self):
        rng = np.random.default_rng(7)
        s = new_zero_state(12)
        for g in random_circuit(12, 10_000, rng).gates:
            s.apply_gate(g)
        assert abs(s.total_probability() - 1) < 1e-9

    @given(seed=st.integers(0, 50), kind=st.sampled_from(["H", "X", "SWAP", "MCX"]))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_gates_self_inverse(self, seed, kind):
        rng = np.random.default_rng(seed)
        s = new_zero_state(5)
        s.amplitudes[:] = random_amplitudes(5, rng)
        before = s.amplitudes.copy()
        if kind == "H":
            g = Gate.h(int(rng.integers(5)))
        elif kind == "X":
            g = Gate.x(int(rng.integers(5)))
        elif kind == "SWAP":
            a, b = rng.choice(5, size=2, replace=False)
            g = Gate.swap(int(a), int(b))
        else:
            picks = rng.choice(5, size=3, replace=False)
            g = Gate.mcx([(int(picks[0]), True), (int(picks[1]), False)],
                         int(picks[2]))
        s.apply_gate(g)
        s.apply_gate(g)
        assert np.max(np.abs(s.amplitudes - before)) < 1e-12

    @given(seed=st.integers(0, 30))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_locality(self, seed):
        # a gate on qubits S leaves marginals of disjoint qubits unchanged
        rng = np.random.default_rng(seed)
        s = new_zero_state(6)
        s.amplitudes[:] = random_amplitudes(6, rng)
        probe = {4: int(rng.integers(2)), 5: int(rng.integers(2))}
        before = s.probability_of(probe)
        s.apply_gate(Gate.h(int(rng.integers(4))))
        s.apply_gate(Gate.mcx([(0, True), (1, False)], 2))
        s.apply_gate(Gate.swap(2, 3))
        assert abs(s.probability_of(probe) - before) < 1e-12

    @given(k=st.integers(0, 5), b=st.integers(0, 63))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_x_maps_basis_exactly(self, k, b):
        s = new_zero_state(6)
        set_register(s, range(6), b)
        s.apply_gate(Gate.x(k))
        assert s.amplitudes[b ^ (1 << k)] == 1.0

    def test_amplitudes_stay_real(self):
        # the supported gate set has real matrices; the imaginary part
        # of any state reached from |0...0> must stay identically zero
        rng = np.random.default_rng(11)
        s = new_zero_state(6)
        for g in random_circuit(6, 500, rng).gates:
            s.apply_gate(g)
        assert not s.amplitudes.imag.any()

    def test_reset_keeps_gate_tally(self):
        s = new_zero_state(2)
        s.apply_gate(Gate.h(0))
        s.reset()
        assert s.amplitudes[0] == 1.0 and s.total_gates == 1


def _start_state(num_qubits, start, rng):
    s = new_zero_state(num_qubits)
    if start == "basis":
        s.amplitudes[:] = 0.0
        s.amplitudes[int(rng.integers(s.dim))] = 1.0
    elif start == "random":
        s.amplitudes[:] = random_amplitudes(num_qubits, rng)
    else:  # random amplitudes on a random part of the basis
        s.amplitudes[:] = random_amplitudes(num_qubits, rng)
        s.amplitudes[rng.random(s.dim) < 0.7] = 0.0
    return s


class TestDenseReference:
    """The support-tracked evaluator against the gate-by-gate dense one."""

    @pytest.mark.parametrize("start", ["basis", "random", "partial"])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_circuit_bit_identical(self, seed, start):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 10))
        circuit = random_circuit(q, int(rng.integers(1, 80)), rng)
        fast = _start_state(q, start, np.random.default_rng(seed))
        ref = _start_state(q, start, np.random.default_rng(seed))
        fast.apply_gates(circuit.gates)
        dense_apply_gates(ref, circuit.gates)
        assert np.array_equal(fast.amplitudes, ref.amplitudes)
        assert fast.gate_counts == ref.gate_counts
        register = [int(x) for x in rng.permutation(q)[:int(rng.integers(1, q + 1))]]
        assert np.array_equal(fast.register_distribution(register),
                              dense_register_distribution(ref, register))
