import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (CapacityError, Circuit, Gate, HashParams, RegisterLayout,
                   assignment_for, build_hash_circuit, invert, new_zero_state, prepare)
from qmine.statevector import permute_labels
from helpers import (dense_apply_gates, dense_register_distribution,
                     random_amplitudes, random_circuit, reference_permute_labels,
                     set_register)

SQ = 1 / np.sqrt(2)


class TestNewZeroState:
    def test_single_qubit(self):
        s = new_zero_state(1)
        assert np.allclose(s.amplitudes, [1, 0])

    def test_three_qubits(self):
        s = new_zero_state(3)
        assert s.amplitudes[0] == 1
        assert not s.amplitudes[1:].any()

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
        assert sum(s.gate_counts.values()) == 0

    def test_negative_qubit_rejected_before_any_gate(self):
        s = new_zero_state(2)
        with pytest.raises(IndexError, match="qubit -1"):
            s.apply_gates([Gate.h(0), Gate.x(1), Gate.x(-1)])
        assert s.amplitudes[0] == 1.0 and not s.amplitudes[1:].any()
        assert sum(s.gate_counts.values()) == 0

    def test_circuit_append_rejects_negative_qubit(self):
        c = Circuit(2)
        with pytest.raises(IndexError, match="qubit -1"):
            c.append(Gate.cnot(0, -1))
        assert len(c) == 0

    def test_permute_labels_rejects_hadamard(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_labels(np.arange(4), [Gate.x(0), Gate.h(1)])

    def test_norm_preserved_per_gate(self):
        s = new_zero_state(4)
        for g in (Gate.h(0), Gate.h(2), Gate.cnot(0, 1), Gate.swap(1, 3)):
            s.apply_gate(g)
            assert abs(s.probability_of({}) - 1) < 1e-12


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
        assert format(out, "03b") == "101"
        assert out == 0b101
        assert s.register_distribution([0, 1, 2])[out] == 1.0

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
            counts[s.measure_register([0, 1], rng)] += 1
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts / n - 0.25) < 5 * sigma)

    def test_empty_register(self):
        s = new_zero_state(2)
        with pytest.raises(ValueError):
            s.measure_register([], np.random.default_rng(0))

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_state_without_amplitude(self, value):
        s = new_zero_state(2)
        s.amplitudes[:] = value
        with pytest.raises(ValueError):
            s.measure_register([0, 1], np.random.default_rng(0))

    @pytest.mark.parametrize("start", ["random", "partial"])
    @pytest.mark.parametrize("q", range(1, 13))
    def test_equals_generator_choice(self, q, start):
        # the normalised register distribution drawn by Generator.choice,
        # seed for seed, on random registers of random states
        rng = np.random.default_rng([q, len(start)])
        for _ in range(8):
            s = _start_state(q, start, rng)
            if not s.amplitudes.any():
                s.amplitudes[0] = 1.0
            register = [int(x) for x in rng.permutation(q)[:int(rng.integers(1, q + 1))]]
            dist = s.register_distribution(register)
            p = dist / dist.sum()
            seed = int(rng.integers(1 << 32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert (s.measure_register(register, ours)
                        == theirs.choice(len(p), p=p))


class TestInvariants:
    def test_norm_preservation_long_random_circuit(self):
        rng = np.random.default_rng(7)
        s = new_zero_state(12)
        for g in random_circuit(12, 10_000, rng).gates:
            s.apply_gate(g)
        assert abs(s.probability_of({}) - 1) < 1e-9

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
        assert s.amplitudes[0] == 1.0 and sum(s.gate_counts.values()) == 1


def _start_state(num_qubits, start, rng):
    s = new_zero_state(num_qubits)
    if start == "basis":
        s.amplitudes[:] = 0.0
        s.amplitudes[int(rng.integers(len(s.amplitudes)))] = 1.0
    elif start == "random":
        s.amplitudes[:] = random_amplitudes(num_qubits, rng)
    else:  # random amplitudes on a random part of the basis
        s.amplitudes[:] = random_amplitudes(num_qubits, rng)
        s.amplitudes[rng.random(len(s.amplitudes)) < 0.7] = 0.0
    return s


def _state_on_support(num_qubits, size, rng):
    """Random amplitudes on ``size`` distinct random basis states."""
    s = new_zero_state(num_qubits)
    s.amplitudes[:] = 0.0
    picks = rng.choice(len(s.amplitudes), size=size, replace=False)
    s.amplitudes[picks] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return s


PERMUTATION_KINDS = ("X", "SWAP", "MCX")


class TestPermuteLabels:
    """``permute_labels`` against one label at a time on Python ints, over
    registers wider than the dense reference reaches: mining labels run to
    q = 33."""

    @pytest.mark.parametrize("size", [1, 7, 64, 4096])
    @pytest.mark.parametrize("q", [5, 33, 40])
    @pytest.mark.parametrize("seed", range(2))
    def test_equals_one_label_at_a_time(self, q, size, seed):
        rng = np.random.default_rng([q, size, seed])
        top = q - 1  # the first gates act on the highest qubit
        gates = [Gate.x(top), Gate.swap(0, top), Gate.mcx([(top, True), (1, False)], 2)]
        gates += random_circuit(q, 60, rng, PERMUTATION_KINDS).gates
        labels = rng.integers(0, 1 << q, size=size)
        before = labels.copy()
        out = permute_labels(labels, gates)
        assert out.dtype == np.int64
        assert out.tolist() == reference_permute_labels(before, gates)
        assert np.array_equal(labels, before)


class TestDenseReference:
    """The support-tracked evaluator against the gate-by-gate dense one."""

    def assert_same_run(self, fast, ref, gates):
        fast.apply_gates(gates)
        dense_apply_gates(ref, gates)
        assert np.array_equal(fast.amplitudes, ref.amplitudes)
        assert fast.gate_counts == ref.gate_counts

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("q", [2, 3, 8, 9, 13, 14])
    def test_permutation_circuit_bit_identical(self, q, seed):
        # one long run of permutation gates; the first act on the highest qubit
        rng = np.random.default_rng(100 * q + seed)
        top = q - 1
        gates = [Gate.x(top), Gate.swap(0, top), Gate.mcx([(0, False)], top)]
        gates += random_circuit(q, int(rng.integers(200, 801)), rng,
                                PERMUTATION_KINDS).gates
        fast = _start_state(q, "partial", np.random.default_rng(seed))
        ref = _start_state(q, "partial", np.random.default_rng(seed))
        self.assert_same_run(fast, ref, gates)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65, 1 << 10])
    def test_support_sizes_bit_identical(self, size):
        # supports either side of the byte and 64-label boundaries, up to
        # the full 2^q
        q = 10
        rng = np.random.default_rng(size)
        gates = random_circuit(q, 300, rng, PERMUTATION_KINDS).gates
        fast = _state_on_support(q, size, np.random.default_rng(size))
        ref = _state_on_support(q, size, np.random.default_rng(size))
        self.assert_same_run(fast, ref, gates)

    @pytest.mark.parametrize("start", ["prepared", "partial"])
    def test_search_problem_hash_and_inverse(self, start):
        layout = RegisterLayout.standard(4, 12)

        def start_state():
            if start == "partial":
                return _start_state(layout.total_qubits, start,
                                    np.random.default_rng(3))
            s = new_zero_state(layout.total_qubits)
            prepare(s, layout)
            return s

        fast, ref = start_state(), start_state()
        hash_circuit = build_hash_circuit(layout, [0x5A3, 0x0F1, 0xC2E, 0x777],
                                          HashParams(12, 2))
        for circuit in (hash_circuit, invert(hash_circuit)):
            self.assert_same_run(fast, ref, circuit.gates)

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
