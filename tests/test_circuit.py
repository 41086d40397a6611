from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Circuit, Gate, apply_circuit, emit_and_into, emit_not,
                   emit_rotate_left, emit_xor_into, format_circuit, invert,
                   new_zero_state)
from helpers import basis_state, random_amplitudes, random_circuit

DATA = Path(__file__).parent / "data"


def run_on_basis(circuit: Circuit, index: int) -> int:
    state = basis_state(circuit.num_qubits, index)
    apply_circuit(state, circuit)
    out = int(np.argmax(np.abs(state.amplitudes)))
    assert abs(abs(state.amplitudes[out]) - 1) < 1e-12  # still a basis state
    return out


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("Y", (0,))

    def test_swap_arity(self):
        with pytest.raises(ValueError):
            Gate("SWAP", (0,))

    def test_mcx_needs_controls(self):
        with pytest.raises(ValueError):
            Gate("MCX", (0,))

    def test_h_rejects_controls(self):
        with pytest.raises(ValueError):
            Gate("H", (0,), ((1, True),))

    def test_circuit_append_range_check(self):
        c = Circuit(2)
        with pytest.raises(IndexError):
            c.append(Gate.x(2))

    @pytest.mark.parametrize("bad, first", [(Gate.cnot(1, 4), 4),
                                            (Gate.swap(3, 5), 5),
                                            (Gate.mcx([(-2, True)], 1), -2),
                                            (Gate.x(-1), -1)])
    def test_circuit_extend_names_the_first_bad_qubit(self, bad, first):
        # the gates before the bad one stay appended, as with append
        c = Circuit(4, label="batch")
        good = [Gate.x(0), Gate.ccnot(1, 2, 3)]
        with pytest.raises(IndexError, match=rf"qubit {first} out of range "
                                             rf"for 4-qubit circuit 'batch'"):
            c.extend(good + [bad, Gate.x(5), Gate.h(1)])
        assert c.gates == good

    def test_circuit_extend_accepts_any_iterable(self):
        c = Circuit(3)
        c.extend(Gate.x(q) for q in range(3))
        c.extend((Gate.h(0),))
        assert [g.kind for g in c.gates] == ["X", "X", "X", "H"]


class TestXorInto:
    @pytest.mark.parametrize("a,b,expect", [(1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0)])
    def test_truth_table(self, a, b, expect):
        c = Circuit(3)
        emit_xor_into(c, 0, 1, 2)
        out = run_on_basis(c, a | (b << 1))
        assert (out >> 2) & 1 == expect
        # operands unchanged
        assert out & 1 == a and (out >> 1) & 1 == b

    def test_distinct_qubits_required(self):
        with pytest.raises(ValueError):
            emit_xor_into(Circuit(3), 0, 0, 2)


class TestAndInto:
    @pytest.mark.parametrize("a,b,t,expect", [(1, 1, 0, 1), (1, 0, 0, 0),
                                              (0, 1, 0, 0), (0, 0, 0, 0),
                                              (1, 1, 1, 0)])
    def test_truth_table(self, a, b, t, expect):
        c = Circuit(3)
        emit_and_into(c, 0, 1, 2)
        out = run_on_basis(c, a | (b << 1) | (t << 2))
        assert (out >> 2) & 1 == expect

    def test_distinct_qubits_required(self):
        with pytest.raises(ValueError):
            emit_and_into(Circuit(3), 0, 1, 1)


class TestNot:
    @pytest.mark.parametrize("a,expect", [(0, 1), (1, 0)])
    def test_truth_table(self, a, expect):
        c = Circuit(1)
        emit_not(c, 0)
        assert run_on_basis(c, a) == expect

    def test_involution(self):
        c = Circuit(1)
        emit_not(c, 0)
        emit_not(c, 0)
        for a in (0, 1):
            assert run_on_basis(c, a) == a


class TestRotateLeft:
    def test_example_rotation(self):
        c = Circuit(4)
        emit_rotate_left(c, [0, 1, 2, 3], 1)
        assert run_on_basis(c, 0b0011) == 0b0110

    def test_zero_shift_is_empty(self):
        c = Circuit(4)
        emit_rotate_left(c, [0, 1, 2, 3], 0)
        assert len(c) == 0

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_exact_permutation_exhaustive(self, length):
        for k in range(length):
            c = Circuit(length)
            emit_rotate_left(c, list(range(length)), k)
            for value in range(1 << length):
                expect = sum((((value >> ((i - k) % length)) & 1) << i)
                             for i in range(length))
                assert run_on_basis(c, value) == expect

    @pytest.mark.parametrize("length,k", [(4, 1), (5, 2), (6, 3)])
    def test_rotation_inverse(self, length, k):
        c = Circuit(length)
        emit_rotate_left(c, list(range(length)), k)
        emit_rotate_left(c, list(range(length)), length - k)
        for value in range(1 << length):
            assert run_on_basis(c, value) == value

    def test_out_of_range_shift(self):
        with pytest.raises(ValueError):
            emit_rotate_left(Circuit(4), [0, 1, 2, 3], 4)
        with pytest.raises(ValueError):
            emit_rotate_left(Circuit(4), [], 0)


class TestInvert:
    def test_order_reversed(self):
        c = Circuit(2, [Gate.h(0), Gate.cnot(0, 1)])
        assert invert(c).gates == [Gate.cnot(0, 1), Gate.h(0)]

    def test_empty(self):
        assert invert(Circuit(3)).gates == []

    def test_involution(self):
        rng = np.random.default_rng(3)
        c = random_circuit(5, 40, rng)
        assert invert(invert(c)).gates == c.gates

    @given(seed=st.integers(0, 20))
    @settings(derandomize=True, deadline=None, max_examples=20)
    def test_restores_random_state(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(8, 100, rng)
        s = new_zero_state(8)
        s.amplitudes[:] = random_amplitudes(8, rng)
        before = s.amplitudes.copy()
        apply_circuit(s, c)
        apply_circuit(s, invert(c))
        assert np.max(np.abs(s.amplitudes - before)) < 1e-12

    def test_and_into_inverts_via_invert(self):
        # double application of AND-into is only identity from a clean
        # target, so reversibility is checked through invert() instead
        c = Circuit(3)
        emit_and_into(c, 0, 1, 2)
        for value in range(8):
            s = basis_state(3, value)
            apply_circuit(s, c)
            apply_circuit(s, invert(c))
            assert abs(s.amplitudes[value]) == 1.0


class TestApplyCircuit:
    def test_empty_circuit_identity(self):
        s = new_zero_state(2)
        before = s.amplitudes.copy()
        apply_circuit(s, Circuit(2))
        assert np.array_equal(s.amplitudes, before)

    def test_single_x(self):
        s = new_zero_state(2)
        apply_circuit(s, Circuit(2, [Gate.x(0)]))
        assert s.amplitudes[1] == 1.0

    def test_qubit_count_mismatch(self):
        s = new_zero_state(2)
        with pytest.raises(ValueError):
            apply_circuit(s, Circuit(3, [Gate.x(2)]))

    def test_gate_stats_counted_at_apply_time(self):
        c = Circuit(3)
        emit_xor_into(c, 0, 1, 2)
        s = new_zero_state(3)
        apply_circuit(s, c)
        apply_circuit(s, c)
        assert s.gate_counts["MCX"] == 4
        assert sum(s.gate_counts.values()) == 4


class TestSelfInverseConstructions:
    # a rotation is only involutive when 2k = 0 mod len; general rotations
    # invert via invert() or the complementary shift (tested above)
    @pytest.mark.parametrize("emit,qubits", [
        (lambda c: emit_xor_into(c, 0, 1, 2), 3),
        (lambda c: emit_not(c, 0), 1),
        (lambda c: emit_rotate_left(c, [0, 1, 2, 3], 2), 4),
    ])
    def test_double_application_is_identity(self, emit, qubits):
        c = Circuit(qubits)
        emit(c)
        emit(c)
        for value in range(1 << qubits):
            assert run_on_basis(c, value) == value


class TestFormatCircuit:
    def test_golden_dump(self):
        c = Circuit(5, label="dump-sample")
        emit_xor_into(c, 0, 1, 4)
        emit_not(c, 2)
        emit_rotate_left(c, [0, 1, 2, 3], 1)
        c.append(Gate.h(3))
        c.append(Gate.mcx([(4, True), (2, False)], 0))
        expected = (DATA / "circuit_dump.txt").read_text().rstrip("\n")
        assert format_circuit(c) == expected
