import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Circuit, Gate, HashParams, RegisterLayout, apply_circuit,
                   assignment_for, build_hash_circuit,
                   build_hash_circuit_outofplace, format_circuit, hash_classical,
                   invert, new_zero_state)
from qmine.miner import _cached_round_tables, _register_table
from qmine.toyhash import (_emit_absorbs, check_block, hash_many, permute,
                           round_constant)
from helpers import (hash_oracle, permute_oracle, reference_hash_circuit,
                     set_register, sponge_table)

DATA = Path(__file__).parent / "data"


class TestParams:
    @pytest.mark.parametrize("m", [3, 17])
    def test_digest_bits_range(self, m):
        with pytest.raises(ValueError):
            HashParams(m, 1)

    @pytest.mark.parametrize("r", [0, 9])
    def test_rounds_range(self, r):
        with pytest.raises(ValueError):
            HashParams(8, r)

    def test_block_width_equals_digest_width(self):
        assert HashParams(10, 2).block_bits == 10


class TestPermute:
    # golden values frozen from two independent reference evaluations
    @pytest.mark.parametrize("x,m,r,true_chi,expect", [
        (0x00, 8, 1, False, 0xB9),   # all layers fix 0, leaving RC_0
        (0x5A, 8, 4, False, 0x5D),
        (0x5A, 8, 1, False, 0x52),
        (0x3C5, 10, 3, False, 0x11C),
        (0xF, 4, 1, False, 0xE),
        (0x5A, 8, 4, True, 0xAB),
    ])
    def test_golden_values(self, x, m, r, true_chi, expect):
        assert permute(x, HashParams(m, r, true_chi)) == expect

    def test_round_constants(self):
        assert round_constant(0, 8) == 0xB9
        assert round_constant(1, 8) == 0x72
        assert round_constant(0, 16) == 0x79B9

    @pytest.mark.parametrize("m", [4, 6, 8])
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_matches_independent_oracle_exhaustively(self, m, true_chi):
        params = HashParams(m, 3, true_chi)
        for x in range(1 << m):
            assert permute(x, params) == permute_oracle(x, m, 3, true_chi)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10])
    def test_bijective(self, m):
        params = HashParams(m, 3)
        outputs = {permute(x, params) for x in range(1 << m)}
        assert len(outputs) == 1 << m

    def test_input_width_check(self):
        with pytest.raises(ValueError):
            permute(0x100, HashParams(8, 1))


class TestHashClassical:
    def test_single_zero_block(self):
        assert hash_classical([0], HashParams(8, 1)).value == 0xB9

    @pytest.mark.parametrize("blocks,m,r,expect", [
        ([0xDE, 0xAD, 0xBE, 0xEF, 0x05], 8, 2, 0xF3),
        ([0x12, 0x34, 0x00, 0x04, 0x0B], 8, 2, 0x13),
        ([0x3FF, 0x155, 0x2AA, 0x0A3, 0x01F], 10, 3, 0x3E6),
    ])
    def test_golden_values(self, blocks, m, r, expect):
        assert hash_classical(blocks, HashParams(m, r)).value == expect

    def test_avalanche_on_first_block(self):
        # permute is a bijection, so every delta != 0 must change the digest
        params = HashParams(8, 2)
        b = 0x5A
        base = hash_classical([b, b], params).value
        for delta in range(1, 256):
            assert hash_classical([b ^ delta, b], params).value != base

    def test_absorb_order_matters(self):
        params = HashParams(8, 2)
        found = any(hash_classical([a, b], params) != hash_classical([b, a], params)
                    for a in range(8) for b in range(8) if a != b)
        assert found

    def test_empty_message(self):
        with pytest.raises(ValueError):
            hash_classical([], HashParams(8, 1))

    def test_block_width_check(self):
        with pytest.raises(ValueError):
            hash_classical([0x100], HashParams(8, 1))

    def test_golden_csv(self):
        # regression file produced once by the independent reference
        with open(DATA / "golden_digests.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) >= 20
        for row in rows:
            params = HashParams(int(row["digest_bits"]), int(row["rounds"]),
                                bool(int(row["true_chi"])))
            blocks = [int(b, 16) for b in row["header_blocks_hex"].split(":")]
            blocks.append(int(row["nonce_hex"], 16))
            assert hash_classical(blocks, params).hex == row["digest_hex"], row


class TestHashMany:
    """``hash_many`` runs the rounds of ``permute`` on a whole array."""

    @pytest.mark.parametrize("m, rounds", [(m, r) for m in range(4, 17) for r in (1, 2)]
                             + [(m, 8) for m in range(4, 13)])
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_equals_hash_classical_exhaustively(self, m, rounds, true_chi):
        # with a nonzero prefix every value v is hashed as state prefix ^ v
        params, prefix = HashParams(m, rounds, true_chi), round_constant(5, m)
        values = np.arange(1 << m)
        assert np.array_equal(hash_many(prefix, values, params),
                              sponge_table(params)[prefix ^ values])

    @pytest.mark.parametrize("true_chi", [False, True])
    def test_eight_rounds_sampled_at_the_top_size(self, true_chi):
        params, prefix = HashParams(16, 8, true_chi), 0x79B9
        values = np.random.default_rng(16).integers(0, 1 << 16, size=2000)
        assert hash_many(prefix, values, params).tolist() == \
            [hash_classical([prefix ^ int(v)], params).value for v in values]

    def test_int64_result_and_input_untouched(self):
        values = np.arange(255, -1, -1)
        digests = hash_many(0x5A, values, HashParams(8, 2))
        assert digests.dtype == np.int64
        assert (values == np.arange(255, -1, -1)).all()

    def test_empty(self):
        digests = hash_many(0x5A, np.arange(0), HashParams(8, 2))
        assert digests.dtype == np.int64 and digests.shape == (0,)

    @pytest.mark.parametrize("prefix, values, lowest", [
        (0x10, [1, 2], 0x10),
        (0x3, [7, 0x13, 0x11, 0x12], 0x11),
        (0x3, [7, 0x13, -2, -1], -2),
    ])
    def test_out_of_range_names_the_lowest(self, prefix, values, lowest):
        params = HashParams(4, 2)
        with pytest.raises(ValueError) as expected:
            check_block(lowest, params)
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            hash_many(prefix, np.array(values), params)


def run_circuit_digest(layout, circuit, nonce_value):
    state = new_zero_state(layout.total_qubits)
    set_register(state, layout.nonce, nonce_value)
    apply_circuit(state, circuit)
    index = int(np.argmax(np.abs(state.amplitudes)))
    assert abs(abs(state.amplitudes[index]) - 1) < 1e-12
    digest = 0
    for i, q in enumerate(layout.hash):
        digest |= ((index >> q) & 1) << i
    service = any((index >> q) & 1 for q in layout.service)
    nonce_out = 0
    for i, q in enumerate(layout.nonce):
        nonce_out |= ((index >> q) & 1) << i
    assert nonce_out == nonce_value  # the nonce register is read-only here
    return digest, service


class TestHashCircuit:
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_matches_classical_exhaustively(self, true_chi):
        layout = RegisterLayout.standard(4, 8)
        params = HashParams(8, 2, true_chi)
        header = [0xDE, 0xAD, 0xBE, 0xEF]
        circuit = build_hash_circuit(layout, header, params)
        for v in range(16):
            digest, _ = run_circuit_digest(layout, circuit, v)
            assert digest == hash_classical(header + [v], params).value

    def test_superposed_nonce_distribution(self):
        layout = RegisterLayout.standard(4, 8)
        params = HashParams(8, 2)
        header = [0x2C, 0xD0, 0xA6, 0xE9]
        state = new_zero_state(layout.total_qubits)
        for q in layout.nonce:
            state.apply_gate(Gate.h(q))
        apply_circuit(state, build_hash_circuit(layout, header, params))
        for v in range(16):
            want = hash_classical(header + [v], params).value
            joint = assignment_for(layout.nonce, v)
            joint.update(assignment_for(layout.hash, want))
            assert state.probability_of(joint) == pytest.approx(1 / 16, abs=1e-12)

    def test_empty_header_single_round(self):
        # the nonce is the only absorbed block, so nonce 0 hashes to RC_0
        layout = RegisterLayout.standard(4, 8)
        circuit = build_hash_circuit(layout, [], HashParams(8, 1))
        digest, _ = run_circuit_digest(layout, circuit, 0)
        assert digest == 0xB9

    def test_nonce_wider_than_block_rejected(self):
        layout = RegisterLayout.standard(6, 4)
        with pytest.raises(ValueError):
            build_hash_circuit(layout, [0], HashParams(4, 1))

    def test_unwind_restores_state(self):
        layout = RegisterLayout.standard(4, 8)
        params = HashParams(8, 3)
        circuit = build_hash_circuit(layout, [0x11, 0x22], params)
        state = new_zero_state(layout.total_qubits)
        for q in layout.nonce:
            state.apply_gate(Gate.h(q))
        before = state.amplitudes.copy()
        apply_circuit(state, circuit)
        apply_circuit(state, invert(circuit))
        assert float(np.abs(state.amplitudes - before).sum()) < 1e-10
        assert state.probability_of(assignment_for(layout.hash, 0)) == pytest.approx(
            1.0, abs=1e-12)

    def test_incomplete_distribution_witness(self):
        # with n < m, at most 2^n digests can have nonzero probability and
        # the digest marginal still sums to one
        layout = RegisterLayout.standard(3, 8)
        params = HashParams(8, 2)
        state = new_zero_state(layout.total_qubits)
        for q in layout.nonce:
            state.apply_gate(Gate.h(q))
        apply_circuit(state, build_hash_circuit(layout, [0xAB], params))
        dist = state.register_distribution(layout.hash)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.count_nonzero(dist > 1e-15)) <= 8

    @given(seed=st.integers(0, 60), n=st.integers(1, 4), m=st.integers(4, 8),
           r=st.integers(1, 4), true_chi=st.booleans())
    @settings(derandomize=True, deadline=None, max_examples=25)
    def test_equivalence_property(self, seed, n, m, r, true_chi):
        if n > m:
            n = m
        rng = np.random.default_rng(seed)
        params = HashParams(m, r, true_chi)
        header = [int(b) for b in rng.integers(0, params.mask + 1,
                                               size=int(rng.integers(1, 5)))]
        layout = RegisterLayout.standard(n, m)
        state = new_zero_state(layout.total_qubits)
        for q in layout.nonce:
            state.apply_gate(Gate.h(q))
        apply_circuit(state, build_hash_circuit(layout, header, params))
        for v in range(1 << n):
            want = hash_oracle(header + [v], m, r, true_chi)
            joint = assignment_for(layout.nonce, v)
            joint.update(assignment_for(layout.hash, want))
            assert state.probability_of(joint) == pytest.approx(
                1 / (1 << n), abs=1e-12)


class TestRoundTables:
    """The r-round gate block, read off the circuit as a table over every
    m-bit state, is the sponge permutation."""

    @pytest.mark.parametrize("m, rounds", [(m, r) for m in range(4, 13) for r in (1, 2, 8)]
                             + [(m, 2) for m in range(13, 17)])
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_tables_equal_the_sponge(self, m, rounds, true_chi):
        params = HashParams(m, rounds, true_chi)
        _, forward = _cached_round_tables(RegisterLayout.standard(1, m), params)
        assert np.array_equal(forward, sponge_table(params))
        assert forward.dtype == (np.uint8 if m <= 8 else np.uint16)
        assert not forward.flags.writeable

    @pytest.mark.parametrize("m, rounds", [(m, r) for m in range(4, 13) for r in (1, 2, 8)]
                             + [(16, 2)])
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_backward_is_the_reversed_block(self, m, rounds, true_chi):
        # every gate is self-inverse, so the reversed block, as the unhash
        # applies it, undoes the forward table
        layout = RegisterLayout.standard(1, m)
        block, forward = _cached_round_tables(layout, HashParams(m, rounds, true_chi))
        reversed_table = _register_table(block[::-1], layout.hash)
        assert np.array_equal(reversed_table[forward], np.arange(1 << m))
        assert reversed_table.dtype == forward.dtype


class TestHashCircuitOutOfPlace:
    def layout(self):
        return RegisterLayout.standard(2, 4, 4)

    def test_matches_in_place_variant(self):
        layout = self.layout()
        params = HashParams(4, 1)
        header = [0x3, 0x9]
        in_place = build_hash_circuit(layout, header, params)
        out_of_place = build_hash_circuit_outofplace(layout, header, params)
        for v in range(4):
            d1, _ = run_circuit_digest(layout, in_place, v)
            d2, service = run_circuit_digest(layout, out_of_place, v)
            assert d1 == d2
            assert not service

    def test_service_register_uncomputed(self):
        layout = self.layout()
        params = HashParams(4, 1)
        circuit = build_hash_circuit_outofplace(layout, [0x3], params)
        for v in range(4):
            state = new_zero_state(layout.total_qubits)
            set_register(state, layout.nonce, v)
            apply_circuit(state, circuit)
            leaked = 1.0 - state.probability_of(assignment_for(layout.service, 0))
            assert leaked < 1e-12

    def test_superposition_distribution_identical(self):
        layout = self.layout()
        params = HashParams(4, 1)
        header = [0x5]
        dists = []
        for builder in (build_hash_circuit, build_hash_circuit_outofplace):
            state = new_zero_state(layout.total_qubits)
            for q in layout.nonce:
                state.apply_gate(Gate.h(q))
            apply_circuit(state, builder(layout, header, params))
            dists.append(state.register_distribution(layout.hash))
        assert np.max(np.abs(dists[0] - dists[1])) < 1e-12

    def test_strictly_more_gates(self):
        layout = self.layout()
        params = HashParams(4, 1)
        assert len(build_hash_circuit_outofplace(layout, [0x3], params)) > len(
            build_hash_circuit(layout, [0x3], params))

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            build_hash_circuit_outofplace(RegisterLayout.standard(2, 8, 8),
                                          [0x3], HashParams(8, 1))
        with pytest.raises(ValueError):
            build_hash_circuit_outofplace(self.layout(), [0x3], HashParams(4, 2))
        with pytest.raises(ValueError):
            build_hash_circuit_outofplace(RegisterLayout.standard(2, 4, 2),
                                          [0x3], HashParams(4, 1))


def assert_same_circuit(built, reference):
    assert (built.num_qubits, built.label) == (reference.num_qubits, reference.label)
    assert format_circuit(built) == format_circuit(reference)


class TestBuildersEqualReference:
    """The builders splice cached round gates; the reference emits every
    gate one at a time.  Both must give the same circuit, gate for gate."""

    @pytest.mark.parametrize("m", range(4, 17))
    @pytest.mark.parametrize("r", [1, 2, 8])
    @pytest.mark.parametrize("true_chi", [False, True])
    @pytest.mark.parametrize("n_is_m", [False, True])
    def test_in_place(self, m, r, true_chi, n_is_m):
        params = HashParams(m, r, true_chi)
        layout = RegisterLayout.standard(m if n_is_m else 1, m)
        rng = np.random.default_rng([m, r, true_chi, n_is_m])
        for count in range(5):  # the empty header first
            header = [int(b) for b in rng.integers(0, params.mask + 1, size=count)]
            assert_same_circuit(build_hash_circuit(layout, header, params),
                                reference_hash_circuit(layout, header, params))

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_out_of_place_at_its_caps(self, n, true_chi):
        params = HashParams(4, 1, true_chi)
        layout = RegisterLayout.standard(n, 4, 4)
        rng = np.random.default_rng([n, true_chi])
        for count in range(5):
            header = [int(b) for b in rng.integers(0, 16, size=count)]
            assert_same_circuit(
                build_hash_circuit_outofplace(layout, header, params),
                reference_hash_circuit(layout, header, params, layout.service))
            # the in-place builder ignores the service register
            assert_same_circuit(build_hash_circuit(layout, header, params),
                                reference_hash_circuit(layout, header, params))

    def test_block_range_checked_after_the_gates_are_cached(self):
        layout, params = RegisterLayout.standard(2, 4), HashParams(4, 1)
        build_hash_circuit(layout, [0x3], params)
        for bad in (16, -1):
            with pytest.raises(ValueError, match="does not fit"):
                build_hash_circuit(layout, [0x3, bad], params)

    @pytest.mark.parametrize("with_service", [False, True])
    def test_shared_gates_checked_once_against_the_circuit(self, with_service):
        # the cached tuples are spliced unchecked, so the absorb checks the
        # highest qubit they use and names it, before any gate is added
        layout, params = RegisterLayout.standard(2, 4, 4), HashParams(4, 1)
        service = layout.service if with_service else ()
        top = max(layout.hash + service)
        for width in (top, 3):
            circuit = Circuit(width, label="small")
            with pytest.raises(IndexError, match=rf"qubit {top} out of range "
                                                 rf"for {width}-qubit circuit 'small'"):
                _emit_absorbs(circuit, layout, [0x3], params, service)
            assert circuit.gates == []
        circuit = Circuit(top + 1)
        _emit_absorbs(circuit, layout, [0x3], params, service)
        assert format_circuit(circuit) == format_circuit(
            reference_hash_circuit(layout, [0x3], params, service))
