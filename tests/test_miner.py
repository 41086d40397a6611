import numpy as np
import pytest

from qmine import (Gate, HashParams, MiningParams, RegisterLayout, SearchProblem,
                   StateVector, analytic_success_probability, apply_circuit, assignment_for,
                   build_diffusion, build_hash_circuit, build_oracle,
                   enumerate_solutions, grover_iteration, hash_classical,
                   invert, iteration_count, mine_quantum, new_zero_state,
                   prepare)
from helpers import (dense_apply_gates, dense_register_distribution,
                     find_header_with_count, max_global_phase_deviation,
                     simulated_gates_per_iteration)

HP82 = HashParams(8, 2)


class TestRegisterLayout:
    def test_standard_order(self):
        layout = RegisterLayout.standard(2, 4, 3)
        assert layout.nonce == (0, 1)
        assert layout.hash == (2, 3, 4, 5)
        assert layout.service == (6, 7, 8)
        assert layout.functional == 9
        assert layout.total_qubits == 10

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout(nonce=(1, 0), hash=(2, 3), service=(), functional=4)
        with pytest.raises(ValueError):
            RegisterLayout(nonce=(0,), hash=(1,), service=(), functional=3)

    def test_empty_nonce_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout.standard(0, 4)


class TestMiningParams:
    def test_difficulty_bounded_by_digest(self):
        with pytest.raises(ValueError):
            MiningParams(difficulty_zeros=9, hash_params=HP82)

    def test_round_budget_positive(self):
        with pytest.raises(ValueError):
            MiningParams(difficulty_zeros=1, hash_params=HP82, max_grover_rounds=0)


class TestPrepare:
    def test_nonce_uniform(self):
        layout = RegisterLayout.standard(2, 4)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        for v in range(4):
            assert state.probability_of(
                assignment_for(layout.nonce, v)) == pytest.approx(0.25, abs=1e-12)

    def test_functional_in_minus(self):
        layout = RegisterLayout.standard(2, 4)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        assert state.probability_of({layout.functional: 0}) == pytest.approx(
            0.5, abs=1e-12)
        assert state.probability_of({layout.functional: 1}) == pytest.approx(
            0.5, abs=1e-12)

    def test_hash_register_untouched(self):
        layout = RegisterLayout.standard(2, 4)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        assert state.probability_of(assignment_for(layout.hash, 0)) == pytest.approx(
            1.0, abs=1e-12)


def minus_functional_state(layout):
    """Hash register in uniform superposition, functional in |->."""
    state = new_zero_state(layout.total_qubits)
    for q in layout.hash:
        state.apply_gate(Gate.h(q))
    state.apply_gate(Gate.x(layout.functional))
    state.apply_gate(Gate.h(layout.functional))
    return state


class TestOracle:
    def test_phase_flip_pattern_z1(self):
        # m=2, z=1: hash values 00 and 01 (leading bit 0) flip sign
        layout = RegisterLayout.standard(1, 2)
        state = minus_functional_state(layout)
        before = state.amplitudes.copy()
        apply_circuit(state, build_oracle(layout, 1))
        for index in range(state.dim):
            h = (index >> 1) & 0b11
            expected = -before[index] if h in (0b00, 0b01) else before[index]
            assert state.amplitudes[index] == pytest.approx(expected, abs=1e-12)

    def test_z0_is_global_phase(self):
        layout = RegisterLayout.standard(2, 4)
        state = minus_functional_state(layout)
        probs_before = [state.probability_of({q: 1})
                        for q in range(layout.total_qubits)]
        apply_circuit(state, build_oracle(layout, 0))
        probs_after = [state.probability_of({q: 1})
                       for q in range(layout.total_qubits)]
        assert probs_after == pytest.approx(probs_before, abs=1e-12)

    def test_full_width_threshold_marks_zero_hash(self):
        layout = RegisterLayout.standard(1, 2)
        state = minus_functional_state(layout)
        before = state.amplitudes.copy()
        apply_circuit(state, build_oracle(layout, 2))
        for index in range(state.dim):
            h = (index >> 1) & 0b11
            expected = -before[index] if h == 0 else before[index]
            assert state.amplitudes[index] == pytest.approx(expected, abs=1e-12)

    def test_z_beyond_digest_rejected(self):
        with pytest.raises(ValueError):
            build_oracle(RegisterLayout.standard(1, 2), 3)


class TestDiffusion:
    def test_uniform_state_is_fixed_point(self):
        layout = RegisterLayout.standard(3, 4)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        before = state.amplitudes.copy()
        apply_circuit(state, build_diffusion(layout))
        assert max_global_phase_deviation(before, state.amplitudes) < 1e-12

    def test_basis_state_reflection(self):
        # 2|s><s| - 1 on |00>: amplitude -1/2 on |00>, +1/2 elsewhere
        layout = RegisterLayout.standard(2, 4)
        state = new_zero_state(layout.total_qubits)
        apply_circuit(state, build_diffusion(layout))
        expected = np.zeros(state.dim, dtype=complex)
        expected[0b00] = -0.5
        expected[0b01] = expected[0b10] = expected[0b11] = 0.5
        assert max_global_phase_deviation(expected, state.amplitudes) < 1e-12

    def test_involution(self):
        layout = RegisterLayout.standard(3, 4)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        apply_circuit(state, build_hash_circuit(layout, [0x1], HashParams(4, 1)))
        before = state.amplitudes.copy()
        diffusion = build_diffusion(layout)
        apply_circuit(state, diffusion)
        apply_circuit(state, diffusion)
        assert np.max(np.abs(state.amplitudes - before)) < 1e-12

    def test_acts_only_on_nonce(self):
        layout = RegisterLayout.standard(2, 4)
        for gate in build_diffusion(layout).gates:
            assert set(gate.qubits()) <= set(layout.nonce)

    def test_single_qubit_nonce(self):
        layout = RegisterLayout.standard(1, 4)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        before = state.amplitudes.copy()
        apply_circuit(state, build_diffusion(layout))
        assert max_global_phase_deviation(before, state.amplitudes) < 1e-12

    def test_empty_nonce_rejected(self):
        layout = RegisterLayout(nonce=(), hash=(0, 1), service=(), functional=2)
        with pytest.raises(ValueError):
            build_diffusion(layout)


class TestGroverIteration:
    def setup_run(self, n, m, r, zeros, count, seed=0):
        params = HashParams(m, r)
        header, solutions = find_header_with_count(n, params, zeros, count, seed)
        layout = RegisterLayout.standard(n, m)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        circuits = (build_hash_circuit(layout, header, params),
                    build_oracle(layout, zeros), build_diffusion(layout))
        return layout, state, circuits, header, solutions

    def test_exact_grover_case(self):
        # N=4, M=1: one iteration reaches certainty
        layout, state, circuits, _, solutions = self.setup_run(2, 4, 1, 2, 1)
        grover_iteration(state, layout, *circuits)
        p = state.probability_of(assignment_for(layout.nonce, solutions[0]))
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_hash_register_uncomputed(self):
        layout, state, circuits, _, _ = self.setup_run(3, 8, 2, 3, 2)
        grover_iteration(state, layout, *circuits)
        assert state.probability_of(assignment_for(layout.hash, 0)) == pytest.approx(
            1.0, abs=1e-12)

    def test_all_marked_keeps_uniform(self):
        layout, state, circuits, header, _ = self.setup_run(2, 4, 1, 2, 1)
        params = HashParams(4, 1)
        circuits = (build_hash_circuit(layout, header, params),
                    build_oracle(layout, 0), build_diffusion(layout))
        grover_iteration(state, layout, *circuits)
        for v in range(4):
            assert state.probability_of(
                assignment_for(layout.nonce, v)) == pytest.approx(0.25, abs=1e-12)


class TestIterationCount:
    @pytest.mark.parametrize("n,count,expect", [
        (8, 1, 12),
        (2, 1, 1),
        (48, 1, 13_176_794),
        (2, 3, 1),   # floor would be 0; clamped to one iteration
        (4, 16, 0),  # every value marked
    ])
    def test_values(self, n, count, expect):
        assert iteration_count(n, count) == expect

    def test_zero_solutions_rejected(self):
        with pytest.raises(ValueError):
            iteration_count(4, 0)
        with pytest.raises(ValueError):
            iteration_count(4, 17)


class TestAnalyticProbability:
    def test_exact_case(self):
        assert analytic_success_probability(2, 1, 1) == pytest.approx(1.0, abs=1e-15)

    def test_optimum_n8(self):
        assert analytic_success_probability(8, 1, 12) == pytest.approx(
            0.999947042103274, abs=1e-12)

    def test_zero_iterations(self):
        assert analytic_success_probability(6, 3, 0) == pytest.approx(
            3 / 64, abs=1e-15)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            analytic_success_probability(2, 0, 1)
        with pytest.raises(ValueError):
            analytic_success_probability(2, 1, -1)


class TestGroverLaw:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_simulated_matches_analytic(self, n, count):
        zeros = n - count.bit_length() + 1  # 2^(n-zeros) == count
        m = max(4, n)
        # a single round is too affine for some exact counts to occur
        params = HashParams(m, 3 if (n, count) == (3, 4) else 2)
        header, solutions = find_header_with_count(n, params, zeros, count,
                                                   seed=17)
        layout = RegisterLayout.standard(n, m)
        hash_circuit = build_hash_circuit(layout, header, params)
        oracle = build_oracle(layout, zeros)
        diffusion = build_diffusion(layout)
        hash_inverse = invert(hash_circuit)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        off_branch = dict(assignment_for(layout.hash, 0))
        for k in range(iteration_count(n, count) + 1):
            if k > 0:
                grover_iteration(state, layout, hash_circuit, oracle, diffusion,
                                 hash_inverse=hash_inverse)
            dist = state.register_distribution(layout.nonce)
            simulated = float(dist[solutions].sum())
            assert abs(simulated
                       - analytic_success_probability(n, count, k)) < 1e-9
            # hash register exactly disentangled after every iteration
            assert 1.0 - state.probability_of(off_branch) < 1e-12

    def test_monotone_then_overshoot(self):
        n, count = 5, 1
        params = HashParams(8, 1)
        header, solutions = find_header_with_count(n, params, 5, 1, seed=5)
        layout = RegisterLayout.standard(n, 8)
        hash_circuit = build_hash_circuit(layout, header, params)
        oracle = build_oracle(layout, 5)
        diffusion = build_diffusion(layout)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        optimum = iteration_count(n, count)
        probs = []
        for _ in range(optimum + 1):
            grover_iteration(state, layout, hash_circuit, oracle, diffusion)
            dist = state.register_distribution(layout.nonce)
            probs.append(float(dist[solutions].sum()))
        assert all(b >= a for a, b in zip(probs, probs[1:optimum]))
        assert probs[optimum] < probs[optimum - 1]  # past the turn-around

    @pytest.mark.parametrize("n,zeros", [(4, 3), (5, 2), (6, 3)])
    def test_marked_branches_match_classical_solutions(self, n, zeros):
        # read the oracle's sign flips straight off the amplitudes and
        # compare with the brute-force solution set, exhaustively over v
        m = 8
        params = HashParams(m, 2)
        header = [0x51, 0x3B, 0x00, 0x07]
        layout = RegisterLayout.standard(n, m)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        hash_circuit = build_hash_circuit(layout, header, params)
        apply_circuit(state, hash_circuit)
        before = state.amplitudes.copy()
        apply_circuit(state, build_oracle(layout, zeros))
        flipped = set()
        for index in np.flatnonzero(np.abs(before) > 1e-12):
            if state.amplitudes[index] == pytest.approx(-before[index], abs=1e-12):
                flipped.add(index & (2 ** n - 1))
        assert flipped == set(enumerate_solutions(header, params, n, zeros))

    def test_functional_qubit_stays_separable(self):
        layout = RegisterLayout.standard(3, 4)
        params = HashParams(4, 1)
        header, _ = find_header_with_count(3, params, 3, 1, seed=9)
        hash_circuit = build_hash_circuit(layout, header, params)
        oracle = build_oracle(layout, 3)
        diffusion = build_diffusion(layout)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        half = state.dim // 2
        for _ in range(iteration_count(3, 1)):
            grover_iteration(state, layout, hash_circuit, oracle, diffusion)
            assert state.probability_of(
                {layout.functional: 0}) == pytest.approx(0.5, abs=1e-12)
            # |-> factor: the functional=1 half mirrors the =0 half negated
            assert np.max(np.abs(state.amplitudes[half:]
                                 + state.amplitudes[:half])) < 1e-12


class TestSearchProblem:
    @pytest.mark.parametrize("n, m, rounds, zeros, true_chi, gates", [
        (1, 4, 1, 4, False, 140),
        (2, 4, 1, 0, False, 146),
        (4, 8, 2, 5, False, 578),
        (6, 10, 3, 7, True, 1080),
        (8, 16, 4, 9, True, 2312),
    ])
    def test_gates_per_iteration_equals_simulated(self, n, m, rounds, zeros,
                                                   true_chi, gates):
        params = HashParams(m, rounds, true_chi)
        problem = SearchProblem.build([0, 0, 0, 0], RegisterLayout.standard(n, m),
                                      params, zeros)
        assert problem.gates_per_iteration == gates
        assert simulated_gates_per_iteration(n, params, zeros) == gates

    @pytest.mark.parametrize("seed", range(4))
    def test_gates_per_iteration_on_random_headers(self, seed):
        # the absorbs add one X per set header bit, so the count varies
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(6, 11))
        params = HashParams(m, int(rng.integers(1, 4)), bool(rng.integers(2)))
        header = [int(b) for b in rng.integers(0, params.mask + 1, size=4)]
        zeros = int(rng.integers(0, m + 1))
        problem = SearchProblem.build(header, RegisterLayout.standard(n, m),
                                      params, zeros)
        assert problem.gates_per_iteration == simulated_gates_per_iteration(
            n, params, zeros, header)


class TestMineQuantum:
    def unique_setup(self):
        params = HashParams(8, 2)
        header, solutions = find_header_with_count(4, params, 4, 1, seed=2)
        return header, solutions, RegisterLayout.standard(4, 8)

    def test_unique_solution_exact_readout(self):
        header, solutions, layout = self.unique_setup()
        mining = MiningParams(difficulty_zeros=4, hash_params=HashParams(8, 2),
                              rng_seed=1)
        result = mine_quantum(header, layout, mining, exact_readout=True)
        assert result.success
        assert result.nonce == solutions[0]
        assert result.digest == hash_classical(header + [result.nonce],
                                               mining.hash_params)
        assert result.digest.meets_difficulty(4)

    def test_hint_runs_optimal_iterations(self):
        header, solutions, layout = self.unique_setup()
        mining = MiningParams(difficulty_zeros=4, hash_params=HashParams(8, 2),
                              solution_count_hint=1, rng_seed=1)
        result = mine_quantum(header, layout, mining, exact_readout=True)
        assert result.grover_iterations_used == iteration_count(4, 1) == 3
        assert result.success and result.nonce == solutions[0]
        assert result.success_probability_at_measurement == pytest.approx(
            0.961318969726562, abs=1e-9)

    def test_zero_difficulty_succeeds_immediately(self):
        layout = RegisterLayout.standard(4, 8)
        mining = MiningParams(difficulty_zeros=0, hash_params=HashParams(8, 2),
                              rng_seed=3)
        result = mine_quantum([0xAA], layout, mining)
        assert result.success
        assert result.grover_iterations_used == 1
        assert result.success_probability_at_measurement == pytest.approx(
            1.0, abs=1e-12)

    def test_no_solution_exhausts_budget(self):
        params = HashParams(8, 2)
        header, _ = find_header_with_count(4, params, 8, 0, seed=4)
        layout = RegisterLayout.standard(4, 8)
        mining = MiningParams(difficulty_zeros=8, hash_params=params, rng_seed=5)
        result = mine_quantum(header, layout, mining)
        assert not result.success
        assert result.grover_iterations_used > 3 * 4  # past the budget cap
        assert result.success_probability_at_measurement == 0.0

    def test_seeded_reproducibility(self):
        header, _, layout = self.unique_setup()
        mining = MiningParams(difficulty_zeros=4, hash_params=HashParams(8, 2),
                              rng_seed=123)
        a = mine_quantum(header, layout, mining)
        b = mine_quantum(header, layout, mining)
        assert a == b

    def test_gate_statistics_accumulate(self):
        header, _, layout = self.unique_setup()
        mining = MiningParams(difficulty_zeros=4, hash_params=HashParams(8, 2),
                              solution_count_hint=1, rng_seed=1)
        result = mine_quantum(header, layout, mining, exact_readout=True)
        assert result.total_gates > 3 * 2 * 100  # two hash passes per iteration
        assert result.hashes_tried == 1

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_dense_reference_run(self, monkeypatch, seed, exact):
        # random headers of any solution count, including none; the dense
        # gate-by-gate run is the reference for every field of the result
        params = HashParams(8, 2)
        rng = np.random.default_rng(seed)
        header = [int(b) for b in rng.integers(0, params.mask + 1, size=4)]
        layout = RegisterLayout.standard(4, 8)
        mining = MiningParams(difficulty_zeros=int(rng.integers(3, 6)),
                              hash_params=params, rng_seed=seed)
        fast = mine_quantum(header, layout, mining, exact_readout=exact)
        monkeypatch.setattr(StateVector, "apply_gates", dense_apply_gates)
        monkeypatch.setattr(StateVector, "register_distribution",
                            dense_register_distribution)
        assert mine_quantum(header, layout, mining, exact_readout=exact) == fast
