import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Gate, HashParams, MiningParams, RegisterLayout, SearchProblem,
                   StateVector, analytic_success_probability, apply_circuit, assignment_for,
                   build_diffusion, build_hash_circuit, build_oracle,
                   enumerate_solutions, format_circuit, grover_iteration,
                   hash_classical, invert, iteration_count, mine_classical,
                   mine_quantum, new_zero_state, prepare)
import qmine.circuit
import qmine.miner
import qmine.toyhash
from qmine.miner import UNKNOWN_COUNT_GROWTH, gates_per_iteration, header_prefix
from qmine.toyhash import hash_gate_count
from helpers import (assert_matches_reference, count_rounds_calls,
                     find_header_with_count, max_global_phase_deviation, reference_compile,
                     reference_enumerate_solutions, reference_hash_circuit,
                     reference_mine_classical, reference_mine_quantum,
                     reference_run, simulated_gates_per_iteration)

HP82 = HashParams(8, 2)

# every register that fits 21 qubits: n <= m, n + m + 1 <= 21
SIZES_TO_21 = [(n, m) for m in range(4, 17) for n in range(1, min(m, 20 - m) + 1)]
DENSE_QUBITS = 13  # above this the dense gate-by-gate reference is too slow


def random_search(n: int, m: int):
    """A random header, rounds, chi and a difficulty near n for (n, m)."""
    rng = np.random.default_rng([n, m])
    params = HashParams(m, int(rng.integers(1, 3)), bool(rng.integers(2)))
    header = [int(b) for b in rng.integers(0, params.mask + 1, size=4)]
    zeros = int(rng.integers(max(0, n - 2), n + 1))
    return rng, params, header, zeros


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
    def test_equals_dense_reference_run(self, seed, exact):
        # random headers of any solution count, including none; the dense
        # gate-by-gate run is the reference for every field of the result
        params = HashParams(8, 2)
        rng = np.random.default_rng(seed)
        header = [int(b) for b in rng.integers(0, params.mask + 1, size=4)]
        layout = RegisterLayout.standard(4, 8)
        mining = MiningParams(difficulty_zeros=int(rng.integers(3, 6)),
                              hash_params=params, rng_seed=seed)
        assert_matches_reference(
            mine_quantum(header, layout, mining, exact_readout=exact),
            reference_mine_quantum(header, layout, mining, exact_readout=exact))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_readout_builds_no_generator(self, seed, monkeypatch):
        # headers of any solution count, so some runs take several rounds
        rng = np.random.default_rng(seed)
        header = [int(b) for b in rng.integers(0, HP82.mask + 1, size=4)]
        layout = RegisterLayout.standard(4, 8)
        mining = MiningParams(int(rng.integers(3, 6)), HP82, rng_seed=seed)
        reference = reference_mine_quantum(header, layout, mining, exact_readout=True)

        def refuse(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert_matches_reference(
            mine_quantum(header, layout, mining, exact_readout=True), reference)
        with pytest.raises(AssertionError, match="a generator was built"):
            mine_quantum(header, layout, mining)

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 6), (4, 8), (5, 8), (6, 10), (8, 12)])
    def test_exact_readout_is_the_lowest_nonce_of_its_class(self, n, m):
        # headers with two or more solutions, with and without a hint: a
        # successful exact readout is the lowest solution and a failed one
        # the lowest other nonce, whatever the rounding
        params, layout = HashParams(m, 2, True), RegisterLayout.standard(n, m)
        rng = np.random.default_rng([n, m])
        outcomes = []
        for _ in range(16):
            header = [int(b) for b in rng.integers(0, params.mask + 1, size=4)]
            zeros = int(rng.integers(max(n - 2, 1), n))
            solutions = enumerate_solutions(header, params, n, zeros)
            if not 2 <= len(solutions) < 1 << n:
                continue
            lowest_other = next(v for v in range(1 << n) if v not in solutions)
            for hint in (None, 1):
                result = mine_quantum(header, layout,
                                      MiningParams(zeros, params, solution_count_hint=hint),
                                      exact_readout=True)
                assert result.nonce == (solutions[0] if result.success else lowest_other)
                outcomes.append(result.success)
        assert any(outcomes)

    @pytest.mark.parametrize("n, m", SIZES_TO_21)
    def test_equals_reference_run_at_every_size(self, n, m):
        # exact and sampled readout at every size, each with and without a
        # hint on alternate sizes; above DENSE_QUBITS the reference runs on
        # StateVector's own kernels, which TestDenseReference checks
        # against the dense ones
        rng, params, header, zeros = random_search(n, m)
        layout = RegisterLayout.standard(n, m)
        kernels = {} if n + m + 1 <= DENSE_QUBITS else dict(
            apply_gates=StateVector.apply_gates,
            distribution=StateVector.register_distribution)
        hints = (None, 1) if (n + m) % 2 else (1, None)
        for exact, hint in zip((True, False), hints):
            mining = MiningParams(zeros, params, max_grover_rounds=1,
                                  solution_count_hint=hint,
                                  rng_seed=int(rng.integers(1 << 31)))
            assert_matches_reference(
                mine_quantum(header, layout, mining, exact_readout=exact),
                reference_mine_quantum(header, layout, mining,
                                       exact_readout=exact, **kernels))

    @pytest.mark.parametrize("field", ["header", "layout", "hash_params", "zeros"])
    def test_problem_of_another_search_is_refused(self, field):
        # the problem sets both the mask and the verified header, so one
        # built for another search would mine it without a word
        search = dict(header=[0x12, 0x34, 0x56, 0x78],
                      layout=RegisterLayout.standard(4, 8), hash_params=HP82, zeros=4)
        other = dict(header=[0x12, 0x34, 0x56, 0x79],
                     layout=RegisterLayout.standard(3, 8),
                     hash_params=HashParams(8, 2, True), zeros=5)
        built = SearchProblem.build(*{**search, field: other[field]}.values())
        header, layout, hp, zeros = search.values()
        with pytest.raises(ValueError, match=f"^problem was built for {field} "):
            mine_quantum(header, layout, MiningParams(zeros, hp), problem=built)
        own = SearchProblem.build(tuple(header), layout, hp, zeros)
        assert mine_quantum(header, layout, MiningParams(zeros, hp), problem=own) == \
            mine_quantum(header, layout, MiningParams(zeros, hp))

    def test_past_the_state_vector_cap(self):
        # q = 29: no StateVector could hold this register
        params = HashParams(16, 2)
        header, layout = [0x1234, 0xBEEF, 0x0042, 0x000C], RegisterLayout.standard(12, 16)
        solutions = enumerate_solutions(header, params, 12, 11)
        problem = SearchProblem.build(header, layout, params, 11)
        assert np.flatnonzero(problem.marked).tolist() == solutions != []
        result = mine_quantum(header, layout, MiningParams(11, params, rng_seed=3))
        assert result.success and result.nonce in solutions


class TestNonceAxisEngine:
    @pytest.mark.parametrize("n, m", SIZES_TO_21)
    def test_run_equals_grover_iteration(self, n, m):
        # the reference run's amplitudes b are the functional-|0> branch of
        # the full state and -b its |1> branch, bit for bit, up to twice the
        # optimum; the two-class distribution agrees with theirs to 1e-12
        _, params, header, zeros = random_search(n, m)
        layout = RegisterLayout.standard(n, m)
        problem = SearchProblem.build(header, layout, params, zeros)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        reference = state.amplitudes[:1 << n].copy()
        branch = 1 << layout.functional
        optimum = iteration_count(n, max(int(problem.marked.sum()), 1))
        for k in range(2 * max(optimum, 1) + 1):
            if k:
                grover_iteration(state, layout, problem.hash_circuit,
                                 problem.oracle, problem.diffusion)
            reference_dist = reference_run(problem, reference, 1 if k else 0)
            assert np.array_equal(reference, state.amplitudes[:1 << n])
            assert np.array_equal(-reference, state.amplitudes[branch:branch + (1 << n)])
            assert np.array_equal(reference_dist,
                                  state.register_distribution(layout.nonce))
            assert np.abs(problem.distribution(k) - reference_dist).max() <= 1e-12

    @pytest.mark.parametrize("n, m", SIZES_TO_21)
    def test_two_level_law_per_nonce(self, n, m):
        # after k iterations each of the M marked nonces has probability
        # sin^2((2k+1) theta) / M and each unmarked one cos^2((2k+1) theta)
        # / (2^n - M), with sin^2 theta = M / 2^n
        _, params, header, zeros = random_search(n, m)
        problem = SearchProblem.build(header, RegisterLayout.standard(n, m),
                                      params, zeros)
        marked, space = problem.marked, 1 << n
        count = int(marked.sum())
        theta = math.asin(math.sqrt(count / space))
        optimum = iteration_count(n, max(count, 1))
        for k in range(2 * max(optimum, 1) + 2):
            dist = problem.distribution(k)
            angle = (2 * k + 1) * theta
            if count:
                assert np.abs(dist[marked] - math.sin(angle) ** 2 / count).max() <= 1e-12
            if count < space:
                assert np.abs(dist[~marked] - math.cos(angle) ** 2
                              / (space - count)).max() <= 1e-12

    @pytest.mark.parametrize("n, zeros, count, ties, hints", [
        (4, 2, 4, (0, 2, 3, 5, 6), (1, 2)),  # M / 2^n = 1/4, hinted k = 3 and 2
        (4, 1, 8, range(7), (1, 2, None)),   # 1/2
        (2, 1, 3, (0, 2, 3, 5, 6), (None,)),  # 3/4, the last round at k = 2
    ])
    def test_exact_ties_are_uniform_and_read_nonce_0(self, n, zeros, count, ties, hints):
        # at these k, A^2 = C^2 and every nonce has probability exactly
        # 1 / 2^n; each run below ends on one, where exact readout reads
        # nonce 0, as the dense reference does, although 0 is no solution
        layout = RegisterLayout.standard(n, 8)
        header, solutions = next(
            found for seed in itertools.count()
            if 0 not in (found := find_header_with_count(n, HP82, zeros, count, seed=seed))[1])
        problem = SearchProblem.build(header, layout, HP82, zeros)
        assert np.flatnonzero(problem.marked).tolist() == solutions
        for k in ties:
            assert (problem.distribution(k) == 1 / (1 << n)).all()
        for hint in hints:
            mining = MiningParams(zeros, HP82, solution_count_hint=hint)
            result = mine_quantum(header, layout, mining, exact_readout=True)
            assert_matches_reference(result, reference_mine_quantum(
                header, layout, mining, exact_readout=True))
            last = (iteration_count(n, hint) if hint else
                    math.ceil(UNKNOWN_COUNT_GROWTH ** (result.hashes_tried - 1)))
            assert last in ties
            assert result.nonce == 0 and not result.success

    def test_distribution_allocates_no_amplitude_array(self):
        # the integers grow with k, but no 2^n array is made per iteration:
        # the peak at k = 600 stays within that at k = 1 plus a fixed slack,
        # and below the size of one complex 2^16 array
        problem = SearchProblem.build([1, 2, 3, 4], RegisterLayout.standard(16, 16),
                                      HashParams(16, 2), 2)

        def peak(iterations):
            tracemalloc.start()
            try:
                problem.distribution(iterations)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, many = peak(1), peak(600)
        assert one < (1 << 16) * np.dtype(np.complex128).itemsize
        assert many <= one + (64 << 10)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_diffusion_circuit_is_the_reflection_about_the_mean(self, n):
        # the layout is fixed, so n alone determines the diffusion circuit:
        # on the StateVector kernels it maps v to v - 2 mean(v)
        diffusion = build_diffusion(RegisterLayout.standard(n, max(n, 4)))
        rng = np.random.default_rng(n)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n)
        state.amplitudes[:] = v
        state.apply_gates(diffusion.gates)
        assert np.abs(state.amplitudes - (v - 2 * v.mean())).max() <= 1e-12

    def test_no_state_leaks_between_builds(self):
        # every build owns its gate lists
        n, m, zeros = 4, 8, 3
        layout = RegisterLayout.standard(n, m)
        first = SearchProblem.build([0x51, 0x3B], layout, HP82, zeros)
        for circuit in (first.hash_circuit, first.hash_inverse, first.oracle,
                        first.diffusion):
            circuit.gates.reverse()
            circuit.gates.append(Gate.x(0))

        header = [0x00, 0xA7, 0x02]
        problem = SearchProblem.build(header, layout, HP82, zeros)
        hash_circuit = reference_hash_circuit(layout, header, HP82)
        oracle, diffusion = build_oracle(layout, zeros), build_diffusion(layout)
        for built, reference in ((problem.hash_circuit, hash_circuit),
                                 (problem.hash_inverse, invert(hash_circuit)),
                                 (problem.oracle, oracle),
                                 (problem.diffusion, diffusion)):
            assert (built.num_qubits, built.label) == (reference.num_qubits,
                                                       reference.label)
            assert format_circuit(built) == format_circuit(reference)
        solutions = np.zeros(1 << n, dtype=bool)
        solutions[enumerate_solutions(header, HP82, n, zeros)] = True
        assert np.array_equal(problem.marked, solutions)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        reference = state.amplitudes[:1 << n].copy()
        for k in range(1, 4):
            grover_iteration(state, layout, hash_circuit, oracle, diffusion)
            reference_dist = reference_run(problem, reference, 1)
            assert np.array_equal(reference, state.amplitudes[:1 << n])
            assert np.array_equal(reference_dist,
                                  state.register_distribution(layout.nonce))
            assert np.abs(problem.distribution(k) - reference_dist).max() <= 1e-12

    def test_marked_follows_a_corrupted_hash_circuit(self, monkeypatch, cold_caches):
        # flip one control and drop one X of every cached round block: the
        # mask must be what the corrupted circuits mark on the state vector,
        # not the classical set
        n, m, zeros = 5, 8, 2
        header = [0x51, 0x3B, 0x00, 0x07]
        layout = RegisterLayout.standard(n, m)
        emit_round = qmine.toyhash._emit_round

        def corrupted(circuit, *args):
            start = len(circuit.gates)
            emit_round(circuit, *args)
            gates = circuit.gates[start:]
            drop = next(i for i, g in enumerate(gates) if g.kind == "X")
            flip = next(i for i, g in enumerate(gates) if g.kind == "MCX")
            (q, positive), *rest = gates[flip].controls
            gates[flip] = Gate.mcx([(q, not positive), *rest], gates[flip].targets[0])
            del gates[drop]
            circuit.gates[start:] = gates

        monkeypatch.setattr(qmine.toyhash, "_emit_round", corrupted)
        problem = SearchProblem.build(header, layout, HP82, zeros)
        state = new_zero_state(layout.total_qubits)
        prepare(state, layout)
        for circuit in (problem.hash_circuit, problem.oracle, problem.hash_inverse):
            apply_circuit(state, circuit)
        assert np.array_equal(problem.marked, state.amplitudes[:1 << n].real < 0)
        solutions = np.zeros(1 << n, dtype=bool)
        solutions[enumerate_solutions(header, HP82, n, zeros)] = True
        assert problem.marked.any() and not np.array_equal(problem.marked, solutions)

    def test_build_rejects_an_unhash_that_does_not_unwind(self, monkeypatch, cold_caches):
        # a nonce CNOT that reads a hash qubit or writes outside the hash
        # field, or an oracle that writes outside the functional qubit or
        # reads outside the hash field, breaks the tables' premise
        layout = RegisterLayout.standard(4, 8)
        h, functional = layout.hash, layout.functional
        shared_gates, build_oracle_ = qmine.miner._shared_gates, qmine.miner.build_oracle
        cnot_corruptions = [Gate.cnot(h[0], h[1]), Gate.cnot(0, 1), Gate.cnot(0, functional),
                            Gate.swap(h[0], 0), Gate.swap(h[0], h[1])]
        oracle_corruptions = [Gate.x(h[2]), Gate.cnot(h[0], 1), Gate.cnot(1, functional),
                              Gate.cnot(functional, h[0])]
        for extra in cnot_corruptions + oracle_corruptions:
            def gates(*args):
                xs, cnots, rounds = shared_gates(*args)
                return xs, cnots + (extra,) * (extra in cnot_corruptions), rounds

            def oracle(*args):
                circuit = build_oracle_(*args)
                circuit.gates[:0] = [extra] * (extra in oracle_corruptions)
                return circuit

            monkeypatch.setattr(qmine.miner, "_shared_gates", gates)
            monkeypatch.setattr(qmine.miner, "build_oracle", oracle)
            qmine.miner._cached_search_tables.cache_clear()
            with pytest.raises(ValueError, match="hash and service registers"):
                SearchProblem.build([0x51, 0x3B, 0x00, 0x07], layout, HP82, 3)


@pytest.fixture
def cold_caches():
    """Empty the per-parameter caches before and after a test that corrupts
    the gates they are built from."""
    caches = (qmine.toyhash._shared_gates, qmine.miner._cached_round_tables,
              qmine.miner._cached_search_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestFusedCompile:
    """The compile absorbs the header through the round table and reads the
    marked set through the cached tables; it must equal one
    ``permute_labels`` pass over every gate of hash, oracle and unhash."""

    @pytest.mark.parametrize("m", range(4, 17))
    @pytest.mark.parametrize("rounds", [1, 2, 8])
    @pytest.mark.parametrize("true_chi", [False, True])
    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=2)
    def test_equals_one_pass(self, m, rounds, true_chi, data):
        params = HashParams(m, rounds, true_chi)
        for n in range(1, min(m, 8) + 1):
            layout = RegisterLayout.standard(n, m)
            header = data.draw(st.lists(st.integers(0, params.mask), max_size=4))
            zeros = data.draw(st.integers(0, m))
            labels, marked = reference_compile(header, layout, params, zeros)
            assert np.array_equal(labels & ~(1 << layout.functional), np.arange(1 << n))
            assert np.array_equal(
                SearchProblem.build(header, layout, params, zeros).marked, marked)

    def test_every_round_block_is_one_gather(self, monkeypatch):
        # with warm caches a build walks no gate and builds no circuit: the
        # header is a scalar walk through the round table and the marked
        # set one gather over the 2^n nonces
        layout, params = RegisterLayout.standard(4, 12), HashParams(12, 2)
        header = [0x5A1, 0x003, 0xFFF, 0x800]
        SearchProblem.build(header, layout, params, 4)  # fills the caches
        calls = []

        def spy(name, fn):
            def spied(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return spied

        for name in ("permute_labels", "build_hash_circuit", "build_oracle",
                     "build_diffusion", "invert"):
            monkeypatch.setattr(qmine.miner, name, spy(name, getattr(qmine.miner, name)))
        monkeypatch.setattr(qmine.circuit.Circuit, "__init__",
                            spy("Circuit", qmine.circuit.Circuit.__init__))
        problem = SearchProblem.build(header, layout, params, 4)
        assert calls == []
        assert np.array_equal(problem.marked,
                              reference_compile(header, layout, params, 4)[1])

    def test_build_keeps_its_input_errors(self):
        # the layout and every header block are checked before any table
        # lookup, with the hash builder's messages
        with pytest.raises(ValueError, match=r"nonce register \(9 qubits\) must embed"):
            SearchProblem.build([0x1], RegisterLayout.standard(9, 8), HP82, 3)
        with pytest.raises(ValueError, match="hash register has 8 qubits, params need 12"):
            SearchProblem.build([0x1], RegisterLayout.standard(4, 8), HashParams(12, 2), 3)
        with pytest.raises(ValueError, match="block 0x100 does not fit in 8 bits"):
            SearchProblem.build([0x1, 0x100], RegisterLayout.standard(4, 8), HP82, 3)
        with pytest.raises(ValueError, match="zeros must be in 0..8"):
            SearchProblem.build([0x1], RegisterLayout.standard(4, 8), HP82, 9)

    def test_a_block_outside_the_hash_register_is_rejected(self):
        layout = RegisterLayout.standard(2, 4)  # nonce 0-1, hash 2-5, functional 6
        inside = [Gate.cnot(2, 5), Gate.swap(3, 4), Gate.x(2)]
        assert qmine.miner._register_table(inside, layout.hash).dtype == np.uint8
        for outside in (Gate.x(1), Gate.cnot(0, 3), Gate.cnot(5, 6), Gate.swap(5, 6)):
            with pytest.raises(ValueError, match="outside the hash register"):
                qmine.miner._register_table(inside + [outside], layout.hash)

    @pytest.mark.parametrize("m", range(4, 17))
    @pytest.mark.parametrize("rounds", range(1, 9))
    @pytest.mark.parametrize("true_chi", [False, True])
    def test_gates_per_iteration_counts_the_lazy_circuits(self, m, rounds, true_chi):
        # the closed-form count equals the lengths of the circuits built on
        # first use, for random headers of 0-4 blocks
        params = HashParams(m, rounds, true_chi)
        rng = np.random.default_rng([m, rounds, true_chi])
        for size in range(5):
            n = int(rng.integers(1, m + 1))
            header = [int(b) for b in rng.integers(0, params.mask + 1, size=size)]
            layout = RegisterLayout.standard(n, m)
            problem = SearchProblem.build(header, layout, params,
                                          int(rng.integers(0, m + 1)))
            assert hash_gate_count(n, header, params) == len(problem.hash_circuit)
            assert gates_per_iteration(layout, header, params) == problem.gates_per_iteration
            assert problem.gates_per_iteration == sum(
                len(c) for c in (problem.hash_circuit, problem.oracle,
                                 problem.hash_inverse, problem.diffusion))


class TestSampledReadout:
    """``sample_readout`` draws what ``Generator.choice`` draws for the same
    p and leaves the generator where ``choice`` leaves it."""

    @pytest.mark.parametrize("bits", range(1, 17))
    @pytest.mark.parametrize("kind", ["dense", "half-zeros", "leading-zeros", "one-hot"])
    def test_equals_generator_choice(self, bits, kind):
        size = 1 << bits
        rng = np.random.default_rng([bits, len(kind)])
        dist = rng.random(size)
        if kind == "half-zeros":
            dist[rng.permutation(size)[:size // 2]] = 0.0
        elif kind == "leading-zeros":
            dist[:size // 2] = 0.0
        elif kind == "one-hot":
            dist = np.zeros(size)
            dist[rng.integers(size)] = 0.5
        ours, theirs = np.random.default_rng(bits), np.random.default_rng(bits)
        for _ in range(3):
            assert (qmine.miner.sample_readout(dist, ours)
                    == theirs.choice(size, p=dist / dist.sum()))


class TestCarriedState:
    """What a header's rounds share: the digests read, not the state."""

    @pytest.fixture
    def asked(self, monkeypatch):
        asked = []
        distribution = SearchProblem.distribution

        def spy(problem, iterations):
            asked.append(iterations)
            return distribution(problem, iterations)

        monkeypatch.setattr(SearchProblem, "distribution", spy)
        return asked

    def test_unknown_count_restarts_every_round(self, asked):
        # no solution, so every round up to the budget cap runs
        header, _ = find_header_with_count(4, HP82, 8, 0, seed=4)
        result = mine_quantum(header, RegisterLayout.standard(4, 8),
                              MiningParams(8, HP82, rng_seed=5))
        budgets = [math.ceil(UNKNOWN_COUNT_GROWTH ** t)
                   for t in range(result.hashes_tried)]
        assert len(budgets) > 2
        assert asked == budgets
        assert result.grover_iterations_used == sum(budgets)

    def test_hint_runs_once(self, asked):
        header, _ = find_header_with_count(4, HP82, 4, 1, seed=2)
        result = mine_quantum(header, RegisterLayout.standard(4, 8),
                              MiningParams(4, HP82, solution_count_hint=1))
        assert asked == [result.grover_iterations_used] == [iteration_count(4, 1)]

    def test_each_nonce_is_verified_once(self, monkeypatch):
        # a nonce read again reuses its digest, while hashes_tried still
        # counts one verification per round
        hashed = []

        def spy(blocks, params):
            if len(blocks) == 1:  # header_prefix hashes the 4-block header
                hashed.append(blocks[0])
            return hash_classical(blocks, params)

        monkeypatch.setattr(qmine.miner, "hash_classical", spy)
        tried = 0
        for seed in range(6):
            header, _ = find_header_with_count(3, HP82, 8, 0, seed=seed)
            hashed.clear()
            result = mine_quantum(header, RegisterLayout.standard(3, 8),
                                  MiningParams(8, HP82, rng_seed=seed))
            assert len(hashed) == len(set(hashed)) <= result.hashes_tried
            tried += result.hashes_tried - len(hashed)
        assert tried > 0  # some round did read a nonce again


class TestPrefixFromCompile:
    """A quantum mine takes the header's sponge state from its compile: the
    round code runs once per distinct nonce read and never on the header."""

    SIZES = [(3, 8), (4, 8), (4, 12), (6, 10)]

    @pytest.mark.parametrize("n, m", SIZES)
    def test_build_runs_no_rounds(self, n, m, monkeypatch):
        hp, layout = HashParams(m, 2), RegisterLayout.standard(n, m)
        # cold tables too: they are read off the gates, not off the sponge
        qmine.miner._cached_round_tables.cache_clear()
        qmine.miner._cached_search_tables.cache_clear()
        calls = count_rounds_calls(monkeypatch)
        rng = np.random.default_rng([n, m])
        for length in range(5):
            header = [int(b) for b in rng.integers(0, hp.mask + 1, size=length)]
            SearchProblem.build(header, layout, hp, n)
        assert calls == []

    @pytest.mark.parametrize("hint", [None, 1])
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("n, m", SIZES)
    def test_one_rounds_call_per_distinct_readout(self, n, m, exact, hint, monkeypatch):
        hp, layout = HashParams(m, 2), RegisterLayout.standard(n, m)
        rng = np.random.default_rng([n, m])
        headers = [[int(b) for b in rng.integers(0, hp.mask + 1, size=4)]
                   for _ in range(8)]
        prefixes = [header_prefix(header, hp) for header in headers]
        read = []
        distribution, sample = SearchProblem.distribution, qmine.miner.sample_readout

        def record_argmax(problem, iterations):
            dist = distribution(problem, iterations)
            if exact:
                read.append(int(np.argmax(dist)))
            return dist

        def record_sample(dist, generator):
            read.append(sample(dist, generator))
            return read[-1]

        monkeypatch.setattr(SearchProblem, "distribution", record_argmax)
        monkeypatch.setattr(qmine.miner, "sample_readout", record_sample)
        calls = count_rounds_calls(monkeypatch)
        rounds = 0
        for seed, (header, prefix) in enumerate(zip(headers, prefixes)):
            read.clear()
            calls.clear()
            result = mine_quantum(header, layout,
                                  MiningParams(n, hp, solution_count_hint=hint,
                                               rng_seed=seed),
                                  exact_readout=exact)
            assert len(read) == result.hashes_tried
            assert sorted(state ^ prefix for state in calls) == sorted(set(read))
            rounds += len(read)
        assert (rounds == len(headers)) if hint else (rounds > len(headers))


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestHeaderPrefix:
    """Both classical miners hash the header once, then one block per nonce."""

    @pytest.mark.parametrize("true_chi", [False, True])
    @pytest.mark.parametrize("rounds", [1, 2, 8])
    @pytest.mark.parametrize("m", range(4, 17))
    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=5)
    def test_prefix_absorbs_the_header(self, m, rounds, true_chi, data):
        hp = HashParams(m, rounds, true_chi)
        block = st.integers(0, hp.mask)
        for length in range(5):
            header = data.draw(st.lists(block, min_size=length, max_size=length))
            v = data.draw(block)
            assert hash_classical([header_prefix(header, hp) ^ v], hp) == \
                hash_classical(header + [v], hp)
            assert SearchProblem.build(header, RegisterLayout.standard(1, m), hp,
                                       0).prefix == header_prefix(header, hp)

    @pytest.mark.parametrize("n, m, rounds, true_chi",
                             [(4, 8, 2, False), (3, 5, 1, True), (6, 10, 3, False),
                              (5, 16, 2, True), (3, 4, 8, False)])
    def test_miners_equal_the_whole_header_loops(self, n, m, rounds, true_chi):
        hp = HashParams(m, rounds, true_chi)
        rng = np.random.default_rng([n, m, rounds])
        solvable = set()
        for length in range(5):
            header = [int(b) for b in rng.integers(0, hp.mask + 1, size=length)]
            for zeros in range(max(0, n - 1), min(m, n + 3) + 1):
                solutions = enumerate_solutions(header, hp, n, zeros)
                assert solutions == reference_enumerate_solutions(header, hp, n, zeros)
                params = MiningParams(zeros, hp)
                assert mine_classical(header, params, n) == \
                    reference_mine_classical(header, params, n)
                solvable.add(bool(solutions))
        assert solvable == {False, True}

    @pytest.mark.parametrize("zeros", [-1, 5])
    def test_zeros_out_of_range_named_before_a_wide_nonce(self, zeros):
        # the one-by-one loop checked zeros at nonce 0, before reaching 0x10
        hp = HashParams(4, 2)
        for n in (3, 6):
            error = outcome(enumerate_solutions, [0x3], hp, n, zeros)
            assert error == outcome(reference_enumerate_solutions, [0x3], hp, n, zeros)
            assert error == f"ValueError: zeros must be in 0..4, got {zeros}"

    @pytest.mark.parametrize("header", [[], [0x3], [0x9, 0x0, 0xF, 0x4]])
    def test_nonce_wider_than_the_digest(self, header):
        # enumeration reaches nonce 0x10 and must name it; the brute-force
        # miner stops first, since the permutation maps the 16 one-block
        # inputs onto every digest, the all-zero one included
        hp, n = HashParams(4, 2), 6
        for zeros in range(5):
            error = outcome(enumerate_solutions, header, hp, n, zeros)
            assert error == outcome(reference_enumerate_solutions, header, hp, n, zeros)
            assert error == "ValueError: block 0x10 does not fit in 4 bits"
            params = MiningParams(zeros, hp)
            result = mine_classical(header, params, n)
            assert result.success
            assert result == reference_mine_classical(header, params, n)
