"""Grover-search proof-of-work mining on a simulated quantum register."""

from .chain import (Block, BlockHeader, Chain, compute_required_zeros,
                    load_chain, save_chain, serialize_header)
from .circuit import (Circuit, Gate, apply_circuit, emit_and_into, emit_not,
                      emit_rotate_left, emit_xor_into, format_circuit, invert)
from .miner import (MiningParams, MiningResult, RegisterLayout, ResourceEstimate,
                    SearchProblem, analytic_success_probability, build_diffusion,
                    build_oracle, enumerate_solutions, estimate_resources,
                    grover_iteration, iteration_count, mine_classical, mine_quantum,
                    prepare)
from .statevector import CapacityError, StateVector, assignment_for, new_zero_state
from .toyhash import (Digest, HashParams, build_hash_circuit,
                      build_hash_circuit_outofplace, hash_classical,
                      has_leading_zeros, permute, round_constant)
from . import cli  # bound as qmine.cli for in-process drivers such as perfbench

__version__ = "0.1.0"

__all__ = [
    "Block", "BlockHeader", "CapacityError", "Chain", "Circuit", "Digest",
    "Gate", "HashParams", "MiningParams", "MiningResult",
    "RegisterLayout", "ResourceEstimate", "SearchProblem", "StateVector",
    "analytic_success_probability", "apply_circuit", "assignment_for",
    "build_diffusion", "build_hash_circuit", "build_hash_circuit_outofplace",
    "build_oracle", "compute_required_zeros", "emit_and_into", "emit_not",
    "emit_rotate_left", "emit_xor_into", "enumerate_solutions",
    "estimate_resources", "format_circuit", "grover_iteration",
    "has_leading_zeros", "hash_classical", "invert", "iteration_count",
    "load_chain", "mine_classical", "mine_quantum", "new_zero_state", "permute",
    "prepare", "round_constant", "save_chain", "serialize_header",
]
