"""Command-line driver: mining runs, probability sweeps, chain tools,
and the classical-vs-quantum resource estimate.  It parses arguments,
resolves flags over the config file and prints; the library does the work.

Exit codes are fixed for scripting: 0 success, 1 invalid chain,
2 usage/config error, 3 mining budget exhausted (or no solution).
All output is deterministic given the same flags, config, and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .chain import (Block, BlockHeader, Chain, compute_required_zeros, json_bool,
                    json_int, load_chain, mine_classical, read_json_object,
                    save_chain, serialize_header)
from .circuit import format_circuit
from .miner import (MiningParams, MiningResult, RegisterLayout, SearchProblem,
                    analytic_success_probability, enumerate_solutions,
                    estimate_resources, iteration_count, mine_quantum, prepare)
from .statevector import CapacityError, DEFAULT_QUBIT_CAP, new_zero_state
from .toyhash import HashParams

EXIT_OK = 0
EXIT_INVALID_CHAIN = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3

SWEEP_CSV_HEADER = ["k", "simulated_p", "analytic_p", "abs_diff"]

MINE_CSV_HEADER = ["miner", "nonce", "nonce_bits", "digest_hex", "success",
                   "grover_iterations", "success_probability", "total_gates",
                   "hashes_tried"]


# -- config handling ---------------------------------------------------------


@dataclass
class RunConfig:
    n: int
    m: int
    rounds: int
    zeros: int
    true_chi: bool
    prev: int
    payload: int
    timestamp: int
    seed: int
    mode: str
    exact: bool
    max_grover_rounds: int
    hint: int | None
    chain_file: str | None
    csv_out: str | None
    dump_circuits: str | None

    @property
    def hash_params(self) -> HashParams:
        return HashParams(self.m, self.rounds, self.true_chi)


class _Resolver:
    """Flags override config-file values, which override defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        path = getattr(args, "config", None)
        self.file = read_json_object(path, "config file") if path else {}

    def get(self, key: str, default, convert=lambda value: value):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.file.get(key, default)
        try:
            return convert(value)
        except (TypeError, ValueError):
            raise ValueError(f"invalid value for {key}: {value!r}") from None


def _int_or_auto(value):
    return value if value == "auto" else json_int(value)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _hex(value) -> int:
    if not isinstance(value, str):
        raise TypeError(f"expected a hex string, got {value!r}")
    return int(value, 16)


def _optional_str(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    r = _Resolver(args)
    n = r.get("n", 4, json_int)
    m = r.get("m", 8, json_int)
    zeros = r.get("zeros", "auto", _int_or_auto)
    if getattr(args, "auto_zeros", False) or zeros == "auto":
        zeros = compute_required_zeros(n, m)
    cfg = RunConfig(
        n=n,
        m=m,
        rounds=r.get("rounds", 2, json_int),
        zeros=zeros,
        true_chi=r.get("true_chi", False, json_bool),
        prev=r.get("prev", "0", _hex),
        payload=r.get("payload", "0", _hex),
        timestamp=r.get("timestamp", 0, json_int),
        seed=r.get("seed", 0, json_int),
        mode=str(r.get("mode", "both")),
        exact=r.get("exact", False, json_bool),
        max_grover_rounds=r.get("max_grover_rounds", 3, json_int),
        hint=r.get("hint", 0, json_int) or None,
        chain_file=r.get("chain_file", None, _optional_str),
        csv_out=r.get("csv_out", None, _optional_str),
        dump_circuits=r.get("dump_circuits", None, _optional_str),
    )
    if cfg.n < 1:
        raise ValueError("n must be >= 1")
    if cfg.n > cfg.m:
        raise ValueError(f"nonce bits ({cfg.n}) must not exceed hash bits ({cfg.m})")
    if cfg.mode not in ("classical", "quantum", "both"):
        raise ValueError(f"mode must be classical, quantum or both, got {cfg.mode!r}")
    if cfg.mode != "classical":
        total = cfg.n + cfg.m + 1
        if total > DEFAULT_QUBIT_CAP:
            raise CapacityError(
                f"quantum run needs {total} qubits, cap is {DEFAULT_QUBIT_CAP}")
    return cfg


# -- subcommands ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _dump_circuits(path: str, problem: SearchProblem) -> None:
    parts = []
    for label, circuit in (("hash", problem.hash_circuit),
                           ("oracle", problem.oracle),
                           ("diffusion", problem.diffusion)):
        parts.append(f"# {label}")
        parts.append(format_circuit(circuit))
        parts.append("")
    Path(path).write_text("\n".join(parts))


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _mine_record_row(miner: str, result: MiningResult) -> list:
    rec = result.as_record()
    return [miner, rec["nonce"], rec["nonce_bits"], rec["digest_hex"],
            int(rec["success"]), rec["grover_iterations"],
            _fmt(rec["success_probability"]), rec["total_gates"],
            rec["hashes_tried"]]


def cmd_mine(cfg: RunConfig) -> int:
    hp = cfg.hash_params
    chain = None
    prev = cfg.prev
    if cfg.chain_file and Path(cfg.chain_file).exists():
        chain = load_chain(cfg.chain_file)
        if chain.hash_params != hp or chain.nonce_bits != cfg.n:
            raise ValueError(f"chain file {cfg.chain_file} was built with "
                             f"different parameters")
        prev = chain.tip_digest()
    elif cfg.chain_file:
        chain = Chain(hash_params=hp, nonce_bits=cfg.n)

    header = BlockHeader(prev_digest=prev, payload_digest=cfg.payload,
                         timestamp=cfg.timestamp,
                         difficulty_zeros=cfg.zeros, nonce=0)
    blocks = serialize_header(header, hp)
    params = MiningParams(difficulty_zeros=cfg.zeros, hash_params=hp,
                          max_grover_rounds=cfg.max_grover_rounds,
                          solution_count_hint=cfg.hint, rng_seed=cfg.seed)

    results: dict[str, MiningResult] = {}
    if cfg.mode in ("classical", "both"):
        results["classical"] = mine_classical(blocks, params, cfg.n)
    if cfg.mode in ("quantum", "both"):
        layout = RegisterLayout.standard(cfg.n, cfg.m)
        if cfg.dump_circuits:
            _dump_circuits(cfg.dump_circuits,
                           SearchProblem.build(blocks, layout, hp, cfg.zeros))
        results["quantum"] = mine_quantum(blocks, layout, params,
                                          exact_readout=cfg.exact)

    print(f"difficulty: top {cfg.zeros} of {cfg.m} digest bits must be zero "
          f"(nonce space 2^{cfg.n})")
    for miner, res in results.items():
        line = (f"[{miner}] success={'yes' if res.success else 'no'} "
                f"nonce={res.nonce_bits} ({res.nonce}) digest={res.digest.hex}")
        if miner == "quantum":
            line += (f" iterations={res.grover_iterations_used}"
                     f" p_success={_fmt(res.success_probability_at_measurement)}"
                     f" gates={res.total_gates}"
                     f" verify_hashes={res.hashes_tried}")
        else:
            line += f" hashes_tried={res.hashes_tried}"
        print(line)

    if cfg.mode == "both":
        c, q = results["classical"], results["quantum"]
        if c.success and q.success:
            note = "same nonce" if c.nonce == q.nonce else "different valid nonces"
            print(f"agreement: both miners found a solution ({note})")
        elif not c.success and not q.success:
            print("agreement: no solution exists in the nonce space")
        else:
            print("disagreement: only one miner succeeded "
                  "(quantum budget exhausted?)")

    if cfg.csv_out:
        _write_csv(cfg.csv_out, MINE_CSV_HEADER,
                   [_mine_record_row(m, r) for m, r in results.items()])

    chosen = None
    if cfg.mode in ("quantum", "both") and results["quantum"].success:
        chosen = results["quantum"]
    elif cfg.mode == "classical" and results["classical"].success:
        chosen = results["classical"]
    elif cfg.mode == "both" and results["classical"].success:
        chosen = results["classical"]
    if chain is not None and chosen is not None:
        mined = BlockHeader(prev_digest=prev, payload_digest=cfg.payload,
                            timestamp=cfg.timestamp,
                            difficulty_zeros=cfg.zeros, nonce=chosen.nonce)
        chain.append(Block.from_header(mined, hp))
        save_chain(chain, cfg.chain_file)
        print(f"appended block {len(chain.blocks) - 1} to {cfg.chain_file}")

    return EXIT_OK if all(r.success for r in results.values()) else EXIT_EXHAUSTED


def cmd_sweep(cfg: RunConfig, k_max: int | None) -> int:
    hp = cfg.hash_params
    header = BlockHeader(prev_digest=cfg.prev, payload_digest=cfg.payload,
                         timestamp=cfg.timestamp,
                         difficulty_zeros=cfg.zeros, nonce=0)
    blocks = serialize_header(header, hp)
    solutions = enumerate_solutions(blocks, hp, cfg.n, cfg.zeros)
    count = len(solutions)
    if count == 0:
        print("no nonce satisfies the difficulty; nothing to sweep")
        return EXIT_EXHAUSTED
    if k_max is None:
        k_max = iteration_count(cfg.n, count)

    layout = RegisterLayout.standard(cfg.n, cfg.m)
    state = new_zero_state(layout.total_qubits)
    prepare(state, layout)
    problem = SearchProblem.build(blocks, layout, hp, cfg.zeros)
    if cfg.dump_circuits:
        _dump_circuits(cfg.dump_circuits, problem)

    rows = []
    for k in range(k_max + 1):
        dist = problem.run(state, 1 if k else 0)
        simulated = float(dist[solutions].sum())
        analytic = analytic_success_probability(cfg.n, count, k)
        rows.append([k, _fmt(simulated), _fmt(analytic),
                     _fmt(abs(simulated - analytic))])
    _write_csv(cfg.csv_out, SWEEP_CSV_HEADER, rows)
    if cfg.csv_out:
        print(f"wrote {len(rows)} rows ({count} solution(s)) to {cfg.csv_out}")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    nonce_bits = r.get("n", 48, json_int)
    hash_rate = r.get("hash_rate", 7e6, _number)
    gate_time = r.get("gate_time", 1e-9, _number)
    gates_per_iteration = r.get("gates_per_iteration", 1, json_int)
    source = "assumed"
    if r.get("measured", False, json_bool):
        desk_n = r.get("measure_n", 4, json_int)
        hp = HashParams(r.get("m", 8, json_int), r.get("rounds", 2, json_int),
                        r.get("true_chi", False, json_bool))
        zeros = r.get("zeros", "auto", _int_or_auto)
        if zeros == "auto":
            zeros = compute_required_zeros(desk_n, hp.digest_bits)
        layout = RegisterLayout.standard(desk_n, hp.digest_bits)
        gates_per_iteration = SearchProblem.build(
            [0, 0, 0, 0], layout, hp, zeros).gates_per_iteration
        source = (f"measured at n={desk_n} m={hp.digest_bits} "
                  f"rounds={hp.rounds} zeros={zeros}")

    est = estimate_resources(nonce_bits, hash_rate, gate_time,
                             gates_per_iteration)
    print(f"nonce space: 2^{nonce_bits}")
    print(f"classical: hashes={est.classical_hashes}"
          f" seconds={est.classical_seconds:.6g}"
          f" hours={est.classical_hours:.6g}"
          f" days={est.classical_days:.6g}")
    print(f"quantum:   iterations={est.quantum_iterations}"
          f" gates={est.quantum_gate_count}"
          f" seconds={est.quantum_seconds:.6g}")
    print(f"assumptions: hash_rate={hash_rate:.6g}/s"
          f" gate_time={gate_time:.6g}s"
          f" gates_per_iteration={gates_per_iteration} ({source})")
    return EXIT_OK


def cmd_chain_validate(path: str) -> int:
    chain = load_chain(path)
    report = chain.validate()
    if report.ok:
        print(f"chain OK ({len(chain.blocks)} block(s))")
        return EXIT_OK
    for reason in report.reasons:
        print(f"invalid: {reason}")
    return EXIT_INVALID_CHAIN


def cmd_chain_show(path: str) -> int:
    chain = load_chain(path)
    hp = chain.hash_params
    print(f"chain: {len(chain.blocks)} block(s), digest_bits={hp.digest_bits} "
          f"rounds={hp.rounds} nonce_bits={chain.nonce_bits}")
    print("index prev     digest   zeros nonce timestamp")
    for i, b in enumerate(chain.blocks):
        w = (hp.digest_bits + 3) // 4
        print(f"{i:<5d} {b.header.prev_digest:0{w}x}{'':<{9 - w}}"
              f"{b.digest.hex:<9}{b.header.difficulty_zeros:<6d}"
              f"{b.header.nonce:<6d}{b.header.timestamp}")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmine",
        description="Grover-search proof-of-work mining on a simulated "
                    "quantum register, with a classical baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--n", type=int, help="nonce register width in bits")
    common.add_argument("--m", type=int, help="hash digest width in bits")
    common.add_argument("--rounds", type=int, help="permutation rounds")
    common.add_argument("--zeros", type=int,
                        help="required leading zero bits of the digest")
    common.add_argument("--auto-zeros", action="store_true",
                        help="derive zeros as n+1 (expected half a solution)")
    common.add_argument("--true-chi", action=argparse.BooleanOptionalAction,
                        help="use the inverted-operand chi nonlinearity")
    common.add_argument("--seed", type=int, help="rng seed for measurements")
    common.add_argument("--prev", help="previous digest, hex")
    common.add_argument("--payload", help="payload digest, hex")
    common.add_argument("--timestamp", type=int, help="header timestamp")
    common.add_argument("--csv-out", help="write machine-readable CSV here")
    common.add_argument("--dump-circuits",
                        help="write a textual dump of the built circuits")

    p_mine = sub.add_parser("mine", parents=[common],
                            help="mine one block classically and/or on the "
                                 "simulated quantum register")
    p_mine.add_argument("--mode", choices=("classical", "quantum", "both"))
    p_mine.add_argument("--exact", action=argparse.BooleanOptionalAction,
                        help="deterministic argmax readout instead of sampling")
    p_mine.add_argument("--max-grover-rounds", type=int,
                        help="budget multiplier when the solution count "
                             "is unknown")
    p_mine.add_argument("--hint", type=int,
                        help="known solution count (runs the optimal "
                             "iteration count directly)")
    p_mine.add_argument("--chain-file",
                        help="append the mined block to this chain file")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="success probability vs iteration count, "
                                  "simulated and analytic")
    p_sweep.add_argument("--k-max", type=int,
                         help="last iteration count (default: the optimum)")

    p_est = sub.add_parser("estimate",
                           help="classical vs quantum resource projection")
    p_est.add_argument("--config", help="JSON config file; flags override it")
    p_est.add_argument("--n", type=int, help="nonce width in bits (default 48)")
    p_est.add_argument("--hash-rate", type=float, dest="hash_rate",
                       help="classical hashes per second (default 7e6)")
    p_est.add_argument("--gate-time", type=float, dest="gate_time",
                       help="seconds per quantum gate (default 1e-9)")
    p_est.add_argument("--gates-per-iteration", type=int,
                       dest="gates_per_iteration",
                       help="gates charged per search iteration (default 1)")
    p_est.add_argument("--measured", action=argparse.BooleanOptionalAction,
                       help="count gates per iteration from the circuits "
                            "built for a desk-scale search (no simulation)")
    p_est.add_argument("--measure-n", type=int, dest="measure_n",
                       help="desk-scale nonce bits for --measured (default 4)")
    p_est.add_argument("--m", type=int, help="desk-scale digest bits for --measured")
    p_est.add_argument("--rounds", type=int,
                       help="desk-scale rounds for --measured")
    p_est.add_argument("--zeros", type=int,
                       help="desk-scale difficulty for --measured")
    p_est.add_argument("--true-chi", action=argparse.BooleanOptionalAction)

    p_chain = sub.add_parser("chain", help="inspect or validate a chain file")
    chain_sub = p_chain.add_subparsers(dest="chain_command", required=True)
    for name, help_text in (("validate", "recheck every block and link"),
                            ("show", "print the chain as a table")):
        p = chain_sub.add_parser(name, help=help_text)
        p.add_argument("--chain-file", required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mine":
            return cmd_mine(_resolve_run_config(args))
        if args.command == "sweep":
            return cmd_sweep(_resolve_run_config(args), args.k_max)
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "chain":
            if args.chain_command == "validate":
                return cmd_chain_validate(args.chain_file)
            return cmd_chain_show(args.chain_file)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
