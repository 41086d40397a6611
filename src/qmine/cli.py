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
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Sequence

from .chain import (Block, BlockHeader, Chain, compute_required_zeros, header_digest,
                    json_bool, json_hex, json_int, load_chain, read_json_object,
                    save_chain, serialize_header)
from .circuit import format_circuit
from .miner import (MiningParams, MiningResult, RegisterLayout, SearchProblem,
                    analytic_success_probability, build_diffusion, build_oracle,
                    estimate_resources, gates_per_iteration, iteration_count,
                    mine_classical, mine_quantum)
from .toyhash import HashParams, build_hash_circuit, hex_digits

EXIT_OK = 0
EXIT_INVALID_CHAIN = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3

SWEEP_CSV_HEADER = ["k", "simulated_p", "analytic_p", "abs_diff"]

MINE_CSV_HEADER = ["miner", "nonce", "nonce_bits", "digest_hex", "success",
                   "grover_iterations", "success_probability", "total_gates",
                   "hashes_tried"]


# -- options -------------------------------------------------------------------


def _opt(name: str, default=None, convert=None, **flag) -> tuple:
    """One option, declared once: the flag ``--name`` (dashes for
    underscores) from the add_argument keywords ``flag`` and, with a
    ``convert``, the config key ``name``.  ``convert`` checks a flag value
    and a config value alike, not the default; without one the option is
    flag-only.  Every parser built from the tables also takes ``--config``."""
    return name, default, convert, flag


def _int_or_auto(value):
    return value if value == "auto" else json_int(value)


def _non_negative(value) -> int:
    if json_int(value) < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _optional_str(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


_BOOL = argparse.BooleanOptionalAction

RUN_OPTIONS = (  # flags of mine and sweep
    _opt("n", 4, json_int, type=int, help="nonce register width in bits"),
    _opt("m", 8, json_int, type=int, help="hash digest width in bits"),
    _opt("rounds", 2, json_int, type=int, help="permutation rounds"),
    _opt("zeros", "auto", _int_or_auto, type=int,
         help="required leading zero bits of the digest"),
    _opt("auto_zeros", action="store_true",
         help="derive zeros as n+1 (expected half a solution)"),
    _opt("true_chi", False, json_bool, action=_BOOL,
         help="use the inverted-operand chi nonlinearity"),
    _opt("prev", None, json_hex,
         help="previous digest, hex (default 0; with --chain-file, the chain's tip)"),
    _opt("payload", 0, json_hex, help="payload digest, hex"),
    _opt("timestamp", 0, json_int, type=int, help="header timestamp"),
    _opt("csv_out", None, _optional_str, help="write machine-readable CSV here"),
    _opt("dump_circuits", None, _optional_str,
         help="write a textual dump of the built circuits"),
)

MINE_OPTIONS = (  # flags of mine; a sweep config file may hold them too
    _opt("mode", "both", str, choices=("classical", "quantum", "both")),
    _opt("seed", 0, _non_negative, type=int, help="rng seed for measurements"),
    _opt("exact", False, json_bool, action=_BOOL,
         help="deterministic argmax readout instead of sampling"),
    _opt("max_grover_rounds", 3, json_int, type=int,
         help="budget multiplier when the solution count is unknown"),
    _opt("hint", None, json_int, type=int,
         help="known solution count >= 1 (runs the optimal iteration count once)"),
    _opt("chain_file", None, _optional_str,
         help="append the mined block to this chain file"),
)

SWEEP_OPTIONS = (
    _opt("k_max", type=int, help="last iteration count (default: the optimum)"),
)

ESTIMATE_OPTIONS = (
    _opt("n", 48, json_int, type=int, help="nonce width in bits (default 48)"),
    _opt("hash_rate", 7e6, _number, type=float,
         help="classical hashes per second (default 7e6)"),
    _opt("gate_time", 1e-9, _number, type=float,
         help="seconds per quantum gate (default 1e-9)"),
    _opt("gates_per_iteration", 1, json_int, type=int,
         help="gates charged per search iteration (default 1)"),
    _opt("measured", False, json_bool, action=_BOOL,
         help="charge the gates of one desk-scale search iteration, "
              "counted from the circuit builders' structure"),
)


DESK_OPTIONS = (  # resolved only with --measured; as flags, refused without it
    _opt("measure_n", 4, json_int, type=int,
         help="desk-scale nonce bits for --measured (default 4)"),
    _opt("m", 8, json_int, type=int, help="desk-scale digest bits for --measured"),
    _opt("rounds", 2, json_int, type=int, help="desk-scale rounds for --measured"),
)


# every key a config file may hold: one file can serve mine, sweep and estimate
CONFIG_KEYS = frozenset(name for name, _, convert, _ in (
    RUN_OPTIONS + MINE_OPTIONS + SWEEP_OPTIONS + ESTIMATE_OPTIONS + DESK_OPTIONS)
    if convert)


def _read_config(args: argparse.Namespace) -> dict:
    """The config file's keys and values; a key that no command declares is
    an error, so a misspelt key is not silently ignored."""
    if not args.config:
        return {}
    config = read_json_object(args.config, "config file")
    unknown = sorted(config.keys() - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) in {args.config}: "
                         + ", ".join(map(repr, unknown)))
    return config


def _resolve(args: argparse.Namespace, options: Sequence[tuple], config: dict) -> None:
    """Set each option on ``args``: a flag overrides the config file, which
    overrides the default.  Only a flag or config value is converted."""
    for name, default, convert, _ in options:
        if convert is None:
            continue
        value = getattr(args, name, None)
        given = value is not None or name in config
        if value is None:
            value = config.get(name, default)
        try:
            setattr(args, name, convert(value) if given else value)
        except (TypeError, ValueError):
            raise ValueError(f"invalid value for {name}: {value!r}") from None


def _resolve_run_config(args: argparse.Namespace,
                        options: Sequence[tuple]) -> argparse.Namespace:
    _resolve(args, options, _read_config(args))
    args.hash_params = HashParams(args.m, args.rounds, args.true_chi)
    args.layout = RegisterLayout.standard(args.n, args.m)
    if args.auto_zeros or args.zeros == "auto":
        try:
            args.zeros = compute_required_zeros(args.n, args.m)
        except ValueError as exc:
            raise ValueError(f"{exc}: give --zeros") from None
    return args


# -- subcommands ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _dump_circuits(cfg: argparse.Namespace, blocks: Sequence[int]) -> None:
    if not cfg.dump_circuits:
        return
    parts = []
    for label, circuit in (("hash", build_hash_circuit(cfg.layout, blocks, cfg.hash_params)),
                           ("oracle", build_oracle(cfg.layout, cfg.zeros)),
                           ("diffusion", build_diffusion(cfg.layout))):
        parts.append(f"# {label}")
        parts.append(format_circuit(circuit))
        parts.append("")
    Path(cfg.dump_circuits).write_text("\n".join(parts))


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _mine_record_row(miner: str, r: MiningResult) -> list:
    return [miner, r.nonce, r.nonce_bits, r.digest.hex, int(r.success),
            r.grover_iterations_used, _fmt(r.success_probability_at_measurement),
            r.total_gates, r.hashes_tried]


def _header(cfg: argparse.Namespace, prev: int | None) -> BlockHeader:
    return BlockHeader(prev_digest=prev or 0, payload_digest=cfg.payload,
                       timestamp=cfg.timestamp, difficulty_zeros=cfg.zeros,
                       nonce=0)


def cmd_mine(cfg: argparse.Namespace) -> int:
    if cfg.mode not in ("classical", "quantum", "both"):
        raise ValueError(f"mode must be classical, quantum or both, got {cfg.mode!r}")
    hp = cfg.hash_params
    chain, prev = None, cfg.prev
    if cfg.chain_file:
        if prev is not None:
            raise ValueError("prev and chain_file exclude each other: the block "
                             "extends the chain's tip, 0 for a new chain file")
        chain = (load_chain(cfg.chain_file) if Path(cfg.chain_file).exists()
                 else Chain(hash_params=hp, nonce_bits=cfg.n))
        if chain.hash_params != hp or chain.nonce_bits != cfg.n:
            raise ValueError(f"chain file {cfg.chain_file} was built with "
                             f"different parameters")
        prev = chain.tip_digest()

    header = _header(cfg, prev)
    blocks = serialize_header(header, hp)
    params = MiningParams(difficulty_zeros=cfg.zeros, hash_params=hp,
                          max_grover_rounds=cfg.max_grover_rounds,
                          solution_count_hint=cfg.hint, rng_seed=cfg.seed)

    _dump_circuits(cfg, blocks)  # the circuits are the header's, whatever the mode
    results: dict[str, MiningResult] = {}
    if cfg.mode in ("classical", "both"):
        results["classical"] = mine_classical(blocks, params, cfg.n)
    if cfg.mode in ("quantum", "both"):
        results["quantum"] = mine_quantum(blocks, cfg.layout, params, exact_readout=cfg.exact)

    print(f"difficulty: top {cfg.zeros} of {cfg.m} digest bits must be zero "
          f"(nonce space 2^{cfg.n})")
    for miner, res in results.items():
        line = (f"[{miner}] success={'yes' if res.success else 'no'} "
                f"nonce={res.nonce_bits} ({res.nonce}) digest={res.digest.hex}")
        if miner == "quantum":
            line += (f" iterations={res.grover_iterations_used}"
                     f" p_success={_fmt(res.success_probability_at_measurement)}"
                     f" gates={res.total_gates}"
                     f" verify_hashes={res.hashes_tried}"
                     f" readout={'argmax' if cfg.exact else 'sampled'}")
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

    # results run classical first, so a quantum nonce wins when both succeed
    found = [r for r in results.values() if r.success]
    if chain is not None and found:
        header = replace(header, nonce=found[-1].nonce)
        chain.blocks.append(Block(header, header_digest(header, hp)))
        save_chain(chain, cfg.chain_file)
        print(f"appended block {len(chain.blocks) - 1} to {cfg.chain_file}")

    return EXIT_OK if all(r.success for r in results.values()) else EXIT_EXHAUSTED


def cmd_sweep(cfg: argparse.Namespace) -> int:
    k_max = cfg.k_max
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    hp = cfg.hash_params
    blocks = serialize_header(_header(cfg, cfg.prev), hp)
    problem = SearchProblem.build(blocks, cfg.layout, hp, cfg.zeros)
    count = int(problem.marked.sum())  # the solutions, read off the compile
    if count == 0:
        print("no nonce satisfies the difficulty; nothing to sweep")
        return EXIT_EXHAUSTED
    if k_max is None:
        k_max = iteration_count(cfg.n, count)
    _dump_circuits(cfg, blocks)

    rows = []
    for k in range(k_max + 1):
        simulated = float(problem.distribution(k)[problem.marked].sum())
        analytic = analytic_success_probability(cfg.n, count, k)
        rows.append([k, _fmt(simulated), _fmt(analytic),
                     _fmt(abs(simulated - analytic))])
    _write_csv(cfg.csv_out, SWEEP_CSV_HEADER, rows)
    if cfg.csv_out:
        print(f"wrote {len(rows)} rows ({count} solution(s)) to {cfg.csv_out}")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _read_config(args)
    gates_given = args.gates_per_iteration is not None or "gates_per_iteration" in config
    _resolve(args, ESTIMATE_OPTIONS, config)
    source = "assumed"
    if args.measured:
        if gates_given:
            raise ValueError("gates_per_iteration and measured exclude each other: "
                             "--measured counts the gates itself")
        _resolve(args, DESK_OPTIONS, config)
        hp = HashParams(args.m, args.rounds)
        layout = RegisterLayout.standard(args.measure_n, hp.digest_bits)
        args.gates_per_iteration = gates_per_iteration(layout, [0, 0, 0, 0], hp)
        source = f"measured at n={args.measure_n} m={hp.digest_bits} rounds={hp.rounds}"
    elif any(getattr(args, name) is not None for name, *_ in DESK_OPTIONS):
        raise ValueError("--measure-n, --m and --rounds apply only with --measured")

    est = estimate_resources(args.n, args.hash_rate, args.gate_time,
                             args.gates_per_iteration)
    print(f"nonce space: 2^{args.n}")
    print(f"classical: hashes={est.classical_hashes}"
          f" seconds={est.classical_seconds:.6g}"
          f" hours={est.classical_hours:.6g}"
          f" days={est.classical_days:.6g}")
    print(f"quantum:   iterations={est.quantum_iterations}"
          f" gates={est.quantum_gate_count}"
          f" seconds={est.quantum_seconds:.6g}")
    print(f"assumptions: hash_rate={args.hash_rate:.6g}/s"
          f" gate_time={args.gate_time:.6g}s"
          f" gates_per_iteration={args.gates_per_iteration} ({source})")
    return EXIT_OK


def cmd_chain_validate(path: str) -> int:
    chain = load_chain(path)
    reasons = chain.validate()
    if not reasons:
        print(f"chain OK ({len(chain.blocks)} block(s))")
        return EXIT_OK
    for reason in reasons:
        print(f"invalid: {reason}")
    return EXIT_INVALID_CHAIN


def cmd_chain_show(path: str) -> int:
    chain = load_chain(path)
    hp = chain.hash_params
    print(f"chain: {len(chain.blocks)} block(s), digest_bits={hp.digest_bits} "
          f"rounds={hp.rounds} nonce_bits={chain.nonce_bits}")
    print("index prev     digest   zeros nonce timestamp")
    w = hex_digits(hp.digest_bits)
    for i, b in enumerate(chain.blocks):
        prev = format(b.header.prev_digest, f"0{w}x")
        print(f"{i:<5d} {prev:<9}{b.digest.hex:<9}{b.header.difficulty_zeros:<6d}"
              f"{b.header.nonce:<6d}{b.header.timestamp}")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _add_flags(parser: argparse.ArgumentParser, options: Sequence[tuple]) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name, _, _, flag in options:
        parser.add_argument("--" + name.replace("_", "-"), **flag)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="qmine",
        description="Grover-search proof-of-work mining on a simulated "
                    "quantum register, with a classical baseline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options in (
            ("mine", "mine one block classically and/or on the simulated "
                     "quantum register", RUN_OPTIONS + MINE_OPTIONS),
            ("sweep", "success probability vs iteration count, simulated "
                      "and analytic", RUN_OPTIONS + SWEEP_OPTIONS),
            ("estimate", "classical vs quantum resource projection",
             ESTIMATE_OPTIONS + DESK_OPTIONS)):
        _add_flags(sub.add_parser(name, help=help_text), options)

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
            return cmd_mine(_resolve_run_config(args, RUN_OPTIONS + MINE_OPTIONS))
        if args.command == "sweep":
            return cmd_sweep(_resolve_run_config(args, RUN_OPTIONS))
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
