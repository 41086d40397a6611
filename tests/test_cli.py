import copy
import csv
import itertools
import json
import re
import runpy
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Block, BlockHeader, HashParams, SearchProblem,
                   enumerate_solutions, estimate_resources, hash_classical,
                   load_chain)
from qmine import RegisterLayout, cli
import qmine.miner
from qmine.chain import Chain, header_digest, save_chain
from qmine.cli import EXIT_EXHAUSTED, EXIT_INVALID_CHAIN, EXIT_OK, EXIT_USAGE, main
from helpers import reference_walk, simulated_gates_per_iteration


def find_cli_header(n, m, rounds, zeros, count, prev=0):
    """Payload/timestamp pair whose serialized header [prev, payload, ts,
    zeros] has exactly ``count`` solutions."""
    params = HashParams(m, rounds)
    for payload in range(params.mask + 1):
        for ts in range(16):
            blocks = [prev, payload, ts, zeros]
            solutions = enumerate_solutions(blocks, params, n, zeros)
            if len(solutions) == count:
                return payload, ts, solutions
    raise AssertionError("no suitable header found")


def valid_chain(length=2):
    """A chain of ``length`` valid blocks (n=4, m=8, rounds=2, zeros=4)."""
    params = HashParams(8, 2)
    chain = Chain(hash_params=params, nonce_bits=4)
    for ts in range(64):
        blocks = [chain.tip_digest(), 0, ts, 4]
        solutions = enumerate_solutions(blocks, params, 4, 4)
        if solutions:
            header = BlockHeader(*blocks, solutions[0])
            chain.blocks.append(Block(header, header_digest(header, params)))
        if len(chain.blocks) == length:
            return chain
    raise AssertionError("no suitable headers found")


DATA = Path(__file__).parent / "data"
SWEEP_BASE = ["--n", "4", "--m", "8", "--rounds", "2", "--zeros", "4"]
BASE = [*SWEEP_BASE, "--seed", "1"]
GOLDEN_CHAIN_SHOW = ("chain: 2 block(s), digest_bits=8 rounds=2 nonce_bits=4\n"
                     "index prev     digest   zeros nonce timestamp\n"
                     "0     00       1b       1     1     7\n"
                     "1     1b       29       1     0     8\n")


class TestMineCommand:
    def test_both_modes_agree(self, capsys):
        payload, ts, solutions = find_cli_header(4, 8, 2, 4, 1)
        code = main(["mine", *BASE, "--payload", format(payload, "x"),
                     "--timestamp", str(ts), "--mode", "both", "--exact"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 2
        want = format(solutions[0], "04b")
        assert all(f"nonce={want}" in line for line in lines)
        assert "both miners found a solution (same nonce)" in out

    def test_no_solution_exits_3(self, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 8, 0)
        code = main(["mine", "--n", "4", "--m", "8", "--rounds", "2",
                     "--zeros", "8", "--seed", "1", "--payload",
                     format(payload, "x"), "--timestamp", str(ts),
                     "--mode", "both", "--exact"])
        assert code == EXIT_EXHAUSTED
        assert "no solution exists" in capsys.readouterr().out

    def test_nonce_wider_than_hash_exits_2(self, capsys):
        code = main(["mine", "--n", "9", "--m", "8", "--zeros", "4"])
        assert code == EXIT_USAGE
        assert "nonce_bits must be in 1..8, got 9" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, readout", [("--exact", "argmax"),
                                               ("--no-exact", "sampled")])
    def test_quantum_line_names_its_readout(self, capsys, flag, readout):
        main(["mine", *BASE, "--mode", "both", flag])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[")]
        assert lines[0].startswith("[classical]") and "readout=" not in lines[0]
        assert lines[1].startswith("[quantum]")
        assert re.search(rf" verify_hashes=\d+ readout={readout}$", lines[1])

    @pytest.mark.parametrize("flag", ["--prev", "--payload"])
    @pytest.mark.parametrize("value", ["0x0b", "-3", "2_9", " 29 "])
    def test_hex_flag_takes_only_hex_digits(self, capsys, flag, value):
        assert main(["mine", *BASE, f"{flag}={value}"]) == EXIT_USAGE
        assert (capsys.readouterr().err
                == f"error: invalid value for {flag[2:]}: {value!r}\n")

    def test_quantum_mine_past_the_state_vector_cap(self, capsys):
        # 33 qubits: mining keeps 2^16 amplitudes, never the 2^33-entry state
        code = main(["mine", "--n", "16", "--m", "16", "--zeros", "8",
                     "--mode", "quantum"])
        assert code == EXIT_OK
        nonce = int(re.search(r"nonce=[01]{16} \((\d+)\)",
                              capsys.readouterr().out).group(1))
        assert hash_classical([0, 0, 0, 8, nonce],
                              HashParams(16, 2)).meets_difficulty(8)

    def test_chain_building_and_validation(self, tmp_path, capsys):
        chain_file = str(tmp_path / "chain.json")
        for payload, ts in ((0x00, 2), (0x00, 6)):
            code = main(["mine", *BASE, "--payload", format(payload, "x"),
                         "--timestamp", str(ts), "--mode", "quantum",
                         "--exact", "--chain-file", chain_file])
            assert code == EXIT_OK
        chain = load_chain(chain_file)
        assert len(chain.blocks) == 2
        assert chain.blocks[1].header.prev_digest == chain.blocks[0].digest.value

        assert main(["chain", "validate", "--chain-file", chain_file]) == EXIT_OK
        assert "chain OK (2 block(s))" in capsys.readouterr().out

        assert main(["chain", "show", "--chain-file", chain_file]) == EXIT_OK
        shown = capsys.readouterr().out
        assert "2 block(s)" in shown

        # corrupt a digest: validation must fail with exit 1
        text = (tmp_path / "chain.json").read_text()
        broken = text.replace(f'"digest": "{chain.blocks[0].digest.hex}"',
                              '"digest": "7f"', 1)
        (tmp_path / "chain.json").write_text(broken)
        assert main(["chain", "validate",
                     "--chain-file", chain_file]) == EXIT_INVALID_CHAIN

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_prev_with_a_chain_file_is_refused(self, tmp_path, capsys, existing, source):
        # the block extends the chain's tip (0 for a new file), so a prev
        # given beside a chain file is a usage error: nothing is mined and
        # no file is written or changed
        chain_file = tmp_path / "chain.json"
        if existing:
            save_chain(valid_chain(), chain_file)
        before = chain_file.read_text() if existing else None
        argv = ["mine", *BASE, "--mode", "classical", "--chain-file", str(chain_file)]
        if source == "flag":
            argv += ["--prev", "5"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"prev": "5"}))
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: prev and chain_file exclude each other")
        assert (chain_file.read_text() if chain_file.exists() else None) == before

    def test_chain_show_golden(self, capsys):
        assert main(["chain", "show", "--chain-file",
                     str(DATA / "golden_chain.json")]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_CHAIN_SHOW

    def test_chain_show_wide_genesis_prev(self, tmp_path, capsys):
        # a prev_digest wider than the digest is shown in full, not cut to
        # the digest's two hex digits, and the columns after it stay aligned
        payload = json.loads((DATA / "golden_chain.json").read_text())
        payload["blocks"][0]["prev_digest"] = "1ffff"
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(payload))
        assert main(["chain", "show", "--chain-file", str(chain_file)]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_CHAIN_SHOW.replace(
            "0     00       1b", "0     1ffff    1b")

    @pytest.mark.parametrize("nonce", ["10", "fff"])
    def test_out_of_range_nonce_is_one_invalid_block(self, tmp_path, capsys, nonce):
        # n=4, m=8: 0x10 fits a sponge block but not the nonce register;
        # 0xfff fits neither and must not reach the hash
        chain_file = tmp_path / "chain.json"
        save_chain(valid_chain(1), chain_file)
        payload = json.loads(chain_file.read_text())
        payload["blocks"][0]["nonce"] = nonce
        chain_file.write_text(json.dumps(payload))
        assert main(["chain", "validate",
                     "--chain-file", str(chain_file)]) == EXIT_INVALID_CHAIN
        captured = capsys.readouterr()
        assert captured.out.splitlines().count("invalid: block 0: nonce-range") == 1
        assert captured.err == ""

    @pytest.mark.parametrize("field, value", [
        ("prev_digest", "1ff"), ("payload_digest", "100"),
        ("difficulty_zeros", 9), ("timestamp", -1)])
    def test_out_of_range_header_field_is_one_invalid_block(self, tmp_path, capsys,
                                                            field, value):
        # n=4, m=8: each value is one serialize_header rejects
        chain_file = tmp_path / "chain.json"
        save_chain(valid_chain(1), chain_file)
        payload = json.loads(chain_file.read_text())
        payload["blocks"][0][field] = value
        chain_file.write_text(json.dumps(payload))
        assert main(["chain", "validate",
                     "--chain-file", str(chain_file)]) == EXIT_INVALID_CHAIN
        captured = capsys.readouterr()
        assert captured.out.splitlines().count("invalid: block 0: header-range") == 1
        assert captured.err == ""

    def test_chain_takes_the_quantum_nonce_when_both_succeed(self, tmp_path, capsys):
        chain_file = tmp_path / "chain.json"
        code = main(["mine", "--n", "4", "--m", "8", "--rounds", "2", "--zeros", "1",
                     "--payload", "00", "--timestamp", "2",
                     "--chain-file", str(chain_file)])
        out = capsys.readouterr().out
        assert code == EXIT_OK and "different valid nonces" in out
        quantum = int(re.search(r"\[quantum\] success=yes nonce=[01]+ \((\d+)\)",
                                out).group(1))
        assert load_chain(chain_file).blocks[0].header.nonce == quantum

    def test_csv_out(self, tmp_path, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        out_file = tmp_path / "runs.csv"
        main(["mine", *BASE, "--payload", format(payload, "x"),
              "--timestamp", str(ts), "--mode", "both", "--exact",
              "--csv-out", str(out_file)])
        capsys.readouterr()
        with open(out_file) as f:
            rows = list(csv.DictReader(f))
        assert [r["miner"] for r in rows] == ["classical", "quantum"]
        assert all(r["success"] == "1" for r in rows)

    def test_dump_circuits(self, tmp_path, capsys):
        dump = tmp_path / "circuits.txt"
        main(["mine", *BASE, "--mode", "quantum", "--exact",
              "--dump-circuits", str(dump)])
        capsys.readouterr()
        text = dump.read_text()
        assert text.startswith("# hash\n")
        assert "# oracle" in text and "# diffusion" in text
        assert "MCX" in text and "SWAP" in text

    @pytest.mark.parametrize("readout", [[], ["--exact"]], ids=["sampled", "exact"])
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_dump_does_not_perturb_the_mine(self, tmp_path, capsys, readout, count):
        # the dump builds its own circuits; the mine must not see them
        payload, ts, _ = find_cli_header(4, 8, 2, 4, count)
        argv = ["mine", *BASE, "--payload", format(payload, "x"), "--timestamp",
                str(ts), "--mode", "both", *readout]

        def run(*extra):
            code = main([*argv, "--csv-out", str(tmp_path / "runs.csv"), *extra])
            return code, capsys.readouterr(), (tmp_path / "runs.csv").read_bytes()

        plain = run()
        assert run("--dump-circuits", str(tmp_path / "c.txt")) == plain
        assert (tmp_path / "c.txt").read_text().startswith("# hash\n")

    def test_dump_compiles_no_second_search(self, tmp_path, capsys, monkeypatch):
        # mine and sweep each compile one search, the one they run, and dump
        # the same circuits from the builders
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        header = ["--payload", format(payload, "x"), "--timestamp", str(ts)]
        builds, build = [], SearchProblem.build

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(SearchProblem, "build", counted)
        for command, flags in (("mine", ["--mode", "quantum", "--exact"]), ("sweep", [])):
            builds.clear()
            assert main([command, *SWEEP_BASE, *header, *flags,
                         "--dump-circuits", str(tmp_path / f"{command}.txt")]) == EXIT_OK
            assert len(builds) == 1, command
        capsys.readouterr()
        assert (tmp_path / "mine.txt").read_bytes() == (tmp_path / "sweep.txt").read_bytes()

    def test_dump_circuits_golden(self, tmp_path, capsys):
        # hash, oracle and diffusion of (4, 8, 2) at zeros 4, frozen byte for byte
        dump = tmp_path / "circuits.txt"
        code = main(["mine", "--n", "4", "--m", "8", "--rounds", "2", "--zeros", "4",
                     "--payload", "5a", "--timestamp", "3", "--mode", "quantum",
                     "--exact", "--dump-circuits", str(dump)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert dump.read_bytes() == (DATA / "golden_mine_dump.txt").read_bytes()

    def test_every_mode_dumps_the_same_circuits(self, tmp_path, capsys):
        # the circuits are the header's, so a classical mine dumps them too
        argv = ["mine", "--n", "4", "--m", "8", "--rounds", "2", "--zeros", "4",
                "--payload", "5a", "--timestamp", "3"]
        for mode in ("classical", "quantum", "both"):
            main([*argv, "--mode", mode, "--dump-circuits", str(tmp_path / f"{mode}.txt")])
        capsys.readouterr()
        golden = (DATA / "golden_mine_dump.txt").read_bytes()
        for mode in ("classical", "quantum", "both"):
            assert (tmp_path / f"{mode}.txt").read_bytes() == golden, mode

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        payload, ts, solutions = find_cli_header(4, 8, 2, 4, 1)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "n": 4, "m": 8, "rounds": 2, "zeros": 8, "seed": 1,
            "payload": format(payload, "x"), "timestamp": ts,
            "mode": "classical"}))
        # --zeros on the command line overrides the config's zeros=8
        code = main(["mine", "--config", str(config), "--zeros", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "top 4 of 8" in out


# a value for every config key, none of them its default
OPTION_VALUES = {"n": 3, "m": 9, "rounds": 1, "zeros": 2, "true_chi": True, "seed": 1,
                 "prev": "01", "payload": "01", "timestamp": 3, "csv_out": "out.csv",
                 "dump_circuits": "dump.txt", "mode": "quantum", "exact": True,
                 "max_grover_rounds": 1, "hint": 1, "chain_file": "chain.json",
                 "hash_rate": 1e6, "gate_time": 2e-9, "gates_per_iteration": 5,
                 "measured": True, "measure_n": 3}
RUN_CONFIG = {"n": 4, "m": 8, "rounds": 2, "zeros": 1, "payload": "00", "timestamp": 3}


def config_keys(*tables):
    return [name for name, _, convert, _ in itertools.chain(*tables) if convert]


OPTION_CASES = (
    [("mine", key) for key in config_keys(cli.RUN_OPTIONS, cli.MINE_OPTIONS)]
    + [("sweep", key) for key in config_keys(cli.RUN_OPTIONS)]
    + [("estimate", key) for key in config_keys(cli.ESTIMATE_OPTIONS, cli.DESK_OPTIONS)])


class TestOptionSources:
    """Every option is one declaration: the same value given as a flag or
    as the same-named config key gives the same run."""

    def observe(self, tmp_path, monkeypatch, capsys, argv, config):
        tmp_path.mkdir()
        (tmp_path / "run.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--config", "run.json"])
        files = {f.name: f.read_text() for f in sorted(tmp_path.iterdir())
                 if f.name != "run.json"}
        return code, capsys.readouterr().out, files

    @pytest.mark.parametrize("command, key", OPTION_CASES,
                             ids=[f"{c}-{k}" for c, k in OPTION_CASES])
    def test_flag_equals_config_key(self, tmp_path, monkeypatch, capsys, command, key):
        value = OPTION_VALUES[key]
        if command == "estimate":
            base = {"measured": True} if key in config_keys(cli.DESK_OPTIONS) else {}
        else:
            base = {k: v for k, v in RUN_CONFIG.items() if k != key}
        flag = "--" + key.replace("_", "-")
        flags = [flag] if value is True else [flag, str(value)]
        by_flag = self.observe(tmp_path / "flag", monkeypatch, capsys,
                               [command, *flags], base)
        by_key = self.observe(tmp_path / "key", monkeypatch, capsys,
                              [command], {**base, key: value})
        neither = self.observe(tmp_path / "neither", monkeypatch, capsys,
                               [command], base)
        assert by_flag == by_key
        assert by_key != neither  # the value took effect


class TestOneParser:
    def test_alternating_argvs_share_one_parser(self, monkeypatch, capsys):
        seen = []

        def record(opts):
            seen.append(opts if isinstance(opts, str) else dict(vars(opts)))
            return EXIT_OK

        monkeypatch.setattr(cli, "cmd_mine", record)
        monkeypatch.setattr(cli, "cmd_chain_validate", record)
        parser = cli.build_parser()
        for argv in (["mine", "--exact"], ["mine"], ["mine", "--true-chi"],
                     ["mine", "--no-true-chi"], ["mine"],
                     ["chain", "validate", "--chain-file", "c.json"], ["mine"]):
            assert main(argv) == EXIT_OK
        assert cli.build_parser() is parser
        plain = seen[1]
        assert seen[0]["exact"] is True and plain["exact"] is False
        assert seen[2]["true_chi"] is True and seen[3]["true_chi"] is False
        assert seen[4] == plain and seen[6] == plain
        assert seen[5] == "c.json"
        assert vars(parser.parse_args(["chain", "validate", "--chain-file", "c.json"])) == {
            "command": "chain", "chain_command": "validate", "chain_file": "c.json"}


class TestMalformedInput:
    """Bad input files exit 2 with a one-line message, never a traceback."""

    def write_chain(self, tmp_path, edit):
        chain_file = tmp_path / "chain.json"
        save_chain(valid_chain(), chain_file)
        payload = json.loads(chain_file.read_text())
        chain_file.write_text(json.dumps(edit(payload)))
        return str(chain_file)

    def assert_usage_error(self, capsys, argv, text):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and text in err

    def test_chain_without_blocks(self, tmp_path, capsys):
        chain_file = self.write_chain(
            tmp_path, lambda p: {k: v for k, v in p.items() if k != "blocks"})
        self.assert_usage_error(capsys, ["chain", "validate", "--chain-file",
                                         chain_file], "'blocks'")

    def test_chain_that_is_a_list(self, tmp_path, capsys):
        chain_file = self.write_chain(tmp_path, lambda p: [p])
        self.assert_usage_error(capsys, ["chain", "show", "--chain-file",
                                         chain_file], "JSON object")

    def test_config_null_value(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": None}))
        self.assert_usage_error(capsys, ["mine", "--config", str(config)],
                                "invalid value for n")

    @pytest.mark.parametrize("edit, text", [
        (lambda p: {**p, "hash_params": {**p["hash_params"], "rounds": 2.0}},
         "expected an integer, got 2.0"),
        (lambda p: {**p, "hash_params": {**p["hash_params"], "true_chi": "no"}},
         "expected true or false, got 'no'"),
        (lambda p: {**p, "nonce_bits": 10 ** 30}, "nonce_bits must be in 1..8"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "timestamp": "3"}]},
         "expected an integer, got '3'"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "nonce": "zz"}]},
         "expected a hex string, got 'zz'"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "digest": 5}]},
         "expected a hex string, got 5"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "digest": "0x29"}]},
         "expected a hex string, got '0x29'"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "nonce": "-3"}]},
         "expected a hex string, got '-3'"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "prev_digest": "2_9"}]},
         "expected a hex string, got '2_9'"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "payload_digest": " 29 "}]},
         "expected a hex string, got ' 29 '"),
        (lambda p: {**p, "blocks": [{**p["blocks"][0], "digest": "1ff"}]},
         "digest value 0x1ff does not fit in 8 bits"),
    ], ids=["float-rounds", "string-true-chi", "huge-nonce-bits",
            "string-timestamp", "non-hex-nonce", "int-digest", "prefixed-digest",
            "signed-nonce", "underscored-prev", "spaced-payload", "wide-digest"])
    def test_mistyped_chain_value(self, tmp_path, capsys, edit, text):
        chain_file = self.write_chain(tmp_path, edit)
        self.assert_usage_error(capsys, ["chain", "validate", "--chain-file",
                                         chain_file], text)

    @pytest.mark.parametrize("flags", [["--rounds", "3"], ["--n", "5"]],
                             ids=["other-rounds", "other-nonce-width"])
    def test_chain_file_built_with_other_parameters(self, tmp_path, capsys, flags):
        chain_file = self.write_chain(tmp_path, lambda p: p)  # n=4, m=8, rounds=2
        self.assert_usage_error(capsys, ["mine", *SWEEP_BASE, *flags, "--mode", "classical",
                                         "--chain-file", chain_file],
                                f"chain file {chain_file} was built with different parameters")

    @pytest.mark.parametrize("command", ["chain", "mine"])
    def test_deeply_nested_file(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = (["chain", "show", "--chain-file", str(deep)] if command == "chain"
                else ["mine", "--config", str(deep)])
        self.assert_usage_error(capsys, argv, "nested too deeply")

    @pytest.mark.parametrize("config, key", [
        ({"exact": "false"}, "exact"),
        ({"true_chi": "false"}, "true_chi"),
        ({"n": 4.7}, "n"),
        ({"n": True}, "n"),
        ({"prev": 128}, "prev"),
        ({"prev": "0x10"}, "prev: '0x10'"),
        ({"csv_out": 5}, "csv_out"),
        ({"seed": -1}, "seed: -1"),
        ({"hash_rate": "fast"}, "hash_rate: 'fast'"),
        ({"gate_time": True}, "gate_time: True"),
    ], ids=["string-exact", "string-true-chi", "float-n", "bool-n", "int-prev",
            "prefixed-prev", "int-csv-out", "negative-seed", "string-hash-rate",
            "bool-gate-time"])
    def test_mistyped_config_value(self, tmp_path, capsys, config, key):
        # mine does not read estimate's keys, so those go through estimate
        command = "estimate" if key.startswith(("hash_rate", "gate_time")) else "mine"
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mode": "classical", **config}))
        self.assert_usage_error(capsys, [command, "--config", str(path)],
                                f"invalid value for {key}")

    @pytest.mark.parametrize("mode", ["classical", "quantum", "both"])
    def test_negative_seed_flag(self, capsys, mode):
        self.assert_usage_error(capsys, ["mine", "--seed", "-1", "--mode", mode],
                                "invalid value for seed: -1")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("mode", ["classical", "quantum", "both"])
    def test_hint_of_zero(self, tmp_path, capsys, source, mode):
        # a stated count of 0 is refused like any count below 1, not read
        # as no hint
        argv = ["mine", "--mode", mode, *SWEEP_BASE]
        if source == "flag":
            argv += ["--hint", "0"]
        else:
            (tmp_path / "run.json").write_text(json.dumps({"hint": 0}))
            argv += ["--config", str(tmp_path / "run.json")]
        self.assert_usage_error(capsys, argv, "solution_count_hint must be >= 1 when given")

    def test_config_null_hint(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"hint": None}))
        self.assert_usage_error(capsys, ["mine", "--config", str(config)],
                                "invalid value for hint: None")

    @pytest.mark.parametrize("mode", ["classical", "quantum", "both"])
    def test_unwritable_dump_exits_before_mining(self, tmp_path, capsys, mode):
        chain_file = tmp_path / "chain.json"
        code = main(["mine", *BASE, "--mode", mode, "--chain-file", str(chain_file),
                     "--dump-circuits", str(tmp_path / "missing" / "c.txt")])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (EXIT_USAGE, "", 1) and "c.txt" in err
        assert not chain_file.exists()

    def test_negative_k_max(self, tmp_path, capsys):
        csv_file = tmp_path / "sweep.csv"
        self.assert_usage_error(capsys, ["sweep", *SWEEP_BASE, "--k-max", "-1",
                                         "--csv-out", str(csv_file)], "k_max")
        assert not csv_file.exists()

    @pytest.mark.parametrize("flags, text", [
        (["--n", "1024"], "nonce bits must be in 0..1023, got 1024"),
        (["--n", "10000000000"], "got 10000000000"),  # checked before 2^n is built
        (["--n", "1023", "--gates-per-iteration", str(10 ** 200)],
         "overflows a float"),
        (["--hash-rate", "1e-320"], "the projected time overflows a float"),
        (["--gate-time", "1e308", "--gates-per-iteration", "1000000000"],
         "the projected time overflows a float"),
        (["--hash-rate", "nan"], "positive and finite"),
        (["--gate-time", "inf"], "positive and finite"),
    ], ids=["n-1024", "n-ten-billion", "huge-gates-per-iteration", "tiny-hash-rate",
            "huge-gate-time", "nan-hash-rate", "infinite-gate-time"])
    def test_estimate_out_of_float_range(self, capsys, flags, text):
        self.assert_usage_error(capsys, ["estimate", *flags], text)

    @pytest.mark.parametrize("flags, text", [
        (["--measure-n", "0"], "nonce_bits must be in 1..8, got 0"),
        (["--measure-n", "9", "--m", "8"], "nonce_bits must be in 1..8, got 9"),
        (["--measure-n", "16", "--m", "4"], "nonce_bits must be in 1..4, got 16"),
        (["--m", "17"], "digest_bits must be in 4..16, got 17"),
        (["--rounds", "9"], "rounds must be in 1..8, got 9"),
    ], ids=["n-0", "n-equals-m", "n-above-m", "m-17", "rounds-9"])
    def test_measured_estimate_out_of_range(self, capsys, flags, text):
        # checked in the order a search build checks them, with its messages
        assert main(["estimate", "--measured", *flags]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {text}\n")

    @pytest.mark.parametrize("flags, text", [
        (["--n", "0"], "nonce_bits must be in 1..8, got 0"),
        (["--n", "9", "--m", "8"], "nonce_bits must be in 1..8, got 9"),
        (["--zeros", "9", "--m", "8"], "zeros must be in 0..8, got 9"),
    ], ids=["n-0", "n-above-m", "zeros-above-m"])
    def test_one_message_per_input_rule(self, tmp_path, capsys, flags, text):
        # each rule has one owner, so every command that checks it says the same
        argvs = [["mine", *flags], ["sweep", *flags]]
        if "--zeros" not in flags:  # estimate and a chain file take no difficulty
            argvs.append(["estimate", "--measured",
                          *("--measure-n" if f == "--n" else f for f in flags)])
            payload = json.loads((DATA / "golden_chain.json").read_text())  # m = 8
            payload["nonce_bits"] = int(flags[1])
            chain_file = tmp_path / "chain.json"
            chain_file.write_text(json.dumps(payload))
            argvs += [["chain", command, "--chain-file", str(chain_file)]
                      for command in ("validate", "show")]
        for argv in argvs:
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr() == ("", f"error: {text}\n")

    @pytest.mark.parametrize("argv, flag", [
        (["mine"], "--n"), (["sweep"], "--n"), (["estimate", "--measured"], "--measure-n"),
    ], ids=["mine", "sweep", "estimate-measured"])
    def test_wide_nonce_refused_before_its_register_is_built(self, capsys, argv, flag):
        # a register of 10^10 qubits does not fit in memory: the width alone
        # is checked, so the refusal allocates next to nothing
        cli.build_parser()
        tracemalloc.start()
        try:
            code = main([*argv, flag, "10000000000", "--m", "8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and peak < 1 << 20
        assert capsys.readouterr() == (
            "", "error: nonce_bits must be in 1..8, got 10000000000\n")

    @pytest.mark.parametrize("command", ["mine", "sweep"])
    def test_automatic_difficulty_wider_than_the_digest(self, capsys, command):
        # n = m is a valid register, but its n+1 zeros need --zeros
        assert main([command, "--n", "16", "--m", "16"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: the automatic difficulty of n+1 = 17 zeros does not fit "
                "the 16-bit digest: give --zeros\n")

    @pytest.mark.parametrize("flags", [["--zeros", "5"], ["--true-chi"]])
    def test_estimate_takes_no_difficulty_flag(self, capsys, flags):
        # the count reads n, m and rounds only
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--measured", *flags])
        assert exit_info.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_estimate_reads_no_difficulty_key(self, tmp_path, capsys):
        # a config file shared with mine may carry them; estimate never reads them
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"m": 8, "zeros": 99, "true_chi": "no"}))
        assert main(["estimate", "--measured", "--config", str(config)]) == EXIT_OK
        by_config = capsys.readouterr()
        assert main(["estimate", "--measured", "--m", "8"]) == EXIT_OK
        assert capsys.readouterr() == by_config


    @pytest.mark.parametrize("command", ["mine", "sweep", "estimate"])
    def test_unknown_config_key(self, tmp_path, monkeypatch, capsys, command):
        # a misspelt key is named and nothing runs, not a run at the default
        monkeypatch.chdir(tmp_path)
        Path("typo.json").write_text(json.dumps(
            {"mode": "classical", "zeroes": 8, "chain_file": "c.json"}))
        assert main([command, "--config", "typo.json"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: unknown config key(s) in typo.json: 'zeroes'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["typo.json"]

    def test_unknown_config_keys_are_all_named(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 4, "k_max": 3, "auto_zeros": True}))
        self.assert_usage_error(capsys, ["sweep", "--config", str(config)],
                                "'auto_zeros', 'k_max'")

    @pytest.mark.parametrize("command", ["mine", "sweep", "estimate"])
    def test_one_config_file_serves_every_command(self, tmp_path, capsys, command):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN_CONFIG, "zeros": 4, "timestamp": 2,
                                      "exact": True, "seed": 1, "hash_rate": 1e6,
                                      "measured": True, "measure_n": 3}))
        assert main([command, "--config", str(config)]) == EXIT_OK


# integral floats in range are the mistype most likely to slip through
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(-1, 17).map(float) | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)

# solvable with exactly one nonce, so a fuzzed budget never runs long
VALID_CONFIG = {"n": 4, "m": 8, "rounds": 2, "zeros": 4, "true_chi": False,
                "prev": "0", "payload": "0", "timestamp": 2, "seed": 1,
                "mode": "both", "exact": True, "max_grover_rounds": 3, "hint": 1}


def json_paths(document, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(document, dict):
        children = document.items()
    elif isinstance(document, list):
        children = enumerate(document)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def replace_at(document, path, value):
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


class TestInputFuzz:
    """One value of a valid chain or config file replaced by arbitrary
    JSON: every run ends with a documented exit code, never an exception."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.fixture(scope="class")
    def chain_document(self, workdir):
        save_chain(valid_chain(), workdir / "valid.json")
        return json.loads((workdir / "valid.json").read_text())

    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=50)
    def test_chain_file(self, workdir, chain_document, data):
        path = data.draw(st.sampled_from(list(json_paths(chain_document))))
        chain_file = workdir / "chain.json"
        chain_file.write_text(json.dumps(
            replace_at(chain_document, path, data.draw(JSON_VALUES))))
        for command in ("validate", "show"):
            assert main(["chain", command, "--chain-file", str(chain_file)]) in range(4)

    @given(key=st.sampled_from(sorted(VALID_CONFIG)), value=JSON_VALUES)
    @settings(derandomize=True, deadline=None, max_examples=50)
    def test_config_file(self, workdir, key, value):
        config = workdir / "run.json"
        config.write_text(json.dumps({**VALID_CONFIG, key: value}))
        assert main(["mine", "--config", str(config)]) in range(4)


class TestSweepCommand:
    def test_exact_grover_row(self, capsys):
        payload, ts, _ = find_cli_header(2, 4, 1, 2, 1)
        code = main(["sweep", "--n", "2", "--m", "4", "--rounds", "1",
                     "--zeros", "2", "--payload", format(payload, "x"),
                     "--timestamp", str(ts)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,simulated_p,analytic_p,abs_diff"
        k1 = lines[2].split(",")
        assert k1[0] == "1" and k1[1] == "1" and k1[2] == "1"
        for line in lines[1:]:
            assert float(line.split(",")[3]) < 1e-9

    def test_no_solution_exits_3(self, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 8, 0)
        code = main(["sweep", "--n", "4", "--m", "8", "--rounds", "2",
                     "--zeros", "8", "--payload", format(payload, "x"),
                     "--timestamp", str(ts)])
        assert code == EXIT_EXHAUSTED
        capsys.readouterr()

    def test_overshoot_curve_peaks_at_optimum(self, capsys):
        # pre-searched header with a single solution in the 8-bit nonce space
        header = ["--prev", "80", "--payload", "34", "--timestamp", "240"]
        assert enumerate_solutions([0x80, 0x34, 240, 8], HashParams(8, 2),
                                   8, 8) == [146]
        code = main(["sweep", "--n", "8", "--m", "8", "--rounds", "2",
                     "--zeros", "8", *header, "--k-max", "25"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        simulated = [float(line.split(",")[1]) for line in lines[1:]]
        assert int(np.argmax(simulated)) == 12
        assert simulated[25] < simulated[12]

    def test_rows_equal_the_reference_walk(self, capsys):
        # every row's simulated_p is the solutions' mass of the one-step
        # integer walk at its k
        payload, ts, solutions = find_cli_header(4, 8, 2, 4, 1)
        header, layout = [0, payload, ts, 4], RegisterLayout.standard(4, 8)
        marked = SearchProblem.build(header, layout, HashParams(8, 2), 4).marked
        k_max = 40
        expected = [cli._fmt(float(reference_walk(marked, k)[solutions].sum()))
                    for k in range(k_max + 1)]
        assert main(["sweep", *SWEEP_BASE, "--payload", format(payload, "x"),
                     "--timestamp", str(ts), "--k-max", str(k_max)]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [row[1] for row in rows] == expected

    def test_deterministic_output(self, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        args = ["sweep", *SWEEP_BASE, "--payload", format(payload, "x"),
                "--timestamp", str(ts), "--k-max", "4"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second and first.startswith("k,")

    def test_seed_flag_is_a_usage_error(self, capsys):
        # a sweep reports exact probabilities: no seed can change it
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", *SWEEP_BASE, "--seed", "1"])
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_config_may_carry_mine_keys(self, tmp_path, capsys):
        # one config file serves mine and sweep, as it does for mode
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        args = ["sweep", *SWEEP_BASE, "--payload", format(payload, "x"),
                "--timestamp", str(ts), "--k-max", "3"]
        assert main(args) == EXIT_OK
        plain = capsys.readouterr().out
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 7, "mode": "quantum"}))
        assert main([*args, "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("config", [{"seed": -1}, {"mode": "bogus"}, {"hint": 0},
                                        {"seed": -1, "mode": "bogus", "exact": "no"}])
    def test_config_mine_values_are_not_read(self, tmp_path, capsys, config):
        # a sweep accepts mine's keys without reading or checking them;
        # mine refuses the same file
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        args = ["sweep", *SWEEP_BASE, "--payload", format(payload, "x"),
                "--timestamp", str(ts), "--k-max", "3"]
        assert main(args) == EXIT_OK
        plain = capsys.readouterr()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert main([*args, "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr() == plain
        assert main(["mine", *SWEEP_BASE, "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_file_output(self, tmp_path, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", *SWEEP_BASE, "--payload", format(payload, "x"),
                     "--timestamp", str(ts), "--k-max", "3",
                     "--csv-out", str(out_file)])
        capsys.readouterr()
        assert code == EXIT_OK
        rows = out_file.read_text().splitlines()
        assert rows[0] == "k,simulated_p,analytic_p,abs_diff"
        assert len(rows) == 5  # header + k=0..3


def test_python_m_qmine_runs_the_cli_without_warnings(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qmine", "estimate", "--n", "16"])
    monkeypatch.delitem(sys.modules, "qmine.__main__", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("qmine", run_name="__main__", alter_sys=True)
    assert exit_info.value.code == EXIT_OK
    assert "nonce space: 2^16" in capsys.readouterr().out


class TestEstimateCommand:
    DESK_FLAGS = [["--measure-n", "3"], ["--m", "12"], ["--rounds", "3"]]

    @staticmethod
    def with_config(tmp_path, argv, config):
        if config is None:
            return argv
        (tmp_path / "run.json").write_text(json.dumps(config))
        return [*argv, "--config", str(tmp_path / "run.json")]

    def test_defaults_match_published_figures(self, capsys):
        assert main(["estimate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hashes=281474976710656" in out
        assert "days=465.402" in out
        assert "iterations=13176794" in out
        assert "seconds=0.0131768" in out

    def test_explicit_gates_per_iteration(self, capsys):
        # ~152 gates/iteration stretches the quantum wall clock to ~2 s
        assert main(["estimate", "--gates-per-iteration", "152"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "seconds=2.00287" in out

    def test_measured_mode(self, capsys):
        code = main(["estimate", "--measured", "--measure-n", "4", "--m", "8",
                     "--rounds", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "(measured at n=4 m=8 rounds=2)" in out
        gpi = simulated_gates_per_iteration(4, HashParams(8, 2), 5)
        assert f"gates_per_iteration={gpi} (measured" in out
        assert gpi > 100

    @pytest.mark.parametrize("flags, gates", [
        (["--measure-n", "4", "--m", "8", "--rounds", "2"], 578),
        (["--measure-n", "16", "--m", "16", "--rounds", "8"], 4550),
        (["--measure-n", "8", "--m", "8"], 602),
    ])
    def test_measured_mode_builds_nothing(self, monkeypatch, capsys, flags, gates):
        # the count comes from the builders' structure: no table, circuit or
        # search problem is built, and no difficulty is derived, so a nonce
        # as wide as the digest counts too
        def refuse(*args, **kwargs):
            raise AssertionError("built to count")

        for name in ("_cached_search_tables", "build_hash_circuit", "build_oracle",
                     "build_diffusion"):
            monkeypatch.setattr(qmine.miner, name, refuse)
        monkeypatch.setattr(SearchProblem, "build", refuse)
        assert main(["estimate", "--measured", *flags]) == EXIT_OK
        assert f"gates_per_iteration={gates} (measured" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, config", [
        (["--measured", "--gates-per-iteration", "152"], None),
        (["--measured"], {"gates_per_iteration": 152}),
        (["--gates-per-iteration", "152"], {"measured": True}),
    ], ids=["flags", "config-gates", "config-measured"])
    def test_measured_refuses_given_gates(self, tmp_path, capsys, flags, config):
        # a given count is not dropped in favour of the measured one
        assert main(self.with_config(tmp_path, ["estimate", *flags], config)) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: gates_per_iteration and measured exclude each other: "
                "--measured counts the gates itself\n")

    @pytest.mark.parametrize("flags", DESK_FLAGS + [["--m", "99"]],
                             ids=["measure-n", "m", "rounds", "m-out-of-range"])
    @pytest.mark.parametrize("measured, config", [
        ([], None), ([], {"measured": False}), (["--no-measured"], {"measured": True}),
    ], ids=["unset", "config-false", "flag-false"])
    def test_desk_flags_need_measured(self, tmp_path, capsys, flags, measured, config):
        # nothing is measured, so a desk-scale flag is refused, not dropped;
        # the config keys of those names stay shareable with mine
        argv = self.with_config(tmp_path, ["estimate", *measured, *flags], config)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: --measure-n, --m and --rounds apply only with --measured\n")

    @pytest.mark.parametrize("flags", DESK_FLAGS, ids=["measure-n", "m", "rounds"])
    def test_desk_flags_with_measured_in_config(self, tmp_path, capsys, flags):
        argv = self.with_config(tmp_path, ["estimate", *flags], {"measured": True})
        assert main(argv) == EXIT_OK
        assert "(measured at n=" in capsys.readouterr().out

    def test_measured_mode_beyond_the_qubit_cap(self, capsys):
        # 16 + 16 + 1 = 33 qubits: counted from the builders, never simulated
        code = main(["estimate", "--measured", "--measure-n", "16", "--m", "16"])
        assert code == EXIT_OK
        assert "gates_per_iteration=" in capsys.readouterr().out

    def test_estimate_invariants(self):
        est = estimate_resources(32, 5e6, 2e-9, 10)
        assert est.classical_hashes == 2 ** 32
        assert est.classical_seconds == est.classical_hashes / 5e6
        assert est.quantum_seconds == est.quantum_iterations * 10 * 2e-9

    def test_scaling_by_sixteen_bits(self):
        small = estimate_resources(32, 7e6, 1e-9, 1)
        large = estimate_resources(48, 7e6, 1e-9, 1)
        assert large.classical_hashes == small.classical_hashes << 16

    @given(n=st.integers(1, 60), gpi=st.integers(1, 1000))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_arithmetic_invariants_over_n(self, n, gpi):
        est = estimate_resources(n, 7e6, 1e-9, gpi)
        assert est.classical_hashes == 2 ** n
        assert est.classical_seconds == est.classical_hashes / 7e6
        assert est.quantum_gate_count == est.quantum_iterations * gpi
        assert est.quantum_seconds == est.quantum_gate_count * 1e-9

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            estimate_resources(8, 0, 1e-9, 1)

    def test_projected_time_past_a_float_rejected(self):
        # finite rates whose projected seconds are inf, classical then quantum
        for args in ((32, 1e-320, 1e-9, 1), (32, 7e6, 1e308, 10 ** 9)):
            with pytest.raises(ValueError, match="the projected time overflows a float"):
                estimate_resources(*args)
