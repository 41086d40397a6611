import copy
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Block, BlockHeader, HashParams, enumerate_solutions,
                   estimate_resources, load_chain)
from qmine.chain import Chain, save_chain
from qmine.cli import EXIT_EXHAUSTED, EXIT_INVALID_CHAIN, EXIT_OK, EXIT_USAGE, main
from helpers import simulated_gates_per_iteration


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
            chain.append(Block.from_header(BlockHeader(*blocks, solutions[0]),
                                           params))
        if len(chain.blocks) == length:
            return chain
    raise AssertionError("no suitable headers found")


BASE = ["--n", "4", "--m", "8", "--rounds", "2", "--zeros", "4", "--seed", "1"]


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
        assert "must not exceed" in capsys.readouterr().err

    def test_capacity_exit_2(self, capsys):
        code = main(["mine", "--n", "16", "--m", "16", "--zeros", "8",
                     "--mode", "quantum"])
        assert code == EXIT_USAGE
        assert "qubits" in capsys.readouterr().err

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
    ], ids=["float-rounds", "string-true-chi", "huge-nonce-bits",
            "string-timestamp"])
    def test_mistyped_chain_value(self, tmp_path, capsys, edit, text):
        chain_file = self.write_chain(tmp_path, edit)
        self.assert_usage_error(capsys, ["chain", "validate", "--chain-file",
                                         chain_file], text)

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
        ({"csv_out": 5}, "csv_out"),
    ], ids=["string-exact", "string-true-chi", "float-n", "bool-n", "int-prev",
            "int-csv-out"])
    def test_mistyped_config_value(self, tmp_path, capsys, config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mode": "classical", **config}))
        self.assert_usage_error(capsys, ["mine", "--config", str(path)],
                                f"invalid value for {key}")


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

    def test_deterministic_output(self, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        args = ["sweep", *BASE, "--payload", format(payload, "x"),
                "--timestamp", str(ts), "--k-max", "4"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second and first.startswith("k,")

    def test_csv_file_output(self, tmp_path, capsys):
        payload, ts, _ = find_cli_header(4, 8, 2, 4, 1)
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", *BASE, "--payload", format(payload, "x"),
                     "--timestamp", str(ts), "--k-max", "3",
                     "--csv-out", str(out_file)])
        capsys.readouterr()
        assert code == EXIT_OK
        rows = out_file.read_text().splitlines()
        assert rows[0] == "k,simulated_p,analytic_p,abs_diff"
        assert len(rows) == 5  # header + k=0..3


class TestEstimateCommand:
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
                     "--rounds", "2", "--zeros", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "measured at n=4" in out
        gpi = simulated_gates_per_iteration(4, HashParams(8, 2), 5)
        assert f"gates_per_iteration={gpi} (measured" in out
        assert gpi > 100

    def test_measured_mode_beyond_the_qubit_cap(self, capsys):
        # 16 + 16 + 1 = 33 qubits: counted from the circuits, never simulated
        code = main(["estimate", "--measured", "--measure-n", "16", "--m", "16",
                     "--zeros", "9"])
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
