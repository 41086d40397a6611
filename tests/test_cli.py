import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import HashParams, enumerate_solutions, load_chain
from qmine.chain import Chain, save_chain
from qmine.cli import (EXIT_EXHAUSTED, EXIT_INVALID_CHAIN, EXIT_OK, EXIT_USAGE,
                       estimate_resources, main, measured_gates_per_iteration)


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
        save_chain(Chain(hash_params=HashParams(8, 2), nonce_bits=4), chain_file)
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
        gpi = measured_gates_per_iteration(4, HashParams(8, 2), 5)
        assert f"gates_per_iteration={gpi}" in out
        assert gpi > 100

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
