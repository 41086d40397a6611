"""Self-test of the benchmark on tiny instances of every workload.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that two runs of one seed give identical counts, that a missing boundary
is reported as unmeasured, and that a miner returning wrong nonces raises
error_rate above 0.  Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from types import SimpleNamespace

from run import OUT_DIR, ROOT

sys.path.insert(0, str(ROOT / "src"))

from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, ChainWorkload, QuantumWorkload, run,  # noqa: E402
                       run_pass, set_up)

SEED = 3
# small enough to finish in seconds: (headers per block, blocks)
TINY = {"mine_narrow": (16, 1), "mine_wide": (4, 1), "chain_classical": (16, 1)}
EXACT_UNITS = ("count", "B")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def tiny(name: str):
    block, blocks = TINY[name]
    return dataclasses.replace(WORKLOADS[name], block=block, min_blocks=blocks)


def check_metrics(name: str, result: dict, declared: list[dict]) -> None:
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    check(emitted == {m["name"]: m["unit"] for m in declared},
          f"{name}: emits exactly the declared metrics with their units")
    missing = [k for k, m in result["metrics"].items() if m["value"] is None]
    check(not missing, f"{name}: every metric measured {missing or ''}")
    check(result["correct"] and result["failed"] == 0, f"{name}: no failed operation")


def lying(original, wrong_nonce):
    """A miner that reports a nonce other than the one it found as a success."""
    def miner(*args, **kwargs):
        r = original(*args, **kwargs)
        return dataclasses.replace(r, nonce=wrong_nonce(r.nonce), success=True)
    return miner


def wrong_nonce_raises_error_rate(name: str) -> None:
    spec = tiny(name)
    wl = (QuantumWorkload if spec.kind == "quantum" else ChainWorkload)(spec, SEED, OUT_DIR)
    try:
        qm, _ = set_up(wl, 1, select=True)
        if spec.kind == "quantum":
            qm.miner.mine_quantum = lying(qm.miner.mine_quantum,
                                          lambda v: (v + 1) % (1 << spec.n))
        else:
            qm.cli.mine_classical = lying(qm.cli.mine_classical,
                                          lambda v: (v + 1) % (1 << spec.n))
        samples = run_pass(wl, spec, 0, spec.exact_n)
    finally:
        wl.close()
    error_rate = sum(s.error for s in samples) / len(samples)
    check(error_rate > 0, f"{name}: wrong nonces raise error_rate above 0")


def missing_boundaries_are_unmeasured() -> None:
    """Against modules that define none of the traced names, every metric
    that needs a boundary is None, not 0."""
    tracer = Tracer()
    tracer.install(SimpleNamespace(miner=None, statevector=None, cli=None, chain=None))
    tracer.mark()
    metrics = layer_metrics(tracer, 1, 0.0)
    check(all((value is None) == bool(LAYER_METRICS[name][1])
              for name, (value, _) in metrics.items()),
          "missing boundaries are reported as unmeasured")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        spec = tiny(name)
        plain = run(spec, SEED, 0, False, OUT_DIR)
        check_metrics(f"{name} end to end", plain, declared["end_to_end"])
        again = run(spec, SEED, 0, False, OUT_DIR)
        check(plain["metrics"]["queries_per_header"] == again["metrics"]["queries_per_header"],
              f"{name}: two runs of seed {SEED} give identical queries_per_header")
        first = run(spec, SEED, 0, True, OUT_DIR)
        check_metrics(f"{name} per layer", first, declared["per_layer"])
        second = run(spec, SEED, 0, True, OUT_DIR)
        counts = [k for k, m in first["metrics"].items() if m["unit"] in EXACT_UNITS]
        check(all(first["metrics"][k] == second["metrics"][k] for k in counts),
              f"{name}: two traced runs of seed {SEED} give identical counts")
        wrong_nonce_raises_error_rate(name)
    missing_boundaries_are_unmeasured()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
