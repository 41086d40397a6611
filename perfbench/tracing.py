"""Spans recorded around qmine's public boundaries, and the per-layer
metrics computed from them.

Each boundary is patched where its caller looks the name up (for example
``qmine.miner.apply_circuit``, which ``grover_iteration`` resolves in the
miner module's globals), so nothing under ``src/`` changes.  A span is
``[name, start, end, parent, info]``; spans stay in memory and are
written once, at the end of the run.  A boundary that no longer exists
makes every metric built on it ``None`` (reported as unmeasured), never 0.
"""

from __future__ import annotations

import csv
import os
import time
from collections import Counter, defaultdict

AMP_BYTES = 16  # complex128

BOUNDARIES = (
    # (module, owner inside the module or "", attribute)
    ("miner", "", "mine_quantum"),
    ("miner", "", "new_zero_state"),
    ("miner", "", "build_hash_circuit"),
    ("miner", "", "invert"),
    ("miner", "", "build_oracle"),
    ("miner", "", "build_diffusion"),
    ("miner", "", "enumerate_solutions"),
    ("miner", "", "prepare"),
    ("miner", "", "apply_circuit"),
    ("miner", "", "hash_classical"),
    ("statevector", "StateVector", "reset"),
    ("statevector", "StateVector", "register_distribution"),
    ("statevector", "StateVector", "measure_register"),
    ("cli", "", "main"),
    ("cli", "", "load_chain"),
    ("cli", "", "save_chain"),
    ("cli", "", "mine_classical"),
    ("chain", "", "hash_classical"),
    ("chain", "Chain", "validate"),
)

MINE = "miner.mine_quantum"
NEW_STATE = "miner.new_zero_state"
BUILDERS = ("miner.build_hash_circuit", "miner.invert", "miner.build_oracle",
            "miner.build_diffusion")
ENUMERATE = "miner.enumerate_solutions"
PREPARE = "miner.prepare"
APPLY = "miner.apply_circuit"
MINER_HASH = "miner.hash_classical"
RESET = "statevector.StateVector.reset"
DISTRIBUTION = "statevector.StateVector.register_distribution"
MEASURE = "statevector.StateVector.measure_register"
CLI_MAIN = "cli.main"
LOAD = "cli.load_chain"
SAVE = "cli.save_chain"
MINE_CLASSICAL = "cli.mine_classical"
CHAIN_HASH = "chain.hash_classical"
VALIDATE = "chain.Chain.validate"

# per-layer metric -> (unit, boundaries it is measured at)
LAYER_METRICS = {
    "miner.hash_s": ("s/header", (APPLY,)),
    "miner.unhash_s": ("s/header", (APPLY,)),
    "miner.oracle_s": ("s/header", (APPLY,)),
    "miner.diffusion_s": ("s/header", (APPLY,)),
    "statevector.us_per_gate": ("us", (APPLY,)),
    "statevector.gates.H": ("count", (NEW_STATE,)),
    "statevector.gates.X": ("count", (NEW_STATE,)),
    "statevector.gates.SWAP": ("count", (NEW_STATE,)),
    "statevector.gates.MCX": ("count", (NEW_STATE,)),
    "statevector.bytes_moved_computed": ("B", (APPLY, NEW_STATE)),
    "circuit.build_s": ("s/header", BUILDERS),
    "circuit.gates_built": ("count", BUILDERS),
    "miner.enumerate_s": ("s/header", (ENUMERATE,)),
    "miner.enumerate_hashes": ("count", (ENUMERATE, MINER_HASH)),
    "miner.verify_s": ("s/header", (MINE, MINER_HASH)),
    "miner.verify_calls": ("count", (MINE, MINER_HASH)),
    "miner.prepare_s": ("s/header", (PREPARE,)),
    "statevector.alloc_s": ("s/header", (NEW_STATE, RESET)),
    "statevector.readout_s": ("s/header", (DISTRIBUTION, MEASURE)),
    "statevector.readout_calls": ("count", (DISTRIBUTION,)),
    "miner.self_s": ("s/header", (MINE,)),
    "miner.rounds": ("count", (MEASURE,)),
    "miner.verified_per_readout": ("ratio", (MINE, MEASURE)),
    "statevector.amp_bytes": ("B", (NEW_STATE,)),
    "toyhash.hash_calls": ("count", (MINER_HASH, CHAIN_HASH)),
    "toyhash.hash_s": ("s/header", (MINER_HASH, CHAIN_HASH)),
    "toyhash.us_per_hash": ("us", (MINER_HASH, CHAIN_HASH)),
    "chain.mine_classical_s": ("s/header", (MINE_CLASSICAL,)),
    "chain.hashes_tried": ("count", (MINE_CLASSICAL,)),
    "chain.found_per_attempt": ("ratio", (MINE_CLASSICAL,)),
    "chain.load_s": ("s/header", (LOAD,)),
    "chain.validate_s": ("s/header", (VALIDATE,)),
    "chain.save_s": ("s/header", (SAVE,)),
    "chain.file_bytes": ("B", (SAVE,)),
    "cli.self_s": ("s/header", (CLI_MAIN,)),
    "cli.calls": ("count", (CLI_MAIN,)),
    "trace.overhead_s": ("s", ()),
}

# spans whose parent is one of these are nested readouts, not new ones
_READOUT = (DISTRIBUTION, MEASURE)


def _amps_moved(gate, q: int) -> int:
    """Amplitudes one gate reads and writes in the dense simulator:
    H and X sweep all 2^q, SWAP exchanges two 2^(q-2) blocks, MCX with c
    controls exchanges two 2^(q-1-c) blocks."""
    if gate.kind in ("H", "X"):
        return 1 << q
    if gate.kind == "SWAP":
        return 1 << (q - 1)
    return 1 << (q - len(gate.controls))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.marks: list[int] = []          # len(spans) after each header
        self.unmeasured: set[str] = set()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._deferred: list[tuple[list, object]] = []
        self._circuits: dict[int, tuple[object, tuple]] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, info=None, deferred=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                try:
                    span[4] = info(args, result)
                except Exception:  # the program's objects changed shape
                    self.unmeasured.add(name)
            if deferred is not None:
                self._deferred.append((span, deferred))
            return result

        return traced

    def _circuit_info(self, args, result):
        state, circuit = args[0], args[1]
        cached = self._circuits.get(id(circuit))
        if cached is None or cached[0] is not circuit:
            if len(self._circuits) > 64:
                self._circuits.clear()
            q = state.num_qubits
            summary = (circuit.label, len(circuit.gates),
                       sum(_amps_moved(g, q) for g in circuit.gates))
            cached = self._circuits[id(circuit)] = (circuit, summary)
        return cached[1]

    def install(self, qm) -> None:
        info = {
            MINE: lambda args, r: r.success,
            APPLY: self._circuit_info,
            MINE_CLASSICAL: lambda args, r: (r.hashes_tried, r.success),
            NEW_STATE: lambda args, r: r,
            SAVE: lambda args, r: os.path.getsize(args[1]),
            **{b: (lambda args, r: len(r)) for b in BUILDERS},
        }
        deferred = {
            # read once the header is done, when the tallies are final
            NEW_STATE: lambda state: (dict(state.gate_counts),
                                      state.amplitudes.nbytes,
                                      state.num_qubits),
        }
        for module, owner, attr in BOUNDARIES:
            name = ".".join(p for p in (module, owner, attr) if p)
            target = getattr(qm, module, None)
            if owner:
                target = getattr(target, owner, None)
            original = getattr(target, attr, None)
            if original is None:
                self.unmeasured.add(name)
                continue
            self._patches.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, info.get(name),
                                             deferred.get(name)))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def mark(self) -> None:
        """Close one header: finish deferred span data."""
        for span, fn in self._deferred:
            try:
                span[4] = fn(span[4])
            except Exception:
                span[4] = None
                self.unmeasured.add(span[0])
        self._deferred.clear()
        self.marks.append(len(self.spans))

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            out = csv.writer(f, lineterminator="\n")
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.writerow([i, parent, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}"])


def layer_metrics(tracer: Tracer, exact_n: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced pass.  Times are per header over the
    whole pass; counts cover the first ``exact_n`` headers only, so two runs
    of one seed give identical counts."""
    spans, marks = tracer.spans, tracer.marks
    n = len(marks)
    k = min(exact_n, n)
    cut = marks[k - 1]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    idx = defaultdict(list)
    for i, s in enumerate(spans):
        idx[s[0]].append(i)
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def parent_in(i, names):
        return spans[i][3] >= 0 and spans[spans[i][3]][0] in names

    def per_header(names, keep=lambda i: True):
        return sum(dur[i] for nm in names for i in idx[nm] if keep(i)) / n

    def self_time(name):
        return sum(dur[i] - child[i] for i in idx[name]) / n

    def count(names, keep=lambda i: True):
        return sum(1 for nm in names for i in idx[nm] if i < cut and keep(i))

    def infos(name, first_k=True):
        return [spans[i][4] for i in idx[name]
                if spans[i][4] is not None and (not first_k or i < cut)]

    applies = [i for i in idx[APPLY] if spans[i][4] is not None]

    def apply_time(match):
        hits = [i for i in applies if match(spans[i][4][0])]
        if applies and not hits:  # the label is gone: not measured
            return None
        return sum(dur[i] for i in hits) / n

    applied_gates = sum(spans[i][4][1] for i in applies)
    gate_kinds = Counter()
    for counts, _, _ in infos(NEW_STATE):
        gate_kinds.update(counts)

    moved = 0
    for lo, hi in zip([0] + marks[:k - 1], marks[:k]):
        header_applies = [spans[i][4] for i in applies if lo <= i < hi]
        states = [spans[i][4] for i in idx[NEW_STATE] if lo <= i < hi]
        for counts, _, q in filter(None, states):
            moved += sum(a[2] for a in header_applies)
            # gates applied outside apply_circuit (prepare) are H and X
            moved += (sum(counts.values()) - sum(a[1] for a in header_applies)) << q

    hashes = (MINER_HASH, CHAIN_HASH)
    hash_calls_all = sum(len(idx[h]) for h in hashes)
    hash_time = sum(dur[i] for h in hashes for i in idx[h])
    rounds = count((MEASURE,))
    classical = infos(MINE_CLASSICAL)

    values = {
        "miner.hash_s": apply_time(lambda label: label == "hash"),
        "miner.unhash_s": apply_time(lambda label: label == "hash^-1"),
        "miner.oracle_s": apply_time(lambda label: label.startswith("oracle")),
        "miner.diffusion_s": apply_time(lambda label: label == "diffusion"),
        "statevector.us_per_gate": (sum(dur[i] for i in applies) / applied_gates * 1e6
                                    if applied_gates else 0.0),
        "statevector.gates.H": gate_kinds["H"],
        "statevector.gates.X": gate_kinds["X"],
        "statevector.gates.SWAP": gate_kinds["SWAP"],
        "statevector.gates.MCX": gate_kinds["MCX"],
        "statevector.bytes_moved_computed": 2 * AMP_BYTES * moved,
        "circuit.build_s": per_header(BUILDERS),
        "circuit.gates_built": sum(sum(infos(b)) for b in BUILDERS),
        "miner.enumerate_s": per_header((ENUMERATE,)),
        "miner.enumerate_hashes": count((MINER_HASH,),
                                        lambda i: parent_in(i, (ENUMERATE,))),
        "miner.verify_s": per_header((MINER_HASH,), lambda i: parent_in(i, (MINE,))),
        "miner.verify_calls": count((MINER_HASH,), lambda i: parent_in(i, (MINE,))),
        "miner.prepare_s": per_header((PREPARE,)),
        "statevector.alloc_s": per_header((NEW_STATE, RESET)),
        "statevector.readout_s": per_header(_READOUT,
                                            lambda i: not parent_in(i, _READOUT)),
        "statevector.readout_calls": count((DISTRIBUTION,)),
        "miner.self_s": self_time(MINE),
        "miner.rounds": rounds,
        "miner.verified_per_readout": (sum(map(bool, infos(MINE))) / rounds
                                       if rounds else 0.0),
        "statevector.amp_bytes": max((s[1] for s in infos(NEW_STATE, False)),
                                     default=0),
        "toyhash.hash_calls": count(hashes),
        "toyhash.hash_s": hash_time / n,
        "toyhash.us_per_hash": (hash_time / hash_calls_all * 1e6
                                if hash_calls_all else 0.0),
        "chain.mine_classical_s": per_header((MINE_CLASSICAL,)),
        "chain.hashes_tried": sum(c[0] for c in classical),
        "chain.found_per_attempt": (sum(c[1] for c in classical) / len(classical)
                                    if classical else 0.0),
        "chain.load_s": per_header((LOAD,)),
        "chain.validate_s": per_header((VALIDATE,)),
        "chain.save_s": per_header((SAVE,)),
        "chain.file_bytes": sum(infos(SAVE)),
        "cli.self_s": self_time(CLI_MAIN),
        "cli.calls": count((CLI_MAIN,)),
        "trace.overhead_s": overhead_s,
    }
    return {name: (None if tracer.unmeasured.intersection(needs) else values[name],
                   unit)
            for name, (unit, needs) in LAYER_METRICS.items()}
