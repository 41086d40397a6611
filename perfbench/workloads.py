"""Benchmark workloads: inputs from a seed, ground truth, the correctness
gate and the timed loop.

Every workload calls qmine's public API in this one process.  Inputs are
made from the seed only; the ground truth is computed by exhaustive
classical hashing outside every timed region.  A run processes whole
blocks of headers until ``--seconds`` have passed and at least
``min_blocks`` blocks are done; counts that must repeat exactly are taken
over those first ``min_blocks`` blocks.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, layer_metrics

# set-ups per run, half before the timed loop and half after it, so that
# the median samples the machine at two moments
SETUP_REPEATS = 10
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

GROUP = 16  # headers per stratified group
MAX_DRAWS = 100 * GROUP  # candidates one group may draw before giving up

END_TO_END = {
    "setup_s": "s",
    "headers_per_s": "1/s",
    "solve_s_tail": "s",
    "queries_per_s": "1/s",
    "queries_per_header": "count",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str        # "quantum": mine_quantum calls; "chain": in-process CLI
    n: int           # nonce bits
    m: int           # digest bits
    rounds: int
    zeros: int
    block: int       # headers per stratified group or per chain episode
    min_blocks: int  # blocks every run completes
    # quantum only: headers per group of 16 with 0, 1, 2, ... solutions, the
    # last entry taking all higher counts; the odds measured on 3000 random
    # headers, so a run's mix of header kinds does not depend on the seed
    strata: tuple = ()

    @property
    def exact_n(self) -> int:
        return self.block * self.min_blocks

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with TAIL_BEYOND samples above it in the
        shortest run; fixed per workload so runs of any length compare."""
        return max(50, math.floor(100 * (self.exact_n - TAIL_BEYOND) / self.exact_n))


# Why each workload was chosen, and what each layer should move on it, is in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "mine_narrow": Spec(
        "mine_narrow", "quantum", n=4, m=8, rounds=2, zeros=4, block=GROUP,
        min_blocks=10, strata=(6, 4, 6)),
    "mine_wide": Spec(
        "mine_wide", "quantum", n=4, m=12, rounds=2, zeros=4, block=GROUP,
        min_blocks=3, strata=(6, 6, 3, 1)),
    "chain_classical": Spec(
        "chain_classical", "chain", n=8, m=16, rounds=2, zeros=9, block=256,
        min_blocks=2),
}


@dataclass
class Sample:
    seconds: float
    queries: int      # oracle queries: Grover iterations or hashes tried
    solvable: bool
    found: bool       # a verified nonce was returned
    error: bool
    outcome: tuple    # what a traced pass must reproduce exactly


def import_qmine():
    """Import qmine afresh, so each set-up pays for the package's import."""
    for name in [k for k in sys.modules if k == "qmine" or k.startswith("qmine.")]:
        del sys.modules[name]
    return importlib.import_module("qmine")


# -- correctness gate ------------------------------------------------------------


def quantum_error(truth: dict, success: bool, nonce: int, digest: int) -> bool:
    """A claimed success whose nonce is outside the ground-truth set, or
    whose digest differs from the truth.  Exhaustion is never an error."""
    return success and truth.get(nonce) != digest


def chain_error(truth: dict, rc, vrc, block: dict | None, expect: tuple) -> bool:
    """One `mine` (+ `chain validate`) step is wrong when mine exits with a
    code other than 0 or 3, when validate after an append does not exit 0,
    or when the appended block is not the requested header with a nonce
    and digest from the ground truth."""
    if rc == 3:
        return False
    if rc != 0 or vrc != 0 or block is None:
        return True
    try:
        nonce = int(block["nonce"], 16)
        fields = (int(block["prev_digest"], 16), int(block["payload_digest"], 16),
                  block["timestamp"], block["difficulty_zeros"])
        return fields != expect or truth.get(nonce) != int(block["digest"], 16)
    except (KeyError, TypeError, ValueError):
        return True


def _failed(seconds: float, truth: dict, exc: BaseException) -> Sample:
    print(f"# error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return Sample(seconds, 0, bool(truth), False, True, ("error", repr(exc)))


# -- quantum workloads -------------------------------------------------------------


def quantum_truth(qm, blocks: list[int], hp, spec: Spec) -> dict[int, int]:
    """Every nonce that meets the difficulty, with its digest, by hashing
    the whole nonce space classically."""
    shift = spec.m - spec.zeros
    digests = ((v, qm.hash_classical(blocks + [v], hp).value)
               for v in range(1 << spec.n))
    return {v: d for v, d in digests if d >> shift == 0}


def stratified_headers(qm, spec: Spec, seed: int):
    """Endless stream of (header blocks, readout seed, truth): random
    4-block headers, admitted in groups that follow spec.strata."""
    rng = random.Random(seed)
    hp = qm.HashParams(spec.m, spec.rounds)
    while True:
        need = list(spec.strata)
        group = []
        for _ in range(MAX_DRAWS):
            blocks = [rng.getrandbits(spec.m) for _ in range(4)]
            truth = quantum_truth(qm, blocks, hp, spec)
            stratum = min(len(truth), len(need) - 1)
            if need[stratum]:
                need[stratum] -= 1
                group.append((blocks, rng.getrandbits(32), truth))
                if not any(need):
                    break
        else:
            raise RuntimeError(f"{spec.name}: {MAX_DRAWS} random headers did "
                               f"not fill the strata {spec.strata}")
        rng.shuffle(group)
        yield from group


class QuantumWorkload:
    """One mine_quantum call per header: unknown solution count, sampled
    readout seeded per header, default max_grover_rounds."""

    def __init__(self, spec: Spec, seed: int, out_dir: Path):
        self.spec, self.seed = spec, seed

    def select(self, qm) -> None:
        self.stream = stratified_headers(qm, self.spec, self.seed)
        self.raw = [next(self.stream) for _ in range(self.spec.exact_n)]

    def build(self, qm) -> None:
        self.qm = qm
        self.hp = qm.HashParams(self.spec.m, self.spec.rounds)
        self.layout = qm.RegisterLayout.standard(self.spec.n, self.spec.m)
        self.inputs = [self._input(raw) for raw in self.raw]

    def _input(self, raw):
        blocks, readout_seed, truth = raw
        params = self.qm.MiningParams(difficulty_zeros=self.spec.zeros,
                                      hash_params=self.hp, rng_seed=readout_seed)
        return blocks, params, truth

    def step(self, i: int) -> Sample:
        while i >= len(self.inputs):
            self.inputs.append(self._input(next(self.stream)))
        blocks, params, truth = self.inputs[i]
        start = time.perf_counter()
        try:
            r = self.qm.miner.mine_quantum(blocks, self.layout, params)
        except Exception as exc:
            return _failed(time.perf_counter() - start, truth, exc)
        seconds = time.perf_counter() - start
        error = quantum_error(truth, r.success, r.nonce, r.digest.value)
        return Sample(seconds, r.grover_iterations_used, bool(truth),
                      r.success and not error, error,
                      (r.nonce, r.success, r.grover_iterations_used, r.total_gates))

    def close(self) -> None:
        pass


# -- chain workload ----------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    payload: int
    path: str
    attempts: list    # (timestamp, mine argv)
    validate: list    # chain validate argv


class ChainWorkload:
    """`qmine mine --mode classical ... --chain-file F` per attempt, the
    timestamp advancing each time, and `qmine chain validate` after every
    append.  Each block of attempts (an episode) grows a fresh chain."""

    def __init__(self, spec: Spec, seed: int, out_dir: Path):
        self.spec, self.seed, self.out_dir = spec, seed, out_dir

    def select(self, qm) -> None:
        # the sponge permutation of every m-bit state: with it each header's
        # full solution set is a scan of 2^n table entries
        hp = qm.HashParams(self.spec.m, self.spec.rounds)
        self.table = [qm.permute(s, hp) for s in range(1 << self.spec.m)]

    def build(self, qm) -> None:
        self.qm = qm
        self.episodes = [self._episode(e) for e in range(self.spec.min_blocks)]

    def _episode(self, e: int) -> Episode:
        s = self.spec
        rng = random.Random(f"{self.seed}:{e}")
        payload, t0 = rng.getrandbits(s.m), rng.getrandbits(24)
        path = str(self.out_dir / f"chain-{s.name}-{self.seed}-{e}.json")
        mine = ["mine", "--mode", "classical", "--n", str(s.n), "--m", str(s.m),
                "--rounds", str(s.rounds), "--auto-zeros",
                "--payload", format(payload, "x"), "--chain-file", path]
        attempts = [(t0 + j, mine + ["--timestamp", str(t0 + j)])
                    for j in range(s.block)]
        return Episode(payload, path, attempts,
                       ["chain", "validate", "--chain-file", path])

    def truth(self, prev: int, payload: int, timestamp: int) -> dict[int, int]:
        s, t = self.spec, self.table
        state = 0
        for block in (prev, payload, timestamp & ((1 << s.m) - 1), s.zeros):
            state = t[state ^ block]
        shift = s.m - s.zeros
        return {v: t[state ^ v] for v in range(1 << s.n) if t[state ^ v] >> shift == 0}

    def _last_block(self, path: str) -> dict | None:
        try:
            blocks = json.loads(Path(path).read_text())["blocks"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return blocks[-1] if len(blocks) == self.length + 1 else None

    def step(self, i: int) -> Sample:
        e, j = divmod(i, self.spec.block)
        if j == 0:
            while e >= len(self.episodes):
                self.episodes.append(self._episode(len(self.episodes)))
            self.episode = self.episodes[e]
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.episode.path)
            self.tip, self.length = 0, 0
        ep = self.episode
        timestamp, argv = ep.attempts[j]
        truth = self.truth(self.tip, ep.payload, timestamp)
        out = io.StringIO()
        vrc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = self.qm.cli.main(argv)
                if rc == 0:
                    vrc = self.qm.cli.main(ep.validate)
        except (Exception, SystemExit) as exc:
            return _failed(time.perf_counter() - start, truth, exc)
        seconds = time.perf_counter() - start
        tried = re.search(r"hashes_tried=(\d+)", out.getvalue())
        block = self._last_block(ep.path) if rc == 0 else None
        expect = (self.tip, ep.payload, timestamp, self.spec.zeros)
        error = tried is None or chain_error(truth, rc, vrc, block, expect)
        found = rc == 0 and not error
        if found:
            self.tip, self.length = int(block["digest"], 16), self.length + 1
        queries = int(tried.group(1)) if tried else 0
        return Sample(seconds, queries, bool(truth), found, error,
                      (rc, vrc, block and block.get("nonce"), queries))

    def close(self) -> None:
        for ep in self.episodes:
            with contextlib.suppress(FileNotFoundError):
                os.remove(ep.path)


# -- running -------------------------------------------------------------------------


def set_up(wl, repeats: int, select: bool) -> tuple[object, list[float]]:
    """Import qmine and build the inputs ``repeats`` times.  With ``select``
    the ground truth is computed once, after the first import, outside the
    timing."""
    times = []
    for rep in range(repeats):
        start = time.perf_counter()
        qm = import_qmine()
        if select and rep == 0:
            paused = time.perf_counter()
            wl.select(qm)
            start += time.perf_counter() - paused
        wl.build(qm)
        times.append(time.perf_counter() - start)
    return qm, times


def run_pass(wl, spec: Spec, seconds: float, min_n: int, count: int | None = None,
             tracer: Tracer | None = None) -> list[Sample]:
    """Headers in order from the first: exactly ``count`` of them, or whole
    blocks until ``seconds`` have passed and at least ``min_n`` are done."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        samples.append(wl.step(len(samples)))
        if tracer is not None:
            tracer.mark()
        done = len(samples)
        if count is not None:
            if done == count:
                return samples
        elif (done % spec.block == 0 and done >= min_n
              and time.perf_counter() - start >= seconds):
            return samples


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(samples: list[Sample], spec: Spec, setup_s: float,
               peak_rss_mb: float) -> dict:
    times = [s.seconds for s in samples]
    busy = sum(times)
    exact = samples[:spec.exact_n]
    solvable = [s for s in samples if s.solvable]
    values = {
        "setup_s": setup_s,
        "headers_per_s": len(samples) / busy,
        "solve_s_tail": percentile(times, spec.tail_percentile),
        "queries_per_s": sum(s.queries for s in samples) / busy,
        "queries_per_header": sum(s.queries for s in exact) / len(exact),
        "success_rate": (sum(s.found for s in solvable) / len(solvable)
                         if solvable else 1.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def run(spec: Spec, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run.  Returns the result object plus ``notes`` (human
    readable lines) and ``samples``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = (QuantumWorkload if spec.kind == "quantum" else ChainWorkload)(spec, seed, out_dir)
    try:
        qm, setup_times = set_up(wl, SETUP_REPEATS // 2, select=True)
        numpy_version = sys.modules["numpy"].__version__
        if not trace:
            samples = run_pass(wl, spec, seconds, spec.exact_n)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_times += set_up(wl, SETUP_REPEATS - SETUP_REPEATS // 2, select=False)[1]
            metrics = end_to_end(samples, spec, statistics.median(setup_times),
                                 peak_rss_mb)
            failed = sum(s.error for s in samples)
            notes = [f"{len(samples)} headers timed; exact counts over the first "
                     f"{spec.exact_n}; solve_s_tail is p{spec.tail_percentile}",
                     f"solve_s_p50 {statistics.median(s.seconds for s in samples):.6g} s "
                     f"(median of {len(samples)} headers; not in the JSON)",
                     f"setup_s is the median of {SETUP_REPEATS} set-ups, half before "
                     f"and half after the timed headers; the first, which imports "
                     f"numpy, took {setup_times[0]:.4f} s"]
        else:
            # the untraced reference pass gets half the time; the traced pass
            # repeats exactly its headers and must reproduce their outcomes.
            # Counts cover the first block only, so that a traced mine_wide
            # run times two passes over one block, not over min_blocks.
            reference = run_pass(wl, spec, seconds / 2, spec.block)
            tracer = Tracer()
            tracer.install(qm)
            try:
                traced = run_pass(wl, spec, 0, spec.block, count=len(reference),
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            mismatched = sum(a.outcome != b.outcome for a, b in zip(reference, traced))
            overhead = sum(s.seconds for s in traced) - sum(s.seconds for s in reference)
            trace_file = out_dir / f"trace-{spec.name}-{seed}.csv"
            tracer.write(trace_file)
            metrics = layer_metrics(tracer, spec.block, overhead)
            samples = reference + traced
            failed = sum(s.error for s in samples) + mismatched
            notes = [f"{len(reference)} headers untraced, then the same headers "
                     f"traced; counts over the first {spec.block}",
                     f"traced outcomes differing from untraced: {mismatched}",
                     f"{len(tracer.spans)} spans written to {trace_file.name}",
                     f"unmeasured boundaries: {sorted(tracer.unmeasured) or 'none'}"]
    finally:
        wl.close()
    notes.append(f"error_rate {failed / len(samples):.6g} ratio "
                 f"({failed} of {len(samples)} operations failed)")
    notes.append(f"machine: nproc={os.cpu_count()} "
                 f"mem={os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE') / 2**30:.1f}GiB "
                 f"python={sys.version.split()[0]} numpy={numpy_version}")
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "notes": notes,
        "samples": samples,
    }
