"""Toy proof-of-work chain: headers, serialization, brute-force miner,
difficulty derivation, validation, and JSON persistence.

A header is absorbed as four fixed blocks (previous digest, payload
digest, timestamp, difficulty), each truncated to the digest width; the
nonce is deliberately not part of the serialization — it is the final
sponge block supplied by whichever miner is running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .miner import MiningParams, MiningResult, header_prefix
from .toyhash import Digest, HashParams, check_block, hash_classical, hash_many

CHAIN_FORMAT_VERSION = "qmine-chain/1"
SCAN_CHUNK = 256  # nonces mine_classical hashes per hash_many call

REASON_DIGEST_MISMATCH = "digest-mismatch"
REASON_DIFFICULTY = "difficulty"
REASON_PREV_LINK = "prev-link"
REASON_GENESIS_PREV = "genesis-prev"
REASON_NONCE_RANGE = "nonce-range"
REASON_HEADER_RANGE = "header-range"


@dataclass(frozen=True)
class BlockHeader:
    prev_digest: int
    payload_digest: int
    timestamp: int
    difficulty_zeros: int
    nonce: int


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    digest: Digest

    @staticmethod
    def from_header(header: BlockHeader, params: HashParams) -> "Block":
        return Block(header, header_digest(header, params))


@dataclass
class ValidationReport:
    reasons: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons

    def __bool__(self) -> bool:
        return self.ok


def serialize_header(header: BlockHeader, params: HashParams) -> list[int]:
    """Fixed block sequence [prev, payload, timestamp, difficulty]; the
    timestamp is truncated to the low m bits, digests must fit exactly."""
    m = params.digest_bits
    for name, value in (("prev_digest", header.prev_digest),
                        ("payload_digest", header.payload_digest)):
        if not 0 <= value <= params.mask:
            raise ValueError(f"{name} {value:#x} does not fit in {m} bits")
    if header.timestamp < 0:
        raise ValueError("timestamp must be non-negative")
    if not 0 <= header.difficulty_zeros <= m:
        raise ValueError(f"difficulty_zeros must be in 0..{m}")
    return [header.prev_digest,
            header.payload_digest,
            header.timestamp & params.mask,
            header.difficulty_zeros]


def header_digest(header: BlockHeader, params: HashParams) -> Digest:
    return hash_classical(serialize_header(header, params) + [header.nonce], params)


def mine_classical(header_blocks: Sequence[int], params: MiningParams,
                   nonce_bits: int) -> MiningResult:
    """Exhaustive baseline: try nonce 0,1,... and return the first whose
    digest clears the difficulty; ties against the quantum miner are
    broken toward the smallest nonce by construction.  ``hash_many`` hashes
    ``SCAN_CHUNK`` nonces per call, but ``hashes_tried`` counts up to the
    first solution and nonce 2^m raises only if no smaller nonce solves."""
    hp = params.hash_params
    prefix = header_prefix(header_blocks, hp)
    space = 1 << nonce_bits
    fits = min(space, hp.mask + 1)
    for start in range(0, fits, SCAN_CHUNK):
        digests = hash_many(prefix, np.arange(start, min(start + SCAN_CHUNK, fits)), hp)
        solved = np.flatnonzero(digests >> (hp.digest_bits - params.difficulty_zeros) == 0)
        if solved.size:
            value = start + int(solved[0])
            return MiningResult(
                nonce=value, nonce_bits=format(value, f"0{nonce_bits}b"),
                digest=Digest(int(digests[solved[0]]), hp.digest_bits), success=True,
                grover_iterations_used=0, success_probability_at_measurement=1.0,
                total_gates=0, hashes_tried=value + 1)
    if fits < space:
        check_block(fits, hp)  # nonce 2^m, the first that does not fit
    last = space - 1
    return MiningResult(
        nonce=last, nonce_bits=format(last, f"0{nonce_bits}b"),
        digest=Digest(int(digests[-1]), hp.digest_bits), success=False,
        grover_iterations_used=0, success_probability_at_measurement=0.0,
        total_gates=0, hashes_tried=space)


def compute_required_zeros(nonce_bits: int, digest_bits: int) -> int:
    """Leading zeros that make the expected solution count within one
    nonce set equal 1/2: solving 2^x / 2^(m-n) = 1/2 gives solution
    exponent x = m-n-1, hence z = m-x = n+1."""
    if nonce_bits >= digest_bits:
        raise ValueError("nonce register must be narrower than the digest")
    solution_exponent = digest_bits - nonce_bits - 1
    return digest_bits - solution_exponent


# -- validation ------------------------------------------------------------------


def validate_block(block: Block, params: HashParams) -> ValidationReport:
    """Digest and difficulty; a header field that ``serialize_header``
    rejects, or a nonce that does not fit one sponge block, is reported as
    out of range and the header is not hashed."""
    report, header = ValidationReport(), block.header
    try:
        serialize_header(header, params)
    except ValueError:
        report.reasons.append(REASON_HEADER_RANGE)
    if not 0 <= header.nonce <= params.mask:
        report.reasons.append(REASON_NONCE_RANGE)
    elif not report.reasons and header_digest(header, params) != block.digest:
        report.reasons.append(REASON_DIGEST_MISMATCH)
    if (0 <= header.difficulty_zeros <= params.digest_bits  # else header-range
            and not block.digest.meets_difficulty(header.difficulty_zeros)):
        report.reasons.append(REASON_DIFFICULTY)
    return report


def validate_chain(blocks: Sequence[Block], params: HashParams) -> ValidationReport:
    report = ValidationReport()
    for i, block in enumerate(blocks):
        block_report = validate_block(block, params)
        report.reasons.extend(f"block {i}: {r}" for r in block_report.reasons)
        if i == 0:
            if block.header.prev_digest != 0:
                report.reasons.append(f"block 0: {REASON_GENESIS_PREV}")
        elif block.header.prev_digest != blocks[i - 1].digest.value:
            report.reasons.append(f"block {i}: {REASON_PREV_LINK}")
    return report


# -- persistence -------------------------------------------------------------------


@dataclass
class Chain:
    hash_params: HashParams
    nonce_bits: int
    blocks: list[Block] = field(default_factory=list)

    def tip_digest(self) -> int:
        return self.blocks[-1].digest.value if self.blocks else 0

    def append(self, block: Block) -> None:
        self.blocks.append(block)

    def validate(self) -> ValidationReport:
        """``validate_chain``, plus the nonces that fit a block but not
        ``nonce_bits``: every out-of-range nonce is reported once."""
        report = validate_chain(self.blocks, self.hash_params)
        for i, block in enumerate(self.blocks):
            if 1 << self.nonce_bits <= block.header.nonce <= self.hash_params.mask:
                report.reasons.append(f"block {i}: {REASON_NONCE_RANGE}")
        return report


def _hex_width(bits: int) -> int:
    return (bits + 3) // 4


def save_chain(chain: Chain, path: str | Path) -> None:
    m = chain.hash_params.digest_bits
    w = _hex_width(m)
    payload = {
        "version": CHAIN_FORMAT_VERSION,
        "hash_params": {
            "digest_bits": m,
            "rounds": chain.hash_params.rounds,
            "true_chi": chain.hash_params.true_chi,
        },
        "nonce_bits": chain.nonce_bits,
        "blocks": [
            {
                "prev_digest": format(b.header.prev_digest, f"0{w}x"),
                "payload_digest": format(b.header.payload_digest, f"0{w}x"),
                "timestamp": b.header.timestamp,
                "difficulty_zeros": b.header.difficulty_zeros,
                "nonce": format(b.header.nonce, "x"),
                "digest": b.digest.hex,
            }
            for b in chain.blocks
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that must hold an object; any failure raises
    ValueError."""
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{what} {path} is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return data


def json_int(value) -> int:
    """``value`` itself if it is a JSON integer; bools and floats raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_bool(value) -> bool:
    """``value`` itself if it is a JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def load_chain(path: str | Path) -> Chain:
    """Read a chain file; any malformed content raises ValueError."""
    payload = read_json_object(path, "chain file")
    version = payload.get("version")
    if version != CHAIN_FORMAT_VERSION:
        raise ValueError(f"unsupported chain file version {version!r}")
    try:
        hp = HashParams(
            digest_bits=json_int(payload["hash_params"]["digest_bits"]),
            rounds=json_int(payload["hash_params"]["rounds"]),
            true_chi=json_bool(payload["hash_params"].get("true_chi", False)),
        )
        nonce_bits = json_int(payload["nonce_bits"])
        blocks = []
        for entry in payload["blocks"]:
            header = BlockHeader(
                prev_digest=int(entry["prev_digest"], 16),
                payload_digest=int(entry["payload_digest"], 16),
                timestamp=json_int(entry["timestamp"]),
                difficulty_zeros=json_int(entry["difficulty_zeros"]),
                nonce=int(entry["nonce"], 16),
            )
            blocks.append(Block(header, Digest(int(entry["digest"], 16), hp.digest_bits)))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed chain file {path}: {exc!r}") from None
    if not 1 <= nonce_bits <= hp.digest_bits:
        raise ValueError(f"nonce_bits must be in 1..{hp.digest_bits}, got {nonce_bits}")
    return Chain(hash_params=hp, nonce_bits=nonce_bits, blocks=blocks)
