"""Toy proof-of-work chain: headers, serialization, difficulty derivation,
validation, and JSON persistence.  The miners live in ``miner``.

A header is absorbed as four fixed blocks (previous digest, payload
digest, timestamp, difficulty), each truncated to the digest width; the
nonce is deliberately not part of the serialization — it is the final
sponge block supplied by whichever miner is running.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .toyhash import (Digest, HashParams, absorb, check_nonce_width, check_zeros,
                      hash_classical, hex_digits)

CHAIN_FORMAT_VERSION = "qmine-chain/1"
_HEX_CHARS = frozenset(string.hexdigits)

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
    check_zeros(header.difficulty_zeros, m)
    return [header.prev_digest,
            header.payload_digest,
            header.timestamp & params.mask,
            header.difficulty_zeros]


def header_digest(header: BlockHeader, params: HashParams) -> Digest:
    return hash_classical(serialize_header(header, params) + [header.nonce], params)


def compute_required_zeros(nonce_bits: int, digest_bits: int) -> int:
    """Leading zeros that make the expected solution count within one
    nonce set equal 1/2: solving 2^x / 2^(m-n) = 1/2 gives solution
    exponent x = m-n-1, hence z = m-x = n+1."""
    check_nonce_width(nonce_bits, digest_bits)
    if nonce_bits == digest_bits:
        raise ValueError(f"the automatic difficulty of n+1 = {nonce_bits + 1} zeros "
                         f"does not fit the {digest_bits}-bit digest")
    return nonce_bits + 1


# -- validation and persistence ----------------------------------------------------


@dataclass
class Chain:
    hash_params: HashParams
    nonce_bits: int
    blocks: list[Block] = field(default_factory=list)

    def __post_init__(self):
        check_nonce_width(self.nonce_bits, self.hash_params.digest_bits)

    def tip_digest(self) -> int:
        return self.blocks[-1].digest.value if self.blocks else 0

    def validate(self) -> list[str]:
        """Every reason the chain is invalid, in block order: each block's
        range, digest and difficulty reasons, then its link to the block
        before (block 0's to 0, the tip of an empty chain).  A header field
        that ``serialize_header`` rejects, or a nonce outside
        0..2^nonce_bits - 1, is reported as out of range and the header is
        not hashed; the headers that pass are hashed together, one
        ``absorb`` over their five columns."""
        params, space = self.hash_params, 1 << self.nonce_bits
        found, rows, hashed = [], [], []
        for i, block in enumerate(self.blocks):
            header, own = block.header, []
            try:
                row = serialize_header(header, params) + [header.nonce]
            except ValueError:
                own.append(REASON_HEADER_RANGE)
            if not 0 <= header.nonce < space:
                own.append(REASON_NONCE_RANGE)
            elif not own:
                rows.append(row)
                hashed.append(i)
            found.append(own)
        if rows:
            digests = absorb(np.array(rows, dtype=np.int64).T, params)
            for i, value in zip(hashed, digests.tolist()):
                if Digest(value, params.digest_bits) != self.blocks[i].digest:
                    found[i].append(REASON_DIGEST_MISMATCH)
        reasons, prev = [], 0
        for i, (block, own) in enumerate(zip(self.blocks, found)):
            zeros = block.header.difficulty_zeros
            if (0 <= zeros <= params.digest_bits  # else header-range
                    and not block.digest.meets_difficulty(zeros)):
                own.append(REASON_DIFFICULTY)
            if block.header.prev_digest != prev:
                own.append(REASON_GENESIS_PREV if i == 0 else REASON_PREV_LINK)
            reasons += [f"block {i}: {r}" for r in own]
            prev = block.digest.value
        return reasons


def save_chain(chain: Chain, path: str | Path) -> None:
    m = chain.hash_params.digest_bits
    w = hex_digits(m)
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


def json_hex(value) -> int:
    """The integer a JSON string of hex digits spells: one or more of
    0-9a-fA-F, as ``save_chain`` writes them, with no sign, prefix,
    underscore or space."""
    if isinstance(value, str) and value and _HEX_CHARS.issuperset(value):
        return int(value, 16)
    raise TypeError(f"expected a hex string, got {value!r}")


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
                prev_digest=json_hex(entry["prev_digest"]),
                payload_digest=json_hex(entry["payload_digest"]),
                timestamp=json_int(entry["timestamp"]),
                difficulty_zeros=json_int(entry["difficulty_zeros"]),
                nonce=json_hex(entry["nonce"]),
            )
            blocks.append(Block(header, Digest(json_hex(entry["digest"]), hp.digest_bits)))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed chain file {path}: {exc!r}") from None
    return Chain(hash_params=hp, nonce_bits=nonce_bits, blocks=blocks)
