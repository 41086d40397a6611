import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Block, BlockHeader, Chain, HashParams, MiningParams,
                   RegisterLayout, compute_required_zeros, enumerate_solutions,
                   hash_classical, load_chain, mine_classical, mine_quantum,
                   save_chain, serialize_header)
import qmine.miner
import qmine.toyhash
from qmine.chain import header_digest
from qmine.toyhash import Digest
from helpers import (count_rounds_calls, find_header_with_count,
                     reference_chain_validate, reference_mine_classical)

HP = HashParams(8, 2)


def make_params(zeros, **kw):
    return MiningParams(difficulty_zeros=zeros, hash_params=HP, **kw)


class TestSerializeHeader:
    def test_zero_header(self):
        header = BlockHeader(0, 0, 0, 0, 0)
        assert serialize_header(header, HP) == [0, 0, 0, 0]

    def test_timestamp_truncated(self):
        header = BlockHeader(0, 0, 0x1FF, 0, 0)
        assert serialize_header(header, HP)[2] == 0xFF

    def test_difficulty_is_fourth_block(self):
        a = BlockHeader(0x11, 0x22, 5, 3, 0)
        b = BlockHeader(0x11, 0x22, 5, 4, 0)
        blocks_a, blocks_b = serialize_header(a, HP), serialize_header(b, HP)
        assert blocks_a[:3] == blocks_b[:3]
        assert (blocks_a[3], blocks_b[3]) == (3, 4)

    def test_nonce_not_serialized(self):
        a = BlockHeader(0x11, 0x22, 5, 3, 0)
        b = BlockHeader(0x11, 0x22, 5, 3, 9)
        assert serialize_header(a, HP) == serialize_header(b, HP)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            serialize_header(BlockHeader(0x100, 0, 0, 0, 0), HP)


class TestMineClassical:
    def test_zero_difficulty(self):
        result = mine_classical([0x42], make_params(0), nonce_bits=4)
        assert result.success and result.nonce == 0 and result.hashes_tried == 1
        assert result == reference_mine_classical([0x42], make_params(0), 4)

    def test_returns_smallest_solution(self):
        header, solutions = find_header_with_count(4, HP, 2, 3, seed=11)
        result = mine_classical(header, make_params(2), nonce_bits=4)
        assert result.success and result.nonce == min(solutions)

    def test_no_solution(self):
        header, _ = find_header_with_count(4, HP, 8, 0, seed=4)
        result = mine_classical(header, make_params(8), nonce_bits=4)
        assert not result.success and result.hashes_tried == 16

    def test_agrees_with_quantum_on_unique_solution(self):
        header, _ = find_header_with_count(4, HP, 4, 1, seed=2)
        classical = mine_classical(header, make_params(4), nonce_bits=4)
        quantum = mine_quantum(header, RegisterLayout.standard(4, 8),
                               make_params(4, rng_seed=1), exact_readout=True)
        assert classical.success and quantum.success
        assert classical.nonce == quantum.nonce

    @pytest.mark.parametrize("seed", [21, 22])
    def test_quantum_lands_in_classical_solution_set(self, seed):
        # multiple solutions: same set, not necessarily the same element
        header, solutions = find_header_with_count(6, HP, 3, 9, seed=seed)
        quantum = mine_quantum(header, RegisterLayout.standard(6, 8),
                               make_params(3, rng_seed=seed))
        assert quantum.success and quantum.nonce in solutions

    @pytest.mark.parametrize("nonce_bits", [0, 9])
    def test_nonce_width_refused_before_any_hash(self, monkeypatch, nonce_bits):
        # no nonce at n = 0, and at n = m + 1 one wider than the block it is
        # absorbed as: both classical miners refuse the width before hashing,
        # and enumerate_solutions a difficulty outside 0..m too
        rounds, batches = count_rounds_calls(monkeypatch), []
        monkeypatch.setattr(qmine.miner, "hash_many", lambda *args: batches.append(args))
        message = f"^nonce_bits must be in 1..8, got {nonce_bits}$"
        with pytest.raises(ValueError, match=message):
            mine_classical([0x3], make_params(1), nonce_bits)
        with pytest.raises(ValueError, match=message):
            enumerate_solutions([0x3], HP, nonce_bits, 1)
        with pytest.raises(ValueError, match=r"^zeros must be in 0..16, got 17$"):
            enumerate_solutions([0x3], HashParams(16, 2), 16, 17)
        assert rounds == [] and batches == []


SCAN_N, SCAN_PARAMS = 10, MiningParams(8, HashParams(16, 2))


@functools.lru_cache(maxsize=1)
def first_solution_headers() -> dict:
    """Seeded search of random 4-block headers for one whose first solution
    at ``SCAN_N``, ``SCAN_PARAMS`` is at each of the nonces 0, 255, 256 and
    257, and for one with no solution (key None)."""
    targets = {0, 255, 256, 257, None}
    hp, rng, found = SCAN_PARAMS.hash_params, np.random.default_rng(9), {}
    for _ in range(5000):
        header = [int(b) for b in rng.integers(0, hp.mask + 1, size=4)]
        solutions = enumerate_solutions(header, hp, SCAN_N, SCAN_PARAMS.difficulty_zeros)
        found.setdefault(solutions[0] if solutions else None, header)
        if targets <= found.keys():
            return {t: found[t] for t in targets}
    raise AssertionError(f"no header for {targets - found.keys()}")


class TestChunkedScan:
    """``mine_classical`` hashes the whole nonce space at once but reports
    what a one-by-one scan reports, wherever the first solution lies; nonces
    255-257 straddle where a scan of 256-nonce chunks would split."""

    @pytest.mark.parametrize("first", [0, 255, 256, 257, None])
    def test_first_solution_around_a_chunk_boundary(self, first):
        header = first_solution_headers()[first]
        result = mine_classical(header, SCAN_PARAMS, SCAN_N)
        assert result == reference_mine_classical(header, SCAN_PARAMS, SCAN_N)
        if first is None:
            assert not result.success and result.hashes_tried == 1 << SCAN_N
        else:
            assert result.nonce == first and result.hashes_tried == first + 1

    def test_top_size_equals_the_reference(self):
        hp = HashParams(16, 8, true_chi=True)
        header = [int(b) for b in np.random.default_rng(1).integers(0, 1 << 16, size=4)]
        params = MiningParams(10, hp)
        result = mine_classical(header, params, 16)
        assert result == reference_mine_classical(header, params, 16)
        assert result.hashes_tried > 1024


class TestComputeRequiredZeros:
    @pytest.mark.parametrize("n,m,expect", [(48, 256, 49), (8, 16, 9), (4, 8, 5)])
    def test_values(self, n, m, expect):
        assert compute_required_zeros(n, m) == expect

    @given(n=st.integers(1, 15), extra=st.integers(1, 15))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_always_n_plus_one(self, n, extra):
        m = min(n + extra, 16)
        assert compute_required_zeros(n, m) == n + 1

    def test_nonce_must_be_narrower(self):
        # the library names the rule only; the CLI adds its --zeros hint
        with pytest.raises(ValueError) as exc_info:
            compute_required_zeros(8, 8)
        assert str(exc_info.value) == ("the automatic difficulty of n+1 = 9 zeros "
                                       "does not fit the 8-bit digest")

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonce_width_checked(self, n):
        with pytest.raises(ValueError, match=f"^nonce_bits must be in 1..8, got {n}$"):
            compute_required_zeros(n, 8)


def mined_block(prev, payload, timestamp, zeros, nonce_bits=4):
    header = BlockHeader(prev, payload, timestamp, zeros, 0)
    result = mine_classical(serialize_header(header, HP), make_params(zeros),
                            nonce_bits=nonce_bits)
    assert result.success
    header = dataclasses.replace(header, nonce=result.nonce)
    return Block(header, header_digest(header, HP))


def validate(*blocks):
    return Chain(hash_params=HP, nonce_bits=4, blocks=list(blocks)).validate()


class TestValidation:
    def test_fresh_block_valid(self):
        block = mined_block(0, 0x42, 7, 1)
        assert validate(block) == []

    def test_digest_flip_detected(self):
        block = mined_block(0, 0x42, 7, 1)
        bad = Block(block.header, Digest(block.digest.value ^ 0x01, 8))
        assert "block 0: digest-mismatch" in validate(bad)

    def test_difficulty_violation_detected(self):
        header = BlockHeader(0, 0x42, 7, 8, 0)
        digest = header_digest(header, HP)
        if digest.value == 0:  # full-zero digest would actually pass
            header = dataclasses.replace(header, payload_digest=0x43)
            digest = header_digest(header, HP)
        assert "block 0: difficulty" in validate(Block(header, digest))

    @pytest.mark.parametrize("nonce", [-3, 0x100, 0xFFF])
    def test_nonce_wider_than_a_block_is_reported_unhashed(self, nonce):
        block = mined_block(0, 0x42, 7, 1)
        wide = Block(dataclasses.replace(block.header, nonce=nonce), block.digest)
        assert validate(wide) == ["block 0: nonce-range"]

    def test_nonce_past_the_register_is_reported_in_block_order(self, monkeypatch):
        # 0x10 fits the 8-bit block but not the 4-bit nonce register: block 0
        # is reported before block 1's link, and only block 1 is hashed
        genesis = mined_block(0, 0x42, 7, 1)
        second = mined_block(genesis.digest.value ^ 0x04, 0x43, 8, 1)
        genesis = Block(dataclasses.replace(genesis.header, nonce=0x10), genesis.digest)
        calls = count_rounds_calls(monkeypatch)
        assert validate(genesis, second) == ["block 0: nonce-range",
                                                     "block 1: prev-link"]
        assert [np.shape(state) for state in calls] == [(1,)] * 5

    @pytest.mark.parametrize("field, value", [
        ("prev_digest", 0x1FF), ("payload_digest", 0x100), ("payload_digest", -1),
        ("difficulty_zeros", 9), ("difficulty_zeros", -1), ("timestamp", -1)])
    def test_header_field_out_of_range_is_reported_unhashed(self, field, value,
                                                            monkeypatch):
        block = mined_block(0, 0x42, 7, 1)
        wide = Block(dataclasses.replace(block.header, **{field: value}), block.digest)
        link = ["block 0: genesis-prev"] if field == "prev_digest" else []
        monkeypatch.setattr(qmine.toyhash, "_rounds", None)  # never hashed
        assert validate(wide) == ["block 0: header-range"] + link
        wide = Block(dataclasses.replace(wide.header, nonce=0x100), block.digest)
        assert validate(wide) == ["block 0: header-range",
                                          "block 0: nonce-range"] + link

    def test_chain_of_mined_blocks_valid(self):
        genesis = mined_block(0, 0x42, 7, 1)
        second = mined_block(genesis.digest.value, 0x43, 8, 1)
        third = mined_block(second.digest.value, 0x44, 9, 1)
        assert validate(genesis, second, third) == []

    def test_broken_link_detected(self):
        genesis = mined_block(0, 0x42, 7, 1)
        stray = mined_block(genesis.digest.value ^ 0x04, 0x43, 8, 1)
        assert "block 1: prev-link" in validate(genesis, stray)

    def test_genesis_prev_must_be_zero(self):
        stray = mined_block(0x05, 0x42, 7, 1)
        assert "block 0: genesis-prev" in validate(stray)

    @pytest.mark.parametrize("nonce_bits", [0, 9])
    def test_nonce_width_checked(self, nonce_bits):
        with pytest.raises(ValueError, match=f"^nonce_bits must be in 1..8, got {nonce_bits}$"):
            Chain(hash_params=HP, nonce_bits=nonce_bits)


def grown_chain(hp, nonce_bits, length, seed):
    """A seeded chain of ``length`` linked blocks at random difficulties of at
    most 2 zeros, each mined by trying nonces 0, 1, ... up to 16; a block
    whose tries all fail keeps the last and violates its difficulty."""
    rng = np.random.default_rng(seed)
    chain = Chain(hash_params=hp, nonce_bits=nonce_bits)
    for _ in range(length):
        header = BlockHeader(chain.tip_digest(), int(rng.integers(hp.mask + 1)),
                             int(rng.integers(1 << 20)), int(rng.integers(3)), 0)
        prefix = hash_classical(serialize_header(header, hp), hp).value
        for nonce in range(min(1 << nonce_bits, 16)):
            digest = hash_classical([prefix ^ nonce], hp)
            if digest.meets_difficulty(header.difficulty_zeros):
                break
        chain.blocks.append(Block(dataclasses.replace(header, nonce=nonce), digest))
    return chain


CORRUPTIONS = ("digest-bit", "digest-width", "link", "genesis-prev", "header-field",
               "nonce-above-mask", "nonce-bits", "difficulty")


@st.composite
def corrupted_chains(draw):
    """A grown chain at m 4..16, r 1..8, either chi, with up to eight random
    corruptions of up to three of its blocks, so hashable and unhashable
    blocks mix and one block may carry several faults; with the indices of
    the blocks it may have corrupted."""
    hp = HashParams(draw(st.integers(4, 16)), draw(st.integers(1, 8)), draw(st.booleans()))
    m, mask = hp.digest_bits, hp.mask
    nonce_bits = draw(st.integers(1, m))
    chain = grown_chain(hp, nonce_bits, draw(st.integers(0, 130)),
                        draw(st.integers(0, 2 ** 32 - 1)))
    blocks = chain.blocks
    if not blocks:
        return chain, []
    targets = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=1, max_size=3))
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=8)):
        i = 0 if kind == "genesis-prev" else draw(st.sampled_from(targets))
        header, digest = blocks[i].header, blocks[i].digest
        if kind == "digest-bit":
            digest = Digest(digest.value ^ 1 << draw(st.integers(0, m - 1)), m)
        elif kind == "digest-width":
            digest = Digest(digest.value, m + 1)
        elif kind == "link":
            header = dataclasses.replace(
                header, prev_digest=header.prev_digest ^ 1 << draw(st.integers(0, m - 1)))
        elif kind == "genesis-prev":
            header = dataclasses.replace(header, prev_digest=draw(st.integers(1, mask)))
        elif kind == "header-field":
            field, value = draw(st.sampled_from([
                ("prev_digest", mask + 1), ("prev_digest", -1),
                ("payload_digest", mask + 1), ("payload_digest", -1),
                ("difficulty_zeros", m + 1), ("difficulty_zeros", -1),
                ("timestamp", -1)]))
            header = dataclasses.replace(header, **{field: value})
        elif kind == "nonce-above-mask":
            header = dataclasses.replace(header, nonce=draw(
                st.sampled_from([-1, mask + 1, mask + 1 + draw(st.integers(0, 1000))])))
        elif kind == "nonce-bits":
            header = dataclasses.replace(
                header, nonce=draw(st.integers(1 << nonce_bits, max(1 << nonce_bits, mask))))
        else:  # a difficulty the digest of the re-hashed header may miss
            header = dataclasses.replace(header, difficulty_zeros=draw(st.integers(1, m)))
            try:
                digest = header_digest(header, hp)
            except ValueError:  # an earlier corruption left it unhashable
                pass
        blocks[i] = Block(header, digest)
    return chain, sorted({0, *targets})


class TestBatchedValidation:
    """Validation hashes every hashable header at once but reports what the
    one-block-at-a-time reference reports, reason for reason."""

    @given(corrupted=corrupted_chains())
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_reasons_equal_the_per_block_reference(self, corrupted):
        chain, corrupted_blocks = corrupted
        assert chain.validate() == reference_chain_validate(chain)
        for i in corrupted_blocks:
            alone = dataclasses.replace(chain, blocks=[chain.blocks[i]])
            assert alone.validate() == reference_chain_validate(alone)

    @pytest.mark.parametrize("length", [1, 10, 300])
    def test_five_rounds_calls_whatever_the_length(self, monkeypatch, length):
        chain = grown_chain(HashParams(16, 2), 8, length, seed=length)
        expected = reference_chain_validate(chain)
        calls = count_rounds_calls(monkeypatch)
        assert chain.validate() == expected
        assert [np.shape(state) for state in calls] == [(length,)] * 5

    def test_no_rounds_call_without_a_hashable_header(self, monkeypatch):
        # 0x10 fits the 8-bit block, but not the 4-bit nonce register
        chain = grown_chain(HP, 4, 10, seed=3)
        unhashable = dataclasses.replace(chain, blocks=[
            Block(dataclasses.replace(b.header, nonce=0x10), b.digest) for b in chain.blocks])
        expected = reference_chain_validate(unhashable)
        calls = count_rounds_calls(monkeypatch)
        assert unhashable.validate() == expected
        assert validate() == []
        assert validate(unhashable.blocks[0]) == ["block 0: nonce-range"]
        assert calls == []


class TestPersistence:
    def build_chain(self):
        genesis = mined_block(0, 0x42, 7, 1)
        second = mined_block(genesis.digest.value, 0x43, 8, 1)
        return Chain(hash_params=HP, nonce_bits=4, blocks=[genesis, second])

    def test_round_trip(self, tmp_path):
        chain = self.build_chain()
        path = tmp_path / "chain.json"
        save_chain(chain, path)
        assert load_chain(path) == chain

    def test_version_field(self, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(self.build_chain(), path)
        assert '"version": "qmine-chain/1"' in path.read_text()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(self.build_chain(), path)
        path.write_text(path.read_text().replace("qmine-chain/1", "qmine-chain/9"))
        with pytest.raises(ValueError):
            load_chain(path)

    def test_loaded_chain_validates(self, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(self.build_chain(), path)
        assert load_chain(path).validate() == []

    def test_golden_file_format_stable(self, tmp_path):
        golden = Path(__file__).parent / "data" / "golden_chain.json"
        chain = load_chain(golden)
        assert chain.validate() == []
        path = tmp_path / "rewritten.json"
        save_chain(chain, path)
        assert path.read_text() == golden.read_text()

    def test_hash_round_trip_through_digest_hex(self):
        digest = hash_classical([0x12, 0x34], HP)
        assert Digest(int(digest.hex, 16), 8) == digest
