import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmine import (Block, BlockHeader, Chain, HashParams, MiningParams,
                   RegisterLayout, compute_required_zeros, hash_classical,
                   load_chain, mine_classical, mine_quantum, save_chain,
                   serialize_header, validate_block, validate_chain)
import qmine.chain
from qmine.chain import header_digest
from qmine.toyhash import Digest
from helpers import find_header_with_count

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
        with pytest.raises(ValueError):
            compute_required_zeros(8, 8)


def mined_block(prev, payload, timestamp, zeros, nonce_bits=4):
    header = BlockHeader(prev, payload, timestamp, zeros, 0)
    result = mine_classical(serialize_header(header, HP), make_params(zeros),
                            nonce_bits=nonce_bits)
    assert result.success
    return Block.from_header(dataclasses.replace(header, nonce=result.nonce), HP)


class TestValidation:
    def test_fresh_block_valid(self):
        block = mined_block(0, 0x42, 7, 1)
        assert validate_block(block, HP).ok

    def test_digest_flip_detected(self):
        block = mined_block(0, 0x42, 7, 1)
        bad = Block(block.header, Digest(block.digest.value ^ 0x01, 8))
        report = validate_block(bad, HP)
        assert not report.ok and "digest-mismatch" in report.reasons

    def test_difficulty_violation_detected(self):
        header = BlockHeader(0, 0x42, 7, 8, 0)
        digest = header_digest(header, HP)
        if digest.value == 0:  # full-zero digest would actually pass
            header = dataclasses.replace(header, payload_digest=0x43)
            digest = header_digest(header, HP)
        report = validate_block(Block(header, digest), HP)
        assert not report.ok and "difficulty" in report.reasons

    @pytest.mark.parametrize("nonce", [-3, 0x100, 0xFFF])
    def test_nonce_wider_than_a_block_is_reported_unhashed(self, nonce):
        block = mined_block(0, 0x42, 7, 1)
        wide = Block(dataclasses.replace(block.header, nonce=nonce), block.digest)
        assert validate_block(wide, HP).reasons == ["nonce-range"]
        assert validate_chain([wide], HP).reasons == ["block 0: nonce-range"]
        chain = Chain(hash_params=HP, nonce_bits=4, blocks=[wide])
        assert chain.validate().reasons == ["block 0: nonce-range"]

    @pytest.mark.parametrize("field, value", [
        ("prev_digest", 0x1FF), ("payload_digest", 0x100), ("payload_digest", -1),
        ("difficulty_zeros", 9), ("difficulty_zeros", -1), ("timestamp", -1)])
    def test_header_field_out_of_range_is_reported_unhashed(self, field, value,
                                                            monkeypatch):
        block = mined_block(0, 0x42, 7, 1)
        wide = Block(dataclasses.replace(block.header, **{field: value}), block.digest)
        monkeypatch.setattr(qmine.chain, "hash_classical", None)  # never hashed
        assert validate_block(wide, HP).reasons == ["header-range"]
        wide = Block(dataclasses.replace(wide.header, nonce=0x100), block.digest)
        assert validate_block(wide, HP).reasons == ["header-range", "nonce-range"]

    def test_chain_of_mined_blocks_valid(self):
        genesis = mined_block(0, 0x42, 7, 1)
        second = mined_block(genesis.digest.value, 0x43, 8, 1)
        third = mined_block(second.digest.value, 0x44, 9, 1)
        assert validate_chain([genesis, second, third], HP).ok

    def test_broken_link_detected(self):
        genesis = mined_block(0, 0x42, 7, 1)
        stray = mined_block(genesis.digest.value ^ 0x04, 0x43, 8, 1)
        report = validate_chain([genesis, stray], HP)
        assert not report.ok and any("prev-link" in r for r in report.reasons)

    def test_genesis_prev_must_be_zero(self):
        stray = mined_block(0x05, 0x42, 7, 1)
        report = validate_chain([stray], HP)
        assert not report.ok and any("genesis-prev" in r for r in report.reasons)


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
        assert load_chain(path).validate().ok

    def test_golden_file_format_stable(self, tmp_path):
        golden = Path(__file__).parent / "data" / "golden_chain.json"
        chain = load_chain(golden)
        assert chain.validate().ok
        path = tmp_path / "rewritten.json"
        save_chain(chain, path)
        assert path.read_text() == golden.read_text()

    def test_hash_round_trip_through_digest_hex(self):
        digest = hash_classical([0x12, 0x34], HP)
        assert Digest(int(digest.hex, 16), 8) == digest
