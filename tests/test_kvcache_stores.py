"""Tests for the systems-level KV-cache stores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache import (
    CapacityError,
    ContiguousStore,
    PagedStore,
    QuantizedPagedStore,
    StoreStats,
)


def recount_stats(store: PagedStore) -> StoreStats:
    """Slow recount of a paged store's stats from its block tables: the
    oracle for the running counters :meth:`PagedStore.stats` keeps."""
    live = sum(
        len(b.live_slots)
        for b in store._blocks.values()
        if b.ref_count > 0
    )
    return StoreStats(
        allocated_tokens=len(store._blocks) * store.block_size,
        live_tokens=live,
        capacity_tokens=store.n_blocks * store.block_size,
        copied_tokens=store._copied,
        cached_tokens=len(store._lru) * store.block_size,
    )


def recount_sequence_tokens(store: PagedStore, seq_id: str) -> int:
    """Slow recount of one sequence's live tokens from its blocks."""
    blocks = store._blocks
    seq = store._seqs[seq_id]
    return sum(len(blocks[bid].live_slots) for bid in seq.blocks)


class TestContiguous:
    def test_power_of_two_reservation(self):
        s = ContiguousStore(4096)
        s.add_sequence("a", 100)
        assert s.stats().allocated_tokens == 128

    def test_growth_copies(self):
        s = ContiguousStore(4096)
        s.add_sequence("a", 100)
        for _ in range(29):
            s.append("a")
        assert s.stats().copied_tokens == 128  # one realloc at 129 tokens

    def test_eviction_does_not_release(self):
        s = ContiguousStore(4096)
        s.add_sequence("a", 256)
        s.evict("a", list(range(100)))
        st_ = s.stats()
        assert st_.allocated_tokens == 256
        assert st_.live_tokens == 156
        assert st_.internal_fragmentation > 0.3

    def test_free_releases(self):
        s = ContiguousStore(4096)
        s.add_sequence("a", 256)
        s.free("a")
        assert s.stats().allocated_tokens == 0

    def test_capacity_error(self):
        s = ContiguousStore(128)
        with pytest.raises(CapacityError):
            s.add_sequence("a", 200)

    def test_duplicate_sequence(self):
        s = ContiguousStore(1024)
        s.add_sequence("a", 10)
        with pytest.raises(KeyError):
            s.add_sequence("a", 10)

    def test_over_eviction_raises(self):
        s = ContiguousStore(1024)
        s.add_sequence("a", 10)
        with pytest.raises(ValueError):
            s.evict("a", list(range(11)))


class TestPaged:
    def test_block_count(self):
        s = PagedStore(1024, block_size=16)
        s.add_sequence("a", 33)
        assert s.sequence_blocks("a") == 3  # ceil(33/16)

    def test_no_copy_on_growth(self):
        s = PagedStore(4096, block_size=16)
        s.add_sequence("a", 100)
        for _ in range(300):
            s.append("a")
        assert s.stats().copied_tokens == 0

    def test_free_returns_blocks(self):
        s = PagedStore(1024, block_size=16)
        s.add_sequence("a", 512)
        s.free("a")
        assert s.stats().allocated_tokens == 0
        s.add_sequence("b", 1024)  # capacity fully reusable

    def test_holes_create_fragmentation(self):
        s = PagedStore(4096, block_size=16)
        s.add_sequence("a", 512)
        s.evict("a", list(range(0, 512, 2)))  # every other slot
        st_ = s.stats()
        assert st_.live_tokens == 256
        assert st_.allocated_tokens == 512  # no block fully dead
        assert st_.internal_fragmentation == pytest.approx(0.5)

    def test_dead_blocks_need_compaction(self):
        """Fully dead blocks stay allocated until explicit compaction."""
        s = PagedStore(4096, block_size=16)
        s.add_sequence("a", 128)
        s.evict("a", list(range(0, 32)))  # kill first two blocks entirely
        assert s.stats().allocated_tokens == 128
        s.compact_sequence("a")
        assert s.stats().allocated_tokens == 96

    def test_compaction_recovers_memory(self):
        s = PagedStore(4096, block_size=16)
        s.add_sequence("a", 512)
        s.evict("a", list(range(0, 512, 2)))
        copied = s.compact_sequence("a")
        assert copied == 256
        st_ = s.stats()
        assert st_.allocated_tokens == 256
        assert st_.copied_tokens == 256

    def test_failed_admission_rolls_back(self):
        s = PagedStore(64, block_size=16)
        s.add_sequence("a", 48)
        with pytest.raises(CapacityError):
            s.add_sequence("b", 32)
        # the partial allocation of "b" must have been released
        assert s.stats().allocated_tokens == 48
        s.add_sequence("c", 16)

    def test_invalid_eviction_position(self):
        s = PagedStore(256, block_size=16)
        s.add_sequence("a", 10)
        with pytest.raises(ValueError):
            s.evict("a", [10])

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 200),
        block=st.sampled_from([8, 16, 32]),
    )
    def test_live_token_conservation_property(self, seed, block):
        """Property: live tokens == appended - evicted, always."""
        rng = np.random.default_rng(seed)
        s = PagedStore(16384, block_size=block)
        appended = {}
        evicted = {}
        for i in range(5):
            n = int(rng.integers(1, 200))
            s.add_sequence(f"s{i}", n)
            appended[f"s{i}"] = n
            evicted[f"s{i}"] = set()
        for _ in range(30):
            sid = f"s{int(rng.integers(0, 5))}"
            if rng.random() < 0.5:
                s.append(sid)
                appended[sid] += 1
            else:
                alive = [
                    p for p in range(appended[sid]) if p not in evicted[sid]
                ]
                if alive:
                    p = int(rng.choice(alive))
                    s.evict(sid, [p])
                    evicted[sid].add(p)
        total_live = sum(
            appended[k] - len(evicted[k]) for k in appended
        )
        assert s.stats().live_tokens == total_live


class TestPrefixCachedPaged:
    """Content-addressed sharing, LRU retention, and the compression/
    shareability friction in the paged store."""

    IDS = list(range(40))  # 2 full 16-token blocks + 8-token tail

    def _store(self, capacity=4096):
        return PagedStore(capacity, block_size=16, prefix_caching=True)

    def test_identical_prompt_shares_full_blocks(self):
        s = self._store()
        assert s.add_sequence("a", 40, self.IDS) == 0
        assert s.add_sequence("b", 40, self.IDS) == 32
        # b holds the same two leading blocks plus its own tail
        assert s.block_ref_count("b", 0) == 2
        assert s.block_ref_count("b", 1) == 2
        assert s.block_ref_count("b", 2) == 1
        assert s.stats().allocated_tokens == 4 * 16  # not 6
        assert s.prefix_hits == 1 and s.reused_tokens == 32

    def test_free_shared_then_cached(self):
        s = self._store()
        s.add_sequence("a", 40, self.IDS)
        s.add_sequence("b", 40, self.IDS)
        s.free("a")  # shared blocks survive for b; a's tail returns
        assert s.block_ref_count("b", 0) == 1
        assert s.cached_blocks == 0
        assert s.stats().allocated_tokens == 3 * 16
        s.free("b")  # hashed blocks retained in the LRU pool
        assert s.cached_blocks == 2
        st_ = s.stats()
        assert st_.live_tokens == 0
        assert st_.cached_tokens == 32
        # a later identical prompt revives the cached blocks
        assert s.add_sequence("c", 40, self.IDS) == 32
        assert s.cached_blocks == 0

    def test_lru_reclaimed_when_free_list_dry(self):
        s = self._store(capacity=4 * 16)
        s.add_sequence("a", 32, self.IDS[:32])
        s.free("a")
        assert s.cached_blocks == 2
        # unhashable allocation must reclaim the cached pool, not fail
        s.add_sequence("b", 4 * 16)
        assert s.cached_block_evictions == 2
        assert s.cached_blocks == 0

    def test_evict_all_slots_of_shared_block(self):
        """Sparse eviction of a whole shared block privatizes first:
        the peer keeps the pristine, still-cached prefix."""
        s = self._store()
        s.add_sequence("a", 40, self.IDS)
        s.add_sequence("b", 40, self.IDS)
        s.evict("b", list(range(16)))  # every slot of b's first block
        assert s.stats().copied_tokens == 16  # copy-on-write
        assert s.block_ref_count("a", 0) == 1  # b detached
        assert s.sequence_tokens("b") == 24
        assert recount_sequence_tokens(s, "b") == 24
        # a is untouched and its blocks still serve prefix hits
        assert s.sequence_tokens("a") == 40
        assert s.cached_prefix(self.IDS) == 32

    def test_mutation_invalidates_hash(self):
        """Quantization write-back (mark_mutated) keeps the slots but
        breaks shareability — the Section 3.1.2 friction."""
        s = self._store()
        s.add_sequence("a", 40, self.IDS)
        assert s.cached_prefix(self.IDS) == 32
        s.mark_mutated("a", [0])
        assert s.cached_prefix(self.IDS) == 0
        assert s.sequence_tokens("a") == 40  # no holes punched
        # the mutated block is released on free; the second block's
        # content is still pristine, so it alone stays cached
        s.free("a")
        assert s.cached_blocks == 1
        assert s.stats().cached_tokens == 16

    def test_append_extends_hash_chain(self):
        s = self._store()
        s.add_sequence("a", 40, self.IDS)
        decode = list(range(100, 108))
        s.append("a", 8, decode)  # closes the 48-token third block
        full = self.IDS + decode
        assert s.cached_prefix(full) == 48
        # unknown content breaks the chain permanently
        s.append("a", 16)
        s.append("a", 16, list(range(200, 216)))
        assert s.cached_prefix(full) == 48

    def test_compact_fully_evicted_sequence(self):
        s = self._store()
        s.add_sequence("a", 32, self.IDS[:32])
        s.evict("a", list(range(32)))
        assert s.sequence_tokens("a") == 0
        assert s.compact_sequence("a") == 0
        assert s.sequence_blocks("a") == 0
        assert s.stats().allocated_tokens == 0
        s.append("a")  # still usable after compaction to zero
        assert s.sequence_tokens("a") == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_running_counters_match_recount(self, seed):
        """Property: the O(1) running counters in stats() and
        sequence_tokens() always equal the slow recount oracles."""
        rng = np.random.default_rng(seed)
        s = self._store(capacity=2048)
        prompts = [list(range(p, p + 48)) for p in (0, 0, 16, 400)]
        alive = set()
        for step in range(60):
            op = rng.integers(0, 5)
            if op == 0 and len(alive) < 6:
                sid = f"s{step}"
                ids = prompts[int(rng.integers(0, len(prompts)))]
                try:
                    s.add_sequence(sid, len(ids), ids)
                    alive.add(sid)
                except CapacityError:
                    pass
            elif alive:
                sid = sorted(alive)[int(rng.integers(0, len(alive)))]
                if op == 1:
                    s.append(sid, 1, [int(rng.integers(0, 50))])
                elif op == 2:
                    # live <= length, so this is always a valid position
                    n = s.sequence_tokens(sid)
                    if n:
                        s.evict(sid, [int(rng.integers(0, n))])
                elif op == 3:
                    s.compact_sequence(sid)
                else:
                    s.free(sid)
                    alive.discard(sid)
            fast, slow = s.stats(), recount_stats(s)
            assert fast == slow
            for sid in alive:
                assert s.sequence_tokens(sid) == recount_sequence_tokens(s, sid)


class TestQuantizedPaged:
    def test_migration_on_aging(self):
        s = QuantizedPagedStore(
            65536, residual_window=128, group_size=32
        )
        s.add_sequence("a", 512)
        assert s.migrated_tokens == 384  # 512-128 aged out at admission
        assert s.sequence_tokens("a") == 512

    def test_residual_stays_fp16(self):
        s = QuantizedPagedStore(65536, residual_window=128)
        s.add_sequence("a", 200)
        assert s._seqs["a"].fp16_tokens <= 128 + 32  # window + open group

    def test_effective_bytes_blend(self):
        s = QuantizedPagedStore(
            65536, residual_window=128, quant_bytes_per_token=0.25
        )
        s.add_sequence("a", 2048)
        eff = s.effective_bytes_per_token("a")
        assert 0.25 < eff < 0.35  # mostly quantized

    def test_decode_appends_migrate(self):
        s = QuantizedPagedStore(65536, residual_window=128, group_size=32)
        s.add_sequence("a", 128)
        before = s.migrated_tokens
        for _ in range(64):
            s.append("a")
        assert s.migrated_tokens >= before + 32

    def test_eviction_unsupported(self):
        s = QuantizedPagedStore(65536)
        s.add_sequence("a", 64)
        with pytest.raises(NotImplementedError):
            s.evict("a", [0])

    def test_free(self):
        s = QuantizedPagedStore(65536)
        s.add_sequence("a", 512)
        s.free("a")
        assert s.stats().live_tokens == 0

    def test_window_must_cover_group(self):
        with pytest.raises(ValueError):
            QuantizedPagedStore(65536, residual_window=16, group_size=32)
