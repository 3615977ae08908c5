"""Tests for the paged KV block manager."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache import CapacityError, PagedStore, StoreStats


def recount_stats(store: PagedStore) -> StoreStats:
    """Slow recount of a paged store's stats from its block tables: the
    oracle for the running counters :meth:`PagedStore.stats` keeps."""
    return StoreStats(
        allocated_tokens=len(store._blocks) * store.block_size,
        live_tokens=sum(len(slots) for slots in store._blocks.values()),
        capacity_tokens=store.n_blocks * store.block_size,
        copied_tokens=store._copied,
    )


def recount_sequence_tokens(store: PagedStore, seq_id: str) -> int:
    """Slow recount of one sequence's live tokens from its blocks."""
    blocks = store._blocks
    return sum(len(blocks[bid]) for bid in store._seqs[seq_id].blocks)


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

    def test_failed_append_changes_nothing(self):
        """An append the free list cannot cover raises before it
        appends anything (a failed add_sequence already did)."""
        s = PagedStore(32, block_size=16)
        s.add_sequence("a", 20)
        before = s.stats()
        with pytest.raises(CapacityError):
            s.append("a", 20)
        assert s.sequence_tokens("a") == 20
        assert s.sequence_blocks("a") == 2
        assert s.stats() == before
        s.append("a", 12)  # what fits still appends
        assert s.sequence_tokens("a") == 32

    def test_failed_eviction_changes_nothing(self):
        """Every position is checked before any hole is punched."""
        s = PagedStore(256, block_size=16)
        s.add_sequence("a", 20)
        with pytest.raises(ValueError):
            s.evict("a", [0, 99])
        assert s.sequence_tokens("a") == 20
        assert s.stats().live_tokens == 20
        s.evict("a", [0])  # position 0 is still live
        assert s.sequence_tokens("a") == 19

    def test_compact_fully_evicted_sequence(self):
        s = PagedStore(4096, block_size=16)
        s.add_sequence("a", 32)
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
        sequence_tokens() always equal the slow recount oracles, and an
        add or append that runs out of blocks changes nothing."""
        rng = np.random.default_rng(seed)
        s = PagedStore(2048, block_size=16)
        alive = set()
        for step in range(60):
            op = rng.integers(0, 5)
            before = s.stats()
            if op == 0 and len(alive) < 6:
                sid = f"s{step}"
                try:
                    s.add_sequence(sid, int(rng.integers(1, 600)))
                    alive.add(sid)
                except CapacityError:
                    assert s.stats() == before
            elif alive:
                sid = sorted(alive)[int(rng.integers(0, len(alive)))]
                n = s.sequence_tokens(sid)
                if op == 1:
                    try:
                        s.append(sid, int(rng.integers(1, 40)))
                    except CapacityError:
                        assert s.stats() == before
                        assert s.sequence_tokens(sid) == n
                elif op == 2:
                    # live <= length, so these are always valid positions
                    if n:
                        k = int(rng.integers(1, 8))
                        s.evict(sid, [int(p) for p in rng.integers(0, n, k)])
                elif op == 3:
                    s.compact_sequence(sid)
                else:
                    s.free(sid)
                    alive.discard(sid)
            fast, slow = s.stats(), recount_stats(s)
            assert fast == slow
            for sid in alive:
                assert s.sequence_tokens(sid) == recount_sequence_tokens(s, sid)
