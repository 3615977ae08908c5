"""Content-addressed prefix index of the serving simulator.

The simulator prices time, not tensors, so the serving-level prefix
cache tracks *which* KV blocks an instance holds, keyed the same way
:class:`~repro.kvcache.paged.PagedStore` keys physical blocks: each
full block of ``block_size`` token ids gets a chained
:class:`~repro.kvcache.paged.BlockKey` (its own ids plus the key of the
block before it), making a cached prefix exactly a chain of matching
keys.  Each probe key is chained on the stored key of the block before
it, so a probe costs O(blocks) however long the prompt.  Admission
asks "how many prompt tokens are already resident?" and prices only the
uncached suffix via ``ServingCostModel.prefill_chunk``; a cache-affinity
router asks the same question on every instance (:meth:`peek` — no
statistics, no LRU touch) to steer a conversation back to the instance
holding its history.

Capacity is bounded in blocks with LRU eviction, mirroring the
unreferenced-block retention pool of :class:`PagedStore`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Sequence

from repro.kvcache.paged import BlockKey


class PrefixIndex:
    """LRU set of cached KV-block keys for one serving instance."""

    def __init__(
        self,
        block_size: int = 16,
        capacity_blocks: int = 4096,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be positive")
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        # each resident key maps to itself, so a probe finds the stored
        # key object to chain the next probe on
        self._blocks: "OrderedDict[BlockKey, BlockKey]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evicted_blocks = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def _resident(self, token_ids: Sequence[int]) -> Iterator[BlockKey]:
        """The stored keys of the leading resident blocks of
        ``token_ids``, in order, up to the first block not resident
        (only the blocks probed are read)."""
        bs = self.block_size
        blocks = self._blocks
        stored: Optional[BlockKey] = None
        for i in range(len(token_ids) // bs):
            ids = tuple(map(int, token_ids[i * bs:(i + 1) * bs]))
            stored = blocks.get(BlockKey(stored, ids))
            if stored is None:
                return
            yield stored

    def peek(self, token_ids: Sequence[int]) -> int:
        """Cached-prefix length in tokens; pure (no stats, no LRU touch).

        Routers probe every instance per arrival — a probe must not
        refresh recency or skew hit-rate accounting on instances that
        don't receive the request.
        """
        return sum(1 for _ in self._resident(token_ids)) * self.block_size

    def lookup(self, token_ids: Sequence[int]) -> int:
        """Cached-prefix length for an admission: counts hit/miss and
        refreshes the matched blocks' LRU recency."""
        matched = 0
        for key in self._resident(token_ids):
            self._blocks.move_to_end(key)
            matched += self.block_size
        if matched:
            self.hits += 1
        else:
            self.misses += 1
        return matched

    def insert(self, token_ids: Sequence[int]) -> int:
        """Register every full block of ``token_ids`` as resident;
        returns blocks newly added.  Oldest blocks fall off LRU when
        capacity is exceeded."""
        bs = self.block_size
        blocks = self._blocks
        added = 0
        key: Optional[BlockKey] = None
        for i in range(len(token_ids) // bs):
            ids = tuple(map(int, token_ids[i * bs:(i + 1) * bs]))
            probe = BlockKey(key, ids)
            key = blocks.get(probe)
            if key is None:
                key = blocks[probe] = probe
                added += 1
            else:
                blocks.move_to_end(key)
        while len(blocks) > self.capacity_blocks:
            blocks.popitem(last=False)
            self.evicted_blocks += 1
        return added

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one block."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
