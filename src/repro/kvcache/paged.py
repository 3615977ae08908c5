"""PagedAttention-style KV block manager.

The store models how a serving engine *manages* cache memory (the
metadata plane); the functional model's numeric cache lives separately
in :mod:`repro.model.cache`.  KV storage is carved into fixed-size
blocks handed to sequences on demand and tracked through per-sequence
block tables — vLLM/LMDeploy's design.  Growth never copies; memory
returns on free.

Sparse eviction punches holes into blocks, and a block is only
reclaimable when *every* slot in it is dead, so sparsity-induced "free"
memory shows up as internal fragmentation until whole blocks drain —
the friction between sparse eviction and paged memory the paper
describes (Section 3.1.2).  ``compact_sequence`` models the explicit
gather-copy an implementation must run to get that memory back, at the
cost of copied tokens.

Every operation either completes or raises before it changes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set


class CapacityError(RuntimeError):
    """Raised when a store cannot satisfy an allocation."""


@dataclass(frozen=True)
class StoreStats:
    """Occupancy snapshot of a paged store."""

    allocated_tokens: int    # tokens with storage reserved
    live_tokens: int         # tokens actually retained
    capacity_tokens: int     # total store capacity
    copied_tokens: int       # tokens moved by compaction so far

    @property
    def internal_fragmentation(self) -> float:
        """Reserved-but-unused fraction of the allocation."""
        if self.allocated_tokens == 0:
            return 0.0
        return 1.0 - self.live_tokens / self.allocated_tokens


@dataclass
class _PagedSeq:
    blocks: List[int] = field(default_factory=list)  # the block table
    length: int = 0  # appended slots, dead ones included
    live: int = 0  # running live-slot count


class PagedStore:
    """Fixed-block allocator with block tables and hole tracking."""

    def __init__(self, capacity_tokens: int, block_size: int = 16) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if capacity_tokens < block_size:
            raise ValueError("capacity must hold at least one block")
        self.block_size = block_size
        self.n_blocks = capacity_tokens // block_size
        self._free: List[int] = list(range(self.n_blocks))
        #: the live slots of every allocated block, by block id
        self._blocks: Dict[int, Set[int]] = {}
        self._seqs: Dict[str, _PagedSeq] = {}
        self._copied = 0
        # running live-slot count (stats() never recounts; the tests
        # check it against a recount of the block tables)
        self._live = 0

    def _append_slots(self, seq: _PagedSeq, n: int) -> None:
        """Fill ``n`` slots, whole blocks at a time, O(blocks); raises
        :class:`CapacityError` first when the free list is short."""
        bs = self.block_size
        new_blocks = -(-(seq.length + n) // bs) - len(seq.blocks)
        if new_blocks > len(self._free):
            raise CapacityError("no free blocks")
        while n > 0:
            slot = seq.length % bs
            if slot == 0:
                bid = self._free.pop()
                self._blocks[bid] = set()
                seq.blocks.append(bid)
            take = min(n, bs - slot)
            self._blocks[seq.blocks[-1]].update(range(slot, slot + take))
            seq.length += take
            seq.live += take
            self._live += take
            n -= take

    def _release(self, seq: _PagedSeq) -> None:
        """Return every block of ``seq`` to the free list."""
        for bid in seq.blocks:
            self._live -= len(self._blocks.pop(bid))
            self._free.append(bid)

    # ------------------------------------------------------------------
    # sequence API
    # ------------------------------------------------------------------
    def add_sequence(self, seq_id: str, prompt_tokens: int) -> None:
        """Reserve storage for a new sequence's prompt."""
        if seq_id in self._seqs:
            raise KeyError(f"sequence {seq_id!r} already present")
        if prompt_tokens < 1:
            raise ValueError("prompt_tokens must be positive")
        seq = _PagedSeq()
        self._append_slots(seq, prompt_tokens)
        self._seqs[seq_id] = seq

    def append(self, seq_id: str, n_tokens: int = 1) -> None:
        """Extend a sequence by ``n_tokens`` decode tokens."""
        self._append_slots(self._seqs[seq_id], n_tokens)

    def evict(self, seq_id: str, positions: List[int]) -> None:
        """Mark slots dead (sparse eviction).

        Dead blocks are *not* auto-reclaimed: the position -> block
        mapping must stay stable for future appends and evictions, so
        memory only returns via :meth:`compact_sequence` or :meth:`free`
        — precisely the management friction between sparse eviction and
        PagedAttention the paper describes.
        """
        seq = self._seqs[seq_id]
        for pos in positions:
            if not 0 <= pos < seq.length:
                raise ValueError(f"position {pos} out of range")
        bs = self.block_size
        for pos in positions:
            slots = self._blocks[seq.blocks[pos // bs]]
            if pos % bs in slots:
                slots.remove(pos % bs)
                self._live -= 1
                seq.live -= 1

    def compact_sequence(self, seq_id: str) -> int:
        """Gather live tokens into dense blocks; returns tokens copied."""
        seq = self._seqs[seq_id]
        live = seq.live
        self._release(seq)
        seq.blocks = []
        seq.length = seq.live = 0
        self._append_slots(seq, live)
        self._copied += live
        return live

    def free(self, seq_id: str) -> None:
        """Release all storage of a finished sequence."""
        self._release(self._seqs.pop(seq_id))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def sequence_tokens(self, seq_id: str) -> int:
        """Live tokens currently stored for a sequence."""
        return self._seqs[seq_id].live

    def sequence_blocks(self, seq_id: str) -> int:
        """Blocks currently held by a sequence."""
        return len(self._seqs[seq_id].blocks)

    def stats(self) -> StoreStats:
        """Current occupancy statistics."""
        return StoreStats(
            allocated_tokens=len(self._blocks) * self.block_size,
            live_tokens=self._live,
            capacity_tokens=self.n_blocks * self.block_size,
            copied_tokens=self._copied,
        )
