"""PagedAttention-style block manager with automatic prefix caching.

KV storage is carved into fixed-size blocks handed to sequences on
demand and tracked through per-sequence block tables — vLLM/LMDeploy's
design.  Growth never copies; memory returns on free.

With ``prefix_caching=True`` the store is *content-addressed* the way
vLLM's automatic prefix caching and SGLang's RadixAttention are: every
full block whose token ids are known gets a chained hash (its content
plus the hash of the block before it), ref-counted sharing lets a new
sequence adopt another sequence's identical prompt prefix without
allocating or copying, and blocks whose last reference drops are
*retained* in an LRU pool so a later identical prompt still hits.  The
LRU pool is reclaimed on demand when the free list runs dry, so caching
never shrinks usable capacity.

Two subtleties the paper highlights (Section 3.1.2) are modelled
explicitly:

- Sparse eviction punches holes into blocks, and a block is only
  reclaimable when *every* slot in it is dead — sparsity-induced "free"
  memory shows up as internal fragmentation until whole blocks drain.
  ``compact_sequence`` models the explicit gather-copy an implementation
  must run to get that memory back, at the cost of copied tokens.
- Compression breaks shareability: a block touched by sparse eviction
  (``evict``) or in-place quantization (``mark_mutated``) diverges from
  the content its hash promises, so its hash is invalidated — and if the
  block is shared, the mutating sequence first gets a private
  copy-on-write duplicate (counted in ``copied_tokens``) so other
  holders keep the pristine prefix.  Compressed KV therefore never
  participates in prefix reuse, exactly the friction between
  compression and paged sharing the paper describes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.kvcache.base import CapacityError, KVCacheStore, StoreStats


class BlockKey:
    """Chained content key of one full block: its token ids and the key
    of the block before it, so two keys are equal exactly when their
    whole prefixes are.

    The hash is computed once, from the parent's and the block's ids,
    and equality walks both chains in a loop that stops at the first
    ancestor the two share, so neither recurses through the prefix
    however long the prompt.  A probe chained on the *stored* key of the
    block before it compares with its stored match in O(1): the two
    parents are one object.
    """

    __slots__ = ("parent", "ids", "_hash")

    def __init__(
        self, parent: Optional["BlockKey"], ids: Tuple[int, ...]
    ) -> None:
        self.parent = parent
        self.ids = ids
        self._hash = hash((None if parent is None else parent._hash, ids))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockKey):
            return NotImplemented
        a: Optional[BlockKey] = self
        b: Optional[BlockKey] = other
        while a is not b:
            if (
                a is None or b is None
                or a._hash != b._hash or a.ids != b.ids
            ):
                return False
            a, b = a.parent, b.parent
        return True


@dataclass
class _Block:
    """One fixed-size block: live slots, sharing state, content hash."""

    live_slots: Set[int] = field(default_factory=set)
    used_slots: int = 0  # high-water mark of appended slots
    ref_count: int = 1
    key: Optional[BlockKey] = None  # set only for full, unmutated blocks


@dataclass
class _PagedSeq:
    blocks: List[int] = field(default_factory=list)
    length: int = 0
    live: int = 0  # running live-slot count (this sequence's view)
    #: chained keys of the leading full blocks (for hash-chain extension)
    chain: List[BlockKey] = field(default_factory=list)
    #: token ids in the open tail block; ``None`` once the chain is broken
    tail_ids: Optional[List[int]] = field(default_factory=list)


class PagedStore(KVCacheStore):
    """Fixed-block allocator with block tables, hole tracking, and
    optional content-addressed prefix sharing."""

    def __init__(
        self,
        capacity_tokens: int,
        block_size: int = 16,
        prefix_caching: bool = False,
        telemetry=None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if capacity_tokens < block_size:
            raise ValueError("capacity must hold at least one block")
        self.block_size = block_size
        self.n_blocks = capacity_tokens // block_size
        self.prefix_caching = prefix_caching
        # duck-typed sink (repro.serving.telemetry.Telemetry); kvcache
        # stays import-free of the serving package
        self.telemetry = telemetry
        self._free: List[int] = list(range(self.n_blocks))
        self._blocks: Dict[int, _Block] = {}
        self._seqs: Dict[str, _PagedSeq] = {}
        self._copied = 0
        # running counters (stats() never recounts; the tests check
        # them against a recount of the block tables)
        self._live = 0  # live slots across referenced (ref_count>0) blocks
        # content-addressed state
        self._index: Dict[BlockKey, int] = {}  # block key -> block id
        self._lru: "OrderedDict[int, None]" = OrderedDict()  # cached, ref==0
        self.prefix_hits = 0
        self.reused_tokens = 0
        self.cached_block_evictions = 0

    def _publish(self) -> None:
        """Push occupancy gauges to the attached telemetry sink, if any."""
        if self.telemetry is not None:
            self.telemetry.sample_store(self)

    # ------------------------------------------------------------------
    # block lifecycle
    # ------------------------------------------------------------------
    def _alloc_block(self) -> int:
        if not self._free and self._lru:
            # reclaim the least-recently-released cached block
            old, _ = self._lru.popitem(last=False)
            blk = self._blocks.pop(old)
            del self._index[blk.key]
            self._free.append(old)
            self.cached_block_evictions += 1
        if not self._free:
            raise CapacityError("no free blocks")
        bid = self._free.pop()
        self._blocks[bid] = _Block()
        return bid

    def _decref(self, bid: int) -> None:
        """Drop one reference; retain hashed blocks in the LRU pool."""
        blk = self._blocks[bid]
        blk.ref_count -= 1
        if blk.ref_count > 0:
            return
        self._live -= len(blk.live_slots)
        if blk.key is not None:
            self._lru[bid] = None  # cached for future prefix hits
        else:
            del self._blocks[bid]
            self._free.append(bid)

    def _share(self, bid: int, seq: _PagedSeq) -> None:
        """Add an existing (possibly cached) block to a sequence."""
        blk = self._blocks[bid]
        if blk.ref_count == 0:
            del self._lru[bid]  # revived from the cached pool
            self._live += len(blk.live_slots)
        blk.ref_count += 1
        seq.blocks.append(bid)
        seq.length += self.block_size
        seq.live += self.block_size

    def _unhash(self, bid: int) -> None:
        blk = self._blocks[bid]
        if blk.key is not None:
            self._index.pop(blk.key, None)
            blk.key = None

    def _privatize(self, seq: _PagedSeq, block_idx: int) -> int:
        """Copy-on-write: give ``seq`` a private copy of a shared block."""
        old_bid = seq.blocks[block_idx]
        old = self._blocks[old_bid]
        new_bid = self._alloc_block()
        new = self._blocks[new_bid]
        new.live_slots = set(old.live_slots)
        new.used_slots = old.used_slots
        seq.blocks[block_idx] = new_bid
        copied = len(new.live_slots)
        self._live += copied
        self._copied += copied
        self._decref(old_bid)
        return new_bid

    def _append_slots(self, seq: _PagedSeq, n: int) -> None:
        """Bulk-fill ``n`` slots: whole blocks at a time, O(blocks)."""
        bs = self.block_size
        while n > 0:
            slot = seq.length % bs
            if slot == 0:
                seq.blocks.append(self._alloc_block())
            blk = self._blocks[seq.blocks[-1]]
            take = min(n, bs - slot)
            blk.live_slots.update(range(slot, slot + take))
            blk.used_slots = max(blk.used_slots, slot + take)
            seq.length += take
            seq.live += take
            self._live += take
            n -= take

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def cached_prefix(self, token_ids: Sequence[int]) -> int:
        """Tokens of ``token_ids`` resident as cached full blocks.

        Pure query: no reference counts change and LRU order is
        untouched (routers probe every instance per arrival).
        """
        if not self.prefix_caching:
            return 0
        ids = tuple(int(t) for t in token_ids)
        bs = self.block_size
        parent: Optional[BlockKey] = None
        for i in range(len(ids) // bs):
            bid = self._index.get(BlockKey(parent, ids[i * bs:(i + 1) * bs]))
            if bid is None:
                return i * bs
            parent = self._blocks[bid].key  # chain on the stored key
        return len(ids) // bs * bs

    def _register(self, seq: _PagedSeq, block_idx: int, key: BlockKey) -> None:
        """Hash a freshly-filled full block (idempotent on collisions)."""
        bid = seq.blocks[block_idx]
        if key not in self._index:
            self._blocks[bid].key = key
            self._index[key] = bid

    # ------------------------------------------------------------------
    # sequence API
    # ------------------------------------------------------------------
    def add_sequence(
        self,
        seq_id: str,
        prompt_tokens: int,
        token_ids: Optional[Sequence[int]] = None,
    ) -> int:
        """Reserve storage for a new sequence; returns tokens *reused*
        from the prefix cache (always 0 without ``prefix_caching`` or
        ``token_ids``)."""
        if seq_id in self._seqs:
            raise KeyError(f"sequence {seq_id!r} already present")
        if prompt_tokens < 1:
            raise ValueError("prompt_tokens must be positive")
        seq = _PagedSeq()
        reused = 0
        try:
            if self.prefix_caching and token_ids is not None:
                ids = tuple(int(t) for t in token_ids)
                if len(ids) != prompt_tokens:
                    raise ValueError(
                        "token_ids must cover exactly prompt_tokens"
                    )
                bs = self.block_size
                keys: List[BlockKey] = []
                parent: Optional[BlockKey] = None
                for i in range(len(ids) // bs):
                    key = BlockKey(parent, ids[i * bs:(i + 1) * bs])
                    if reused == i * bs:  # every block so far matched
                        bid = self._index.get(key)
                        if bid is not None:
                            self._share(bid, seq)
                            reused += bs
                            key = self._blocks[bid].key  # the stored key
                    keys.append(key)
                    parent = key
                self._append_slots(seq, prompt_tokens - seq.length)
                # hash the freshly-filled full blocks so later arrivals hit
                for i in range(reused // self.block_size, len(keys)):
                    self._register(seq, i, keys[i])
                seq.chain = keys
                seq.tail_ids = list(ids[len(keys) * self.block_size:])
            else:
                self._append_slots(seq, prompt_tokens)
                seq.tail_ids = None  # unknown content: chain never starts
        except CapacityError:
            for bid in seq.blocks:
                self._decref(bid)
            raise
        self._seqs[seq_id] = seq
        if reused:
            self.prefix_hits += 1
            self.reused_tokens += reused
        self._publish()
        return reused

    def append(
        self,
        seq_id: str,
        n_tokens: int = 1,
        token_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Extend a sequence; with ``token_ids`` (one id per appended
        token) the hash chain keeps growing, so decode output becomes a
        cacheable prefix for the next conversation turn."""
        seq = self._seqs[seq_id]
        self._append_slots(seq, n_tokens)
        try:
            if not self.prefix_caching or seq.tail_ids is None:
                return
            if token_ids is None or len(token_ids) != n_tokens:
                seq.tail_ids = None  # content unknown from here on
                return
            seq.tail_ids.extend(int(t) for t in token_ids)
            bs = self.block_size
            while len(seq.tail_ids) >= bs:
                prev = seq.chain[-1] if seq.chain else None
                key = BlockKey(prev, tuple(seq.tail_ids[:bs]))
                self._register(seq, len(seq.chain), key)
                seq.chain.append(key)
                del seq.tail_ids[:bs]
        finally:
            self._publish()

    def _mutate(
        self, seq_id: str, positions: List[int], punch_hole: bool
    ) -> None:
        seq = self._seqs[seq_id]
        bs = self.block_size
        for pos in positions:
            if not 0 <= pos < seq.length:
                raise ValueError(f"position {pos} out of range")
            b = pos // bs
            bid = seq.blocks[b]
            blk = self._blocks[bid]
            if blk.ref_count > 1:
                # shared: mutate a private copy, leave peers pristine
                bid = self._privatize(seq, b)
                blk = self._blocks[bid]
            else:
                self._unhash(bid)  # content diverges: no longer shareable
            if b < len(seq.chain):
                del seq.chain[b:]
            seq.tail_ids = None  # chain can never be extended again
            if punch_hole:
                slot = pos % bs
                if slot in blk.live_slots:
                    blk.live_slots.discard(slot)
                    self._live -= 1
                    seq.live -= 1

    def evict(self, seq_id: str, positions: List[int]) -> None:
        """Mark slots dead (sparse eviction).

        Dead blocks are *not* auto-reclaimed: the position -> block
        mapping must stay stable for future appends and evictions, so
        memory only returns via :meth:`compact_sequence` or :meth:`free`
        — precisely the management friction between sparse eviction and
        PagedAttention the paper describes.  An evicted block loses its
        content hash (it no longer stores what the hash promises), and a
        *shared* block is copy-on-write duplicated first so other
        sequences keep the unmutated prefix.
        """
        self._mutate(seq_id, positions, punch_hole=True)
        self._publish()

    def mark_mutated(self, seq_id: str, positions: List[int]) -> None:
        """Record in-place mutation (e.g. quantization write-back) of
        the given positions: the touched blocks keep their slots but
        lose shareability — hash invalidated, shared blocks privatized
        via copy-on-write.  This is the explicit compression/prefix-
        caching friction of the paper's Section 3.1.2."""
        self._mutate(seq_id, positions, punch_hole=False)
        self._publish()

    def compact_sequence(self, seq_id: str) -> int:
        """Gather live tokens into dense blocks; returns tokens copied.

        Compaction rewrites the layout, so the compacted sequence's
        blocks are unhashed (their content no longer aligns with any
        token-id block boundary); shared blocks are merely de-referenced
        and survive for their other holders.
        """
        seq = self._seqs[seq_id]
        live = seq.live
        for bid in seq.blocks:
            self._decref(bid)
        seq.blocks = []
        seq.length = 0
        seq.live = 0
        seq.chain = []
        seq.tail_ids = None
        self._append_slots(seq, live)
        self._copied += live
        self._publish()
        return live

    def free(self, seq_id: str) -> None:
        """Release a sequence.  Hashed blocks whose last reference drops
        are retained in the LRU cached pool for future prefix hits."""
        seq = self._seqs.pop(seq_id)
        for bid in seq.blocks:
            self._decref(bid)
        self._publish()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def sequence_tokens(self, seq_id: str) -> int:
        return self._seqs[seq_id].live

    def sequence_blocks(self, seq_id: str) -> int:
        """Blocks currently held by a sequence."""
        return len(self._seqs[seq_id].blocks)

    def block_ref_count(self, seq_id: str, block_idx: int) -> int:
        """Reference count of one of a sequence's blocks."""
        return self._blocks[self._seqs[seq_id].blocks[block_idx]].ref_count

    @property
    def cached_blocks(self) -> int:
        """Unreferenced blocks retained for prefix reuse."""
        return len(self._lru)

    def stats(self) -> StoreStats:
        return StoreStats(
            allocated_tokens=len(self._blocks) * self.block_size,
            live_tokens=self._live,
            capacity_tokens=self.n_blocks * self.block_size,
            copied_tokens=self._copied,
            cached_tokens=len(self._lru) * self.block_size,
        )
