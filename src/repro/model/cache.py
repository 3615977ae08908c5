"""Runtime KV cache of the functional model.

The cache stores K/V per layer with a per-(sequence, kv-head) boolean
``keep`` mask so sparsity-based compressors can evict entries, plus a
``quantized_until`` watermark so quantization-based compressors can age
tokens out of the full-precision residual window exactly once.

Batched generation uses *left padding*: all sequences are right-aligned,
so one global position axis serves the whole batch and window/recency
cutoffs are uniform.  ``seq_start[b]`` records where sequence ``b``'s
real tokens begin (everything before it is permanently masked padding).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


class LayerCache:
    """K/V storage for one decoder layer.

    Arrays are (batch, n_kv_heads, capacity, head_dim); ``length`` is the
    number of valid positions (shared across the batch thanks to left
    padding).
    """

    def __init__(
        self,
        batch: int,
        n_kv_heads: int,
        head_dim: int,
        seq_start: np.ndarray,
        capacity: int = 64,
    ) -> None:
        self.batch = batch
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.seq_start = seq_start.astype(np.int64)
        self.length = 0
        self.quantized_until = 0
        self._k = np.zeros((batch, n_kv_heads, capacity, head_dim), dtype=np.float32)
        self._v = np.zeros((batch, n_kv_heads, capacity, head_dim), dtype=np.float32)
        self._keep = np.zeros((batch, n_kv_heads, capacity), dtype=bool)

    @property
    def capacity(self) -> int:
        """Allocated positions."""
        return self._k.shape[2]

    def _grow(self, needed: int) -> None:
        cap = self.capacity
        if needed <= cap:
            return
        new_cap = max(needed, 2 * cap)
        for name in ("_k", "_v"):
            old = getattr(self, name)
            new = np.zeros(
                (self.batch, self.n_kv_heads, new_cap, self.head_dim),
                dtype=np.float32,
            )
            new[:, :, :cap] = old
            setattr(self, name, new)
        keep = np.zeros((self.batch, self.n_kv_heads, new_cap), dtype=bool)
        keep[:, :, :cap] = self._keep
        self._keep = keep

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append (batch, kv_heads, s, head_dim) keys/values."""
        s = k_new.shape[2]
        self._grow(self.length + s)
        sl = slice(self.length, self.length + s)
        self._k[:, :, sl] = k_new
        self._v[:, :, sl] = v_new
        pos = np.arange(self.length, self.length + s)
        real = pos[None, :] >= self.seq_start[:, None]
        self._keep[:, :, sl] = real[:, None, :]
        self.length += s

    @property
    def k(self) -> np.ndarray:
        """Valid keys (batch, kv_heads, length, head_dim) — a view."""
        return self._k[:, :, : self.length]

    @property
    def v(self) -> np.ndarray:
        """Valid values — a view."""
        return self._v[:, :, : self.length]

    @property
    def keep(self) -> np.ndarray:
        """Valid keep mask (batch, kv_heads, length) — a view."""
        return self._keep[:, :, : self.length]

    @property
    def positions(self) -> np.ndarray:
        """Global positions 0..length-1."""
        return np.arange(self.length)

    def retained_counts(self) -> np.ndarray:
        """Number of retained entries per (batch, kv_head)."""
        return self.keep.sum(axis=2)

    def evict(self, batch_idx, head_idx, pos_idx) -> None:
        """Mark entries as evicted (advanced-indexing triples)."""
        self._keep[batch_idx, head_idx, pos_idx] = False

    def overwrite(
        self, positions: slice, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Replace stored K/V in a position range (quantization write-back)."""
        self._k[:, :, positions] = k
        self._v[:, :, positions] = v


class SessionCache:
    """Per-layer caches for one generation session, plus the session's
    float32 scratch buffer (:meth:`workspace`).

    ``capacity`` pre-sizes every layer for that many positions (a caller
    that knows prompt plus response length avoids the doubling copies).
    """

    def __init__(
        self,
        n_layers: int,
        batch: int,
        n_kv_heads: int,
        head_dim: int,
        seq_start: np.ndarray,
        capacity: int = 64,
    ) -> None:
        self.layers: List[LayerCache] = [
            LayerCache(batch, n_kv_heads, head_dim, seq_start, capacity)
            for _ in range(n_layers)
        ]
        self.seq_start = seq_start
        self._scratch = np.empty(0, dtype=np.float32)

    def workspace(self, size: int) -> np.ndarray:
        """The first ``size`` elements of the session's float32 scratch
        buffer, which grows on demand and never shrinks.

        The model computes attention scores and MLP intermediates here
        instead of in fresh temporaries.  Contents are only valid until
        the next call: each caller overwrites what the previous one left.
        """
        if self._scratch.size < size:
            self._scratch = np.empty(size, dtype=np.float32)
        return self._scratch[:size]

    def __getitem__(self, idx: int) -> LayerCache:
        return self.layers[idx]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def length(self) -> int:
        """Current sequence length (uniform across layers)."""
        return self.layers[0].length

    def retained_tokens(self) -> float:
        """Mean retained entries per (sequence, kv head) across layers."""
        return float(
            np.mean([lc.retained_counts().mean() for lc in self.layers])
        )


class PrefixCache:
    """Cross-request store of prompt K/V for warm-prefill reuse.

    Entries are keyed by the exact prompt token tuple and hold per-layer
    ``(k, v)`` snapshots of shape ``(n_kv_heads, len, head_dim)``.  A new
    prompt can adopt the longest stored entry that is a prefix of it, so
    a warm FP16 prefill only computes the uncached suffix.  Reuse is
    capped at ``len(prompt) - 1``: at least one token is always computed
    so prefill has logits to return.

    Only uncompressed (FP16, no-eviction) caches may be stored — a
    compressed cache's K/V no longer equals what a cold prefill would
    produce, the same shareability friction :class:`~repro.kvcache.paged.
    PagedStore` models at the block level.  Eviction is LRU over
    ``max_entries``.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[int, ...], List[Tuple[np.ndarray, np.ndarray]]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.reused_tokens = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(
        self,
        prompt: Sequence[int],
        layers: List[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Store per-layer ``(k, v)`` snapshots for ``prompt``.

        Arrays are copied: callers typically pass views into a live
        :class:`SessionCache` whose buffers keep mutating during decode.
        """
        key = tuple(int(t) for t in prompt)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = [(np.array(k), np.array(v)) for k, v in layers]
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def longest_match(
        self, prompt: Sequence[int], align: int = 1
    ) -> Optional[Tuple[int, List[Tuple[np.ndarray, np.ndarray]]]]:
        """Longest usable cached prefix of ``prompt``.

        Returns ``(matched_len, per_layer_kv)`` with arrays trimmed to
        ``matched_len`` positions, or ``None`` on a miss.  ``align``
        rounds the match down to a multiple (the model's prefill block:
        bit-exact resume requires a block-aligned boundary).  Counts
        hit / miss / reused-token statistics and refreshes LRU order.
        """
        ids = tuple(int(t) for t in prompt)
        best_key: Optional[Tuple[int, ...]] = None
        best_len = 0
        for key in self._entries:
            usable = min(len(key), len(ids) - 1) // align * align
            if usable > best_len and key[:usable] == ids[:usable]:
                best_key, best_len = key, usable
        if best_key is None:
            self.misses += 1
            return None
        self._entries.move_to_end(best_key)
        self.hits += 1
        self.reused_tokens += best_len
        layers = [
            (k[:, :best_len], v[:, :best_len])
            for k, v in self._entries[best_key]
        ]
        return best_len, layers
