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

from typing import List

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
    """Per-layer caches for one generation session.

    ``capacity`` pre-sizes every layer for that many positions (a caller
    that knows prompt plus response length avoids the doubling copies).
    The session owns only K/V, keep masks and watermarks: the float32
    intermediates of its forward passes live in the model's workspace
    (:meth:`FunctionalTransformer.workspace`), which keeps nothing from
    one model call to the next, so any number of sessions may interleave
    on one model.
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
