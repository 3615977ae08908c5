"""The functional decoder transformer (pure NumPy, cache-aware).

``FunctionalTransformer`` runs prefill and decode exactly like a serving
engine would: prefill projects the whole prompt, appends K/V to the
session cache and computes causal attention; decode appends one token at
a time.  A *compressor* (duck-typed, see :mod:`repro.compression.base`)
can observe attention probabilities and mutate the cache (quantize
entries in place, evict positions) after every phase — mirroring where
real KV-compression implementations hook into the serving stack.

Attention probabilities are only materialized when the compressor's
``needs_probs`` flag demands it; with the flash-style implementation the
model refuses to serve probability-hungry compressors, reproducing the
FlashAttention incompatibility discussed in the paper (Section 3.1.2).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.model.attention import flash_attention, naive_attention
from repro.model.builder import build_weights, head_biases
from repro.model.cache import SessionCache
from repro.model.config import FunctionalModelConfig
from repro.model.layers import ModelWeights
from repro.model.tokenizer import SyntheticTokenizer

#: soft cap on score-matrix elements per attention chunk
_CHUNK_ELEMENTS = 8_000_000

#: FP16 prefill processes prompts in blocks of this many positions,
#: aligned to absolute position.  Alignment makes every block's K/V a
#: fixed-shape function of its prefix tokens, so a warm prefill that
#: resumes at a block boundary replays bit-identical computations —
#: BLAS matmul rounding depends on operand shapes, so unaligned resume
#: points would drift by ULPs.  This is also the reuse granularity of
#: prefix caching (real engines reuse whole KV blocks the same way).
PREFILL_BLOCK = 64


class FlashIncompatibilityError(RuntimeError):
    """Raised when a probs-requiring compressor meets flash attention."""


class FunctionalTransformer:
    """Decoder-only transformer with pluggable KV compression."""

    def __init__(
        self,
        config: FunctionalModelConfig,
        weights: Optional[ModelWeights] = None,
        attention_impl: str = "naive",
        prefill_block: int = PREFILL_BLOCK,
    ) -> None:
        if attention_impl not in ("naive", "flash"):
            raise ValueError("attention_impl must be 'naive' or 'flash'")
        if prefill_block < 1:
            raise ValueError("prefill_block must be positive")
        self.config = config
        self.weights = weights if weights is not None else build_weights(config)
        self.biases = head_biases(config)
        self.tokenizer = SyntheticTokenizer(config.vocab_size)
        self.attention_impl = attention_impl
        self.prefill_block = prefill_block

    # ------------------------------------------------------------------
    def new_cache(
        self, batch: int, seq_start: np.ndarray, capacity: int = 64
    ) -> SessionCache:
        """Fresh session cache for ``batch`` left-padded sequences, with
        room for ``capacity`` positions before it first grows."""
        c = self.config
        return SessionCache(
            c.n_layers, batch, c.n_kv_heads, c.head_dim, seq_start, capacity
        )

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Token embedding lookup, (b, s) -> (b, s, d_model)."""
        return self.weights.embedding[tokens]

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        """Unembedding, (..., d_model) -> (..., vocab)."""
        return hidden @ self.weights.unembedding + self.weights.logit_bias

    # ------------------------------------------------------------------
    def _wants_probs(self, compressor) -> bool:
        wants = compressor is not None and getattr(compressor, "needs_probs", False)
        if wants and self.attention_impl == "flash":
            raise FlashIncompatibilityError(
                f"compressor {type(compressor).__name__} requires attention "
                "probabilities, which the one-pass flash implementation does "
                "not materialize (see paper Section 3.1.2)"
            )
        return wants

    def _attend(
        self,
        li: int,
        q: np.ndarray,
        cache: SessionCache,
        q_pos: np.ndarray,
        compressor,
    ) -> np.ndarray:
        """Attention for layer ``li`` over the session cache, chunked."""
        lc = cache[li]
        c = self.config
        wants_probs = self._wants_probs(compressor)
        b, h, sq, _ = q.shape
        n = lc.length
        chunk = max(1, _CHUNK_ELEMENTS // max(1, b * h * n))
        outs = []
        k_pos = lc.positions
        k_full = lc.k
        v_full = lc.v
        keep_full = lc.keep
        for start in range(0, sq, chunk):
            stop = min(start + chunk, sq)
            qc = q[:, :, start:stop]
            # causality: keys beyond the last query position never attend
            kmax = min(n, int(q_pos[stop - 1]) + 1)
            kk, vv = k_full[:, :, :kmax], v_full[:, :, :kmax]
            keep = keep_full[:, :, :kmax]
            kp = k_pos[:kmax]
            if self.attention_impl == "flash" and not wants_probs:
                out_c = flash_attention(
                    qc, kk, vv, q_pos[start:stop], kp,
                    self.biases[li], keep=keep, gqa_group=c.gqa_group,
                )
            else:
                shape = (b, h, stop - start, kmax)
                scores = cache.workspace(math.prod(shape)).reshape(shape)
                out_c, probs = naive_attention(
                    qc, kk, vv, q_pos[start:stop], kp,
                    self.biases[li], keep=keep, gqa_group=c.gqa_group,
                    out=scores,
                )
                if wants_probs:
                    compressor.observe(li, probs, q_pos[start:stop], kp, lc)
            outs.append(out_c)
        return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)

    def _layer_forward(
        self,
        li: int,
        x: np.ndarray,
        cache: SessionCache,
        q_pos: np.ndarray,
        compressor,
        phase: str,
    ) -> np.ndarray:
        c = self.config
        w = self.weights.layers[li]
        q, k, v = w.attn.project_qkv(x, c.n_heads, c.n_kv_heads, c.head_dim)
        cache[li].append(k, v)
        attn = self._attend(li, q, cache, q_pos, compressor)
        # ``x`` is this step's own embedding gather: update it in place
        x += w.attn.project_out(attn)
        rows = x.size // c.d_model
        x += w.mlp.forward(x, cache.workspace(3 * rows * c.d_ff))
        if compressor is not None:
            compressor.compress(li, cache[li], phase)
        return x

    # ------------------------------------------------------------------
    def _prefill_span(
        self,
        tokens: np.ndarray,
        cache: SessionCache,
        compressor,
    ) -> np.ndarray:
        """One contiguous prefill span starting at ``cache.length``."""
        b, L = tokens.shape
        x = self.embed(tokens)
        q_pos = np.arange(cache.length, cache.length + L)
        for li in range(self.config.n_layers):
            x = self._layer_forward(li, x, cache, q_pos, compressor, "prefill")
        return self.logits(x[:, -1])

    def prefill(
        self,
        tokens: np.ndarray,
        cache: SessionCache,
        compressor=None,
    ) -> np.ndarray:
        """Run the prompt through the model; returns last-position logits.

        ``tokens`` is (batch, prompt_len), already left-padded.  When the
        cache has been pre-seeded with a reused prefix (prefix caching),
        ``tokens`` holds only the uncached suffix and query positions
        continue from ``cache.length``.

        The FP16 path (no compressor) computes in position-aligned
        blocks of ``prefill_block`` tokens so each block's K/V is a
        fixed-shape, bit-reproducible function of its prefix — the
        property that makes warm prefill from a block-aligned reused
        prefix logit-exact versus a cold recompute.  Compressed prefill
        stays single-shot: compressors hook once per layer per prefill,
        and compressed K/V is never shared anyway.
        """
        if compressor is not None:
            return self._prefill_span(tokens, cache, compressor)
        start = cache.length
        total = tokens.shape[1]
        bs = self.prefill_block
        logits = None
        pos = start
        while pos < start + total:
            end = min((pos // bs + 1) * bs, start + total)
            logits = self._prefill_span(
                tokens[:, pos - start:end - start], cache, None
            )
            pos = end
        return logits

    def decode_step(
        self,
        token_ids: np.ndarray,
        cache: SessionCache,
        compressor=None,
    ) -> np.ndarray:
        """One decode step; ``token_ids`` is (batch,).  Returns logits."""
        x = self.embed(token_ids[:, None])
        q_pos = np.array([cache.length])
        for li in range(self.config.n_layers):
            x = self._layer_forward(li, x, cache, q_pos, compressor, "decode")
        return self.logits(x[:, -1])
