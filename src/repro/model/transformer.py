"""The functional decoder transformer (pure NumPy, cache-aware).

``FunctionalTransformer`` runs prefill and decode exactly like a serving
engine would: prefill projects the whole prompt, appends K/V to the
session cache and computes causal attention (in the last layer for the
final position only, the one whose logits it returns); decode appends
one token at a time.  A *compressor* (duck-typed, see
:mod:`repro.compression.base`) can observe attention probabilities and
mutate the cache (quantize entries in place, evict positions) after
every phase — mirroring where real KV-compression implementations hook
into the serving stack.

Attention probabilities are only materialized when the compressor's
``needs_probs`` flag demands it; with the flash-style implementation the
model refuses to serve probability-hungry compressors, reproducing the
FlashAttention incompatibility discussed in the paper (Section 3.1.2).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.model.attention import flash_attention, naive_attention
from repro.model.builder import build_weights, head_biases
from repro.model.cache import SessionCache
from repro.model.config import FunctionalModelConfig
from repro.model.layers import ModelWeights
from repro.model.tokenizer import SyntheticTokenizer

#: soft cap on score-matrix elements per attention chunk
_CHUNK_ELEMENTS = 8_000_000


class FlashIncompatibilityError(RuntimeError):
    """Raised when a probs-requiring compressor meets flash attention."""


class FunctionalTransformer:
    """Decoder-only transformer with pluggable KV compression."""

    def __init__(
        self,
        config: FunctionalModelConfig,
        weights: Optional[ModelWeights] = None,
        attention_impl: str = "naive",
    ) -> None:
        if attention_impl not in ("naive", "flash"):
            raise ValueError("attention_impl must be 'naive' or 'flash'")
        self.config = config
        self.weights = weights if weights is not None else build_weights(config)
        self.biases = head_biases(config)
        self.tokenizer = SyntheticTokenizer(config.vocab_size)
        self.attention_impl = attention_impl
        self._workspace = np.empty(0, dtype=np.float32)

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

    def workspace(self, size: int) -> np.ndarray:
        """The first ``size`` elements of the model's float32 workspace,
        which grows on demand and is kept for the model's life.

        Prefill and decode compute every large intermediate of a layer
        here, laid out by phase: Q from element 0, then K and V until
        they are appended to the cache; each query chunk's scores after
        Q, its output over its own rows of Q, and the output projection
        after Q; then the MLP's gate, up and SiLU from element 0, its
        result over up (see DESIGN.md, "Model hot path").  No value in it
        is read across model calls: every call overwrites what the
        previous one left, so sessions may interleave on one model (but
        two threads may not call one model at once).
        """
        if self._workspace.size < size:
            self._workspace = np.empty(size, dtype=np.float32)
        return self._workspace[:size]

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
        scores_at: int,
    ) -> np.ndarray:
        """Attention for layer ``li`` over the session cache, chunked.

        Each query chunk's scores go to the workspace from element
        ``scores_at`` on, past ``q``'s own buffer, and its output
        overwrites that chunk's rows of ``q``, which the scores no longer
        need; returns ``q``, now the output (b, h, sq, dh).
        """
        lc = cache[li]
        c = self.config
        wants_probs = self._wants_probs(compressor)
        b, h, sq, _ = q.shape
        n = lc.length
        chunk = max(1, _CHUNK_ELEMENTS // max(1, b * h * n))
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
                qc[...] = flash_attention(
                    qc, kk, vv, q_pos[start:stop], kp,
                    self.biases[li], keep=keep, gqa_group=c.gqa_group,
                )
            else:
                shape = (b, h, stop - start, kmax)
                ws = self.workspace(scores_at + math.prod(shape))
                _, probs = naive_attention(
                    qc, kk, vv, q_pos[start:stop], kp,
                    self.biases[li], keep=keep, gqa_group=c.gqa_group,
                    out=ws[scores_at:].reshape(shape), attn_out=qc,
                )
                if wants_probs:
                    compressor.observe(li, probs, q_pos[start:stop], kp, lc)
        return q

    def _project(
        self, li: int, x: np.ndarray, cache: SessionCache
    ) -> np.ndarray:
        """Layer ``li``'s Q/K/V projections into the workspace (Q first,
        then K and V); appends K/V to the cache and returns Q."""
        c = self.config
        heads = c.n_heads + 2 * c.n_kv_heads
        qkv = self.workspace(x.size // c.d_model * heads * c.head_dim)
        q, k, v = self.weights.layers[li].attn.project_qkv(
            x, c.n_heads, c.n_kv_heads, c.head_dim, qkv
        )
        cache[li].append(k, v)
        return q

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
        q = self._project(li, x, cache)
        attn = self._attend(li, q, cache, q_pos, compressor, q.size)
        # ``x`` is this step's own embedding gather: update it in place
        proj = self.workspace(q.size + x.size)[q.size:].reshape(x.shape)
        x += w.attn.project_out(attn, proj)
        rows = x.size // c.d_model
        x += w.mlp.forward(x, self.workspace(3 * rows * c.d_ff))
        if compressor is not None:
            compressor.compress(li, cache[li], phase)
        return x

    # ------------------------------------------------------------------
    def _last_layer_forward(
        self,
        x: np.ndarray,
        cache: SessionCache,
        q_pos: np.ndarray,
        compressor,
    ) -> np.ndarray:
        """A prefill's last layer: K/V for every position, the rest for
        the final one, the only position whose output is read (returned,
        (b, 1, d_model)).  A compressor that ``needs_probs`` still
        attends from every query chunk, so ``observe`` sees every row."""
        c = self.config
        li = c.n_layers - 1
        w = self.weights.layers[li]
        q = self._project(li, x, cache)
        scores_at = q.size
        if not self._wants_probs(compressor):
            q, q_pos = q[:, :, -1:], q_pos[-1:]
        attn = self._attend(li, q, cache, q_pos, compressor, scores_at)
        x = x[:, -1:] + w.attn.project_out(attn[:, :, -1:])
        x += w.mlp.forward(x, self.workspace(3 * len(x) * c.d_ff))
        if compressor is not None:
            compressor.compress(li, cache[li], "prefill")
        return x

    def prefill(
        self,
        tokens: np.ndarray,
        cache: SessionCache,
        compressor=None,
    ) -> np.ndarray:
        """Run the prompt through the model; returns last-position logits.

        ``tokens`` is (batch, prompt_len), already left-padded; query
        positions continue from ``cache.length``.  The whole prompt runs
        as one span, with or without a compressor, so a compressor hooks
        once per layer; the last layer computes only the final
        position's output (:meth:`_last_layer_forward`).
        """
        x = self.embed(tokens)
        q_pos = np.arange(cache.length, cache.length + tokens.shape[1])
        for li in range(self.config.n_layers - 1):
            x = self._layer_forward(li, x, cache, q_pos, compressor, "prefill")
        x = self._last_layer_forward(x, cache, q_pos, compressor)
        return self.logits(x[:, -1])

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
