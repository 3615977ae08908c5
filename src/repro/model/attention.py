"""Attention kernels of the functional model.

Two numerically equivalent implementations are provided:

- :func:`naive_attention` materializes the full score and probability
  matrices (the "multi-pass" pattern of the eager transformers library).
  It returns the attention probabilities, which score-based eviction
  policies (H2O, SnapKV) consume.
- :func:`flash_attention` computes the same output with streaming/online
  softmax over key tiles and never materializes probabilities.  This is
  the one-pass FlashAttention pattern; its inability to return
  probabilities is exactly the incompatibility the paper highlights
  between sparsity-based compression and FlashAttention (Section 3.1.2).

Positional behaviour is expressed as additive score biases per head
(:class:`HeadBias`), covering the hand-built circuit's previous-token and
sink heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.model.config import HeadRole
from repro.model.layers import softmax_inplace

NEG_INF = np.float32(-1e9)


@dataclass(frozen=True)
class HeadBias:
    """Additive attention-score bias for one head.

    ``kind`` is one of ``"none"``, ``"prev_token"`` (sharply peaked at
    key position ``i-1``), ``"sink"`` (bonus at key position 0) or
    ``"recency"`` (mild linear preference for nearby keys — the tie
    breaker that makes the induction head prefer the *latest* matching
    record, so distractor records lose by only a small margin).
    """

    kind: str = "none"
    strength: float = 0.0

    @staticmethod
    def for_role(
        role: HeadRole,
        prev_bias: float,
        sink_bias: float,
        recency_bias: float = 0.0,
    ) -> "HeadBias":
        """Bias appropriate for a circuit head role."""
        if role == HeadRole.PREV_TOKEN:
            return HeadBias("prev_token", prev_bias)
        if role == HeadRole.SINK:
            return HeadBias("sink", sink_bias)
        if role == HeadRole.INDUCTION and recency_bias:
            return HeadBias("recency", recency_bias)
        return HeadBias("none", 0.0)

    @property
    def active(self) -> bool:
        """Whether the bias is nonzero anywhere (else adding it is a no-op)."""
        return self.kind != "none" and self.strength != 0.0

    def matrix(self, q_pos: np.ndarray, k_pos: np.ndarray) -> np.ndarray:
        """Bias matrix of shape (len(q_pos), len(k_pos))."""
        if not self.active:
            return np.zeros((q_pos.size, k_pos.size), dtype=np.float32)
        if self.kind == "prev_token":
            dist = np.abs((q_pos[:, None] - 1) - k_pos[None, :])
            return (-self.strength * dist).astype(np.float32)
        if self.kind == "sink":
            bias = np.zeros((q_pos.size, k_pos.size), dtype=np.float32)
            bias[:, k_pos == 0] = self.strength
            return bias
        if self.kind == "recency":
            dist = np.maximum(q_pos[:, None] - k_pos[None, :], 0)
            return (-self.strength * dist).astype(np.float32)
        raise ValueError(f"unknown bias kind {self.kind!r}")


def expand_kv(x: np.ndarray, gqa_group: int) -> np.ndarray:
    """Repeat KV heads to match query heads (GQA)."""
    if gqa_group == 1:
        return x
    return np.repeat(x, gqa_group, axis=1)


def build_score_mask(
    q_pos: np.ndarray, k_pos: np.ndarray, keep: Optional[np.ndarray]
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Additive masks for causality and eviction, as two addends.

    ``keep`` is (batch, kv_heads, n_keys) boolean (True = retained) or
    None.  Returns ``(causal, evict)``: ``causal`` is (n_q, n_keys) and
    None when no key lies in any query's future (always so in decode);
    ``evict`` is (batch, kv_heads, 1, n_keys) and None when every key is
    retained.  Adding both to a score equals adding their sum except
    where a key is both in the future and evicted; such a score lands
    near ``-2e9`` either way and exponentiates to exactly 0 (see
    DESIGN.md, "Model hot path").
    """
    causal = evict = None
    future = k_pos[None, :] > q_pos[:, None]
    if future.any():
        causal = np.where(future, NEG_INF, np.float32(0.0))
    if keep is not None and not keep.all():
        evict = np.where(keep, np.float32(0.0), NEG_INF)[:, :, None, :]
    return causal, evict


def _bias_and_mask(
    scores: np.ndarray,
    q_pos: np.ndarray,
    k_pos: np.ndarray,
    biases: List[HeadBias],
    keep: Optional[np.ndarray],
    gqa_group: int,
) -> None:
    """Add the head biases and both masks to C-contiguous ``scores``
    (b, h, sq, n) in place.  The eviction mask is added through a
    (b, kv_heads, group, sq, n) view, never repeated per query head."""
    for hi, bias in enumerate(biases):
        if bias.active:
            scores[:, hi] += bias.matrix(q_pos, k_pos)
    causal, evict = build_score_mask(q_pos, k_pos, keep)
    if causal is not None:
        scores += causal
    if evict is not None:
        b, h, sq, n = scores.shape
        grouped = scores.reshape(b, h // gqa_group, gqa_group, sq, n)
        grouped += evict[:, :, None]


def naive_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    q_pos: np.ndarray,
    k_pos: np.ndarray,
    biases: List[HeadBias],
    keep: Optional[np.ndarray] = None,
    gqa_group: int = 1,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Multi-pass attention returning (output, probabilities).

    Shapes: q (b, h, sq, dh); k, v (b, kvh, n, dh); output (b, h, sq, dh);
    probabilities (b, h, sq, n).  The scores are computed in ``out``
    (C-contiguous (b, h, sq, n) float32) when given, and the returned
    probabilities are that buffer.
    """
    b, h, sq, dh = q.shape
    kx = expand_kv(k, gqa_group)
    vx = expand_kv(v, gqa_group)
    scores = np.matmul(q, np.transpose(kx, (0, 1, 3, 2)), out=out)
    scores *= 1.0 / float(np.sqrt(dh))  # python float: no f64 promotion
    _bias_and_mask(scores, q_pos, k_pos, biases, keep, gqa_group)
    probs = softmax_inplace(scores, axis=-1)
    return probs @ vx, probs


def flash_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    q_pos: np.ndarray,
    k_pos: np.ndarray,
    biases: List[HeadBias],
    keep: Optional[np.ndarray] = None,
    gqa_group: int = 1,
    tile: int = 128,
) -> np.ndarray:
    """One-pass streaming-softmax attention (no probabilities returned).

    Numerically equivalent to :func:`naive_attention` output; processes
    keys in tiles of ``tile`` with the online softmax recurrence.
    """
    b, h, sq, dh = q.shape
    kx = expand_kv(k, gqa_group)
    vx = expand_kv(v, gqa_group)
    n = kx.shape[2]

    m = np.full((b, h, sq, 1), -np.inf)
    l = np.zeros((b, h, sq, 1))
    acc = np.zeros((b, h, sq, dh))

    for start in range(0, n, tile):
        stop = min(start + tile, n)
        kt = kx[:, :, start:stop]
        vt = vx[:, :, start:stop]
        s = q @ np.transpose(kt, (0, 1, 3, 2))
        s *= 1.0 / float(np.sqrt(dh))
        kt_keep = None if keep is None else keep[:, :, start:stop]
        _bias_and_mask(
            s, q_pos, k_pos[start:stop], biases, kt_keep, gqa_group
        )

        m_new = np.maximum(m, np.max(s, axis=-1, keepdims=True))
        # guard: a fully masked tile contributes nothing
        m_safe = np.where(np.isfinite(m_new), m_new, 0.0)
        p = np.exp(s - m_safe)
        p = np.where(np.isfinite(s), p, 0.0)
        scale = np.where(np.isfinite(m), np.exp(m - m_safe), 0.0)
        l = l * scale + np.sum(p, axis=-1, keepdims=True)
        acc = acc * scale + p @ vt
        m = m_new

    l = np.where(l == 0.0, 1.0, l)
    # the recurrence runs in float64; the result keeps the input dtype
    return (acc / l).astype(q.dtype)
