"""Shared helpers for sparsity-based eviction policies."""

from __future__ import annotations

import numpy as np


def fold_probs_to_kv_heads(probs: np.ndarray, gqa_group: int) -> np.ndarray:
    """Reduce attention probabilities to per-KV-head key scores.

    ``probs`` is (batch, q_heads, n_queries, n_keys); returns
    (batch, kv_heads, n_keys) — summed over queries and over the query
    heads sharing each KV head (the eviction decision is per stored KV
    entry, hence per KV head).
    """
    b, h, sq, n = probs.shape
    summed = probs.sum(axis=2)
    if gqa_group == 1:
        return summed
    kvh = h // gqa_group
    return summed.reshape(b, kvh, gqa_group, n).sum(axis=2)


class GrowableScores:
    """Per-layer accumulated key scores that grow with the cache."""

    def __init__(self, n_layers: int) -> None:
        self._scores = [None] * n_layers

    def add(self, layer: int, delta: np.ndarray) -> None:
        """Accumulate (batch, kv_heads, n_keys) score increments."""
        cur = self._scores[layer]
        if cur is None:
            self._scores[layer] = delta.copy()
            return
        n_old, n_new = cur.shape[-1], delta.shape[-1]
        if n_new > n_old:
            grown = np.zeros(delta.shape)
            grown[..., :n_old] = cur
            cur = grown
            self._scores[layer] = cur
        cur[..., : delta.shape[-1]] += delta

    def get(self, layer: int, n: int) -> np.ndarray:
        """Scores for the first ``n`` keys (zeros if never observed)."""
        cur = self._scores[layer]
        if cur is None:
            raise RuntimeError(
                "no attention scores observed; is the model materializing "
                "probabilities (naive attention)?"
            )
        if cur.shape[-1] < n:
            grown = np.zeros(cur.shape[:-1] + (n,))
            grown[..., : cur.shape[-1]] = cur
            self._scores[layer] = cur = grown
        return cur[..., :n]


def select_top_scores(
    scores: np.ndarray,
    eligible: np.ndarray,
    k: int,
) -> np.ndarray:
    """Boolean mask of the top-``k`` eligible entries per row.

    ``scores``/``eligible`` are (..., n); ineligible entries never win.
    Rows with fewer than ``k`` eligible entries keep them all.
    """
    masked = np.where(eligible, scores, -np.inf)
    n = masked.shape[-1]
    out = np.zeros_like(eligible)
    if k <= 0:
        return out
    if k >= n:
        return eligible.copy()
    idx = np.argpartition(masked, -k, axis=-1)[..., -k:]
    np.put_along_axis(out, idx, True, axis=-1)
    # argpartition may select -inf entries in underfull rows; drop them
    return out & eligible
