"""H2O: heavy-hitter oracle eviction (Zhang et al., 2024f).

Keeps a recent window plus the ``hh_size`` tokens with the highest
*accumulated attention scores* (the heavy hitters); everything else is
evicted irreversibly.  Paper configuration: heavy-hitter budget 64 +
recent window 448 (total cache 512).

H2O's importance metric requires materialized attention probabilities —
``needs_probs = True`` — which is exactly why it cannot ride on one-pass
FlashAttention and pays extra score passes in the cost model.
"""

from __future__ import annotations

from repro.compression.base import CompressionCostSpec, Compressor
from repro.compression.sparse.policies import (
    GrowableScores,
    fold_probs_to_kv_heads,
    select_top_scores,
)
from repro.hardware.roofline import AccessPattern
from repro.model.cache import LayerCache


class H2OCompressor(Compressor):
    """Heavy-Hitter Oracle KV eviction."""

    needs_probs = True

    def __init__(self, hh_size: int = 64, recent_size: int = 448) -> None:
        if hh_size < 0 or recent_size < 1:
            raise ValueError("hh_size >= 0 and recent_size >= 1 required")
        self.hh_size = hh_size
        self.recent_size = recent_size

    @property
    def name(self) -> str:
        return f"h2o-{self.budget}"

    @property
    def budget(self) -> int:
        """Total retained tokens per sequence."""
        return self.hh_size + self.recent_size

    def begin(self, batch, config, seq_start) -> None:
        super().begin(batch, config, seq_start)
        self._scores = GrowableScores(config.n_layers)

    def observe(self, layer, probs, q_pos, k_pos, cache) -> None:
        delta = fold_probs_to_kv_heads(probs, self._config.gqa_group)
        self._scores.add(layer, delta)

    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        n = cache.length
        if n <= self.budget:
            return
        keep = cache.keep  # (b, kvh, n) view
        recent = cache.positions >= n - self.recent_size
        eligible = keep & ~recent[None, None, :]
        if not eligible.any():
            return
        scores = self._scores.get(layer, n)
        winners = select_top_scores(scores, eligible, self.hh_size)
        new_keep = keep & (recent[None, None, :] | winners)
        keep[:] = new_keep

    def cost_spec(self) -> CompressionCostSpec:
        return CompressionCostSpec(
            name=self.name,
            sparse_budget=self.budget,
            kv_access=AccessPattern.SPARSE_GATHER,
            prefill_score_passes=3,  # materialize S, P and read back (FP32)
            decode_score_pass=True,
            evict_overhead_launches=3,  # score update, top-k, mask apply
        )
