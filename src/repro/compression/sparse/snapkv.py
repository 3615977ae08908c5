"""SnapKV: prompt-time selection of clustered important KV (Li et al., 2024b).

At the end of prefill, the attention that the last ``window`` prompt
tokens (the "observation window") pay to earlier positions is pooled
along the key axis (clustering) and the top-scoring positions are kept,
along with the window itself.  Decode appends new tokens without further
eviction — SnapKV compresses the *prompt* cache once.

Evaluated in the paper's appendix (Fig. 9).
"""

from __future__ import annotations

from scipy.ndimage import uniform_filter1d

from repro.compression.base import CompressionCostSpec, Compressor
from repro.compression.sparse.policies import (
    GrowableScores,
    fold_probs_to_kv_heads,
    select_top_scores,
)
from repro.hardware.roofline import AccessPattern
from repro.model.cache import LayerCache


class SnapKVCompressor(Compressor):
    """Observation-window KV selection at prefill time."""

    needs_probs = True

    def __init__(
        self, budget: int = 512, window: int = 32, kernel_size: int = 7
    ) -> None:
        if budget <= window:
            raise ValueError("budget must exceed the observation window")
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and >= 1")
        self.budget = budget
        self.window = window
        self.kernel_size = kernel_size

    @property
    def name(self) -> str:
        return f"snapkv-{self.budget}"

    def begin(self, batch, config, seq_start) -> None:
        super().begin(batch, config, seq_start)
        self._scores = GrowableScores(config.n_layers)
        self._compressed = [False] * config.n_layers

    def observe(self, layer, probs, q_pos, k_pos, cache) -> None:
        if self._compressed[layer]:
            return  # decode probabilities are not used by SnapKV
        prompt_len = cache.length
        in_window = q_pos >= prompt_len - self.window
        if not in_window.any():
            return
        delta = fold_probs_to_kv_heads(
            probs[:, :, in_window], self._config.gqa_group
        )
        self._scores.add(layer, delta)

    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        if phase != "prefill" or self._compressed[layer]:
            return
        self._compressed[layer] = True
        n = cache.length
        if n <= self.budget:
            return
        scores = self._scores.get(layer, n)
        pooled = uniform_filter1d(scores, size=self.kernel_size, axis=-1)
        window = cache.positions >= n - self.window
        keep = cache.keep
        eligible = keep & ~window[None, None, :]
        winners = select_top_scores(pooled, eligible, self.budget - self.window)
        keep[:] = keep & (window[None, None, :] | winners)

    def cost_spec(self) -> CompressionCostSpec:
        return CompressionCostSpec(
            name=self.name,
            sparse_budget=self.budget,
            kv_access=AccessPattern.SPARSE_GATHER,
            prefill_score_passes=2,  # window scores + pooled copy (FP32)
            score_rows=self.window,
            evict_overhead_launches=0,  # no per-step decode work
        )
