"""StreamingLLM: attention sinks + recent window (Xiao et al., 2023).

Retains the first ``sink_size`` real tokens of every sequence plus the
most recent ``recent_size`` tokens; everything in between is evicted.
Paper configuration: 64 sink + 448 recent (total cache 512).  The policy
is purely structural — no attention scores needed — which is why it is
the only sparse method whose prefill throughput stays near the baseline
(Fig. 1 e-h) and why it composes cleanly with FlashAttention.
"""

from __future__ import annotations

from repro.compression.base import CompressionCostSpec, Compressor
from repro.hardware.roofline import AccessPattern
from repro.model.cache import LayerCache


class StreamingLLMCompressor(Compressor):
    """Sink + recent-window KV eviction."""

    needs_probs = False

    def __init__(self, sink_size: int = 64, recent_size: int = 448) -> None:
        if sink_size < 0 or recent_size < 1:
            raise ValueError("sink_size >= 0 and recent_size >= 1 required")
        self.sink_size = sink_size
        self.recent_size = recent_size

    @property
    def name(self) -> str:
        return f"stream-{self.budget}"

    @property
    def budget(self) -> int:
        """Total retained tokens per sequence."""
        return self.sink_size + self.recent_size

    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        n = cache.length
        if n <= self.budget:
            return
        pos = cache.positions
        rel = pos[None, :] - cache.seq_start[:, None]  # (b, n)
        sink = (rel >= 0) & (rel < self.sink_size)
        recent = pos >= n - self.recent_size
        window = sink | recent[None, :]
        keep = cache.keep
        keep[:] = keep & window[:, None, :]

    def cost_spec(self) -> CompressionCostSpec:
        return CompressionCostSpec(
            name=self.name,
            sparse_budget=self.budget,
            kv_access=AccessPattern.CONTIGUOUS_KV,  # two structured spans
            extra_kv_segments=1,  # sink span + ring-buffer recent span
            evict_overhead_launches=1,  # ring-buffer pointer update
        )
