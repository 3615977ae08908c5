"""Q-Hitter-style hybrid: quantization + heavy-hitter sparsity.

Q-Hitter (Zhang et al., 2024e, Table 1 of the paper) keeps tokens that
are *both* important (heavy hitters) and quantization-friendly, storing
the retained set in low precision.  This implementation composes the
repository's own primitives: an H2O-style accumulated-attention
eviction policy over a KIVI-style quantized store — the paper's "Q + S"
row.  It demonstrates that the :class:`Compressor` interface composes.
"""

from __future__ import annotations

from repro.compression.base import CompressionCostSpec, Compressor
from repro.compression.quant.kivi import KIVICompressor
from repro.compression.sparse.h2o import H2OCompressor
from repro.hardware.roofline import AccessPattern
from repro.model.cache import LayerCache


class QHitterCompressor(Compressor):
    """Quantized heavy-hitter cache (sparse eviction + low-bit storage)."""

    needs_probs = True  # the sparse half needs attention scores

    def __init__(
        self,
        bits: int = 4,
        hh_size: int = 64,
        recent_size: int = 448,
        group_size: int = 32,
        residual: int = 128,
    ) -> None:
        self._quant = KIVICompressor(
            bits=bits, group_size=group_size, residual=residual
        )
        self._sparse = H2OCompressor(
            hh_size=hh_size, recent_size=recent_size
        )
        self.bits = bits

    @property
    def name(self) -> str:
        return f"qhitter-{self.bits}-{self._sparse.budget}"

    @property
    def budget(self) -> int:
        """Retained tokens per sequence."""
        return self._sparse.budget

    def begin(self, batch, config, seq_start) -> None:
        super().begin(batch, config, seq_start)
        self._quant.begin(batch, config, seq_start)
        self._sparse.begin(batch, config, seq_start)

    def observe(self, layer, probs, q_pos, k_pos, cache) -> None:
        self._sparse.observe(layer, probs, q_pos, k_pos, cache)

    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        self._sparse.compress(layer, cache, phase)
        self._quant.compress(layer, cache, phase)

    def cost_spec(self) -> CompressionCostSpec:
        q = self._quant.cost_spec()
        s = self._sparse.cost_spec()
        return CompressionCostSpec(
            name=self.name,
            kv_bytes_ratio=q.kv_bytes_ratio,
            residual_fp16_tokens=q.residual_fp16_tokens,
            sparse_budget=s.sparse_budget,
            kv_access=AccessPattern.SPARSE_GATHER,
            extra_kv_segments=q.extra_kv_segments,
            dequant_flops_per_element=q.dequant_flops_per_element,
            prefill_score_passes=s.prefill_score_passes,
            decode_score_pass=s.decode_score_pass,
            prefill_quant_flops_per_element=q.prefill_quant_flops_per_element,
            evict_overhead_launches=s.evict_overhead_launches + 1,
        )
