"""Compression algorithm interfaces.

Every algorithm is a single object serving two studies at once:

- the **functional** interface (``begin`` / ``observe`` / ``compress``)
  hooks into :class:`repro.model.transformer.FunctionalTransformer` and
  actually mutates cached K/V tensors — quantizing them in place or
  evicting positions — which drives the accuracy, negative-sample and
  length-distribution experiments;
- the **cost** interface (``cost_spec`` / ``memory_spec``) describes the
  algorithm to the analytical engine models, which drives the throughput
  and latency experiments.

Keeping both views on one object guarantees the experiments talk about
the same algorithm with the same hyper-parameters.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.memory import KVMemorySpec
from repro.hardware.roofline import AccessPattern
from repro.model.arch import ArchSpec
from repro.model.cache import LayerCache
from repro.model.config import FunctionalModelConfig


@dataclass(frozen=True)
class CompressionCostSpec:
    """How an algorithm perturbs the serving cost model.

    Attributes
    ----------
    name: algorithm label.
    kv_bytes_ratio:
        Bytes moved per aged KV element relative to FP16 (quantized
        payload + amortized scales/zeros metadata); 1.0 for FP16/sparse.
    residual_fp16_tokens:
        Recent tokens per sequence kept (and read) in full precision.
    sparse_budget:
        Cap on retained tokens per sequence (sparsity), else ``None``.
    kv_access:
        DRAM access pattern of KV reads during attention.
    extra_kv_segments:
        Additional attention segments per layer (e.g. the full-precision
        residual window is a second, differently-typed segment — the
        paged-attention compatibility cost discussed in Section 3.1.1).
    dequant_flops_per_element:
        Extra vector FLOPs per loaded KV element (de-quantization,
        low-rank reconstruction).
    prefill_score_passes:
        Extra full passes over the prompt attention matrix needed to
        obtain importance scores during prefill (H2O needs the scores
        FlashAttention never materializes).
    decode_score_pass:
        Whether decode steps also need materialized attention scores.
    score_rows:
        If set, only the last ``score_rows`` query rows of the prompt
        attention matrix are scored (SnapKV's observation window);
        ``None`` means all rows (H2O).
    prefill_quant_flops_per_element:
        Per-element cost of compressing the prompt KV (quantization,
        error computation, low-rank fitting).
    prefill_kv_passes_fp32:
        Extra full passes over the prompt KV in FP32 during compression
        (GEAR materializes error/outlier tensors; KIVI makes one pass).
    lowrank_ratio:
        Low-rank error-fitting rank as a fraction of the KV hidden
        width (GEAR); adds skinny-GEMM work during prefill.
    evict_overhead_launches:
        Extra kernel launches per layer per decode step for eviction
        bookkeeping (score update, top-k, gather/compact).
    outlier_ratio:
        Fraction of elements fetched via irregular sparse gathers.
    """

    name: str
    kv_bytes_ratio: float = 1.0
    residual_fp16_tokens: int = 0
    sparse_budget: Optional[int] = None
    kv_access: AccessPattern = AccessPattern.CONTIGUOUS_KV
    extra_kv_segments: int = 0
    dequant_flops_per_element: float = 0.0
    prefill_score_passes: int = 0
    score_rows: Optional[int] = None
    decode_score_pass: bool = False
    prefill_quant_flops_per_element: float = 0.0
    prefill_kv_passes_fp32: float = 0.0
    lowrank_ratio: float = 0.0
    evict_overhead_launches: int = 0
    outlier_ratio: float = 0.0

    def effective_kv_tokens(self, kv_len: int) -> float:
        """Tokens actually read per sequence at cache length ``kv_len``."""
        if self.sparse_budget is None:
            return float(kv_len)
        return float(min(kv_len, self.sparse_budget))


class Compressor(abc.ABC):
    """Base class for KV-cache compression algorithms."""

    #: whether the algorithm consumes attention probabilities — the flag
    #: that makes it incompatible with one-pass flash attention.
    needs_probs: bool = False

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short label, e.g. ``"kivi-4"``."""

    def begin(
        self,
        batch: int,
        config: FunctionalModelConfig,
        seq_start: np.ndarray,
    ) -> None:
        """Reset per-session state before a generation run."""
        self._batch = batch
        self._config = config
        self._seq_start = seq_start

    def observe(
        self,
        layer: int,
        probs: np.ndarray,
        q_pos: np.ndarray,
        k_pos: np.ndarray,
        cache: LayerCache,
    ) -> None:
        """Consume an attention-probability chunk (only if ``needs_probs``).

        ``probs`` is a view of the model's workspace, valid only during
        this call: the model overwrites it with the next chunk's scores,
        the layer's output projection and the MLP's intermediates, and
        every later model call (another session's included) reuses it.
        Reduce it (or copy it) before returning.
        """

    @abc.abstractmethod
    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        """Mutate the cache after a layer's prefill or decode step."""

    @abc.abstractmethod
    def cost_spec(self) -> CompressionCostSpec:
        """Cost-model description of this algorithm."""

    def memory_spec(self, arch: ArchSpec) -> KVMemorySpec:
        """Memory-model description for architecture ``arch``."""
        spec = self.cost_spec()
        fp16 = arch.kv_bytes_per_token_per_layer()
        return KVMemorySpec(
            bytes_per_token_per_layer=fp16 * spec.kv_bytes_ratio,
            residual_fp16_tokens=spec.residual_fp16_tokens,
            max_tokens=spec.sparse_budget,
            transient_fp16_copy=spec.kv_bytes_ratio < 1.0,
        )


class NoCompression(Compressor):
    """FP16 baseline: the cache is left untouched."""

    needs_probs = False

    @property
    def name(self) -> str:
        return "fp16"

    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        pass

    def cost_spec(self) -> CompressionCostSpec:
        return CompressionCostSpec(name="fp16")

    def memory_spec(self, arch: ArchSpec) -> KVMemorySpec:
        return KVMemorySpec.fp16(arch)
