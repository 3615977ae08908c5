"""GPU memory accounting and out-of-memory detection.

The paper observes (Fig. 1(l)) that quantization-based methods can go OOM
*before* the FP16 baseline at long KV lengths.  The mechanism is an
implementation artifact modelled here explicitly: quantize-after-prefill
implementations (KIVI/GEAR reference code) transiently hold both the FP16
KV produced by the prefill and the quantized copy, so their peak memory
exceeds the baseline even though their steady-state memory is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.specs import GPUSpec
from repro.model.arch import ArchSpec


class OutOfMemoryError(RuntimeError):
    """Raised when a configuration does not fit on the device."""

    def __init__(self, breakdown: "MemoryBreakdown") -> None:
        super().__init__(
            f"needs {breakdown.peak_bytes / 2**30:.1f} GiB, device has "
            f"{breakdown.capacity_bytes / 2**30:.1f} GiB"
        )
        self.breakdown = breakdown


@dataclass(frozen=True)
class KVMemorySpec:
    """How a compression algorithm stores the KV cache.

    Attributes
    ----------
    bytes_per_token_per_layer:
        Steady-state bytes for one token's K+V in one layer, including
        quantization scale/zero metadata and any low-rank factors
        amortized per token.
    residual_fp16_tokens:
        Recent-window tokens kept in full precision per sequence
        (KIVI ``R``, GEAR's buffered chunk).
    max_tokens:
        Cap on retained tokens per sequence (sparse budgets); ``None``
        means the cache grows with the sequence.
    transient_fp16_copy:
        Whether prefill transiently materializes the full FP16 KV next to
        the compressed copy (quantize-after-prefill implementations).
    extra_state_bytes_per_seq_per_layer:
        Algorithm bookkeeping per sequence per layer (H2O accumulated
        scores, GEAR low-rank factors, SnapKV pooling buffers).
    """

    bytes_per_token_per_layer: float
    residual_fp16_tokens: int = 0
    max_tokens: Optional[int] = None
    transient_fp16_copy: bool = False
    extra_state_bytes_per_seq_per_layer: float = 0.0

    @staticmethod
    def fp16(arch: ArchSpec) -> "KVMemorySpec":
        """Uncompressed FP16 baseline spec for ``arch``."""
        return KVMemorySpec(
            bytes_per_token_per_layer=arch.kv_bytes_per_token_per_layer()
        )


@dataclass
class MemoryBreakdown:
    """Peak-memory decomposition for one serving configuration."""

    capacity_bytes: float
    weights: float
    kv_quantized: float
    kv_residual_fp16: float
    kv_transient_fp16: float
    algorithm_state: float
    activations: float
    allocator_reserve: float

    @property
    def steady_bytes(self) -> float:
        """Steady-state usage (after any transient prefill copies die)."""
        return (
            self.weights
            + self.kv_quantized
            + self.kv_residual_fp16
            + self.algorithm_state
            + self.activations
            + self.allocator_reserve
        )

    @property
    def peak_bytes(self) -> float:
        """Peak usage including transient prefill copies."""
        return self.steady_bytes + self.kv_transient_fp16

    @property
    def fits(self) -> bool:
        """Whether the peak fits on the device."""
        return self.peak_bytes <= self.capacity_bytes

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a plain dict (GiB)."""
        gib = 2**30
        return {
            "weights_gib": self.weights / gib,
            "kv_quantized_gib": self.kv_quantized / gib,
            "kv_residual_fp16_gib": self.kv_residual_fp16 / gib,
            "kv_transient_fp16_gib": self.kv_transient_fp16 / gib,
            "algorithm_state_gib": self.algorithm_state / gib,
            "activations_gib": self.activations / gib,
            "allocator_reserve_gib": self.allocator_reserve / gib,
            "peak_gib": self.peak_bytes / gib,
            "capacity_gib": self.capacity_bytes / gib,
        }


class MemoryModel:
    """Computes peak GPU memory for (arch, gpu, tp, kv spec, batch, lens)."""

    #: fraction of device memory the allocator/runtime reserves (CUDA
    #: context, cublas workspaces, fragmentation slack).
    RESERVE_FRACTION = 0.04

    def __init__(self, arch: ArchSpec, gpu: GPUSpec, tp: int = 1) -> None:
        if tp < 1:
            raise ValueError(f"tensor parallel degree must be >= 1, got {tp}")
        if arch.n_kv_heads % tp and tp % arch.n_kv_heads:
            raise ValueError(
                f"tp={tp} incompatible with {arch.n_kv_heads} KV heads"
            )
        self.arch = arch
        self.gpu = gpu
        self.tp = tp
        # per-call constants of breakdown(), computed once
        self._weights = arch.weight_bytes() / tp
        self._fp16_tok = arch.kv_bytes_per_token_per_layer()

    def _activation_bytes(self, batch: int, max_len: int) -> float:
        """Workspace for activations of the widest single forward pass."""
        a = self.arch
        # prefill holds a few (b, l, d) buffers plus one (b, l, d_ff/tp)
        hidden = batch * max_len * a.d_model * a.dtype_bytes
        mlp = batch * max_len * (a.d_ff // self.tp) * a.dtype_bytes
        logits = batch * a.vocab_size * 4
        return 3 * hidden + mlp + logits

    def breakdown(
        self,
        kv_spec: KVMemorySpec,
        batch: int,
        kv_len: int,
        prefill_len: Optional[int] = None,
    ) -> MemoryBreakdown:
        """Peak memory for ``batch`` sequences at KV length ``kv_len``.

        ``prefill_len`` (defaults to ``kv_len``) sizes the transient FP16
        copy for quantize-after-prefill implementations.
        """
        if batch < 1 or kv_len < 0:
            raise ValueError("batch must be >=1 and kv_len >= 0")
        a = self.arch
        prefill_len = kv_len if prefill_len is None else prefill_len
        weights = self._weights

        fp16_tok = self._fp16_tok
        resid_tokens = min(kv_len, kv_spec.residual_fp16_tokens)
        stored = kv_len
        if kv_spec.max_tokens is not None:
            stored = min(stored, kv_spec.max_tokens)
        quant_tokens = max(0, stored - resid_tokens)

        per_layer_q = quant_tokens * kv_spec.bytes_per_token_per_layer
        per_layer_r = resid_tokens * fp16_tok
        kv_quant = batch * a.n_layers * per_layer_q / self.tp
        kv_resid = batch * a.n_layers * per_layer_r / self.tp

        transient = 0.0
        if kv_spec.transient_fp16_copy:
            transient = batch * a.n_layers * prefill_len * fp16_tok / self.tp

        state = (
            batch
            * a.n_layers
            * kv_spec.extra_state_bytes_per_seq_per_layer
            / self.tp
        )
        acts = self._activation_bytes(batch, max(prefill_len, 1)) / self.tp
        reserve = self.RESERVE_FRACTION * self.gpu.memory_bytes

        return MemoryBreakdown(
            capacity_bytes=self.gpu.memory_bytes,
            weights=weights,
            kv_quantized=kv_quant,
            kv_residual_fp16=kv_resid,
            kv_transient_fp16=transient,
            algorithm_state=state,
            activations=acts,
            allocator_reserve=reserve,
        )

    def check(
        self,
        kv_spec: KVMemorySpec,
        batch: int,
        kv_len: int,
        prefill_len: Optional[int] = None,
    ) -> MemoryBreakdown:
        """Like :meth:`breakdown` but raises :class:`OutOfMemoryError`."""
        bd = self.breakdown(kv_spec, batch, kv_len, prefill_len)
        if not bd.fits:
            raise OutOfMemoryError(bd)
        return bd

    def max_batch(
        self, kv_spec: KVMemorySpec, kv_len: int, limit: int = 4096
    ) -> int:
        """Largest batch that fits at ``kv_len`` (0 if none fits)."""
        lo, hi = 0, limit
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakdown(kv_spec, mid, kv_len).fits:
                lo = mid
            else:
                hi = mid - 1
        return lo
