"""Analytical serving-engine cost model.

``ServingCostModel`` prices one prefill pass or one decode step of a
real-dimension architecture (:class:`repro.model.arch.ArchSpec`) on a
GPU (:class:`repro.hardware.specs.GPUSpec`) under a serving engine
(:class:`EngineConfig`) and a compression algorithm
(:class:`repro.compression.base.CompressionCostSpec`).

The decomposition follows the paper's Section 2.4: decode attention is
bandwidth-bound on KV traffic, decode GEMMs are weight-bandwidth-bound
at small batch, prefill is compute-bound, and every compression design
choice shows up as either reduced KV traffic (the win) or extra passes /
kernels / irregular access (the cost).  Tensor parallelism shards heads
and MLP columns and adds two ring all-reduces per layer.

Serving reads prices through one :class:`PriceTable` per compression
spec (:meth:`ServingCostModel.prices`): every price is a pure function
of the cost model, the spec and its arguments, so every instance built
on one cost model shares the table of its spec, and the replicas of a
deployment price each distinct step once between them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.compression.base import CompressionCostSpec
from repro.hardware.interconnect import InterconnectSpec, allreduce_time
from repro.hardware.memory import KVMemorySpec, MemoryModel
from repro.hardware.roofline import AccessPattern, OpCost, Roofline
from repro.hardware.specs import GPUSpec
from repro.model.arch import ArchSpec

FP16_BYTES = 2
_INF = float("inf")


@dataclass(frozen=True)
class EngineConfig:
    """Performance-relevant traits of one serving engine.

    Attributes
    ----------
    name: engine label ("trl", "trl+fa", "lmdeploy").
    flash_attention: one-pass attention (no score materialization).
    paged_kv: PagedAttention-style block-table KV management.
    gemm_efficiency: fraction of tensor peak for large GEMMs.
    step_overhead: fixed host-side seconds per decode step (eager
        framework dispatch; the dominant cost of TRL at small batch).
    prefill_overhead: fixed host-side seconds per prefill call.
    launches_per_layer_decode / launches_per_layer_prefill:
        kernel launches per decoder layer (fusion reduces these).
    supports_continuous_batching: iteration-level scheduling support.
    """

    name: str
    flash_attention: bool
    paged_kv: bool
    gemm_efficiency: float
    step_overhead: float
    prefill_overhead: float
    launches_per_layer_decode: int
    launches_per_layer_prefill: int
    attn_decode_kv_passes: float = 1.0
    attn_kernel_tuning: float = 1.0
    supports_continuous_batching: bool = False


@dataclass
class StageCost:
    """Priced execution of one prefill pass or decode step."""

    seconds: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    oom: bool = False

    @property
    def attention_seconds(self) -> float:
        """Attention-layer time incl. compression work (Fig. 3 readout)."""
        return (
            self.breakdown.get("attention", 0.0)
            + self.breakdown.get("compression", 0.0)
        )


class PriceTable:
    """Memoized serving prices of one compression spec on one deployment.

    Holds decode-step seconds by batch and mean KV length, prefill
    seconds by ``(batch, new tokens, cached prefix)``, and the KV-token
    budget.  Built and kept by :meth:`ServingCostModel.prices`, so it
    lives exactly as long as its cost model: a builder that shares one
    cost model between the instances of a deployment shares the
    prices, and a fresh cost model starts from an empty table.
    """

    def __init__(
        self, model: "ServingCostModel", comp: CompressionCostSpec
    ) -> None:
        # weak: the model owns its tables, and a strong reference back
        # would make a cycle that keeps a finished run's prices in
        # memory until the garbage collector next runs
        self._model = weakref.ref(model)
        self.comp = comp
        #: decode-step seconds: batch -> {mean KV length: seconds}
        self.decode: Dict[int, Dict[int, float]] = {}
        #: prefill seconds: (batch, new tokens, cached prefix) -> seconds
        self.prefill: Dict[Tuple[int, int, int], float] = {}
        self._token_budget: Optional[int] = None

    def _owner(self) -> "ServingCostModel":
        """The cost model that prices this table's misses."""
        model = self._model()
        if model is None:
            raise ReferenceError(
                "the ServingCostModel that owns this PriceTable was "
                "released; keep the cost model alive while its price "
                "tables are in use"
            )
        return model

    def decode_seconds(self, batch: int, kv_len: int) -> float:
        """Seconds of one decode step of ``batch`` sequences at mean KV
        length ``kv_len``; ``inf`` when it does not fit in memory."""
        prices = self.decode.get(batch)
        if prices is None:
            prices = self.decode[batch] = {}
        seconds = prices.get(kv_len)
        if seconds is None:
            seconds = prices[kv_len] = self._owner().decode_step(
                batch, kv_len, self.comp
            ).seconds
        return seconds

    def prefill_seconds(
        self, tokens: int, prefix: int = 0, batch: int = 1
    ) -> float:
        """Seconds of one prefill pass of ``tokens`` new tokens per
        sequence over a ``prefix`` of cached ones, for ``batch``
        sequences; ``inf`` when it does not fit in memory.

        A pass from an empty cache is priced as the single-shot
        :meth:`ServingCostModel.prefill` (bit for bit its
        ``prefill_chunk`` at prefix 0), so profiles of the cost model
        keep telling the two kinds apart.
        """
        key = (batch, tokens, prefix)
        seconds = self.prefill.get(key)
        if seconds is None:
            model = self._owner()
            cost = (
                model.prefill_chunk(batch, tokens, prefix, self.comp)
                if prefix
                else model.prefill(batch, tokens, self.comp)
            )
            seconds = self.prefill[key] = cost.seconds
        return seconds

    @property
    def token_budget(self) -> int:
        """KV tokens of one sequence that fit alongside weights and
        workspace, bisected over the memory model on first use."""
        if self._token_budget is None:
            model = self._owner()
            spec = model._memory_spec(self.comp)
            mem = model.memory
            lo, hi = 0, 4_000_000
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if mem.breakdown(spec, 1, mid).fits:
                    lo = mid
                else:
                    hi = mid - 1
            self._token_budget = lo
        return self._token_budget


class ServingCostModel:
    """Prices serving stages for one (arch, gpu, engine, tp) deployment."""

    def __init__(
        self,
        arch: ArchSpec,
        gpu: GPUSpec,
        engine: EngineConfig,
        tp: int = 1,
        interconnect: Optional[InterconnectSpec] = None,
    ) -> None:
        if tp > 1 and interconnect is None:
            raise ValueError("tensor parallelism requires an interconnect spec")
        self.arch = arch
        self.gpu = gpu
        self.engine = engine
        self.tp = tp
        self.interconnect = interconnect
        self.roofline = Roofline(
            gpu,
            compute_efficiency={
                "tensor": engine.gemm_efficiency,
                "tensor_small": min(0.35, engine.gemm_efficiency),
            },
        )
        self.memory = MemoryModel(arch, gpu, tp)
        self._memory_specs: Dict[tuple, KVMemorySpec] = {}
        self._tables: Dict[CompressionCostSpec, PriceTable] = {}

    def prices(self, comp: CompressionCostSpec) -> PriceTable:
        """The price table of ``comp`` on this deployment, one per spec
        (equal specs share it)."""
        table = self._tables.get(comp)
        if table is None:
            table = self._tables[comp] = PriceTable(self, comp)
        return table

    # ------------------------------------------------------------------
    def _fits(
        self, comp: CompressionCostSpec, batch: int, kv_len: int,
        prefill_len: Optional[int] = None,
    ) -> bool:
        spec = self._memory_spec(comp)
        return self.memory.breakdown(spec, batch, kv_len, prefill_len).fits

    def _memory_spec(self, comp: CompressionCostSpec) -> KVMemorySpec:
        """The KV storage spec of ``comp``, memoized on the three fields
        it depends on (every priced stage checks the memory fit)."""
        key = (comp.kv_bytes_ratio, comp.residual_fp16_tokens, comp.sparse_budget)
        spec = self._memory_specs.get(key)
        if spec is None:
            fp16 = self.arch.kv_bytes_per_token_per_layer()
            spec = self._memory_specs[key] = KVMemorySpec(
                bytes_per_token_per_layer=fp16 * comp.kv_bytes_ratio,
                residual_fp16_tokens=comp.residual_fp16_tokens,
                max_tokens=comp.sparse_budget,
                transient_fp16_copy=comp.kv_bytes_ratio < 1.0,
            )
        return spec

    def _kv_pattern(self, comp: CompressionCostSpec) -> AccessPattern:
        if comp.kv_access != AccessPattern.CONTIGUOUS_KV:
            return comp.kv_access
        return (
            AccessPattern.PAGED_KV
            if self.engine.paged_kv
            else AccessPattern.CONTIGUOUS_KV
        )

    def _gemm_unit(self, batch_tokens: int) -> str:
        return "tensor" if batch_tokens >= 256 else "tensor_small"

    # ------------------------------------------------------------------
    def _decode_ops(
        self, batch: int, kv_len: int, comp: CompressionCostSpec
    ):
        a, tp = self.arch, self.tp
        eng = self.engine
        ops = []

        # projections + MLP: weight-bandwidth-bound at small batch
        gemm_flops = (
            2 * batch
            * (
                a.d_model * (a.q_dim + 2 * a.kv_dim)
                + a.q_dim * a.d_model
                + 3 * a.d_model * a.d_ff
            )
            / tp
        )
        weight_bytes = (
            a.d_model * (a.q_dim + 2 * a.kv_dim)
            + a.q_dim * a.d_model
            + 3 * a.d_model * a.d_ff
        ) * a.dtype_bytes / tp
        ops.append(
            OpCost(
                "gemm",
                flops=gemm_flops,
                bytes=weight_bytes,
                launches=0,
                pattern=AccessPattern.STREAM,
                compute_unit=self._gemm_unit(batch),
            )
        )

        # attention: KV traffic split into quantized body + fp16 residual;
        # eager engines re-load KV across the multi-pass attention
        eff_tokens = comp.effective_kv_tokens(kv_len)
        resid = float(min(eff_tokens, comp.residual_fp16_tokens))
        aged = eff_tokens - resid
        passes = eng.attn_decode_kv_passes / eng.attn_kernel_tuning
        elems_per_tok = 2 * (a.n_kv_heads // max(1, min(tp, a.n_kv_heads))) * a.head_dim
        aged_bytes = (
            batch * aged * elems_per_tok * FP16_BYTES * comp.kv_bytes_ratio * passes
        )
        resid_bytes = batch * resid * elems_per_tok * FP16_BYTES * passes
        attn_flops = 4 * batch * (a.n_heads // tp) * eff_tokens * a.head_dim
        ops.append(
            OpCost(
                "attention",
                flops=attn_flops,
                bytes=aged_bytes,
                launches=0,
                pattern=self._kv_pattern(comp),
                compute_unit="vector",
            )
        )
        if resid_bytes:
            ops.append(
                OpCost(
                    "attention",
                    bytes=resid_bytes,
                    launches=0,
                    pattern=self._kv_pattern(comp)
                    if comp.kv_bytes_ratio == 1.0
                    else AccessPattern.CONTIGUOUS_KV,
                )
            )

        # compression work: dequant flops, score pass, eviction kernels
        comp_ops = []
        if comp.dequant_flops_per_element:
            n_elems = batch * aged * elems_per_tok
            comp_ops.append(
                OpCost(
                    "compression",
                    flops=comp.dequant_flops_per_element * n_elems,
                    launches=comp.extra_kv_segments,
                    compute_unit="vector",
                )
            )
        if comp.decode_score_pass:
            score_bytes = 2 * batch * (a.n_heads // tp) * eff_tokens * FP16_BYTES
            comp_ops.append(
                OpCost(
                    "compression",
                    flops=6 * batch * (a.n_kv_heads // tp) * eff_tokens,
                    bytes=score_bytes,
                    launches=1,
                    compute_unit="vector",
                )
            )
        if comp.evict_overhead_launches:
            comp_ops.append(
                OpCost(
                    "compression",
                    launches=comp.evict_overhead_launches,
                )
            )
        ops.extend(comp_ops)

        # framework dispatch per layer
        ops.append(OpCost("dispatch", launches=eng.launches_per_layer_decode))
        return ops

    def decode_step(
        self, batch: int, kv_len: int, comp: CompressionCostSpec
    ) -> StageCost:
        """Time of one decode iteration for the whole batch."""
        if not self._fits(comp, batch, kv_len):
            return StageCost(seconds=float("inf"), oom=True)
        a = self.arch
        ops = self._decode_ops(batch, kv_len, comp)
        per_layer = self.roofline.total_seconds(ops)
        breakdown = self.roofline.breakdown(ops)
        comm = 0.0
        if self.tp > 1:
            comm = 2 * allreduce_time(
                self.interconnect, batch * a.d_model * FP16_BYTES, self.tp
            )
        total = a.n_layers * (per_layer + comm) + self.engine.step_overhead
        breakdown = {k: v * a.n_layers for k, v in breakdown.items()}
        breakdown["comm"] = comm * a.n_layers
        breakdown["host"] = self.engine.step_overhead
        return StageCost(seconds=total, breakdown=breakdown)

    # ------------------------------------------------------------------
    def _prefill_ops(
        self,
        batch: int,
        prompt_len: int,
        comp: CompressionCostSpec,
        kv_prefix: int = 0,
    ):
        """Ops of one prefill pass over ``prompt_len`` new tokens.

        ``kv_prefix`` is the number of prompt tokens whose KV is already
        cached (chunked prefill): the new tokens attend over the prefix
        as well as themselves, and the prefix KV must be re-read from
        the cache.  ``kv_prefix=0`` is a single-shot prefill.
        """
        a, tp, eng = self.arch, self.tp, self.engine
        L = prompt_len
        ctx = kv_prefix + L  # KV context the new tokens attend over
        ops = []
        gemm_flops = (
            2 * batch * L
            * (
                a.d_model * (a.q_dim + 2 * a.kv_dim)
                + a.q_dim * a.d_model
                + 3 * a.d_model * a.d_ff
            )
            / tp
        )
        weight_bytes = (
            a.d_model * (a.q_dim + 2 * a.kv_dim)
            + a.q_dim * a.d_model
            + 3 * a.d_model * a.d_ff
        ) * a.dtype_bytes / tp
        act_bytes = 6 * batch * L * a.d_model * a.dtype_bytes / tp
        ops.append(
            OpCost(
                "gemm",
                flops=gemm_flops,
                bytes=weight_bytes + act_bytes,
                launches=0,
                pattern=AccessPattern.STREAM,
                compute_unit="tensor",
            )
        )

        # causal attention: each new token attends the cached prefix
        # plus the chunk itself (the full prompt when kv_prefix=0)
        attn_flops = 2 * batch * (a.n_heads // tp) * L * ctx * a.head_dim
        qkv_bytes = 4 * batch * (a.n_heads // tp) * L * a.head_dim * FP16_BYTES
        eager_bytes = 0.0
        if not eng.flash_attention:
            # eager attention materializes S and P (two extra passes)
            eager_bytes = 2 * batch * (a.n_heads // tp) * L * ctx * FP16_BYTES
        ops.append(
            OpCost(
                "attention",
                flops=attn_flops,
                bytes=qkv_bytes + eager_bytes,
                launches=0,
                pattern=AccessPattern.STREAM,
                compute_unit="tensor",
            )
        )
        if kv_prefix > 0:
            # re-read the already-cached prefix KV (the recurring cost
            # of chunking: every chunk streams the prefix again)
            prefix_elems = (
                2 * batch
                * (a.n_kv_heads // max(1, min(tp, a.n_kv_heads)))
                * kv_prefix * a.head_dim
            )
            ops.append(
                OpCost(
                    "attention",
                    bytes=prefix_elems * FP16_BYTES * comp.kv_bytes_ratio,
                    launches=0,
                    pattern=self._kv_pattern(comp),
                )
            )

        comp_ops = []
        # importance scoring: re-compute attention for the scored rows
        # and stream the materialized FP32 score matrices through HBM —
        # the work FlashAttention's one-pass formulation cannot avoid
        # once an algorithm needs the scores (Section 3.1.2).
        if comp.prefill_score_passes:
            rows = L if comp.score_rows is None else min(L, comp.score_rows)
            recompute_flops = 2 * batch * (a.n_heads // tp) * rows * ctx * a.head_dim
            score_bytes = (
                comp.prefill_score_passes
                * batch * (a.n_heads // tp) * rows * ctx * 4
            )
            comp_ops.append(
                OpCost(
                    "compression",
                    flops=recompute_flops,
                    bytes=score_bytes,
                    launches=2,
                    pattern=AccessPattern.STREAM,
                    compute_unit="tensor",
                )
            )

        # compressing the prompt KV
        kv_elems = 2 * batch * (a.n_kv_heads // max(1, min(tp, a.n_kv_heads))) * L * a.head_dim
        if comp.prefill_quant_flops_per_element:
            quant_bytes = kv_elems * FP16_BYTES + comp.prefill_kv_passes_fp32 * kv_elems * 4
            comp_ops.append(
                OpCost(
                    "compression",
                    flops=comp.prefill_quant_flops_per_element * kv_elems,
                    bytes=quant_bytes,
                    launches=2,
                    compute_unit="vector",
                )
            )
        if comp.lowrank_ratio:
            rank = max(2, int(comp.lowrank_ratio * a.kv_dim))
            comp_ops.append(
                OpCost(
                    "compression",
                    flops=8 * kv_elems * rank,
                    launches=3,
                    compute_unit="tensor_small",
                )
            )
        if comp.sparse_budget is not None and comp.prefill_score_passes:
            # top-k selection over the prompt scores
            comp_ops.append(
                OpCost(
                    "compression",
                    flops=10 * batch * (a.n_kv_heads // tp) * ctx,
                    launches=2,
                    compute_unit="vector",
                )
            )
        ops.extend(comp_ops)
        ops.append(OpCost("dispatch", launches=eng.launches_per_layer_prefill))
        return ops

    def prefill(
        self, batch: int, prompt_len: int, comp: CompressionCostSpec
    ) -> StageCost:
        """Time of one prefill pass for the whole batch."""
        return self.prefill_chunk(batch, prompt_len, 0, comp)

    def prefill_chunk(
        self,
        batch: int,
        chunk_len: int,
        kv_prefix: int,
        comp: CompressionCostSpec,
    ) -> StageCost:
        """Time of one chunked-prefill pass: ``chunk_len`` new prompt
        tokens attending over ``kv_prefix`` already-cached tokens.

        ``kv_prefix=0`` with the full prompt as the chunk is exactly
        :meth:`prefill` (same ops, same arithmetic — bit-for-bit), so
        unchunked serving reproduces single-shot costs.  A later chunk
        pays for re-streaming the cached prefix KV, so per-chunk cost
        grows with ``kv_prefix`` — the real cost of Sarathi/vLLM-style
        chunked prefill.
        """
        if not self._fits(
            comp, batch, kv_prefix + chunk_len, prefill_len=chunk_len
        ):
            return StageCost(seconds=float("inf"), oom=True)
        a = self.arch
        ops = self._prefill_ops(batch, chunk_len, comp, kv_prefix=kv_prefix)
        per_layer = self.roofline.total_seconds(ops)
        breakdown = self.roofline.breakdown(ops)
        comm = 0.0
        if self.tp > 1:
            comm = 2 * allreduce_time(
                self.interconnect,
                batch * chunk_len * a.d_model * FP16_BYTES,
                self.tp,
            )
        total = a.n_layers * (per_layer + comm) + self.engine.prefill_overhead
        breakdown = {k: v * a.n_layers for k, v in breakdown.items()}
        breakdown["comm"] = comm * a.n_layers
        breakdown["host"] = self.engine.prefill_overhead
        return StageCost(seconds=total, breakdown=breakdown)

    # ------------------------------------------------------------------
    def decode_throughput(
        self, batch: int, kv_len: int, comp: CompressionCostSpec
    ) -> float:
        """Decode tokens/second (0.0 on OOM), from the memoized step
        price :meth:`prices` holds."""
        seconds = self.prices(comp).decode_seconds(batch, kv_len)
        return 0.0 if seconds == _INF else batch / seconds

    def prefill_throughput(
        self, batch: int, prompt_len: int, comp: CompressionCostSpec
    ) -> float:
        """Prefill tokens/second (0.0 on OOM)."""
        cost = self.prefill(batch, prompt_len, comp)
        return 0.0 if cost.oom else batch * prompt_len / cost.seconds
