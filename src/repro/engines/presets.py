"""Serving-engine presets matching the paper's evaluation stacks.

- ``TRL`` — eager HuggingFace transformers: multi-pass attention, no KV
  paging, per-op kernel launches and Python dispatch per decode step.
- ``TRL_FA`` — transformers with FlashAttention 2 enabled: one-pass
  attention, still eager elsewhere.
- ``LMDEPLOY`` — the production engine the paper standardizes on:
  FlashAttention + PagedAttention, fused kernels, CUDA-graph-style low
  step overhead and continuous batching.

Overhead constants are calibrated so the FP16 baseline reproduces the
qualitative gaps of Fig. 1(a-b): LMDeploy > TRL+FA > TRL, with the gap
widening at small batch (dispatch-bound) and long KV (multi-pass-bound).
"""

from __future__ import annotations

from repro.engines.base import EngineConfig, ServingCostModel
from repro.hardware.interconnect import tp_interconnect
from repro.hardware.specs import get_gpu
from repro.model.arch import get_arch

TRL = EngineConfig(
    name="trl",
    flash_attention=False,
    paged_kv=False,
    gemm_efficiency=0.42,
    step_overhead=3.5e-3,
    prefill_overhead=4.0e-3,
    launches_per_layer_decode=22,
    launches_per_layer_prefill=26,
    attn_decode_kv_passes=2.0,
    attn_kernel_tuning=0.85,  # eager kernels leave bandwidth on the table
    supports_continuous_batching=False,
)

TRL_FA = EngineConfig(
    name="trl+fa",
    flash_attention=True,
    paged_kv=False,
    gemm_efficiency=0.45,
    step_overhead=2.8e-3,
    prefill_overhead=3.0e-3,
    launches_per_layer_decode=16,
    launches_per_layer_prefill=18,
    attn_decode_kv_passes=1.0,
    attn_kernel_tuning=0.92,
    supports_continuous_batching=False,
)

LMDEPLOY = EngineConfig(
    name="lmdeploy",
    flash_attention=True,
    paged_kv=True,
    gemm_efficiency=0.60,
    step_overhead=3.0e-4,
    prefill_overhead=1.0e-3,
    launches_per_layer_decode=6,
    launches_per_layer_prefill=8,
    attn_decode_kv_passes=1.0,
    attn_kernel_tuning=1.05,  # hand-tuned paged kernels hide indirection
    supports_continuous_batching=True,
)

ENGINES = {e.name: e for e in (TRL, TRL_FA, LMDEPLOY)}


def get_engine(name: str) -> EngineConfig:
    """Look up an engine preset by name."""
    key = name.lower()
    if key not in ENGINES:
        raise KeyError(f"unknown engine {name!r}; known: {sorted(ENGINES)}")
    return ENGINES[key]


def cost_model(
    arch: str = "llama-7b",
    gpu: str = "a6000",
    engine: str = "lmdeploy",
    tp: int = 1,
) -> ServingCostModel:
    """A fresh serving cost model for a deployment named by its model,
    GPU, engine and tensor-parallel degree (a TP group all-reduces over
    :func:`~repro.hardware.interconnect.tp_interconnect`)."""
    return ServingCostModel(
        get_arch(arch), get_gpu(gpu), get_engine(engine), tp=tp,
        interconnect=tp_interconnect(gpu, tp),
    )
