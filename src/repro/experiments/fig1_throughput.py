"""Figure 1: throughput analysis of LLaMA-7B on A6000.

Panels:
- (a-b) FP16 decoding throughput on TRL, TRL+FlashAttention and
  LMDeploy across batch sizes at two KV lengths.
- (c-d) StreamingLLM decode speedup over FP16 on TRL vs LMDeploy.
- (e-h) prefill throughput of each algorithm across prompt lengths for
  several batch sizes.
- (i-l) decoding throughput of each algorithm across KV lengths,
  including the OOM cells quantization hits at 8192 (Fig. 1(l)).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.reporting import format_series, format_table
from repro.experiments.common import (
    ALL_ALGOS,
    ExperimentResult,
    comp_spec,
    comp_specs,
    cost_model,
)

BATCHES = (1, 4, 16, 64)
DECODE_LENS = (256, 1024, 4096, 8192)
PREFILL_LENS = (256, 1024, 2048, 4096)
ENGINE_NAMES = ("trl", "trl+fa", "lmdeploy")


def fp16_decode_by_engine(
    arch: str = "llama-7b", gpu: str = "a6000",
    batches: Sequence[int] = BATCHES, kv_len: int = 1024,
) -> Dict[str, List[float]]:
    """Panel (a-b) series: engine -> throughput per batch size."""
    spec = comp_spec("fp16")
    return {
        eng: [
            cost_model(arch, gpu, eng).decode_throughput(b, kv_len, spec)
            for b in batches
        ]
        for eng in ENGINE_NAMES
    }


def algo_speedup_by_engine(
    algo: str = "stream-512", arch: str = "llama-7b", gpu: str = "a6000",
    batches: Sequence[int] = BATCHES, kv_len: int = 1024,
) -> Dict[str, List[float]]:
    """Panel (c-d) series: engine -> decode speedup over FP16."""
    fp16 = comp_spec("fp16")
    spec = comp_spec(algo)
    out: Dict[str, List[float]] = {}
    for eng in ("trl", "lmdeploy"):
        m = cost_model(arch, gpu, eng)
        series = []
        for b in batches:
            base = m.decode_throughput(b, kv_len, fp16)
            comp = m.decode_throughput(b, kv_len, spec)
            series.append(comp / base if base else float("nan"))
        out[eng] = series
    return out


def throughput_grid(
    stage: str,
    arch: str = "llama-7b",
    gpu: str = "a6000",
    engine: str = "lmdeploy",
    batches: Sequence[int] = BATCHES,
    lengths: Sequence[int] = DECODE_LENS,
    algos: Sequence[str] = ALL_ALGOS,
    tp: int = 1,
) -> Dict[str, Dict[tuple, float]]:
    """Panels (e-l): algo -> {(batch, length): tokens/s, 0.0 = OOM}."""
    m = cost_model(arch, gpu, engine, tp)
    specs = comp_specs(algos)
    out: Dict[str, Dict[tuple, float]] = {a: {} for a in algos}
    for a, spec in specs.items():
        for b in batches:
            for L in lengths:
                if stage == "prefill":
                    v = m.prefill_throughput(b, L, spec)
                else:
                    v = m.decode_throughput(b, L, spec)
                out[a][(b, L)] = v
    return out


def run(arch: str = "llama-7b", gpu: str = "a6000") -> ExperimentResult:
    """Reproduce all Figure 1 panels."""
    res = ExperimentResult(
        name=f"Figure 1 — throughput analysis ({arch}, {gpu.upper()})",
        description=(
            "FP16 engine comparison, StreamingLLM speedups, and per-"
            "algorithm prefill/decode throughput grids (0 tok/s = OOM)."
        ),
    )
    for kv in (512, 2048):
        series = fp16_decode_by_engine(arch, gpu, kv_len=kv)
        res.data[f"fp16_decode_kv{kv}"] = series
        res.tables.append(
            "\n".join(
                [f"(a-b) FP16 decode throughput, KV len {kv}:"]
                + [format_series(e, BATCHES, s) for e, s in series.items()]
            )
        )
    for kv in (1024, 4096):
        series = algo_speedup_by_engine("stream-512", arch, gpu, kv_len=kv)
        res.data[f"stream_speedup_kv{kv}"] = series
        res.tables.append(
            "\n".join(
                [f"(c-d) StreamingLLM decode speedup, KV len {kv}:"]
                + [format_series(e, BATCHES, s) for e, s in series.items()]
            )
        )
    for stage, lens in (("prefill", PREFILL_LENS), ("decode", DECODE_LENS)):
        grid = throughput_grid(stage, arch, gpu, lengths=lens)
        res.data[f"{stage}_grid"] = grid
        rows = []
        for b in BATCHES:
            for L in lens:
                rows.append(
                    [b, L] + [grid[a][(b, L)] for a in ALL_ALGOS]
                )
        res.tables.append(
            format_table(
                ["batch", "len"] + list(ALL_ALGOS),
                rows,
                title=f"({'e-h' if stage == 'prefill' else 'i-l'}) "
                f"{stage} throughput (tok/s, 0=OOM):",
                precision=0,
            )
        )
    return res
