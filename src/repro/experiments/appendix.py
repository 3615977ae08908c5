"""Appendix experiments (Figures 8-18, Tables 9-11).

- Figures 8/10: Mistral-7B and LLaMA-13B throughput analyses (the 13B
  grid includes the KIVI OOM the paper notes on a single A6000).
- Figure 9: SnapKV integrated into the LLaMA-7B throughput analysis.
- Figures 11-14: tensor-parallelism sweeps for 7B/13B/Mistral/70B.
- Table 9 / Figures 15-16: Mistral length analyses (delegated to the
  main experiment modules with ``model="mistral"``).
- Figures 17-18 / Tables 10-11: Mistral negative-sample analyses.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.reporting import format_speedup, format_table
from repro.core.config import ExperimentScale, current_scale
from repro.experiments import (
    fig4_length_dist,
    fig5_latency_cdf,
    fig6_negative_threshold,
    fig7_negative_tasks,
    table5_length_ratio,
    table6_predictors,
    table7_negative_bench,
)
from repro.experiments.common import ALGOS, ExperimentResult
from repro.experiments.fig1_throughput import (
    BATCHES,
    run as fig1_run,
    throughput_grid,
)
from repro.experiments.table3_tp import TPS, tp_speedups

TP_ARCHS = (
    ("llama-7b", "a6000"),    # Fig. 11
    ("llama-13b", "a6000"),   # Fig. 12
    ("mistral-7b", "a6000"),  # Fig. 13
    ("llama-70b", "h800"),    # Fig. 14
)


def fig8_mistral() -> ExperimentResult:
    """Figure 8: Mistral-7B throughput analysis."""
    res = fig1_run(arch="mistral-7b", gpu="a6000")
    res.name = "Figure 8 — Mistral-7B throughput analysis"
    return res


def fig9_snapkv() -> ExperimentResult:
    """Figure 9: SnapKV added to the LLaMA-7B throughput grids."""
    algos = ("fp16", "snapkv-512", "stream-512", "h2o-512")
    res = ExperimentResult(
        name="Figure 9 — SnapKV throughput integration",
        description="SnapKV vs other sparse methods on LLaMA-7B/A6000.",
    )
    for stage, lens in (("prefill", (512, 2048)), ("decode", (1024, 4096))):
        grid = throughput_grid(stage, algos=algos, lengths=lens)
        res.data[f"{stage}_grid"] = grid
        rows = [
            [b, L] + [grid[a][(b, L)] for a in algos]
            for b in BATCHES
            for L in lens
        ]
        res.tables.append(
            format_table(
                ["batch", "len"] + list(algos),
                rows,
                title=f"{stage} throughput (tok/s):",
                precision=0,
            )
        )
    return res


def fig10_llama13b() -> ExperimentResult:
    """Figure 10: LLaMA-13B throughput (incl. the KIVI single-GPU OOM)."""
    res = fig1_run(arch="llama-13b", gpu="a6000")
    res.name = "Figure 10 — LLaMA-13B throughput analysis"
    return res


def tp_sweeps() -> ExperimentResult:
    """Figures 11-14: TP sweeps across architectures."""
    res = ExperimentResult(
        name="Figures 11-14 — tensor-parallelism sweeps",
        description=(
            "Relative prefill/decode speedups at TP 1/2/4 for "
            "LLaMA-7B/13B, Mistral-7B (A6000) and LLaMA-70B (H800)."
        ),
    )
    for arch, gpu in TP_ARCHS:
        for stage in ("prefill", "decode"):
            data = tp_speedups(stage, batch=4, length=2048, arch=arch, gpu=gpu)
            res.data[f"{arch}/{stage}"] = data
            rows = [
                [tp, f"{data[tp]['fp16']:.1f}"]
                + [format_speedup(data[tp][a]) for a in ALGOS]
                for tp in TPS
            ]
            res.tables.append(
                format_table(
                    ["TP", "FP16 (tok/s)"] + list(ALGOS),
                    rows,
                    title=f"{arch} on {gpu.upper()}, {stage}:",
                )
            )
    return res


def mistral_length_suite(scale: ExperimentScale = None) -> Sequence[ExperimentResult]:
    """Table 9 + Figures 15-16 (Mistral length analyses)."""
    scale = scale or current_scale()
    return (
        table5_length_ratio.run(scale, model="mistral"),
        fig4_length_dist.run(scale, model="mistral"),
        fig5_latency_cdf.run(scale, model="mistral"),
    )


def mistral_negative_suite(scale: ExperimentScale = None) -> Sequence[ExperimentResult]:
    """Figures 17-18 + Tables 10-11 (Mistral negatives + predictors)."""
    scale = scale or current_scale()
    return (
        fig6_negative_threshold.run(scale, model="mistral"),
        fig7_negative_tasks.run(scale, model="mistral"),
        table6_predictors.run(scale, model="mistral"),
        table7_negative_bench.run(scale, model="mistral"),
    )
