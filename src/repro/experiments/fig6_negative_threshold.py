"""Figure 6 (and appendix Fig. 17): negative samples vs threshold.

Number of negative samples as the relative-loss threshold theta grows,
for each quantization and sparsity method alone and for the combined
sets "Quant (C)" = {KIVI, GEAR} and "Sparse (C)" = {H2O, StreamingLLM}.
Combining algorithms reduces — but does not eliminate — negatives
(Observation 5).
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.config import ExperimentScale, current_scale
from repro.experiments.common import ALL_ALGOS, ExperimentResult
from repro.experiments.genruns import longbench_eval
from repro.tools.negative_sampler import NegativeSampleAnalysis, ScoredSample

THETAS = (0.05, 0.10, 0.20, 0.30, 0.40)

ALGO_SETS = {
    "KIVI": ["kivi-4"],
    "GEAR": ["gear-4"],
    "Quant (C)": ["kivi-4", "gear-4"],
    "H2O": ["h2o-512"],
    "Stream": ["stream-512"],
    "Sparse (C)": ["h2o-512", "stream-512"],
}


def build_analysis(
    scale: ExperimentScale, model: str = "llama"
) -> NegativeSampleAnalysis:
    """Negative-sample analysis over the LongBench-sim evaluation."""
    evals = longbench_eval(scale, ALL_ALGOS, model)
    baseline = {
        r.sample_id: ScoredSample(r.sample_id, r.task, r.score)
        for r in evals["fp16"]
    }
    by_algo = {
        algo: {
            r.sample_id: ScoredSample(r.sample_id, r.task, r.score)
            for r in records
        }
        for algo, records in evals.items()
        if algo != "fp16"
    }
    return NegativeSampleAnalysis(baseline, by_algo)


def run(
    scale: ExperimentScale = None, model: str = "llama"
) -> ExperimentResult:
    """Reproduce Figure 6."""
    scale = scale or current_scale()
    analysis = build_analysis(scale, model)
    counts = analysis.counts_by_threshold(ALGO_SETS, THETAS)
    res = ExperimentResult(
        name=f"Figure 6 — negative samples vs threshold ({model})",
        description=(
            f"{len(analysis.baseline)} LongBench-sim samples "
            f"({len(analysis.benign_ids)} benign); counts of negatives "
            "per threshold for single algorithms and combined sets."
        ),
        data={"counts": counts, "analysis": analysis},
    )
    rows = [
        [label] + list(series) for label, series in counts.items()
    ]
    res.tables.append(
        format_table(
            ["algorithm set"] + [f"theta={t:.0%}" for t in THETAS], rows
        )
    )
    return res
