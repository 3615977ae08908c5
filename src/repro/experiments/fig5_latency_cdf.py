"""Figure 5 (and appendix Fig. 16): end-to-end latency CDFs.

Per-sample end-to-end latency at batch size one: prefill time plus the
measured response length (under each algorithm) times that algorithm's
decode step time.  Combining throughput with the *length distribution
shift* is the paper's Observation 4 — compression's latency benefit
largely evaporates, and GEAR's tail gets worse.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.config import ExperimentScale, current_scale
from repro.experiments.common import (
    ALL_ALGOS,
    ExperimentResult,
    comp_spec,
    cost_model,
)
from repro.experiments.genruns import sharegpt_requests, sharegpt_run
from repro.serving.metrics import LatencySummary, cdf


def e2e_latencies(
    scale: ExperimentScale,
    model: str = "llama",
    algos: Sequence[str] = ALL_ALGOS,
    arch: str = "llama-7b",
    gpu: str = "a6000",
    engine: str = "lmdeploy",
) -> Dict[str, np.ndarray]:
    """algo -> per-request E2E latency (seconds) at batch size 1."""
    reqs = sharegpt_requests(scale)
    m = cost_model(arch, gpu, engine)
    out: Dict[str, np.ndarray] = {}
    for algo in algos:
        spec = comp_spec(algo)
        lens = sharegpt_run(scale, algo, 1.0, model).lengths
        lats = np.zeros(len(reqs))
        for i, r in enumerate(reqs):
            prefill = m.prefill(1, r.prompt_len, spec).seconds
            # decode step priced at the mid-generation KV length
            kv = r.prompt_len + max(1, int(lens[i])) // 2
            step = m.decode_step(1, kv, spec).seconds
            lats[i] = prefill + max(0, int(lens[i]) - 1) * step
        out[algo] = lats
    return out


def mean_tbot(
    scale: ExperimentScale,
    model: str = "llama",
    algos: Sequence[str] = ALL_ALGOS,
    arch: str = "llama-7b",
    gpu: str = "a6000",
    engine: str = "lmdeploy",
) -> Dict[str, float]:
    """algo -> mean time between output tokens (seconds) at batch 1."""
    reqs = sharegpt_requests(scale)
    m = cost_model(arch, gpu, engine)
    out: Dict[str, float] = {}
    for algo in algos:
        spec = comp_spec(algo)
        lens = sharegpt_run(scale, algo, 1.0, model).lengths
        steps = [
            m.decode_step(
                1, r.prompt_len + max(1, int(lens[i])) // 2, spec
            ).seconds
            for i, r in enumerate(reqs)
        ]
        out[algo] = float(np.mean(steps))
    return out


def run(
    scale: ExperimentScale = None, model: str = "llama"
) -> ExperimentResult:
    """Reproduce Figure 5."""
    scale = scale or current_scale()
    lats = e2e_latencies(scale, model)
    tbots = mean_tbot(scale, model)
    res = ExperimentResult(
        name=f"Figure 5 — end-to-end latency CDF ({model})",
        description=(
            "Per-sample E2E latency at batch 1 combining each "
            "algorithm's decode speed with its own response lengths."
        ),
        data={"latencies": lats, "tbot": tbots},
    )
    rows = []
    for algo, arr in lats.items():
        s = LatencySummary.from_samples(arr)
        rows.append(
            [
                algo,
                f"{s.mean:.2f}", f"{s.p50:.2f}", f"{s.p90:.2f}", f"{s.p99:.2f}",
                f"{tbots[algo] * 1e3:.1f}",
            ]
        )
    res.tables.append(
        format_table(
            ["algo", "mean (s)", "p50", "p90", "p99", "tbot (ms)"],
            rows,
            title="E2E latency summary:",
        )
    )
    xs, ys = cdf(lats["fp16"], n_points=12)
    res.data["fp16_cdf"] = (xs, ys)
    return res
