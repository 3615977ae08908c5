"""Table 8: request routing with the throughput and length predictors.

Four serving instances (paper: 4x A6000 under LMDeploy).  *Baseline*
runs the same configuration on all four with load balancing; the three
predictor policies run FP16 on one instance and the compression
algorithm on the other three, routing each request by predicted
throughput, predicted length, or predicted end-to-end latency.

All paper rows use the *offline* routing mode (assignments made up
front from predictor estimates — parity with the seed reproduction);
the extra "w/ Both (online)" row re-runs the best policy with the
shared-clock cluster making per-arrival decisions from live queue
depth and KV-token occupancy.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.config import ExperimentScale, current_scale
from repro.experiments.common import (
    ALGOS,
    ALL_ALGOS,
    ExperimentResult,
    comp_spec,
    comp_specs,
    cost_model,
    functional_model,
)
from repro.experiments.genruns import (
    sharegpt_lengths_by_algo,
    sharegpt_requests,
)
from repro.serving.router import RoutedRequest, Router, RoutingPolicy
from repro.serving.simulator import ServerInstance
from repro.tools.features import batch_features
from repro.tools.length_predictor import train_per_algorithm
from repro.tools.throughput_predictor import ThroughputPredictor

#: target utilization of the 4-instance fleet.  The paper drives its
#: testbed at 10 req/s into ~11 s mean latencies (deep queues); our
#: simulated service times are shorter, so the arrival rate is derived
#: from the workload to reach the same near-saturation regime.
TARGET_UTILIZATION = 0.85


def _instances(cm, algos: Sequence[str]) -> list:
    """Fresh instances on the deployment's cost model ``cm``: those of
    one algorithm share its price table."""
    return [ServerInstance(cm, comp_spec(a)) for a in algos]


def _derive_rps(reqs, lengths_fp16) -> float:
    """Arrival rate putting 4 FP16 instances at TARGET_UTILIZATION."""
    m = cost_model("llama-7b", "a6000", "lmdeploy")
    fp16 = comp_spec("fp16")
    service = []
    for r, ln in zip(reqs, lengths_fp16):
        # prefill serializes per instance; decode amortizes over the
        # continuous batch (~16 concurrent sequences)
        prefill = m.prefill(1, r.prompt_len, fp16).seconds
        step = m.decode_step(16, r.prompt_len + int(ln) // 2, fp16).seconds / 16
        service.append(prefill + max(1, int(ln)) * step)
    mean_service = float(np.mean(service))
    return TARGET_UTILIZATION * 4.0 / mean_service


def _routed_requests(
    scale: ExperimentScale, model: str, seed: int = 3
) -> list:
    reqs = sharegpt_requests(scale, seed)
    lengths = sharegpt_lengths_by_algo(scale, ALL_ALGOS, model)
    rps = _derive_rps(reqs, lengths["fp16"])
    rng = np.random.default_rng(seed + 29)
    arrivals = np.cumsum(rng.exponential(1.0 / rps, size=len(reqs)))
    return [
        RoutedRequest(
            request_id=r.request_id,
            arrival=float(arrivals[i]),
            prompt_len=r.prompt_len,
            intended_len=r.intended_length,
            lengths_by_algo={a: int(lengths[a][i]) for a in ALL_ALGOS},
        )
        for i, r in enumerate(reqs)
    ]


def router_table(
    scale: ExperimentScale, model: str = "llama",
    algos: Sequence[str] = ALGOS,
) -> Dict[str, Dict[str, float]]:
    """policy row -> {algo: mean E2E latency (s)}."""
    routed = _routed_requests(scale, model)
    reqs = sharegpt_requests(scale)

    # one deployment: every fleet below prices on one cost model
    cm = cost_model("llama-7b", "a6000", "lmdeploy")
    # predictors (the paper's tools)
    tp_pred = ThroughputPredictor(cm, comp_specs(ALL_ALGOS)).profile()
    lengths = sharegpt_lengths_by_algo(scale, ALL_ALGOS, model)
    tok = functional_model(model).tokenizer
    trained = train_per_algorithm(
        [r.prompt for r in reqs], lengths, tokenizer=tok
    )
    def throughput_fn(algo: str, batch: int, kv: int) -> float:
        return tp_pred.predict_decode_throughput(algo, max(1, batch), max(64, kv))

    # length predictions per request per algorithm (precomputed)
    feats = batch_features([r.prompt for r in reqs], tok)
    pred_len: Dict[str, Dict[str, float]] = {}
    for algo in ALL_ALGOS:
        vals = trained[algo]["predictor"].predict_length(feats)
        for r, v in zip(reqs, vals):
            pred_len.setdefault(r.request_id, {})[algo] = float(v)

    def length_fn(req: RoutedRequest, algo: str) -> float:
        return pred_len.get(req.request_id, {}).get(algo, float(req.intended_len))

    out: Dict[str, Dict[str, float]] = {
        "Baseline": {}, "w/ Throughput": {}, "w/ Length": {}, "w/ Both": {},
        "w/ Both (online)": {},
    }

    # FP16 baseline: 4 identical FP16 instances, load balanced
    router = Router(
        _instances(cm, ["fp16"] * 4), ["fp16"] * 4, RoutingPolicy.LOAD_BALANCE
    )
    out["Baseline"]["fp16"] = router.serve(routed).mean_e2e()

    for algo in algos:
        homogeneous = Router(
            _instances(cm, [algo] * 4), [algo] * 4, RoutingPolicy.LOAD_BALANCE
        )
        out["Baseline"][algo] = homogeneous.serve(routed).mean_e2e()

        mixed = ["fp16", algo, algo, algo]
        for label, policy, online in (
            ("w/ Throughput", RoutingPolicy.THROUGHPUT, False),
            ("w/ Length", RoutingPolicy.LENGTH, False),
            ("w/ Both", RoutingPolicy.BOTH, False),
            ("w/ Both (online)", RoutingPolicy.BOTH, True),
        ):
            router = Router(
                _instances(cm, mixed),
                mixed,
                policy,
                throughput_fn=throughput_fn,
                length_fn=length_fn,
            )
            out[label][algo] = router.serve(routed, online=online).mean_e2e()
    return out


def run(
    scale: ExperimentScale = None, model: str = "llama"
) -> ExperimentResult:
    """Reproduce Table 8."""
    scale = scale or current_scale()
    table = router_table(scale, model)
    res = ExperimentResult(
        name="Table 8 — routed serving: average E2E latency (s)",
        description=(
            f"4 instances, {scale.sharegpt_requests} requests, Poisson "
            f"arrivals at ~{TARGET_UTILIZATION:.0%} fleet utilization; "
            "predictor-guided routing."
        ),
        data={"table": table},
    )
    cols = ["fp16"] + list(ALGOS)
    rows = []
    for label, vals in table.items():
        rows.append(
            [label]
            + [f"{vals[c]:.2f}" if c in vals else "-" for c in cols]
        )
    res.tables.append(format_table(["Policy"] + cols, rows))
    return res
