"""Compression-aware routing in the live serving loop.

The quality-vs-goodput frontier experiment the "Benchmarking KV-Cache
Optimizations across Task Quality and System Performance" framing asks
for: a mixed fleet (one FP16 instance + three compressed) served by the
``compression`` routing policy, swept over the risk threshold with the
verify-and-fallback path off and on, against two static baselines
(4x FP16 and 4x KIVI under load-balance routing).

Workload model
--------------
Every request is one sample of a synthetic evaluation set scored the
way :class:`~repro.tools.negative_sampler.NegativeSampleAnalysis`
expects: a baseline (FP16) score plus one score per compression
algorithm.  Four sample classes set how many of the fleet's three
compressed algorithms degrade the sample — ``safe`` (none), ``fragile``
(one), ``risky`` (two), ``negative`` (all three, the paper's Algorithm 1
negatives).  ``NegativeSampleAnalysis.risk_scores`` turns those scores
into the graded per-request risk the router consumes, so the policy is
exercised end to end through the paper's own tooling rather than a
hand-fed label.

Serving a degraded sample on a compressed instance shows up twice:

- **quality**: the request's quality is its score ratio under the
  serving algorithm (1.0 on FP16 or after a verified fallback) —
  Section 4.3's accuracy collapse on negative samples.
- **length**: the compressed response *contracts* to the score ratio of
  its FP16 length (degenerate output terminates early), so a lossy
  fleet also generates fewer useful tokens — which is exactly what the
  goodput axis measures.

All requests carry a TTFT deadline, so goodput = SLO-attained tokens
per second separates fleets that queue from fleets that keep up.
Arrivals are Poisson at a rate that puts a 4x FP16 fleet just past
saturation (the regime where compression pays).

The frontier claim (pinned by ``benchmarks/test_serving_router.py``):
some swept ``compression`` point dominates the static FP16 fleet
(same quality = 1.0, more goodput) and some point dominates the static
compressed fleet (at least its quality, more goodput).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.common import (
    ExperimentResult,
    comp_spec,
    comp_specs,
    cost_model,
)
from repro.serving import (
    PrefixIndex,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    StepMetrics,
    Trace,
)
from repro.tools.negative_sampler import NegativeSampleAnalysis, ScoredSample

SEED = 11
N_REQUESTS = 96
SYS_TOKENS = 256          # shared system prompt (prefix-cacheable)
USER_TOKENS = (384, 896)  # unique per-request suffix range (long-context
                          # regime: where KV compression actually pays)
RESP_TOKENS = (96, 224)   # FP16 response length range
TTFT_SLO = 2.0            # seconds, on every request
MAX_BATCH = 8             # per-instance concurrency (queues form past it)
TARGET_UTILIZATION = 1.05  # 4x FP16 fleet just past saturation; the
                           # (faster) compressed fleets still keep up

#: the mixed fleet under test (index 0 is the lossless instance).
#: stream-512 is the sparse representative: a sliding-window cache has
#: no eviction-scoring overhead, so it keeps the sparse speed advantage
#: at long context that H2O's accumulator bookkeeping gives back.
MIXED_ALGOS: Tuple[str, ...] = ("fp16", "kivi-4", "gear-4", "stream-512")
COMPRESSED_ALGOS: Tuple[str, ...] = MIXED_ALGOS[1:]

#: sample classes: (label, weight, algos that degrade it, score ratio
#: under a degrading algo).  Ratios feed both quality and the response
#: contraction; risk = degraded algos / 3 via ``risk_scores``.  The
#: fragile classes mirror the paper's Quant (C) / Sparse (C) split:
#: a sample fragile under quantisation still has a full-quality home on
#: the sparse instance and vice versa, so only the Algorithm 1
#: negatives genuinely need the FP16 instance.
SAMPLE_CLASSES = (
    ("safe", 0.64, (), 1.0),
    ("sparse-fragile", 0.12, ("stream-512",), 0.60),
    ("quant-fragile", 0.12, ("kivi-4", "gear-4"), 0.50),
    ("negative", 0.12, ("kivi-4", "gear-4", "stream-512"), 0.30),
)

#: Algorithm 1 relative-loss threshold for risk scoring: a 0.65 score
#: ratio is a fail at theta=0.25, so every degraded (sample, algo) pair
#: counts toward the sample's risk
RISK_THETA = 0.25

#: risk thresholds swept by the compression policy (1.01 = gate never
#: fires: pure scoring).  Class risks land on {0, 1/3, 2/3, 1}.
THRESHOLDS = (0.25, 0.5, 0.9, 1.01)


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def build_workload(
    n: int = N_REQUESTS, seed: int = SEED
) -> Tuple[List[RoutedRequest], Dict[str, Dict[str, float]]]:
    """(routed requests with risk scores, quality ratios per request).

    The second value maps ``request_id -> {algo: score ratio}`` for the
    fleet's compressed algorithms (1.0 where the sample is safe).
    """
    rng = np.random.default_rng(seed)
    labels = [c[0] for c in SAMPLE_CLASSES]
    weights = np.array([c[1] for c in SAMPLE_CLASSES])
    degraded = {c[0]: set(c[2]) for c in SAMPLE_CLASSES}
    ratio_of = {c[0]: c[3] for c in SAMPLE_CLASSES}
    classes = rng.choice(len(labels), size=n, p=weights / weights.sum())

    # score table for the negative-sample analysis (the paper's tooling
    # is the risk source, not a hand-fed label)
    baseline: Dict[str, ScoredSample] = {}
    by_algo: Dict[str, Dict[str, ScoredSample]] = {
        a: {} for a in COMPRESSED_ALGOS
    }
    ratios: Dict[str, Dict[str, float]] = {}
    sys_ids = tuple(int(t) for t in rng.integers(0, 30_000, size=SYS_TOKENS))

    reqs: List[RoutedRequest] = []
    specs: List[Tuple[str, str, int, int, Tuple[int, ...]]] = []
    for i in range(n):
        rid = f"r{i:03d}"
        label = labels[int(classes[i])]
        baseline[rid] = ScoredSample(rid, "qa", 0.8)
        ratios[rid] = {}
        for a in COMPRESSED_ALGOS:
            ratio = ratio_of[label] if a in degraded[label] else 1.0
            by_algo[a][rid] = ScoredSample(rid, "qa", 0.8 * ratio)
            ratios[rid][a] = ratio
        user = int(rng.integers(*USER_TOKENS))
        resp = int(rng.integers(*RESP_TOKENS))
        suffix = tuple(int(t) for t in rng.integers(0, 30_000, size=user))
        specs.append((rid, label, user, resp, suffix))

    analysis = NegativeSampleAnalysis(baseline, by_algo)
    risks = analysis.risk_scores(list(COMPRESSED_ALGOS), RISK_THETA)

    # arrival rate: 4x FP16 just past saturation for this workload
    m = cost_model()
    fp16 = comp_spec("fp16")
    service = []
    for rid, label, user, resp, suffix in specs:
        prompt = SYS_TOKENS + user
        prefill = m.prefill(1, prompt, fp16).seconds
        step = (
            m.decode_step(MAX_BATCH, prompt + resp // 2, fp16).seconds
            / MAX_BATCH
        )
        service.append(prefill + resp * step)
    rps = TARGET_UTILIZATION * 4.0 / float(np.mean(service))
    arrivals = np.cumsum(rng.exponential(1.0 / rps, size=n))

    for i, (rid, label, user, resp, suffix) in enumerate(specs):
        lengths = {"fp16": resp}
        for a in COMPRESSED_ALGOS:
            # degraded decodes terminate early: contracted to the ratio
            lengths[a] = max(16, int(resp * ratios[rid][a]))
        reqs.append(
            RoutedRequest(
                request_id=rid,
                arrival=float(arrivals[i]),
                prompt_len=SYS_TOKENS + user,
                intended_len=resp,
                lengths_by_algo=lengths,
                ttft_deadline=TTFT_SLO,
                token_ids=sys_ids + suffix,
                risk=float(risks[rid]),
            )
        )
    return reqs, ratios


def build_fleet(algos: Sequence[str]) -> List[ServerInstance]:
    """Fresh instances (live per-run state: prefix caches, queues) on
    one cost model: instances of one algorithm share its price table."""
    model = cost_model()
    return [
        ServerInstance(
            model, comp_spec(a), max_batch=MAX_BATCH,
            prefix_cache=PrefixIndex(),
        )
        for a in algos
    ]


def make_throughput_fn(algos: Sequence[str]):
    """Oracle decode-rate predictor from the cost model itself."""
    m = cost_model()
    specs = comp_specs(set(algos))

    def throughput_fn(algo: str, batch: int, kv: int) -> float:
        return m.decode_throughput(batch, kv, specs[algo]) or 1.0

    return throughput_fn


def length_fn(req: RoutedRequest, algo: str) -> float:
    """Oracle length predictor (Table 8 evaluates learned ones)."""
    return float(req.lengths_by_algo.get(algo, req.intended_len))


# ----------------------------------------------------------------------
# one routed run -> frontier point
# ----------------------------------------------------------------------
def _quality(
    result,
    algos: Sequence[str],
    ratios: Dict[str, Dict[str, float]],
) -> float:
    """Mean per-request quality: the score ratio under the algorithm
    that produced the tokens the client keeps (1.0 for FP16 and for
    verified fallbacks)."""
    vals = []
    for rid, ratio_by_algo in ratios.items():
        idx = result.assignment.get(rid)
        if idx is None:
            continue
        if rid in result.fallbacks:
            vals.append(1.0)  # re-decoded losslessly
            continue
        vals.append(ratio_by_algo.get(algos[idx], 1.0))
    return float(np.mean(vals)) if vals else 1.0


def run_fleet(
    algos: Sequence[str],
    requests: Sequence[RoutedRequest],
    ratios: Dict[str, Dict[str, float]],
    policy: RoutingPolicy = RoutingPolicy.COMPRESSION,
    risk_threshold: float = 0.5,
    fallback: bool = False,
) -> Dict[str, float]:
    """Serve the workload online and fold one frontier point."""
    fleet = build_fleet(algos)
    router = Router(
        fleet,
        list(algos),
        policy,
        throughput_fn=make_throughput_fn(algos),
        length_fn=length_fn,
        risk_threshold=risk_threshold,
        fallback=fallback,
    )
    trace = Trace()
    result = router.serve_online(requests, trace=trace)
    metrics = StepMetrics.from_trace(trace)
    summary = result.effective_summary()
    return {
        "policy": policy.value,
        "threshold": risk_threshold,
        "fallback": int(fallback),
        "quality": _quality(result, algos, ratios),
        "goodput": float(summary.goodput),
        "ttft_attainment": float(summary.ttft_attainment or 0.0),
        "mean_e2e": float(summary.mean),
        "p99_e2e": float(summary.p99),
        "reroutes": int(result.reroutes),
        "fallbacks": len(result.fallbacks),
        "prefix_hits": int(metrics.prefix_hits),
    }


def sweep(
    requests: Sequence[RoutedRequest],
    ratios: Dict[str, Dict[str, float]],
    thresholds: Sequence[float] = THRESHOLDS,
) -> Dict[str, List[Dict[str, float]]]:
    """Baselines plus the full (threshold x fallback) frontier."""
    baselines = [
        dict(
            run_fleet(
                ("fp16",) * 4, requests, ratios,
                policy=RoutingPolicy.LOAD_BALANCE,
            ),
            fleet="fp16-static",
        ),
        dict(
            run_fleet(
                ("kivi-4",) * 4, requests, ratios,
                policy=RoutingPolicy.LOAD_BALANCE,
            ),
            fleet="compressed-static",
        ),
    ]
    frontier = []
    for fallback in (False, True):
        for theta in thresholds:
            frontier.append(
                dict(
                    run_fleet(
                        MIXED_ALGOS, requests, ratios,
                        risk_threshold=theta, fallback=fallback,
                    ),
                    fleet="mixed",
                )
            )
    return {"baselines": baselines, "frontier": frontier}


# ----------------------------------------------------------------------
def run(scale: Optional[float] = None) -> ExperimentResult:
    """Compression-aware routing: risk-threshold sweep vs static fleets."""
    requests, ratios = build_workload()
    data = sweep(requests, ratios)

    def row(p: Dict[str, float]) -> List[str]:
        theta = (
            f"{p['threshold']:.2f}"
            if p["fleet"] == "mixed"
            else "-"
        )
        return [
            p["fleet"],
            p["policy"],
            theta,
            "on" if p["fallback"] else "off",
            f"{p['quality']:.3f}",
            f"{p['goodput']:.1f}",
            f"{p['ttft_attainment']:.2f}",
            f"{p['mean_e2e']:.2f}",
            f"{p['reroutes']}",
            f"{p['fallbacks']}",
        ]

    result = ExperimentResult(
        name="Compression-aware routing — quality vs goodput frontier",
        description=(
            "LLaMA-7B/A6000/LMDeploy.  "
            f"{len(requests)} Poisson arrivals at {TARGET_UTILIZATION:.2f}x "
            "the 4x-FP16 saturation rate, every request under a "
            f"{TTFT_SLO:.1f}s TTFT SLO; "
            f"{SAMPLE_CLASSES[3][1]:.0%} of samples are Algorithm 1 "
            "negatives (risk 1.0) and another "
            f"{SAMPLE_CLASSES[1][1] + SAMPLE_CLASSES[2][1]:.0%} degrade "
            "under some algorithms (graded risk from "
            "NegativeSampleAnalysis.risk_scores).  The mixed fleet is "
            f"{'+'.join(MIXED_ALGOS)} under the compression policy; "
            "quality is the mean score ratio of the tokens the client "
            "keeps, goodput counts SLO-attained tokens only.  With the "
            "risk gate (fallback off) risky requests never decode "
            "compressed; with verify-and-fallback they may, and failed "
            "verifications re-decode on FP16 at the original's finish."
        ),
        data={"raw": data},
    )
    rows = [row(p) for p in data["baselines"]] + [
        row(p) for p in data["frontier"]
    ]
    result.tables.append(
        format_table(
            ["fleet", "policy", "theta", "fb", "quality",
             "goodput (tok/s)", "TTFT att.", "mean E2E (s)",
             "reroutes", "fallbacks"],
            rows,
            title="Risk-threshold sweep vs static baselines:",
        )
    )
    return result
