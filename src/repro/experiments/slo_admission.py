"""SLO-aware admission: attainment under interference (ROADMAP item).

The paper's request router (Section 6, Table 8) exists to keep latency
acceptable under compression-induced length shift, but production
stacks schedule against *per-request* TTFT/TBOT targets, not arrival
order.  This experiment replays the interference scenario — a salvo of
long-prompt background requests landing just before short interactive
requests with tight TTFT deadlines — under each scheduler policy and
reports SLO attainment and goodput: FCFS serves the background salvo
first (it arrived first) and blows every interactive deadline, while
the ``slo`` policy (earliest-deadline-first by live slack) admits the
urgent requests ahead of the slack-rich background at the same offered
load.  A second table routes a mixed-deadline stream across a
two-instance fleet (FP16 + compressed) online, comparing load-balance
routing with the SLO-slack routing mode.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.reporting import format_table
from repro.compression.base import NoCompression
from repro.compression.registry import create
from repro.experiments.common import ExperimentResult, cost_model
from repro.serving import (
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Trace,
    make_policy,
)

#: scheduler policies compared at equal offered load
POLICIES = ("fcfs", "shortest", "slo")

#: loose background TTFT deadline / tight interactive TTFT deadline (s)
BACKGROUND_TTFT = 60.0
INTERACTIVE_TTFT = 1.0
#: interactive per-token target (s/token)
INTERACTIVE_TBOT = 0.5
#: TTFT deadline for the light requests of the fleet-routing stream (s)
ROUTED_TTFT = 0.4


def slo_interference_stream(
    n_background: int = 8,
    n_interactive: int = 8,
    bg_prompt: int = 3072,
    bg_resp: int = 128,
    ia_prompt: int = 256,
    ia_resp: int = 64,
    ia_start: float = 0.2,
    ia_spacing: float = 0.05,
) -> List[ServingRequest]:
    """A background salvo at t=0, then tightly-deadlined short requests.

    All background requests arrive before any interactive one, so an
    arrival-order scheduler must serve every long prefill first; a
    slack-aware scheduler reorders.
    """
    reqs = [
        ServingRequest(
            f"bg{i}", 0.0, bg_prompt, bg_resp,
            ttft_deadline=BACKGROUND_TTFT,
        )
        for i in range(n_background)
    ]
    reqs += [
        ServingRequest(
            f"ia{i}", ia_start + i * ia_spacing, ia_prompt, ia_resp,
            ttft_deadline=INTERACTIVE_TTFT, tbot_target=INTERACTIVE_TBOT,
        )
        for i in range(n_interactive)
    ]
    return reqs


def routed_mixed_stream(n: int = 48, seed: int = 5) -> List[RoutedRequest]:
    """Alternating heavy deadline-free and light tightly-deadlined
    arrivals for the fleet-routing comparison."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.05, size=n))
    reqs = []
    for i in range(n):
        heavy = i % 2 == 0
        prompt = int(rng.integers(2048, 3072)) if heavy else int(
            rng.integers(128, 384)
        )
        resp = int(rng.integers(64, 160))
        reqs.append(
            RoutedRequest(
                request_id=f"m{i}",
                arrival=float(arrivals[i]),
                prompt_len=prompt,
                intended_len=resp,
                lengths_by_algo={"fp16": resp, "stream-512": resp},
                ttft_deadline=None if heavy else ROUTED_TTFT,
            )
        )
    return reqs


def _policy_rows(cm, comp):
    rows, raw = [], []
    for policy in POLICIES:
        inst = ServerInstance(cm, comp, scheduler=make_policy(policy))
        trace = Trace()
        res = inst.run(slo_interference_stream(), trace=trace)
        m = StepMetrics.from_trace(trace)
        interactive = [
            r for r in res.completed if r.request_id.startswith("ia")
        ]
        background = [
            r for r in res.completed if r.request_id.startswith("bg")
        ]
        rows.append(
            [
                policy,
                f"{m.ttft_attainment:.2f}",
                f"{m.tbot_attainment:.2f}",
                f"{m.goodput:.1f}",
                f"{np.mean([r.ttft for r in interactive]):.3f}",
                f"{np.mean([r.ttft for r in background]):.3f}",
                f"{res.mean_e2e():.2f}",
                f"{res.percentile_e2e(99):.2f}",
            ]
        )
        raw.append(
            {
                "policy": policy,
                "ttft_attainment": m.ttft_attainment,
                "tbot_attainment": m.tbot_attainment,
                "goodput": m.goodput,
                "mean_e2e": res.mean_e2e(),
            }
        )
    return rows, raw


def _routing_rows(cm):
    rows, raw = [], []
    for policy in (RoutingPolicy.LOAD_BALANCE, RoutingPolicy.SLO):
        # both instances schedule by slack, so the comparison isolates
        # the *routing* decision
        instances = [
            ServerInstance(
                cm, NoCompression().cost_spec(),
                scheduler=make_policy("slo"),
            ),
            ServerInstance(
                cm, create("stream-512").cost_spec(),
                scheduler=make_policy("slo"),
            ),
        ]
        router = Router(instances, ["fp16", "stream-512"], policy)
        res = router.serve_online(routed_mixed_stream())
        s = res.latency_summary()
        rows.append(
            [
                policy.value,
                "-" if s.ttft_attainment is None else f"{s.ttft_attainment:.2f}",
                f"{s.goodput:.1f}",
                f"{s.mean:.2f}",
                f"{s.p99:.2f}",
            ]
        )
        raw.append(
            {
                "routing": policy.value,
                "ttft_attainment": s.ttft_attainment,
                "goodput": s.goodput,
            }
        )
    return rows, raw


def run(scale=None) -> ExperimentResult:
    """Compare fcfs / shortest / slo scheduling and slo routing."""
    comp = NoCompression().cost_spec()
    # one deployment: every instance below prices on one cost model
    cm = cost_model()
    policy_rows, policy_raw = _policy_rows(cm, comp)
    routing_rows, routing_raw = _routing_rows(cm)
    result = ExperimentResult(
        name="SLO-aware admission — attainment under interference",
        description=(
            "LLaMA-7B/A6000/LMDeploy.  Interference: 8 background "
            f"requests (3072/128 tokens, {BACKGROUND_TTFT:.0f}s TTFT "
            "deadline) arrive at t=0, then 8 interactive requests "
            f"(256/64 tokens, {INTERACTIVE_TTFT:.1f}s TTFT deadline) "
            "from t=0.2s.  FCFS admits in arrival order, so every "
            "interactive request queues behind the full salvo of long "
            "prefills and misses its deadline; the slo policy "
            "(earliest-deadline-first by live slack) admits urgent "
            "requests first at the same offered load.  Routing: a "
            "mixed-deadline stream over an FP16 + Stream-512 fleet, "
            "load-balance vs SLO-slack online routing."
        ),
    )
    result.tables.append(
        format_table(
            ["policy", "ttft att", "tbot att", "goodput (tok/s)",
             "ia TTFT (s)", "bg TTFT (s)", "mean e2e", "p99 e2e"],
            policy_rows,
            title="Single instance (8 background + 8 interactive):",
        )
    )
    result.tables.append(
        format_table(
            ["routing", "ttft att", "goodput (tok/s)", "mean e2e", "p99 e2e"],
            routing_rows,
            title="2-instance fleet, online routing (mixed deadlines):",
        )
    )
    result.data["raw"] = policy_raw
    result.data["routing_raw"] = routing_raw
    return result
