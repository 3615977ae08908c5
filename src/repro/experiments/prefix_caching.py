"""Prefix caching: TTFT and goodput on a multi-turn workload.

The paper prices prefill as the dominant TTFT cost; production engines
(vLLM prefix caching, SGLang RadixAttention) avoid re-prefilling the
KV of tokens the instance has already seen — a multi-turn
conversation's growing history, or a system prompt shared across all
conversations.  This experiment replays a ShareGPT-style multi-turn
stream (every turn's prompt = shared system prompt + accumulated
history + new user message) through the serving simulator:

- **off vs on** — the same stream on one FP16 instance without and
  with a :class:`~repro.serving.prefix.PrefixIndex`: with caching, each
  turn re-prefills only its new suffix and mean TTFT collapses.
- **compression friction** — the same index attached to a KIVI
  instance yields *zero* hits: quantized blocks are unshareable
  (Section 3.1.2), so compressed deployments forfeit prefix reuse.
- **routing** — a 2-instance FP16 fleet under load-balance vs
  cache-affinity (``prefix``) online routing: load balancing scatters
  a conversation's turns across instances, each with a cold cache,
  while affinity routing keeps them where their KV lives.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.common import ExperimentResult, comp_spec, cost_model
from repro.serving import (
    PrefixIndex,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Trace,
)

#: shared system prompt / per-turn user message / response (tokens)
SYS_TOKENS = 512
USER_TOKENS = 128
RESP_TOKENS = 128
#: conversations and turns per conversation
N_CONVERSATIONS = 6
N_TURNS = 3
#: think time between a response and the user's next turn (s)
TURN_GAP = 8.0
#: stagger between conversation starts (s)
CONV_GAP = 0.7
#: tighter timing for the fleet comparison, keeping both instances busy
ROUTED_TURN_GAP = 1.5
ROUTED_CONV_GAP = 0.25


def _conversation_prompts(conv: int, shared_sys: bool = True) -> List[List[int]]:
    """Token ids of each turn's prompt for one conversation.

    Turn ``t``'s prompt is the system prompt plus every earlier user
    message and model response — the ShareGPT accumulation pattern that
    makes each turn's prefix exactly the previous turn's full context.
    ``shared_sys=False`` gives each conversation a distinct system
    prompt, so reuse can only come from that conversation's own history
    (isolates the routing comparison from cross-conversation sharing).
    """
    base = 1_000 if shared_sys else 1_000_000 + conv * 10_000
    sys_ids = list(range(base, base + SYS_TOKENS))
    history = list(sys_ids)
    prompts = []
    for t in range(N_TURNS):
        user = [
            100_000 + conv * 10_000 + t * 1_000 + i for i in range(USER_TOKENS)
        ]
        prompt = history + user
        prompts.append(prompt)
        resp = [
            500_000 + conv * 10_000 + t * 1_000 + i for i in range(RESP_TOKENS)
        ]
        history = prompt + resp
    return prompts


def multi_turn_stream() -> List[ServingRequest]:
    """The multi-turn stream as concrete per-instance requests."""
    reqs = []
    for conv in range(N_CONVERSATIONS):
        for t, prompt in enumerate(_conversation_prompts(conv)):
            reqs.append(
                ServingRequest(
                    request_id=f"c{conv}t{t}",
                    arrival=conv * CONV_GAP + t * TURN_GAP,
                    prompt_len=len(prompt),
                    response_len=RESP_TOKENS,
                    token_ids=tuple(prompt),
                )
            )
    return reqs


def multi_turn_routed_stream() -> List[RoutedRequest]:
    """Routable multi-turn stream with per-conversation system prompts.

    Distinct system prompts make conversation affinity the only source
    of prefix hits: a turn routed away from its conversation's home
    instance finds nothing cached there.  Think times and response
    lengths are jittered (seeded) so the arrival order varies between
    rounds and the fleet stays busy — under load, least-loaded routing
    scatters a conversation's turns across instances while affinity
    routing keeps them home.
    """
    rng = np.random.default_rng(7)
    reqs = []
    for conv in range(N_CONVERSATIONS):
        at = conv * ROUTED_CONV_GAP
        for t, prompt in enumerate(_conversation_prompts(conv, shared_sys=False)):
            resp = int(rng.integers(64, 192))
            reqs.append(
                RoutedRequest(
                    request_id=f"c{conv}t{t}",
                    arrival=at,
                    prompt_len=len(prompt),
                    intended_len=resp,
                    lengths_by_algo={"fp16": resp},
                    token_ids=tuple(prompt),
                )
            )
            at += ROUTED_TURN_GAP * float(rng.uniform(0.6, 1.8))
    return reqs


def _serve_single(cm, comp_name: str, prefix: bool):
    """One instance on cost model ``cm`` serving the stream; returns
    (result, metrics)."""
    inst = ServerInstance(
        cm,
        comp_spec(comp_name),
        prefix_cache=PrefixIndex() if prefix else None,
    )
    trace = Trace()
    res = inst.run(multi_turn_stream(), trace=trace)
    return res, StepMetrics.from_trace(trace)


def _single_rows(cm):
    rows, raw = [], []
    for label, comp_name, prefix in (
        ("fp16 / off", "fp16", False),
        ("fp16 / on", "fp16", True),
        ("kivi-4 / on", "kivi-4", True),
    ):
        res, m = _serve_single(cm, comp_name, prefix)
        ttft = res.ttft
        rows.append(
            [
                label,
                f"{ttft.mean():.4f}",
                f"{np.percentile(ttft, 99):.4f}",
                f"{m.prefix_hit_rate:.2f}",
                f"{m.prefix_cached_tokens}",
                f"{m.prefix_saved_seconds:.3f}",
                f"{m.goodput:.1f}",
            ]
        )
        raw.append(
            {
                "config": label,
                "comp": comp_name,
                "prefix": prefix,
                "mean_ttft": float(ttft.mean()),
                "p99_ttft": float(np.percentile(ttft, 99)),
                "prefix_hits": m.prefix_hits,
                "prefix_hit_rate": m.prefix_hit_rate,
                "prefix_cached_tokens": m.prefix_cached_tokens,
                "prefix_saved_seconds": m.prefix_saved_seconds,
                "goodput": m.goodput,
            }
        )
    return rows, raw


def _routing_rows(cm):
    rows, raw = [], []
    for policy in (RoutingPolicy.LOAD_BALANCE, RoutingPolicy.PREFIX):
        instances = [
            ServerInstance(cm, comp_spec("fp16"), prefix_cache=PrefixIndex())
            for _ in range(2)
        ]
        router = Router(instances, ["fp16", "fp16"], policy)
        res = router.serve_online(multi_turn_routed_stream())
        served = [r for r in res.all_requests() if not r.rejected]
        ttft = np.array([r.ttft for r in served])
        hit_rate = float(np.mean([r.cached_prefix > 0 for r in served]))
        s = res.latency_summary()
        rows.append(
            [
                policy.value,
                f"{ttft.mean():.4f}",
                f"{np.percentile(ttft, 99):.4f}",
                f"{hit_rate:.2f}",
                f"{s.goodput:.1f}",
            ]
        )
        raw.append(
            {
                "routing": policy.value,
                "mean_ttft": float(ttft.mean()),
                "prefix_hit_rate": hit_rate,
                "goodput": s.goodput,
            }
        )
    return rows, raw


def run(scale: Optional[float] = None) -> ExperimentResult:
    """Prefix caching off/on, compression friction, and affinity routing."""
    # one deployment: every instance below prices on one cost model
    cm = cost_model()
    single_rows, single_raw = _single_rows(cm)
    routing_rows, routing_raw = _routing_rows(cm)
    result = ExperimentResult(
        name="Prefix caching — multi-turn TTFT and cache-affinity routing",
        description=(
            "LLaMA-7B/A6000/LMDeploy.  Workload: "
            f"{N_CONVERSATIONS} conversations x {N_TURNS} turns, each "
            f"turn's prompt = {SYS_TOKENS}-token shared system prompt + "
            f"accumulated history + {USER_TOKENS}-token user message "
            f"({RESP_TOKENS}-token responses, {TURN_GAP:.0f}s think "
            "time).  With the prefix index on, later turns re-prefill "
            "only their new suffix; the KIVI row shows compression "
            "breaking shareability (zero hits, Section 3.1.2); the "
            "fleet table compares load-balance routing (turns scatter "
            "across cold caches) with cache-affinity routing."
        ),
    )
    result.tables.append(
        format_table(
            ["config", "mean TTFT (s)", "p99 TTFT (s)", "hit rate",
             "cached tok", "saved (s)", "goodput (tok/s)"],
            single_rows,
            title="Single instance, prefix caching off/on:",
        )
    )
    result.tables.append(
        format_table(
            ["routing", "mean TTFT (s)", "p99 TTFT (s)", "hit rate",
             "goodput (tok/s)"],
            routing_rows,
            title="2-instance FP16 fleet, online routing:",
        )
    )
    result.data["raw"] = single_raw
    result.data["routing_raw"] = routing_raw
    return result
