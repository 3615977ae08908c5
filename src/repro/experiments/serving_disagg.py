"""Disaggregated prefill/decode fleet under diurnal + bursty load.

The serving-efficiency claim the fleet split is for: time-to-first-token
is made by the *prefill* path, and on a monolithic instance prompt
passes queue behind everyone else's decode steps — so TTFT attainment
collapses as the arrival rate climbs, long before raw throughput runs
out.  A disaggregated fleet keeps prompt passes on a prefill pool,
ships the finished KV to a decode pool over a priced interconnect link
(:func:`repro.hardware.interconnect.transfer_time`; compressed KV ships
``kv_bytes_ratio`` times fewer bytes), and lets a telemetry-driven
:class:`~repro.serving.fleet.Autoscaler` activate standby instances as
the registry shows queues building.

Workload: non-homogeneous Poisson arrivals — a diurnal sinusoid (peak
in the first half, trough in the second) with a burst storm riding the
peak — swept over arrival-rate multipliers covering a 10x range.  The
same workload is served by static monolithic fleets (2x and 4x) and by
the autoscaled disaggregated fleet.

The headline (pinned by ``benchmarks/test_serving_disagg.py``): the
disaggregated fleet holds TTFT attainment across the full 10x rate
sweep — at least matching the best static fleet at every rate — while
the static fleets collapse at the top rate; the trace shows at least
one ``SCALE_UP`` during the storm and one ``SCALE_DOWN`` in the trough.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.common import (
    ExperimentResult,
    comp_spec,
    cost_model,
)
from repro.serving import DisaggFleet, ServingRequest, StepMetrics, Trace
from repro.serving.replay import build_scenario, fleet_scenario

SEED = 17
N_REQUESTS = 110
ALGO = "kivi-4"            # homogeneous fleet; KV ships at 1/4 bytes
PROMPT_TOKENS = (320, 768)
RESP_TOKENS = (80, 192)
TTFT_SLO = 2.0             # seconds, on every request
MAX_BATCH = 8

#: arrival-rate multipliers (10x sweep)
RATE_SCALES: Tuple[float, ...] = (1.0, 3.0, 10.0)
#: base rate: a 2-instance monolithic fleet at ~35% utilisation at 1x
BASE_UTILIZATION = 0.35
DIURNAL_AMP = 0.5          # rate swings +-50% over one period (= the run)
BURST_MULT = 3.0           # storm multiplier riding the diurnal peak
BURST_WINDOW = (0.22, 0.32)  # storm start/end as fractions of the run

#: pool sizing: (pool size, initially active)
PREFILL_POOL, PREFILL_ACTIVE = 4, 1
DECODE_POOL, DECODE_ACTIVE = 8, 2
STATIC_SIZES: Tuple[int, ...] = (2, 4)

AUTOSCALER = dict(
    tick=0.5, ttft_target=0.95, queue_high=3.0, queue_low=0.5,
    occ_high=0.85, occ_low=0.25, cooldown_ticks=2, min_active=1,
)


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def base_rate() -> float:
    """Arrivals/s putting 2 monolithic instances at BASE_UTILIZATION."""
    m = cost_model()
    spec = comp_spec(ALGO)
    prompt = sum(PROMPT_TOKENS) // 2
    resp = sum(RESP_TOKENS) // 2
    prefill = m.prefill(1, prompt, spec).seconds
    step = m.decode_step(MAX_BATCH, prompt + resp // 2, spec).seconds
    service = prefill + resp * step / MAX_BATCH
    return BASE_UTILIZATION * 2.0 / service


def build_workload(
    rate_scale: float, n: int = N_REQUESTS, seed: int = SEED
) -> List[Tuple[str, float, int, int]]:
    """Request specs ``(id, arrival, prompt_len, response_len)``.

    Arrivals are drawn by thinning a homogeneous Poisson process at the
    peak rate: diurnal sinusoid over one run-length period (trough in
    the tail, so the autoscaler has something to drain into) plus a
    burst storm over ``BURST_WINDOW`` riding the diurnal peak.
    """
    rng = np.random.default_rng(seed)
    lam0 = base_rate() * rate_scale
    horizon = n / lam0          # expected run length at the mean rate
    b0, b1 = (f * horizon for f in BURST_WINDOW)

    def rate(t: float) -> float:
        lam = lam0 * max(0.05, 1.0 + DIURNAL_AMP * math.sin(
            2.0 * math.pi * t / horizon))
        if b0 <= t < b1:
            lam *= BURST_MULT
        return lam

    lam_max = lam0 * (1.0 + DIURNAL_AMP) * BURST_MULT
    specs: List[Tuple[str, float, int, int]] = []
    t = 0.0
    while len(specs) < n:
        t += float(rng.exponential(1.0 / lam_max))
        if rng.uniform() * lam_max > rate(t):
            continue
        rid = f"r{len(specs):03d}"
        prompt = int(rng.integers(*PROMPT_TOKENS))
        resp = int(rng.integers(*RESP_TOKENS))
        specs.append((rid, t, prompt, resp))
    return specs


def make_requests(
    specs: Sequence[Tuple[str, float, int, int]]
) -> List[ServingRequest]:
    """Fresh request objects (the simulator mutates them in place)."""
    return [
        ServingRequest(
            request_id=rid, arrival=arrival, prompt_len=prompt,
            response_len=resp, ttft_deadline=TTFT_SLO,
        )
        for rid, arrival, prompt, resp in specs
    ]


def build_fleet(kind: str) -> DisaggFleet:
    """``static-N`` (monolithic) or ``disagg`` (autoscaled pools), built
    from :func:`scenario_config`; every instance of the fleet shares one
    cost model."""
    return build_scenario(scenario_config(kind))


def scenario_config(kind: str) -> Dict[str, object]:
    """The replay scenario config of a fleet kind: the one description
    :func:`build_fleet` builds from, so an exported trace of a run here
    replays bit-for-bit (pinned by ``tests/test_replay.py``)."""
    inst = dict(algo=ALGO, max_batch=MAX_BATCH)
    if kind.startswith("static-"):
        n = int(kind.split("-")[1])
        return fleet_scenario(decode=[inst] * n)
    if kind == "disagg":
        return fleet_scenario(
            decode=[inst] * DECODE_POOL,
            prefill=[inst] * PREFILL_POOL,
            prefill_active=PREFILL_ACTIVE,
            decode_active=DECODE_ACTIVE,
            autoscaler=AUTOSCALER,
        )
    raise ValueError(f"unknown fleet kind {kind!r}")


# ----------------------------------------------------------------------
# one run -> one row
# ----------------------------------------------------------------------
def run_fleet(
    kind: str,
    rate_scale: float,
    specs: Sequence[Tuple[str, float, int, int]],
    export_path: Optional[str] = None,
) -> Dict[str, float]:
    fleet = build_fleet(kind)
    trace = Trace()
    requests = make_requests(specs)
    result = fleet.serve(requests, trace=trace)
    if export_path is not None:
        from repro.serving import dump_jsonl
        from repro.serving.replay import workload_specs

        # shape fields are immutable during a run, so the post-run
        # requests still describe the pre-run workload exactly
        dump_jsonl(
            trace, export_path,
            scenario=scenario_config(kind),
            workload=workload_specs(requests),
        )
    metrics = StepMetrics.from_trace(trace)
    done = result.completed
    ttfts = [r.ttft for r in done if r.first_token is not None]
    e2es = sorted(r.e2e_latency for r in done if r.finish is not None)
    p95 = e2es[int(0.95 * (len(e2es) - 1))] if e2es else 0.0
    return {
        "fleet": kind,
        "rate_scale": rate_scale,
        "ttft_attainment": float(result.ttft_attainment() or 0.0),
        "completed": len(done),
        "rejected": len(result.rejected),
        "mean_ttft": float(np.mean(ttfts)) if ttfts else 0.0,
        "p95_e2e": float(p95),
        "kv_transfers": int(metrics.kv_transfers),
        "kv_transfer_mb": float(metrics.kv_transfer_bytes) / 1e6,
        "kv_transfer_seconds": float(metrics.kv_transfer_seconds),
        "scale_ups": int(metrics.scale_ups),
        "scale_downs": int(metrics.scale_downs),
    }


def sweep(
    rate_scales: Sequence[float] = RATE_SCALES,
) -> List[Dict[str, float]]:
    """Every fleet kind at every arrival-rate multiplier."""
    kinds = [f"static-{n}" for n in STATIC_SIZES] + ["disagg"]
    rows: List[Dict[str, float]] = []
    for scale in rate_scales:
        specs = build_workload(scale)
        for kind in kinds:
            rows.append(run_fleet(kind, scale, specs))
    return rows


# ----------------------------------------------------------------------
def run(scale: Optional[float] = None) -> ExperimentResult:
    """Disaggregated fleet vs static monolithic under a 10x rate sweep."""
    data = sweep()

    def row(p: Dict[str, float]) -> List[str]:
        return [
            p["fleet"],
            f"{p['rate_scale']:.0f}x",
            f"{p['ttft_attainment']:.2f}",
            f"{p['mean_ttft']:.2f}",
            f"{p['p95_e2e']:.1f}",
            f"{p['completed']}",
            f"{p['kv_transfers']}",
            f"{p['kv_transfer_mb']:.0f}",
            f"{p['scale_ups']}",
            f"{p['scale_downs']}",
        ]

    result = ExperimentResult(
        name="Disaggregated prefill/decode fleet — TTFT under a 10x rate sweep",
        description=(
            f"LLaMA-7B/A6000/LMDeploy, {ALGO} on every instance.  "
            f"{N_REQUESTS} arrivals per run from a diurnal sinusoid "
            f"(+-{DIURNAL_AMP:.0%}) with a {BURST_MULT:.0f}x burst storm "
            f"riding the peak, swept over "
            f"{'/'.join(f'{s:.0f}x' for s in RATE_SCALES)} the base rate "
            f"(2 monolithic instances at {BASE_UTILIZATION:.0%} load); "
            f"every request under a {TTFT_SLO:.1f}s TTFT SLO.  Static "
            "fleets are monolithic (every instance prefills and "
            "decodes); the disaggregated fleet runs "
            f"{PREFILL_ACTIVE}/{PREFILL_POOL} prefill and "
            f"{DECODE_ACTIVE}/{DECODE_POOL} decode instances active at "
            "start, KV handoffs priced over NVLink, and the "
            "telemetry-driven autoscaler activating/draining standbys "
            "on queue depth, KV occupancy, and TTFT attainment.  "
            "Rejected requests count as TTFT misses."
        ),
        data={"raw": data},
    )
    result.tables.append(
        format_table(
            ["fleet", "rate", "TTFT att.", "mean TTFT (s)", "p95 E2E (s)",
             "done", "KV xfers", "xfer MB", "ups", "drains"],
            [row(p) for p in data],
            title="Fleet x arrival-rate sweep:",
        )
    )
    return result
