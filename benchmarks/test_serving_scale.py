"""Benchmark: serving-core simulation throughput at scale.

Drives one saturated instance through the serving-core Poisson
workload (3072 requests, ~80k trace events) on the columnar
:class:`Trace`, folds the trace, and records simulated requests/sec and
trace events/sec in ``results/BENCH_serving.json``, together with the
frozen pre-refactor seed baseline.

At full scale the run fails CI when it drops below ``FLOOR_RPS``
requests/sec, and its fold (``StepMetrics``, per-request latencies and
queue delays) must equal the ``serving_scale`` entry of the golden
trace manifest (``tests/golden/traces.json``), so this doubles as a
large-scale exactness check.
"""

import json
import os
import pathlib
import time

import numpy as np

from repro.compression import NoCompression
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Trace,
    queue_delays,
    request_latencies,
)

FP16 = NoCompression().cost_spec()

#: requests in the full-scale scenario (its fold is pinned in the
#: golden trace manifest)
SCALE_REQUESTS = 3072

#: requests in this run (paper-scale; REPRO_SCALE=smoke shrinks it)
N_REQUESTS = (
    SCALE_REQUESTS if os.environ.get("REPRO_SCALE") != "smoke" else 512
)

#: absolute floor at N_REQUESTS=3072, simulated requests/sec.
#: Measured ≈6.5k req/s (six 3-run medians, 6.0k–7.5k) on a loaded
#: 2-vCPU host — the floor leaves >5x headroom for slower CI machines.
FLOOR_RPS = 1000.0

#: golden folds, including this scenario's at SCALE_REQUESTS
MANIFEST = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "traces.json"
)

#: pre-refactor seed baseline, measured from the pre-refactor tree on
#: the reference container at N_REQUESTS=3072 (object trace, per-event
#: recording, object folds, per-step scheduler scans): the "before"
#: column of the tentpole's before/after comparison.
SEED_BASELINE = {"requests_per_sec": 184.9, "events_per_sec": 4829.0}


def scale_instance():
    return ServerInstance(
        ServingCostModel(LLAMA_7B, A6000, LMDEPLOY), FP16
    )


def scale_stream(n):
    # serving-core shape: Poisson arrivals at 8 rps, long prompts and
    # responses so the KV budget binds and the queue grows deep
    rng = np.random.default_rng(7)
    arr = np.cumsum(rng.exponential(1.0 / 8.0, size=n))
    prompts = rng.integers(512, 3072, size=n)
    resps = rng.integers(128, 1024, size=n)
    prios = rng.integers(0, 4, size=n)
    return [
        ServingRequest(
            f"r{i}", float(arr[i]), int(prompts[i]), int(resps[i]),
            priority=int(prios[i]),
        )
        for i in range(n)
    ]


def _measure():
    """Run and fold the scenario; returns (metrics dict, folds)."""
    trace = Trace()
    reqs = scale_stream(N_REQUESTS)
    inst = scale_instance()
    t0 = time.perf_counter()
    res = inst.run(reqs, trace=trace)
    t_run = time.perf_counter() - t0
    t0 = time.perf_counter()
    m = StepMetrics.from_trace(trace)
    lats = request_latencies(trace)
    delays = queue_delays(trace)
    t_fold = time.perf_counter() - t0
    total = t_run + t_fold
    assert len(res.completed) == N_REQUESTS
    return (
        {
            "requests": N_REQUESTS,
            "events": len(trace),
            "run_seconds": t_run,
            "fold_seconds": t_fold,
            "requests_per_sec": N_REQUESTS / total,
            "events_per_sec": len(trace) / total,
        },
        (m, lats, delays),
    )


def test_serving_scale(benchmark, record_bench_json):
    after, (m, lats, delays) = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    record_bench_json(
        "serving_scale",
        {
            "columnar": after,
            "seed_baseline": SEED_BASELINE,
            "speedup_vs_seed": (
                after["requests_per_sec"]
                / SEED_BASELINE["requests_per_sec"]
            ),
            "floor_requests_per_sec": FLOOR_RPS,
        },
    )
    if N_REQUESTS >= SCALE_REQUESTS:
        # acceptance gates (full scale only: the golden fold is the
        # 3072-request one, and the floor was calibrated there)
        golden = json.loads(MANIFEST.read_text())["serving_scale"]
        assert after["events"] == golden["events"]
        assert m.as_dict() == golden["step_metrics"]
        assert lats == golden["request_latencies"]
        assert delays == golden["queue_delays"]
        assert after["requests_per_sec"] >= FLOOR_RPS, (
            f"serving throughput {after['requests_per_sec']:.0f} "
            f"req/s fell below the {FLOOR_RPS:.0f} req/s floor"
        )
