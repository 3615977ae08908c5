"""Golden serving traces: every consumer surface pinned per scenario.

Eight seeded single-instance scenarios (core, dynamic admission,
chunked prefill, SLO slack, priority, shortest-first, prefix caching,
telemetry-instrumented), each at seeds 0 and 1, run on the columnar
:class:`Trace` and must match their entry in ``tests/golden/traces.json``
exactly:

- the event count, ``counts()`` and ``request_ids()``;
- the sha256 of the header-less ``dump_jsonl`` bytes (every payload
  value and its int/float/bool type);
- the sha256 of ``render_timeline()``;
- ``StepMetrics.as_dict()`` in full;
- ``request_latencies`` and ``queue_delays``.

Two of the runs are also committed as JSONL recordings with replay
headers (``tests/golden/<scenario>-0.jsonl``): loading one must fold to
its manifest entry, and replaying it must be EXACT.  The manifest also
holds the 3072-request fold of ``benchmarks/test_serving_scale.py``,
which that benchmark checks at full scale.

The manifest was first written while the object-per-event collector
still existed, in the same process that asserted the columnar trace
equal to it on every scenario.  Regenerate it (and the recordings) only
for an intended change of simulated behaviour, and say so in the
change::

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import itertools
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from repro.compression import NoCompression
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    PrefixIndex,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Telemetry,
    Trace,
    dump_jsonl,
    fleet_scenario,
    instance_config,
    load_jsonl,
    make_policy,
    queue_delays,
    replay_trace,
    request_latencies,
    workload_specs,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "traces.json"
SCALE_BENCH = ROOT / "benchmarks" / "test_serving_scale.py"

FP16 = NoCompression().cost_spec()


def instance(**kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, FP16, **kw)


def workload(seed, n=40, slo=False, tokens=False):
    rng = np.random.default_rng(seed)
    t = 0.0
    reqs = []
    for i in range(n):
        t += float(rng.exponential(0.2))
        kw = {}
        if slo and rng.random() < 0.7:
            kw["ttft_deadline"] = float(rng.uniform(0.5, 4.0))
            kw["tbot_target"] = float(rng.uniform(0.02, 0.2))
        if tokens:
            # shared 64-token stem with 50% probability -> prefix hits
            stem = tuple(range(64)) if rng.random() < 0.5 else tuple(
                int(x) for x in rng.integers(0, 10_000, 64)
            )
            tail = tuple(int(x) for x in rng.integers(0, 10_000, 192))
            kw["token_ids"] = stem + tail
        reqs.append(
            ServingRequest(
                f"r{i}",
                t,
                prompt_len=256 if tokens else int(rng.integers(16, 512)),
                response_len=int(rng.integers(1, 96)),
                priority=int(rng.integers(0, 4)),
                **kw,
            )
        )
    return reqs


SCENARIOS = {
    "core": dict(kw=dict(max_batch=8)),
    "dynamic": dict(kw=dict(admission="dynamic", max_batch=16)),
    "chunked": dict(kw=dict(chunk_size=64, max_batch=8)),
    "slo": dict(kw=dict(scheduler=make_policy("slo"), max_batch=8), slo=True),
    "priority": dict(kw=dict(scheduler=make_policy("priority"), max_batch=8)),
    "shortest": dict(kw=dict(scheduler=make_policy("shortest"), max_batch=8)),
    "prefix": dict(kw=dict(max_batch=8), tokens=True, prefix=True),
    "telemetry": dict(kw=dict(max_batch=8), telemetry=True),
}
CASES = list(itertools.product(SCENARIOS, (0, 1)))

#: scenarios committed as recordings, with the replay-header config
#: that rebuilds their instance
RECORDINGS = {
    "slo": instance_config(policy="slo", max_batch=8),
    "chunked": instance_config(chunk_size=64, max_batch=8),
}


def scenario_requests(name, seed):
    spec = SCENARIOS[name]
    return workload(
        seed, slo=spec.get("slo", False), tokens=spec.get("tokens", False)
    )


def run(name, seed):
    """Serve one scenario on a fresh columnar trace."""
    spec = SCENARIOS[name]
    kw = dict(spec["kw"])
    if spec.get("prefix"):
        kw["prefix_cache"] = PrefixIndex(block_size=16)
    tel = Telemetry() if spec.get("telemetry") else None
    trace = Trace()
    instance(**kw).run(
        copy.deepcopy(scenario_requests(name, seed)), trace=trace,
        telemetry=tel,
    )
    return trace


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fold(trace) -> dict:
    """The metric folds of a trace (what the scale entry pins)."""
    return {
        "events": len(trace),
        "counts": trace.counts(),
        "step_metrics": StepMetrics.from_trace(trace).as_dict(),
        "request_latencies": request_latencies(trace),
        "queue_delays": queue_delays(trace),
    }


def fingerprint(trace, scratch: pathlib.Path) -> dict:
    """Every consumer surface of a trace, as one manifest entry."""
    path = scratch / "fingerprint.jsonl"
    dump_jsonl(trace, path)
    return {
        **fold(trace),
        "request_ids": trace.request_ids(),
        "jsonl_sha256": sha256(path.read_bytes()),
        "timeline_sha256": sha256(trace.render_timeline().encode()),
    }


def recording_path(name: str) -> pathlib.Path:
    return GOLDEN / f"{name}-0.jsonl"


def load_scale_benchmark():
    """``benchmarks/test_serving_scale.py`` as a module (its workload)."""
    spec = importlib.util.spec_from_file_location("serving_scale", SCALE_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches(got: dict, want: dict) -> None:
    """Field-by-field, so a failure names the surface that moved."""
    assert got.keys() == want.keys()
    for field, value in want.items():
        assert got[field] == value, field


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize(
    "name,seed", CASES, ids=[f"{n}-{s}" for n, s in CASES]
)
def test_trace_matches_golden(name, seed, manifest, tmp_path):
    assert_matches(
        fingerprint(run(name, seed), tmp_path), manifest[f"{name}-{seed}"]
    )


def test_kind_and_request_views_match_scan(manifest):
    trace = run("dynamic", 0)
    entry = manifest["dynamic-0"]
    events = list(trace.events)
    assert trace.counts() == entry["counts"]
    assert trace.request_ids() == entry["request_ids"]
    for kind in {e.kind for e in events}:
        scan = [e for e in events if e.kind is kind]
        assert list(trace.of_kind(kind)) == scan
        assert len(scan) == entry["counts"][kind.value]
    for rid in trace.request_ids():
        scan = [e for e in events if e.request_id == rid]
        assert list(trace.for_request(rid)) == scan


@pytest.mark.parametrize("name", sorted(RECORDINGS))
def test_recording_folds_to_golden_and_replays_exact(name, manifest, tmp_path):
    trace = load_jsonl(recording_path(name))
    assert trace.meta["scenario"] == fleet_scenario(decode=[RECORDINGS[name]])
    # the loaded recording re-dumps header-less to the golden bytes
    assert_matches(fingerprint(trace, tmp_path), manifest[f"{name}-0"])
    report = replay_trace(trace)
    assert report.exact, report.drift


# ----------------------------------------------------------------------
# regeneration
# ----------------------------------------------------------------------
def write_golden() -> None:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        for name, seed in CASES:
            entries[f"{name}-{seed}"] = fingerprint(run(name, seed), scratch)
    scale = load_scale_benchmark()
    trace = Trace()
    scale.scale_instance().run(
        scale.scale_stream(scale.SCALE_REQUESTS), trace=trace
    )
    entries["serving_scale"] = fold(trace)
    GOLDEN.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(entries)} entries)")
    for name, cfg in RECORDINGS.items():
        path = recording_path(name)
        dump_jsonl(
            run(name, 0), path,
            scenario=fleet_scenario(decode=[cfg]),
            workload=workload_specs(scenario_requests(name, 0)),
        )
        print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args(argv)
    write_golden()
    return 0


if __name__ == "__main__":
    sys.exit(main())
