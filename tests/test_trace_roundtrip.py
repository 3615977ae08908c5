"""JSONL round-trip coverage for fleet-era events and the meta header.

Satellite coverage for the replay harness: the disaggregated-fleet
event kinds (``KV_TRANSFER``, ``SCALE_UP``/``SCALE_DOWN``) and the
staged/synthetic request ids (``#pf`` prefill stages, ``#fb`` fallback
re-decodes) must survive ``dump_jsonl`` → ``load_jsonl`` exactly —
payload values AND types — and must fold to the values pinned below.
The metadata header line added for ring-buffer truncation must
round-trip drop counts and scenario/workload context without
perturbing the legacy headerless byte format of unbounded exports.
"""

import hashlib
import json

import pytest

from repro.serving import (
    EventType,
    StepMetrics,
    Trace,
    build_spans,
    dump_jsonl,
    load_jsonl,
)
from repro.serving.telemetry.export import META_KEY


#: ``StepMetrics.from_trace(fleet_trace()).as_dict()``, recorded when
#: the object-per-event fold still existed and agreed with it
FLEET_FOLD = {
    "decode_steps": 1, "admits": 3, "preempts": 0, "rejects": 0,
    "finishes": 3, "prefill_chunks": 0, "partial_requests": 0,
    "dropped_events": 0, "reroutes": 0, "fallbacks": 0,
    "kv_transfers": 1, "kv_transfer_bytes": 2500000,
    "kv_transfer_seconds": 0.02, "scale_ups": 1, "scale_downs": 1,
    "decode_seconds": 0.01, "mean_batch_occupancy": 1.0,
    "peak_batch_occupancy": 1, "mean_budget_utilization": 0.00855,
    "peak_budget_utilization": 0.00855, "mean_queue_delay": 0.0,
    "mean_tbot": 0.017142857142857144, "p99_tbot": 0.019942857142857148,
    "max_decode_gap": 0.0, "ttft_attainment": 1.0, "tbot_attainment": 1.0,
    "goodput": 35.714285714285715, "prefix_hits": 0,
    "prefix_cached_tokens": 0, "prefix_saved_seconds": 0.0,
    "prefix_hit_rate": 0.0,
}

#: sha256 of ``dump_jsonl(fleet_trace())``, recorded alongside
#: ``FLEET_FOLD``
FLEET_JSONL_SHA256 = (
    "83cb381cf1f993fbff5f104e2715c73a45a63e44c2b0aa72d0b690ab017965a8"
)


def fleet_trace(**kw):
    """A hand-built disagg-shaped recording touching every fleet kind."""
    t = Trace(**kw)
    # staged request: prefill under r0#pf on the prefill pool...
    t.record(0.00, EventType.ADMIT, "r0#pf", "pf0",
             arrival=0.0, queued_at=0.0, ttft_deadline=2.0)
    t.record(0.10, EventType.PREFILL, "r0#pf", "pf0",
             seconds=0.1, prompt=512)
    t.record(0.10, EventType.FINISH, "r0#pf", "pf0",
             arrival=0.0, first_token=0.1, generated=1)
    # ...then the KV ships to the decode pool under the logical id
    t.record(0.12, EventType.KV_TRANSFER, "r0", "dec0",
             bytes=2.5e6, seconds=0.02, tokens=512, link="nvlink-a6000")
    t.record(0.12, EventType.ADMIT, "r0", "dec0",
             arrival=0.0, queued_at=0.12, ttft_deadline=2.0)
    t.record(0.30, EventType.DECODE_STEP, "", "dec0",
             batch=1, kv=513, seconds=0.01, used_tokens=513,
             token_budget=60000, live=1)
    t.record(0.40, EventType.FINISH, "r0", "dec0",
             arrival=0.0, first_token=0.1, generated=16, ttft_miss=0)
    # a router fallback re-decode rides the #fb suffix
    t.record(0.50, EventType.ADMIT, "r1#fb", "dec1",
             arrival=0.45, queued_at=0.5)
    t.record(0.70, EventType.FINISH, "r1#fb", "dec1",
             arrival=0.45, first_token=0.6, generated=8)
    # autoscaler activity: pool names are string payloads
    t.record(0.80, EventType.SCALE_UP, "", "dec2", pool="decode", size=3)
    t.record(1.90, EventType.SCALE_DOWN, "", "dec2", pool="decode", size=2)
    return t


def test_fleet_events_roundtrip_exact(tmp_path):
    trace = fleet_trace()
    path = tmp_path / "fleet.jsonl"
    assert dump_jsonl(trace, path) == len(trace)
    loaded = load_jsonl(path)
    assert len(loaded) == len(trace)
    for orig, back in zip(trace.events, loaded.events):
        assert back.kind is orig.kind
        assert back.time == orig.time
        assert back.request_id == orig.request_id
        assert back.instance == orig.instance
        assert back.data == orig.data
        # types too: ints stay ints, strings stay strings
        for key in orig.data:
            assert type(back.data[key]) is type(orig.data[key]), key


def test_staged_ids_and_folds_survive_roundtrip(tmp_path):
    trace = fleet_trace()
    path = tmp_path / "fleet.jsonl"
    dump_jsonl(trace, path)
    loaded = load_jsonl(path)
    assert {"r0#pf", "r1#fb"} <= set(loaded.request_ids())
    folded = StepMetrics.from_trace(loaded)
    assert folded == StepMetrics.from_trace(trace)
    assert folded.as_dict() == FLEET_FOLD
    assert folded.kv_transfers == 1
    assert folded.kv_transfer_bytes == 2.5e6
    assert folded.scale_ups == 1 and folded.scale_downs == 1
    assert folded.dropped_events == 0


def test_span_tree_builds_from_loaded_trace(tmp_path):
    trace = fleet_trace()
    path = tmp_path / "fleet.jsonl"
    dump_jsonl(trace, path)
    spans = build_spans(load_jsonl(path))
    by_req = {s.request_id: s for s in spans}
    assert "r0#pf" in by_req and "r0" in by_req and "r1#fb" in by_req


def test_unbounded_dump_has_no_header(tmp_path):
    path = tmp_path / "plain.jsonl"
    dump_jsonl(fleet_trace(), path)
    first = json.loads(path.read_text().splitlines()[0])
    assert META_KEY not in first  # legacy byte format untouched


def test_fleet_dump_bytes_are_golden(tmp_path):
    path = tmp_path / "fleet.jsonl"
    dump_jsonl(fleet_trace(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLEET_JSONL_SHA256


def test_header_roundtrips_truncation_and_context(tmp_path):
    trace = Trace(max_events=8)
    for i in range(40):
        trace.record(0.1 * i, EventType.DECODE_STEP, "", "inst0",
                     batch=1, kv=10, seconds=0.01, used_tokens=10,
                     token_budget=100, live=1)
    assert trace.dropped_events > 0
    path = tmp_path / "bounded.jsonl"
    scenario = {"kind": "fleet", "decode": []}
    workload = [{"request_id": "r0", "arrival": 0.0,
                 "prompt_len": 8, "response_len": 4}]
    dump_jsonl(trace, path, scenario=scenario, workload=workload)

    head = json.loads(path.read_text().splitlines()[0])[META_KEY]
    assert head["dropped_events"] == trace.dropped_events
    assert head["max_events"] == 8
    assert head["events"] == len(trace)

    loaded = load_jsonl(path)
    assert loaded.dropped_events == trace.dropped_events
    assert loaded.meta["scenario"] == scenario
    assert loaded.meta["workload"] == workload
    # the truncation survives into the metrics fold
    assert StepMetrics.from_trace(loaded).dropped_events == \
        trace.dropped_events


def test_metrics_as_dict_carries_dropped_events():
    trace = fleet_trace()
    m = StepMetrics.from_trace(trace)
    assert m.as_dict()["dropped_events"] == 0


def test_load_skips_corrupt_lines(tmp_path):
    trace = fleet_trace()
    path = tmp_path / "fleet.jsonl"
    dump_jsonl(trace, path)
    lines = path.read_text().splitlines()
    lines.insert(3, "{not json")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_jsonl(path)
    assert len(loaded) == len(trace)
    assert StepMetrics.from_trace(loaded) == StepMetrics.from_trace(trace)
