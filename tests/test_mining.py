"""Anomaly miner: detectors, incident clustering, regression emission.

Each detector gets a synthetic trace built to fire it and a quiet
control that must not; ``mine`` is pinned on clustering/scoring
semantics and the telemetry counters; the emitter is pinned on
minimization, idempotency, and producing runnable pytest modules.
"""

import numpy as np
import pytest

from repro.serving import (
    DETECTORS,
    EventType,
    StepMetrics,
    Telemetry,
    Trace,
    default_detectors,
    emit_regression_tests,
    fleet_scenario,
    instance_config,
    make_detector,
    mine,
    run_mined_scenario,
)
from repro.serving.mining import minimize_specs
from repro.serving.replay import build_scenario, make_requests


def test_registry_has_the_five_classes():
    assert set(DETECTORS) == {
        "slo_miss_cluster", "preemption_storm", "prefix_thrash",
        "kv_transfer_stall", "autoscaler_flap",
    }
    assert {d.name for d in default_detectors()} == set(DETECTORS)


def test_make_detector_unknown_name():
    with pytest.raises(KeyError, match="unknown detector"):
        make_detector("gpu_on_fire")


def test_slo_miss_cluster_fires_on_burst_and_not_on_spread():
    det = make_detector("slo_miss_cluster", window=5.0, min_misses=3)
    burst, spread = Trace(), Trace()
    for i in range(4):
        burst.record(1.0 + 0.2 * i, EventType.FINISH, f"r{i}", "inst0",
                     arrival=0.0, first_token=1.0, generated=8, ttft_miss=1)
        spread.record(100.0 * i, EventType.FINISH, f"r{i}", "inst0",
                      arrival=0.0, first_token=1.0, generated=8, ttft_miss=1)
    hits = det.scan(burst)
    assert hits and hits[0].detector == "slo_miss_cluster"
    assert len(hits[0].request_ids) == 4
    assert det.scan(spread) == []


def test_preemption_storm_threshold():
    det = make_detector("preemption_storm", window=2.0, min_preempts=3)
    t = Trace()
    for i in range(3):
        t.record(1.0 + 0.1 * i, EventType.PREEMPT, f"r{i}", "inst0",
                 requeued_at=1.0 + 0.1 * i)
    assert det.scan(t)
    quiet = Trace()
    quiet.record(1.0, EventType.PREEMPT, "r0", "inst0", requeued_at=1.0)
    assert det.scan(quiet) == []


def test_prefix_thrash_needs_a_hit_then_a_preempt():
    det = make_detector("prefix_thrash", min_cached=16)
    t = Trace()
    t.record(1.0, EventType.PREFIX_HIT, "r0", "inst0",
             cached=128, prompt=512, saved_seconds=0.05)
    t.record(2.0, EventType.PREEMPT, "r0", "inst0", requeued_at=2.0)
    hits = det.scan(t)
    assert hits and hits[0].evidence["cached_tokens_lost"] == 128
    # preempting a request that never hit the cache is not thrash
    other = Trace()
    other.record(2.0, EventType.PREEMPT, "r0", "inst0", requeued_at=2.0)
    assert det.scan(other) == []


def test_kv_transfer_stall_absolute_threshold():
    det = make_detector("kv_transfer_stall", stall_seconds=2.0)
    t = Trace()
    # several prompt transfers with prompt decode admits; one waits 5s
    for i, wait in enumerate((0.05, 0.06, 0.04, 5.0)):
        ts = float(i)
        t.record(ts, EventType.KV_TRANSFER, f"r{i}", "dec0",
                 bytes=1e6, seconds=0.01, tokens=256, link="nvlink-a6000")
        t.record(ts + wait, EventType.ADMIT, f"r{i}", "dec0",
                 arrival=ts, queued_at=ts + wait)
    hits = det.scan(t)
    assert len(hits) == 1
    assert hits[0].request_ids == ("r3",)
    assert hits[0].evidence["stalled"] is True


def test_autoscaler_flap_opposite_directions_same_pool():
    det = make_detector("autoscaler_flap", window=3.0)
    t = Trace()
    t.record(1.0, EventType.SCALE_UP, "", "dec2", pool="decode", size=3)
    t.record(2.0, EventType.SCALE_DOWN, "", "dec2", pool="decode", size=2)
    hits = det.scan(t)
    assert hits and hits[0].evidence["pool"] == "decode"
    # same direction twice, or different pools, is not flapping
    steady = Trace()
    steady.record(1.0, EventType.SCALE_UP, "", "dec2", pool="decode", size=3)
    steady.record(2.0, EventType.SCALE_UP, "", "dec3", pool="decode", size=4)
    steady.record(2.5, EventType.SCALE_DOWN, "", "pf1", pool="prefill",
                  size=1)
    assert det.scan(steady) == []


def test_mine_clusters_and_scores():
    t = Trace()
    # two well-separated SLO-miss bursts -> two incidents, one class
    for base in (0.0, 100.0):
        for i in range(3):
            t.record(base + 0.2 * i, EventType.FINISH, f"r{base:.0f}-{i}",
                     "inst0", arrival=base, first_token=base + 3.0,
                     generated=8, ttft_miss=1)
    report = mine(t, cluster_gap=2.0)
    assert report.anomaly_classes == ["slo_miss_cluster"]
    assert len(report.incidents) == 2
    assert report.incidents[0].score >= report.incidents[1].score
    assert not report.partial
    assert "slo_miss_cluster" in report.render()


def test_mine_publishes_telemetry_counters():
    t = Trace()
    for i in range(3):
        t.record(0.2 * i, EventType.FINISH, f"r{i}", "inst0",
                 arrival=0.0, first_token=3.0, generated=8, ttft_miss=1)
    telemetry = Telemetry()
    report = mine(t, telemetry=telemetry)
    assert report.incidents
    assert telemetry.mined_anomalies.value(
        detector="slo_miss_cluster") >= 1.0
    assert telemetry.mined_incidents.value(
        detector="slo_miss_cluster") == float(
            sum(1 for i in report.incidents
                if i.detector == "slo_miss_cluster"))


def test_mine_flags_truncated_recordings():
    t = Trace(max_events=8)
    for i in range(64):
        t.record(0.1 * i, EventType.DECODE_STEP, "", "inst0",
                 batch=1, kv=8, seconds=0.01, used_tokens=8,
                 token_budget=64, live=1)
    report = mine(t)
    assert report.partial and report.dropped_events == t.dropped_events
    assert "PARTIAL" in report.render()


def overload_case():
    """Dynamic admission + heavy prompts: preempts under KV pressure."""
    scenario = fleet_scenario(decode=[instance_config(
        algo="fp16", max_batch=32, admission="dynamic")])
    rng = np.random.default_rng(7)
    arrivals = np.cumsum(rng.exponential(1 / 40.0, size=28))
    specs = [
        dict(request_id=f"r{i:02d}", arrival=float(arrivals[i]),
             prompt_len=int(rng.integers(1500, 3000)),
             response_len=int(rng.integers(400, 900)),
             ttft_deadline=1.5)
        for i in range(28)
    ]
    return scenario, specs


def test_run_mined_scenario_and_minimize():
    scenario, specs = overload_case()
    hits = run_mined_scenario(scenario, specs, "preemption_storm")
    assert hits, "overload workload must preempt"
    minimal = minimize_specs(scenario, specs, "preemption_storm",
                             max_evals=32)
    assert minimal is not None
    assert len(minimal) < len(specs)
    assert run_mined_scenario(scenario, minimal, "preemption_storm")
    # a detector that never fires on the scenario yields None
    assert minimize_specs(scenario, specs[:2], "preemption_storm",
                          max_evals=4) is None


def test_emit_regression_tests_runnable_and_idempotent(tmp_path):
    scenario, specs = overload_case()
    fleet = build_scenario(scenario)
    trace = Trace()
    fleet.serve(make_requests(specs), trace=trace)
    report = mine(trace, detectors=[make_detector("preemption_storm")])
    assert report.incidents

    out = tmp_path / "mined"
    written = emit_regression_tests(report, scenario, specs, out,
                                    max_evals=24)
    assert len(written) == 1
    assert written[0].name.startswith("test_mined_preemption_storm_")
    # the emitted module is immediately runnable and self-verifying
    ns = {}
    exec(compile(written[0].read_text(), str(written[0]), "exec"), ns)
    test_fn = next(v for k, v in ns.items() if k.startswith("test_"))
    test_fn()
    # re-emitting the same incident is a no-op (same digest, same file)
    again = emit_regression_tests(report, scenario, specs, out,
                                  max_evals=24)
    assert again == written
    assert len(list(out.glob("test_mined_*.py"))) == 1


def test_analyze_emits_from_the_header_workload(tmp_path, monkeypatch):
    """``cli analyze --emit-tests`` minimizes over the workload the
    export header recorded: token ids and priorities never reach a
    trace event, so a workload rebuilt from the events would lose them
    (and with them every prefix hit the incident depends on)."""
    import repro.serving
    from repro.cli import main
    from repro.serving import dump_jsonl, load_jsonl, workload_specs

    scenario = fleet_scenario(decode=[instance_config(
        algo="fp16", policy="priority", prefix_caching=True)])
    shared = list(range(50_000, 50_064))
    specs = [
        dict(request_id=f"r{i}", arrival=0.1 * i, prompt_len=96,
             response_len=8, priority=i % 3,
             token_ids=shared + list(range(1000 * i, 1000 * i + 32)))
        for i in range(6)
    ]
    requests = make_requests(specs)
    trace = Trace()
    build_scenario(scenario).serve(requests, trace=trace)
    path = tmp_path / "run.jsonl"
    dump_jsonl(trace, path, scenario=scenario,
               workload=workload_specs(requests))

    received = []

    def record(report, scenario, specs, out_dir, **kw):
        received.append(specs)
        return []

    monkeypatch.setattr(repro.serving, "emit_regression_tests", record)
    out = tmp_path / "mined"
    assert main(["analyze", str(path), "--emit-tests", str(out)]) == 0
    header = load_jsonl(path).meta["workload"]
    assert received == [header]
    assert all(s["token_ids"] for s in header)
    assert any(s["priority"] for s in header)
