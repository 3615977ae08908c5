"""Tests for the serving telemetry stack: metrics registry semantics,
the Telemetry sink published into by a live run, span derivation and
cross-checking, JSONL / Chrome exporters, the dashboard renderer, and
the bit-for-bit equivalence of the disabled path."""

import json

import pytest

from repro.compression import NoCompression
from repro.engines import LMDEPLOY, TRL, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    EventType,
    PrefixIndex,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Telemetry,
    Trace,
    build_spans,
    dump_jsonl,
    load_jsonl,
    render_dashboard,
    request_latencies,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.serving.telemetry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    log_buckets,
    sparkline,
)

FP16 = NoCompression().cost_spec()
_EPS = 1e-9


def validate_spans(trace, roots):
    """Cross-check derived spans against the trace's own folds: a
    finished request's root span lasts its E2E latency as
    ``request_latencies`` reconstructs it, every child stays inside its
    root, and no span runs backwards."""
    lats = request_latencies(trace)
    by_rid = {r.request_id: r for r in roots}
    for rid, e2e in lats.items():
        root = by_rid.get(rid)
        assert root is not None, f"no span tree for finished request {rid}"
        assert abs(root.duration - e2e) < 1e-6, (
            f"{rid}: root span {root.duration:.6f}s != e2e {e2e:.6f}s"
        )
    for root in roots:
        for span in root.walk():
            assert span.end >= span.start - _EPS, f"negative span {span.name}"
            assert span.start >= root.start - _EPS, (
                f"{span.name} starts before its root"
            )
            assert span.end <= root.end + _EPS, (
                f"{span.name} ends after its root"
            )


def instance(comp=FP16, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, comp, **kw)


def requests(n, prompt=256, resp=32, spacing=0.25, **kw):
    return [
        ServingRequest(f"r{i}", i * spacing, prompt, resp, **kw)
        for i in range(n)
    ]


def shared_prefix_requests(n, prompt=256, resp=16, spacing=0.25):
    shared = tuple(range(50_000, 50_000 + 128))
    return [
        ServingRequest(
            f"r{i}",
            i * spacing,
            prompt,
            resp,
            token_ids=tuple([*shared, *range(i * 10_000, i * 10_000 + prompt)][:prompt]),
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_log_buckets_span_and_monotonicity(self):
        b = log_buckets(1e-4, 1e3, per_decade=3)
        assert b[0] == pytest.approx(1e-4)
        assert b[-1] == pytest.approx(1e3)
        assert len(b) == 22  # 7 decades * 3 + 1
        assert list(b) == sorted(b)
        assert DEFAULT_BUCKETS == b

    def test_log_buckets_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1e-3, 1.0, per_decade=0)

    def test_counter(self):
        r = MetricsRegistry()
        c = r.counter("x_total", "help", labels=("instance",))
        c.inc(instance="a")
        c.inc(2.5, instance="a")
        c.inc(instance="b")
        assert c.value(instance="a") == pytest.approx(3.5)
        assert c.total() == pytest.approx(4.5)
        with pytest.raises(ValueError):
            c.inc(-1.0, instance="a")
        with pytest.raises(ValueError):
            c.inc(wrong="a")

    def test_gauge(self):
        r = MetricsRegistry()
        g = r.gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value() == 1.0

    def test_histogram_observe_and_quantile(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        counts, total, n = h.aggregate()
        assert counts == [1, 2, 1, 0]  # last is the +Inf overflow
        assert n == 4
        assert total == pytest.approx(6.05)
        assert h.mean() == pytest.approx(6.05 / 4)
        # p50 lands inside the (0.1, 1.0] bucket
        assert 0.1 <= h.quantile(0.5) <= 1.0
        assert h.quantile(0.0) <= h.quantile(0.99)

    def test_histogram_overflow_bucket(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(1.0,))
        h.observe(100.0)
        counts, _, _ = h.aggregate()
        assert counts == [0, 1]
        assert h.quantile(0.5) == 1.0  # clamped to the top bound

    def test_get_or_create_and_mismatch(self):
        r = MetricsRegistry()
        c1 = r.counter("x_total", labels=("a",))
        assert r.counter("x_total", labels=("a",)) is c1
        with pytest.raises(ValueError):
            r.gauge("x_total", labels=("a",))
        with pytest.raises(ValueError):
            r.counter("x_total", labels=("b",))

    def test_prometheus_exposition(self):
        r = MetricsRegistry(const_labels={"policy": "fcfs"})
        c = r.counter("reqs_total", "requests", labels=("instance",))
        c.inc(3, instance="i0")
        h = r.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = r.render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{instance="i0",policy="fcfs"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        # cumulative buckets: 1 at le=0.1, 2 at le=1, 2 at +Inf
        assert 'lat_seconds_bucket{le="0.1",policy="fcfs"} 1' in text
        assert 'lat_seconds_bucket{le="1",policy="fcfs"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf",policy="fcfs"} 2' in text
        assert 'lat_seconds_count{policy="fcfs"} 2' in text

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("c_total").inc()
        r.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = r.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["series"][0]["value"] == 1.0
        assert snap["h"]["buckets"] == [1.0]
        assert snap["h"]["series"][0]["count"] == 1


# ----------------------------------------------------------------------
# the live sink
# ----------------------------------------------------------------------
class TestTelemetrySink:
    def test_run_publishes_counters_and_histograms(self):
        inst = instance(max_batch=8)
        trace = Trace()
        tel = Telemetry(labels={"policy": "fcfs"})
        result = inst.run(requests(6), trace=trace, telemetry=tel)
        assert len(result.completed) == 6
        # every recorded event also hit the events counter
        assert tel.events_total.total() == len(trace)
        counts = trace.counts()
        by_kind = {}
        for labels, v in tel.events_total.series():
            by_kind[labels["kind"]] = by_kind.get(labels["kind"], 0) + int(v)
        assert by_kind == counts
        # one TTFT observation per finish, one step observation per step
        _, _, n_ttft = tel.ttft.aggregate()
        assert n_ttft == counts["FINISH"]
        _, _, n_steps = tel.step_seconds.aggregate()
        assert n_steps == counts["DECODE_STEP"]
        # sampled series exist for the gauges the dashboard plots
        assert any(m == "queue_depth" for _, m in tel.series)
        assert tel.loop_fired.value() > 0

    def test_prefix_publishing(self):
        inst = instance(max_batch=8, prefix_cache=PrefixIndex(block_size=16))
        tel = Telemetry()
        inst.run(shared_prefix_requests(5), telemetry=tel)
        hits = tel.prefix_lookups.value(outcome="hit")
        misses = tel.prefix_lookups.value(outcome="miss")
        assert hits + misses == 5
        assert hits >= 1
        assert tel.prefix_cached_tokens.total() > 0
        assert tel.prefix_blocks.value() > 0

    def test_slo_miss_counter(self):
        inst = instance(max_batch=2)
        tel = Telemetry()
        inst.run(
            requests(6, spacing=0.05, ttft_deadline=1e-4), telemetry=tel
        )
        assert tel.slo_misses.value(instance="", slo="ttft") > 0

    def test_disabled_path_is_bit_for_bit_identical(self):
        reqs = requests(8, spacing=0.1)
        t_plain, t_tel = Trace(), Trace()
        instance(max_batch=4).run(reqs, trace=t_plain)
        instance(max_batch=4).run(reqs, trace=t_tel, telemetry=Telemetry())
        assert t_plain.events == t_tel.events

    def test_static_batch_counts_only_live_tokens(self):
        """Static batching prices each step at the formed batch size;
        the token counter must still count only the members decoding."""
        cm = ServingCostModel(LLAMA_7B, A6000, TRL)
        reqs = [
            ServingRequest(f"r{i}", 0.1 * i, 128, 8 + 16 * i)
            for i in range(6)
        ]
        tel = Telemetry()
        res = ServerInstance(cm, FP16, max_batch=4).run(reqs, telemetry=tel)
        # every token after the prefill's first came from a decode step
        assert tel.generated_tokens.total() == sum(
            r.generated - 1 for r in res.requests
        )

    def test_batched_decode_fold_matches_per_event(self):
        """A burst folds as its steps do one call each; ``batch`` is the
        priced size and ``live`` the members that emitted a token (3 of
        a padded 4 here, as while a static batch's stragglers run)."""
        times = [0.1, 0.2, 0.3]
        kvs = [100, 104, 108]
        secs = [0.01, 0.5, 0.012]  # middle one lands in a later bucket
        used = [500, 516, 532]
        per_step, batched = Telemetry(), Telemetry()
        for j in range(3):
            per_step.on_decode_steps(
                "i0", times[j:j + 1], 4, kvs[j:j + 1], secs[j:j + 1],
                used[j:j + 1], 4096, 3,
            )
        batched.on_decode_steps("i0", times, 4, kvs, secs, used, 4096, 3)
        assert per_step.snapshot() == batched.snapshot()
        assert batched.generated_tokens.value(instance="i0") == 9
        assert batched.batch_size.value(instance="i0") == 4
        # the series is sampled once per call: a burst keeps its last step
        assert (
            batched.series[("i0", "kv_occupancy")]
            == per_step.series[("i0", "kv_occupancy")][-1:]
        )

    def test_trace_buffer_gauges(self):
        inst = instance(max_batch=4)
        trace = Trace()
        tel = Telemetry()
        inst.run(requests(6), trace=trace, telemetry=tel)
        stats = trace.memory_stats()
        assert tel.trace_events.value(instance="") == stats["events"]
        assert tel.trace_capacity.value(instance="") == stats["capacity"]
        assert (
            tel.trace_buffer_bytes.value(instance="")
            == stats["buffer_bytes"]
        )
        assert tel.trace_dropped.value(instance="") == 0
        snap = tel.snapshot()
        assert "serving_trace_buffer_bytes" in snap


class TestSampling:
    """Series points are samples taken when a hook runs: one
    ``kv_occupancy`` point per decode burst (its last step), and the
    trace-buffer gauges on the event loop's sampling tick."""

    @pytest.mark.parametrize("used", [[500, 516, 532], 532])
    def test_one_occupancy_point_per_burst(self, used):
        tel = Telemetry()
        times = [0.1, 0.2, 0.3]
        tel.on_decode_steps("i0", times, 4, [100, 104, 108],
                            [0.01, 0.5, 0.012], used, 4096, 4)
        tel.on_decode_steps("i0", [0.4], 4, [112], [0.01], [548], 4096, 4)
        assert tel.series[("i0", "kv_occupancy")] == [
            (0.3, 532 / 4096), (0.4, 548 / 4096),
        ]
        assert tel.kv_occupancy.value(instance="i0") == 548 / 4096

    def test_continuous_points_are_burst_ends(self):
        trace, tel = Trace(), Telemetry()
        reqs = requests(12, prompt=512, resp=64, spacing=0.05)
        instance(admission="dynamic", max_batch=8).run(
            reqs, trace=trace, telemetry=tel
        )
        steps = {
            e.time: e.data["used_tokens"] / e.data["token_budget"]
            for e in trace.of_kind(EventType.DECODE_STEP)
        }
        pts = tel.series[("", "kv_occupancy")]
        # bursts run several steps: fewer points than steps, each one
        # a recorded step's occupancy, the last one the run's last step
        assert 0 < len(pts) < len(steps)
        assert all(steps[t] == occ for t, occ in pts)
        assert pts[-1] == max(steps.items())

    def test_static_points_are_burst_ends(self):
        cm = ServingCostModel(LLAMA_7B, A6000, TRL)
        trace, tel = Trace(), Telemetry()
        reqs = [
            ServingRequest(f"r{i}", 0.1 * i, 128, 8 + 16 * i)
            for i in range(6)
        ]
        ServerInstance(cm, FP16, max_batch=4).run(
            reqs, trace=trace, telemetry=tel
        )
        steps = {
            e.time: e.data["used_tokens"] / e.data["token_budget"]
            for e in trace.of_kind(EventType.DECODE_STEP)
        }
        pts = tel.series[("", "kv_occupancy")]
        # static batches decode in bursts too: one point per burst
        assert 0 < len(pts) < len(steps)
        assert all(steps[t] == occ for t, occ in pts)
        assert pts[-1] == max(steps.items())

    def test_fleet_trace_gauges_read_the_shared_trace(self):
        from repro.serving import DisaggFleet

        trace, tel = Trace(), Telemetry()
        fleet = DisaggFleet([instance(), instance()], [instance()])
        reqs = [
            ServingRequest(f"d{i}", 0.05 * i, 512 + 64 * i, 24 + 8 * (i % 3))
            for i in range(12)
        ]
        fleet.serve(reqs, trace=trace, telemetry=tel)
        stats = trace.memory_stats()
        for name in ("pf0", "pf1", "dec0"):
            assert tel.trace_events.value(instance=name) == stats["events"]
            assert tel.trace_capacity.value(instance=name) == stats["capacity"]
            assert (
                tel.trace_buffer_bytes.value(instance=name)
                == stats["buffer_bytes"]
            )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def run_trace(self, **kw):
        trace = Trace()
        inst = instance(**kw)
        inst.run(requests(6, spacing=0.2), trace=trace)
        return trace

    def test_build_and_validate(self):
        trace = self.run_trace(max_batch=8)
        roots = build_spans(trace)
        validate_spans(trace, roots)
        assert len(roots) == len(request_latencies(trace))
        for root in roots:
            assert root.meta["status"] == "finished"
            names = [c.name for c in root.children]
            assert "prefill" in names
            assert "decode" in names

    def test_root_duration_matches_e2e(self):
        trace = self.run_trace(max_batch=4)
        lats = request_latencies(trace)
        for root in build_spans(trace):
            assert root.duration == pytest.approx(
                lats[root.request_id], abs=1e-9
            )

    def test_preemption_episodes(self):
        # an overloaded dynamic-admission instance preempts; the victim
        # must grow a preempted marker plus a second queue_wait episode
        trace = Trace()
        inst = instance(admission="dynamic")
        inst.run(
            [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)],
            trace=trace,
        )
        assert len(trace.of_kind(EventType.PREEMPT)) > 0
        roots = build_spans(trace)
        validate_spans(trace, roots)
        preempted = [
            r
            for r in roots
            if any(c.name == "preempted" for c in r.children)
        ]
        assert preempted
        for root in preempted:
            waits = [c for c in root.children if c.name == "queue_wait"]
            assert len(waits) >= 2
            episodes = {c.meta.get("episode") for c in waits}
            assert len(episodes) >= 2

    def test_partial_trace_flagged(self):
        trace = self.run_trace(max_batch=8)
        cut = Trace()
        for e in trace.events:
            if e.kind is EventType.FINISH and e.request_id == "r5":
                continue
            cut.record(e.time, e.kind, e.request_id, e.instance, **e.data)
        roots = {r.request_id: r for r in build_spans(cut)}
        assert roots["r5"].meta["status"] == "partial"
        validate_spans(cut, list(roots.values()))

    def test_chunked_prefill_spans(self):
        trace = Trace()
        inst = instance(max_batch=8, chunk_size=128)
        inst.run(requests(4, prompt=512, spacing=0.2), trace=trace)
        assert len(trace.of_kind(EventType.PREFILL_CHUNK)) > 0
        roots = build_spans(trace)
        validate_spans(trace, roots)
        chunky = [
            r
            for r in roots
            if any(c.name == "prefill_chunk" for c in r.children)
        ]
        assert chunky


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def make_trace(self):
        trace = Trace()
        inst = instance(max_batch=8, prefix_cache=PrefixIndex(block_size=16))
        inst.run(
            shared_prefix_requests(6),
            trace=trace,
        )
        return trace

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        assert dump_jsonl(trace, path) == len(trace)
        loaded = load_jsonl(path)
        assert len(loaded) == len(trace)
        assert loaded.events == trace.events
        # the fold on the reloaded trace is the in-memory fold, exactly
        assert StepMetrics.from_trace(loaded) == StepMetrics.from_trace(trace)
        assert request_latencies(loaded) == request_latencies(trace)

    def test_jsonl_tolerates_corrupt_lines(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        lines = path.read_text().splitlines()
        lines.insert(3, "{not json")
        lines.append(lines[-1][: len(lines[-1]) // 2])  # truncated tail
        lines.append("")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_jsonl(path)
        assert len(loaded) == len(trace)
        m = StepMetrics.from_trace(loaded)
        assert m == StepMetrics.from_trace(trace)

    def test_chrome_trace_valid_and_nested(self, tmp_path):
        trace = self.make_trace()
        doc = to_chrome_trace(trace)
        # valid JSON end to end
        doc2 = json.loads(json.dumps(doc))
        events = doc2["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for e in events:
            assert {"name", "ph", "pid", "tid"} <= e.keys()
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
        # per request lane: every child X event nests inside its root
        for tid in {e["tid"] for e in events if e["ph"] == "X"}:
            lane = [e for e in events if e["ph"] == "X" and e["tid"] == tid]
            root = next(e for e in lane if e["name"].startswith("request "))
            lo, hi = root["ts"], root["ts"] + root["dur"]
            for e in lane:
                assert e["ts"] >= lo - 1e-3
                assert e["ts"] + e["dur"] <= hi + 1e-3
        path = tmp_path / "trace.chrome.json"
        assert write_chrome_trace(trace, path) == len(events)
        assert json.loads(path.read_text())["traceEvents"]

    def test_chrome_instant_markers(self):
        trace = Trace()
        inst = instance(admission="dynamic")
        inst.run(
            [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)],
            trace=trace,
        )
        doc = to_chrome_trace(trace)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "PREEMPT" for e in instants)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters and all("args" in e for e in counters)


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
class TestDashboard:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        line = sparkline(list(range(100)), width=24)
        assert len(line) == 24
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_sections(self):
        inst = instance(max_batch=8)
        trace = Trace()
        tel = Telemetry(labels={"policy": "fcfs"})
        inst.run(
            requests(6, spacing=0.2, ttft_deadline=5.0),
            trace=trace,
            telemetry=tel,
        )
        text = render_dashboard(tel, trace)
        assert "serving telemetry" in text
        assert "policy=fcfs" in text
        assert "ttft_attainment" in text
        assert "queue_depth" in text
        assert "latency histograms" in text
        assert "ttft" in text

    def test_render_without_trace(self):
        tel = Telemetry()
        text = render_dashboard(tel)
        assert "serving telemetry" in text
        assert "ttft_attainment" not in text


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_dashboard_command(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "metrics.prom"
        assert main([
            "dashboard", "--n", "5", "--prefix-caching",
            "--prom-out", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "serving telemetry" in out
        assert "# TYPE serving_events_total counter" in prom.read_text()

    def test_dashboard_refresh_frames(self, capsys):
        from repro.cli import main

        assert main(["dashboard", "--n", "4", "--refresh", "2.0"]) == 0
        out = capsys.readouterr().out
        assert out.count("serving telemetry") >= 2

    def test_trace_export(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "trace", "--n", "5", "--export", "jsonl", "--export", "chrome",
            "--out", str(tmp_path),
        ]) == 0
        loaded = load_jsonl(tmp_path / "trace.jsonl")
        assert len(loaded) > 0
        assert StepMetrics.from_trace(loaded).finishes == 5
        doc = json.loads((tmp_path / "trace.chrome.json").read_text())
        assert doc["traceEvents"]
