"""Edge-case coverage for the trace folds (StepMetrics, LatencySummary,
request_latencies, queue_delays), a golden test pinning the rendered
timeline format, and a property test for the Trace per-kind /
per-request indices against the brute-force scan."""

import numpy as np
import pytest

from repro.compression import NoCompression
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    EventType,
    LatencySummary,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Trace,
    TraceEvent,
    queue_delays,
    request_latencies,
)

FP16 = NoCompression().cost_spec()


def instance(**kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, FP16, **kw)


class TestStepMetricsEdges:
    def test_empty_trace(self):
        m = StepMetrics.from_trace(Trace())
        assert m.decode_steps == 0
        assert m.finishes == 0
        assert m.partial_requests == 0
        assert m.mean_queue_delay == 0.0
        assert m.mean_tbot == 0.0
        assert m.p99_tbot == 0.0
        assert m.goodput == 0.0
        assert m.ttft_attainment == 1.0
        assert m.tbot_attainment == 1.0
        assert m.prefix_hit_rate == 0.0
        assert m.render()  # renders without raising

    def test_all_rejected(self):
        inst = instance()
        # prompts beyond the token budget: nothing can ever be admitted
        reqs = [
            ServingRequest(f"x{i}", 0.1 * i, inst.token_budget + 10, 8)
            for i in range(3)
        ]
        trace = Trace()
        res = inst.run(reqs, trace=trace)
        assert len(res.completed) == 0
        m = StepMetrics.from_trace(trace)
        assert m.rejects == 3
        assert m.admits == m.finishes == m.decode_steps == 0
        assert m.partial_requests == 0  # rejected, not partial
        assert m.goodput == 0.0
        assert LatencySummary.from_requests(res.requests) == (
            LatencySummary.degenerate()
        )

    def test_preempt_then_finish(self):
        inst = instance(admission="dynamic")
        reqs = [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)]
        trace = Trace()
        res = inst.run(reqs, trace=trace)
        m = StepMetrics.from_trace(trace)
        assert m.preempts > 0
        assert m.finishes == 24
        assert m.partial_requests == 0
        # queue delay must use the last (re)queue epoch, matching the
        # per-request accounting exactly
        want = float(np.mean([r.queue_delay for r in res.completed]))
        assert m.mean_queue_delay == pytest.approx(want)

    def test_single_token_response(self):
        # generated == 1 defines no TBOT interval; folds must not div/0
        inst = instance()
        trace = Trace()
        res = inst.run(
            [ServingRequest("one", 0.0, 64, 1)], trace=trace
        )
        assert res.completed[0].generated == 1
        m = StepMetrics.from_trace(trace)
        assert m.finishes == 1
        assert m.mean_tbot == 0.0
        assert m.p99_tbot == 0.0
        summ = LatencySummary.from_requests(res.completed)
        assert summ.tbot == 0.0
        assert summ.mean > 0.0

    def test_slo_fields_absent(self):
        inst = instance()
        trace = Trace()
        res = inst.run(
            [ServingRequest("r0", 0.0, 64, 8)], trace=trace
        )
        assert "ttft_deadline" not in trace.of_kind(EventType.FINISH)[0].data
        m = StepMetrics.from_trace(trace)
        assert m.ttft_attainment == 1.0
        assert m.tbot_attainment == 1.0
        assert m.goodput > 0.0
        summ = LatencySummary.from_requests(res.completed)
        assert summ.ttft_attainment is None
        assert summ.tbot_attainment is None
        assert "ttft_attainment" not in summ.as_dict()


class TestPartialTraces:
    def finished_trace(self):
        trace = Trace()
        instance(max_batch=8).run(
            [ServingRequest(f"r{i}", 0.2 * i, 128, 16) for i in range(6)],
            trace=trace,
        )
        return trace

    def drop(self, trace, pred):
        cut = Trace()
        for e in trace.events:
            if not pred(e):
                cut.record(e.time, e.kind, e.request_id, e.instance, **e.data)
        return cut

    def test_truncated_trace_counts_partials(self):
        trace = self.finished_trace()
        # cut everything after r2's finish: every request already
        # admitted but not yet finished is left dangling in the trace
        cutoff = next(
            e.time for e in trace.of_kind(EventType.FINISH)
            if e.request_id == "r2"
        )
        cut = self.drop(trace, lambda e: e.time > cutoff)
        m = StepMetrics.from_trace(cut)
        assert m.finishes == 3
        assert m.partial_requests == m.admits - m.finishes
        assert m.partial_requests >= 1
        assert m.mean_tbot > 0.0

    def test_finish_missing_arrival_skipped(self):
        trace = self.finished_trace()
        bad = Trace()
        for e in trace.events:
            data = dict(e.data)
            if e.kind is EventType.FINISH and e.request_id == "r0":
                data.pop("arrival")
            bad.record(e.time, e.kind, e.request_id, e.instance, **data)
        lats = request_latencies(bad)
        assert "r0" not in lats
        assert len(lats) == 5
        m = StepMetrics.from_trace(bad)
        # r0's FINISH still counts as a finish, but its stats are
        # skipped and it is reported as incomplete
        assert m.finishes == 6
        assert m.partial_requests == 1

    def test_admit_missing_epochs_skipped(self):
        trace = self.finished_trace()
        bad = Trace()
        for e in trace.events:
            data = dict(e.data)
            if e.kind is EventType.ADMIT:
                data.pop("queued_at", None)
                data.pop("arrival", None)
            bad.record(e.time, e.kind, e.request_id, e.instance, **data)
        assert queue_delays(bad) == {}
        assert StepMetrics.from_trace(bad).mean_queue_delay == 0.0

    def test_decode_step_missing_payload_skipped(self):
        trace = self.finished_trace()
        bad = Trace()
        for e in trace.events:
            data = dict(e.data)
            if e.kind is EventType.DECODE_STEP:
                data.pop("used_tokens", None)
            bad.record(e.time, e.kind, e.request_id, e.instance, **data)
        m = StepMetrics.from_trace(bad)
        assert m.decode_steps == 0
        assert m.mean_budget_utilization == 0.0


class TestRenderGolden:
    def test_event_render_golden(self):
        # pinned format: bools as 1/0, ints with thousands separators,
        # floats at four decimals
        e = TraceEvent(
            time=1.5,
            kind=EventType.FINISH,
            request_id="r7",
            instance="inst0",
            data={
                "arrival": 0.25,
                "generated": 12345,
                "ttft_miss": True,
                "tbot_miss": False,
                "note": "x",
            },
        )
        assert e.render() == (
            "    1.5000s  FINISH        [inst0] r7           "
            "arrival=0.2500 generated=12,345 ttft_miss=1 tbot_miss=0 note=x"
        )

    def test_event_render_no_instance(self):
        e = TraceEvent(0.0, EventType.ADMIT, "r0", data={"arrival": 0.0})
        assert e.render() == (
            "    0.0000s  ADMIT         r0           arrival=0.0000"
        )


class TestTraceIndexProperty:
    def test_indexed_equals_scan(self):
        rng = np.random.default_rng(7)
        kinds = list(EventType)
        trace = Trace()
        for i in range(500):
            kind = kinds[int(rng.integers(len(kinds)))]
            rid = f"r{int(rng.integers(12))}" if rng.random() > 0.1 else ""
            trace.record(
                float(i) * 0.01, kind, rid, data=float(rng.random())
            )
        for kind in kinds:
            scan = [e for e in trace.events if e.kind is kind]
            assert trace.of_kind(kind) == scan
        rids = {e.request_id for e in trace.events}
        for rid in rids:
            scan = [e for e in trace.events if e.request_id == rid]
            assert trace.for_request(rid) == scan
        assert trace.for_request("nope") == []
        # no-copy pin: repeat calls return the same cached view object
        # (folds call these many times), invalidated only by new events
        assert trace.of_kind(EventType.FINISH) is trace.of_kind(
            EventType.FINISH
        )
        assert trace.for_request("r3") is trace.for_request("r3")
        trace.record(9.99, EventType.FINISH, "r3")
        assert trace.of_kind(EventType.FINISH)[-1].time == 9.99
        assert trace.for_request("r3")[-1].kind is EventType.FINISH
        # request_ids: distinct, non-empty, first-appearance order
        seen = []
        for e in trace.events:
            if e.request_id and e.request_id not in seen:
                seen.append(e.request_id)
        assert trace.request_ids() == seen
        counts = trace.counts()
        assert sum(counts.values()) == len(trace)
