"""Tests for SLO-aware serving: the slack scheduler, deadline metrics,
queue-delay epoch accounting, submit/receive parity on the online
routing path, the decode-gap idle fix, and the lone-drop REJECT payload."""

import numpy as np
import pytest

from repro.compression import NoCompression
from repro.core.pipeline import CompressedGenerationPipeline
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    Cluster,
    EventType,
    FCFSPolicy,
    LatencySummary,
    PriorityPolicy,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    ShortestFirstPolicy,
    SlackPolicy,
    StepMetrics,
    Trace,
    WaitingQueue,
    make_policy,
    queue_delays,
)

FP16 = NoCompression().cost_spec()


def instance(comp=FP16, engine=LMDEPLOY, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, engine)
    return ServerInstance(cm, comp, **kw)


def queue(policy, reqs):
    """A waiting queue holding ``reqs``, pushed in list order."""
    q = WaitingQueue(policy)
    for r in reqs:
        q.push(r, r.total_tokens)
    return q


def requests(n, prompt=256, resp=32, spacing=1.0, start=0.0, **kw):
    return [
        ServingRequest(f"r{i}", start + i * spacing, prompt, resp, **kw)
        for i in range(n)
    ]


def interference_stream():
    """Long deadline-free salvo at t=0, tight-deadline shorts after."""
    bg = [ServingRequest(f"bg{i}", 0.0, 3072, 64) for i in range(4)]
    ia = [
        ServingRequest(
            f"ia{i}", 0.2 + i * 0.05, 256, 32,
            ttft_deadline=1.0, tbot_target=0.5,
        )
        for i in range(4)
    ]
    return bg + ia


class TestSlackPolicy:
    def test_slack_before_first_token(self):
        p = SlackPolicy()
        req = ServingRequest("a", 2.0, 128, 32, ttft_deadline=1.5)
        assert p.slack(req, 3.0) == pytest.approx(2.0 + 1.5 - 3.0)

    def test_slack_infinite_without_deadline(self):
        p = SlackPolicy()
        assert p.slack(ServingRequest("a", 0.0, 128, 32), 5.0) == float("inf")

    def test_slack_after_first_token_uses_tbot_milestone(self):
        p = SlackPolicy()
        req = ServingRequest("a", 0.0, 128, 11, tbot_target=0.1)
        req.first_token = 2.0
        req.generated = 5
        # milestone: first_token + tbot * (response_len - 1)
        assert p.slack(req, 2.5) == pytest.approx(2.0 + 0.1 * 10 - 2.5)
        # decoding with no TBOT target: infinite slack
        req.tbot_target = None
        req.ttft_deadline = 0.5  # TTFT already behind us — irrelevant now
        assert p.slack(req, 2.5) == float("inf")

    def test_select_most_urgent_first(self):
        w = [
            ServingRequest("free", 0.0, 128, 32),
            ServingRequest("loose", 0.1, 128, 32, ttft_deadline=10.0),
            ServingRequest("tight", 0.2, 128, 32, ttft_deadline=1.0),
        ]
        assert SlackPolicy().select(queue(SlackPolicy(), w), 0.5) is w[2]

    def test_select_falls_back_to_arrival_order(self):
        w = requests(3, spacing=0.1)
        slo = SlackPolicy().select(queue(SlackPolicy(), w), 1.0)
        assert slo is FCFSPolicy().select(queue(FCFSPolicy(), w), 1.0)

    def test_victim_most_slack_first(self):
        r = [
            ServingRequest("tight", 0.0, 128, 32, ttft_deadline=1.0),
            ServingRequest("free", 0.0, 128, 32),
        ]
        assert SlackPolicy().victim(r, 0.5) == 1

    def test_victim_falls_back_to_most_recent(self):
        r = requests(3, spacing=0.1)
        assert SlackPolicy().victim(r, 1.0) == len(r) - 1

    def test_make_policy(self):
        assert make_policy("slo").name == "slo"
        assert isinstance(make_policy("slo"), SlackPolicy)


class TestVictimEdgeCases:
    def test_single_element_batches(self):
        lone = [ServingRequest("a", 0.0, 128, 32, priority=3)]
        for policy in (
            FCFSPolicy(), ShortestFirstPolicy(), PriorityPolicy(), SlackPolicy()
        ):
            assert policy.victim(lone, 1.0) == 0

    def test_shortest_with_generated_past_prediction(self):
        # a predictor under-shot: generated > predicted_len makes the
        # remaining work negative, which must still rank below a request
        # with genuine work left
        over = ServingRequest("over", 0.0, 128, 64, predicted_len=10.0)
        over.generated = 30
        fresh = ServingRequest("fresh", 0.0, 128, 64, predicted_len=50.0)
        fresh.generated = 5
        assert ShortestFirstPolicy().victim([over, fresh]) == 1
        assert ShortestFirstPolicy().victim([over]) == 0

    def test_priority_tie_breaks_most_recent(self):
        tied = [
            ServingRequest(f"p{i}", 0.0, 128, 32, priority=2) for i in range(3)
        ]
        # equal priorities: the most recently admitted goes first
        assert PriorityPolicy().victim(tied) == 2
        mixed = tied + [ServingRequest("low", 0.0, 128, 32, priority=1)]
        assert PriorityPolicy().victim(mixed) == 3


class TestSloMatchesFcfsWithoutDeadlines:
    """With no deadlines anywhere, the slo policy must reproduce FCFS
    bit-for-bit in both scheduling roles."""

    def _timestamps(self, res):
        return [
            (r.request_id, r.prefill_start, r.first_token, r.finish)
            for r in res.requests
        ]

    def test_admission_identical(self):
        a = instance(scheduler=make_policy("fcfs")).run(requests(8, spacing=0.05))
        b = instance(scheduler=make_policy("slo")).run(requests(8, spacing=0.05))
        assert self._timestamps(a) == self._timestamps(b)  # no tolerance

    def test_preemption_identical(self):
        overload = lambda: [
            ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)
        ]
        ta, tb = Trace(), Trace()
        a = instance(admission="dynamic").run(overload(), trace=ta)
        b = instance(admission="dynamic", scheduler=make_policy("slo")).run(
            overload(), trace=tb
        )
        assert len(ta.of_kind(EventType.PREEMPT)) > 0  # scenario preempts
        assert self._timestamps(a) == self._timestamps(b)
        assert [r.preemptions for r in a.requests] == [
            r.preemptions for r in b.requests
        ]


class TestSloScheduling:
    def test_slo_beats_fcfs_under_interference(self):
        def attainment(policy):
            trace = Trace()
            inst = instance(scheduler=make_policy(policy))
            inst.run(interference_stream(), trace=trace)
            return StepMetrics.from_trace(trace).ttft_attainment

        fcfs, slo = attainment("fcfs"), attainment("slo")
        assert slo > fcfs
        assert slo == 1.0  # every deadline met once urgency is honoured

    def test_slo_reorders_admission(self):
        reqs = interference_stream()
        instance(scheduler=make_policy("slo")).run(reqs)
        ia_first = max(r.first_token for r in reqs if r.request_id.startswith("ia"))
        bg_last = max(r.first_token for r in reqs if r.request_id.startswith("bg"))
        assert ia_first < bg_last  # urgent shorts jump the salvo


class TestSloMetrics:
    def _hand_trace(self):
        # two deadlined requests, one meeting and one missing TTFT, plus
        # a deadline-free one — built by hand, no simulator involved
        t = Trace()
        t.record(0.0, EventType.ADMIT, "hit", arrival=0.0, queued_at=0.0,
                 ttft_deadline=1.0)
        t.record(2.0, EventType.FINISH, "hit", arrival=0.0, first_token=0.5,
                 generated=10, ttft_deadline=1.0)
        t.record(0.5, EventType.ADMIT, "miss", arrival=0.0, queued_at=0.0,
                 ttft_deadline=1.0)
        t.record(4.0, EventType.FINISH, "miss", arrival=0.0, first_token=2.0,
                 generated=20, ttft_deadline=1.0, ttft_miss=1)
        t.record(1.0, EventType.ADMIT, "free", arrival=1.0, queued_at=1.0)
        t.record(5.0, EventType.FINISH, "free", arrival=1.0, first_token=1.5,
                 generated=30)
        return t

    def test_attainment_and_goodput_from_trace(self):
        m = StepMetrics.from_trace(self._hand_trace())
        assert m.ttft_attainment == pytest.approx(0.5)
        assert m.tbot_attainment == 1.0  # no TBOT targets anywhere
        # attained tokens: hit (10) + free (30); makespan 5.0 - 0.0
        assert m.goodput == pytest.approx(40 / 5.0)
        assert m.mean_queue_delay == pytest.approx((0.0 + 0.5 + 0.0) / 3)

    def test_attainment_defaults_without_targets(self):
        t = Trace()
        t.record(1.0, EventType.FINISH, "a", arrival=0.0, first_token=0.5,
                 generated=4)
        m = StepMetrics.from_trace(t)
        assert m.ttft_attainment == 1.0 and m.tbot_attainment == 1.0
        assert m.goodput == pytest.approx(4 / 1.0)

    def test_latency_summary_attainment(self):
        reqs = requests(4, resp=8, spacing=0.0, ttft_deadline=1.0)
        for i, r in enumerate(reqs):
            r.prefill_start = r.arrival
            r.first_token = r.arrival + (0.5 if i < 3 else 2.0)  # one miss
            r.generated = 8
            r.finish = r.first_token + 1.0
        s = LatencySummary.from_requests(reqs)
        assert s.ttft_attainment == pytest.approx(0.75)
        assert s.tbot_attainment is None  # no TBOT targets set
        span = max(r.finish for r in reqs) - min(r.arrival for r in reqs)
        assert s.goodput == pytest.approx(3 * 8 / span)
        assert {"ttft_attainment", "goodput"} <= set(s.as_dict())

    def test_request_slo_properties(self):
        r = ServingRequest("a", 0.0, 128, 10, ttft_deadline=1.0, tbot_target=0.2)
        r.first_token, r.finish, r.generated = 0.5, 1.5, 10
        assert r.ttft_met is True
        assert r.tbot_met is True and r.slo_met
        r.finish = 5.0  # tbot now (5.0-0.5)/9 = 0.5 > 0.2
        assert r.tbot_met is False and not r.slo_met
        free = ServingRequest("b", 0.0, 128, 10)
        free.first_token, free.finish, free.generated = 0.5, 1.5, 10
        assert free.ttft_met is None and free.slo_met  # vacuously true

    def test_pipeline_stamps_fleet_wide_slo(self):
        pipe = CompressedGenerationPipeline("fp16")
        res = pipe.simulate_serving(
            requests(4, spacing=0.2), scheduler="slo",
            ttft_slo=5.0, tbot_slo=1.0,
        )
        s = LatencySummary.from_requests(res.completed)
        assert s.ttft_attainment is not None
        assert s.tbot_attainment is not None


class TestQueueDelayEpoch:
    """Queue delay is measured from the last (re)queue, so the trace-side
    mean must equal the request-side mean even with preemptions."""

    def _preempting_run(self):
        inst = instance(admission="dynamic")
        trace = Trace()
        res = inst.run(
            [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)],
            trace=trace,
        )
        assert len(trace.of_kind(EventType.PREEMPT)) > 0
        return res, trace

    def test_trace_mean_matches_requests(self):
        res, trace = self._preempting_run()
        m = StepMetrics.from_trace(trace)
        expected = float(np.mean([r.queue_delay for r in res.completed]))
        assert m.mean_queue_delay == pytest.approx(expected, rel=1e-12)

    def test_per_request_delays_match(self):
        res, trace = self._preempting_run()
        delays = queue_delays(trace)
        for r in res.completed:
            assert delays[r.request_id] == pytest.approx(r.queue_delay)

    def test_preempt_payload_carries_requeue_epoch(self):
        _, trace = self._preempting_run()
        for e in trace.of_kind(EventType.PREEMPT):
            assert e.data["requeued_at"] == e.time


class TestSubmitReceiveParity:
    """The online routing path (expect + receive) must admit arrivals
    with exactly the queue delays of the offline submit() path."""

    def _stream(self):
        # arrivals landing mid-decode-block: long responses keep the
        # instance decoding while the next request arrives
        return requests(8, resp=64, spacing=0.02)

    def test_identical_queue_delays(self):
        offline = instance().run(self._stream())
        cluster = Cluster([instance()])
        results, assignment = cluster.run_online(
            self._stream(),
            pick=lambda req, views, now: 0,
            make=lambda req, idx, now: req,
        )
        online = results[0]
        assert set(assignment.values()) == {0}
        for a, b in zip(offline.requests, online.requests):
            assert a.request_id == b.request_id
            assert a.queue_delay == b.queue_delay  # no tolerance
            assert a.finish == b.finish

    def test_routed_arrival_breaks_decode_block(self):
        # one long-running request, then a late arrival routed online:
        # its prefill must start at (or before) the arrival-aligned step
        # boundary, not a full decode_block later
        long = ServingRequest("long", 0.0, 256, 200)
        late = ServingRequest("late", 0.5, 128, 8)
        offline = instance().run([long, late])
        expected = late.prefill_start
        cluster = Cluster([instance()])
        results, _ = cluster.run_online(
            [ServingRequest("long", 0.0, 256, 200),
             ServingRequest("late", 0.5, 128, 8)],
            pick=lambda req, views, now: 0,
            make=lambda req, idx, now: req,
        )
        routed_late = [r for r in results[0].requests if r.request_id == "late"]
        assert routed_late[0].prefill_start == expected


class TestDecodeGap:
    def test_idle_between_bursts_not_a_stall(self):
        inst = instance()
        trace = Trace()
        burst1 = requests(4, resp=16, spacing=0.0)
        burst2 = requests(4, resp=16, spacing=0.0, start=100.0)
        for i, r in enumerate(burst2):
            r.request_id = f"s{i}"
        inst.run(burst1 + burst2, trace=trace)
        m = StepMetrics.from_trace(trace)
        # the ~100s of idle between bursts is not a decode stall: no
        # client was mid-stream, nobody waited for a token
        assert m.max_decode_gap < 50.0

    def test_real_stall_still_counts(self):
        # a single-shot long prefill freezes a running decode: that gap
        # has a client mid-stream and must be reported
        inst = instance()
        trace = Trace()
        long_decode = ServingRequest("decode", 0.0, 256, 200)
        big_prefill = ServingRequest("big", 0.5, 3072, 8)
        inst.run([long_decode, big_prefill], trace=trace)
        stall = inst.cost_model.prefill(1, 3072, FP16).seconds
        m = StepMetrics.from_trace(trace)
        assert m.max_decode_gap >= stall


class TestLoneDropReject:
    def test_reject_payload_records_generated(self):
        inst = instance()
        req = ServingRequest("doomed", 0.0, 256, 32)
        trace = Trace()
        # prefill succeeds, then every decode step prices to infinity
        inst._step_seconds = lambda batch, kv: float("inf")
        res = inst.run([req], trace=trace)
        assert req.rejected and len(res.completed) == 0
        rejects = trace.of_kind(EventType.REJECT)
        assert len(rejects) == 1
        assert rejects[0].data["generated"] == 1  # prefill's token emitted
        assert rejects[0].request_id == "doomed"


class TestSloRouting:
    def _mixed(self, n=12):
        rng = np.random.default_rng(3)
        arr = np.cumsum(rng.exponential(0.05, size=n))
        return [
            RoutedRequest(
                request_id=f"m{i}",
                arrival=float(arr[i]),
                prompt_len=2048 if i % 2 == 0 else 256,
                intended_len=32,
                lengths_by_algo={"fp16": 32},
                ttft_deadline=None if i % 2 == 0 else 0.5,
            )
            for i in range(n)
        ]

    def test_slo_routing_needs_no_predictors(self):
        Router([instance(), instance()], ["fp16"] * 2, RoutingPolicy.SLO)

    def test_slo_routing_serves_online(self):
        router = Router(
            [instance(), instance()], ["fp16"] * 2, RoutingPolicy.SLO
        )
        res = router.serve_online(self._mixed())
        assert res.mode == "online"
        assert len(res.all_e2e()) == 12
        s = res.latency_summary()
        assert s.ttft_attainment is not None

    def test_pick_prefers_slack_for_deadlined(self):
        router = Router(
            [instance(), instance()], ["fp16"] * 2, RoutingPolicy.SLO
        )
        free = RoutedRequest("f", 0.0, 256, 16, {"fp16": 16})
        tight = RoutedRequest("t", 0.0, 256, 16, {"fp16": 16},
                              ttft_deadline=0.5)
        load_tokens = np.array([0.0, 5000.0])
        load_seconds = np.array([0.0, 3.0])
        assert router._pick(free, load_tokens, load_seconds) == 0
        # deadlined: max slack = the instance with the least backlog
        assert router._pick(tight, load_tokens, load_seconds) == 0
        assert router._pick(
            tight, np.array([9000.0, 0.0]), np.array([6.0, 0.0])
        ) == 1
