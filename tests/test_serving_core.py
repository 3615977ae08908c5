"""Tests for the event-driven serving core: event loop, scheduler
policies, preemption, trace layer, cluster, and the regression cases
the pre-refactor simulator got wrong (oversized-request hang,
mid-block-finish mispricing)."""

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.core.pipeline import CompressedGenerationPipeline
from repro.engines import LMDEPLOY, TRL, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    Cluster,
    EventLoop,
    EventType,
    FCFSPolicy,
    PriorityPolicy,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    ShortestFirstPolicy,
    StepMetrics,
    Trace,
    WaitingQueue,
    make_policy,
    queue_delays,
    request_latencies,
)

FP16 = NoCompression().cost_spec()


def instance(comp=FP16, engine=LMDEPLOY, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, engine)
    return ServerInstance(cm, comp, **kw)


def requests(n, prompt=256, resp=32, spacing=1.0, start=0.0):
    return [
        ServingRequest(f"r{i}", start + i * spacing, prompt, resp)
        for i in range(n)
    ]


class TestEventLoop:
    def test_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(3.0, lambda: fired.append("c"))
        assert loop.run() == 3.0
        assert fired == ["a", "b", "c"]

    def test_fifo_ties(self):
        loop = EventLoop()
        fired = []
        for tag in "abc":
            loop.schedule(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_from_callback(self):
        loop = EventLoop()
        fired = []

        def first():
            fired.append(loop.now)
            loop.schedule_in(0.5, lambda: fired.append(loop.now))

        loop.schedule(1.0, first)
        loop.run()
        assert fired == [1.0, 1.5]

    def test_past_times_clamped(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: loop.schedule(0.0, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [2.0]  # never travels back in time

    def test_run_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(5.0, lambda: fired.append(5))
        loop.run(until=2.0)
        assert fired == [1] and loop.pending == 1


class TestSchedulerPolicies:
    def _waiting(self):
        return [
            ServingRequest("a", 0.0, 128, 50, priority=0),
            ServingRequest("b", 0.1, 128, 5, priority=5),
            ServingRequest("c", 0.2, 128, 20, priority=1),
        ]

    @staticmethod
    def _select(policy, reqs):
        q = WaitingQueue(policy)
        for r in reqs:
            q.push(r, r.total_tokens)
        return policy.select(q, 1.0)

    def test_fcfs_select(self):
        w = self._waiting()
        assert self._select(FCFSPolicy(), w) is w[0]

    def test_shortest_select_uses_response_len(self):
        w = self._waiting()
        assert self._select(ShortestFirstPolicy(), w) is w[1]

    def test_shortest_select_prefers_predicted(self):
        w = self._waiting()
        w[0].predicted_len = 1.0  # predictor overrides the true length
        assert self._select(ShortestFirstPolicy(), w) is w[0]

    def test_priority_select(self):
        w = self._waiting()
        assert self._select(PriorityPolicy(), w) is w[1]

    def test_victims(self):
        w = self._waiting()
        assert FCFSPolicy().victim(w) == 2  # most recent admission
        assert ShortestFirstPolicy().victim(w) == 0  # longest remaining
        assert PriorityPolicy().victim(w) == 0  # lowest priority

    def test_make_policy(self):
        assert make_policy("fcfs").name == "fcfs"
        assert make_policy("shortest").name == "shortest"
        assert make_policy("priority").name == "priority"
        with pytest.raises(KeyError):
            make_policy("nope")

    def _simultaneous(self):
        return [
            ServingRequest("a", 0.0, 128, 50, priority=0),
            ServingRequest("b", 0.0, 128, 5, priority=5),
            ServingRequest("c", 0.0, 128, 20, priority=1),
        ]

    def test_admission_order_priority(self):
        inst = instance(scheduler=make_policy("priority"))
        reqs = self._simultaneous()
        inst.run(reqs)
        by_first = sorted(reqs, key=lambda r: r.first_token)
        assert [r.request_id for r in by_first] == ["b", "c", "a"]

    def test_admission_order_shortest(self):
        inst = instance(scheduler=make_policy("shortest"))
        reqs = self._simultaneous()
        inst.run(reqs)
        by_first = sorted(reqs, key=lambda r: r.first_token)
        assert [r.request_id for r in by_first] == ["b", "c", "a"]


class TestOversizedRejection:
    """Pre-refactor, a request bigger than the token budget spun the
    clock forever in both batching modes; now it is rejected with a
    recorded failure."""

    def test_continuous_rejects_and_serves_rest(self):
        inst = instance()
        big = ServingRequest("big", 0.0, inst.token_budget + 10, 10)
        rest = requests(3, start=0.1, spacing=0.1)
        trace = Trace()
        res = inst.run([big] + rest, trace=trace)
        assert big.rejected and big.finish is None
        assert [r.request_id for r in res.rejected] == ["big"]
        assert len(res.completed) == 3
        assert all(r.finish is not None for r in res.completed)
        rejects = trace.of_kind(EventType.REJECT)
        assert len(rejects) == 1 and rejects[0].request_id == "big"

    def test_static_rejects_and_serves_rest(self):
        inst = instance(engine=TRL)
        big = ServingRequest("big", 0.0, inst.token_budget + 10, 10)
        rest = requests(3, start=0.1, spacing=0.1)
        res = inst.run([big] + rest)
        assert big.rejected
        assert len(res.completed) == 3

    def test_only_oversized_stream_terminates(self):
        inst = instance()
        res = inst.run([ServingRequest("big", 0.0, 10**7, 10)])
        assert len(res.completed) == 0 and len(res.rejected) == 1
        assert res.mean_e2e() == 0.0

    def test_e2e_excludes_rejected(self):
        inst = instance()
        big = ServingRequest("big", 0.0, 10**7, 10)
        res = inst.run([big] + requests(2, start=0.1, spacing=0.1))
        assert len(res.e2e) == 2


class TestMidBlockRepricing:
    """A request finishing inside a decode block must re-price its
    peers' subsequent steps for the new membership, and every step must
    be priced at the batch's current KV length.  The pre-refactor
    simulator froze the block-start KV length for the whole block."""

    def test_peer_steps_repriced_exactly(self):
        inst = instance()
        cm, comp = inst.cost_model, inst.comp
        prompt = 256
        a = ServingRequest("A", 0.0, prompt, 2)
        b = ServingRequest("B", 0.0, prompt, 10)
        inst.run([a, b])

        pre = cm.prefill(1, prompt, comp).seconds
        # two serialized prefills, then one batch-2 step finishes A
        t = 2 * pre + cm.decode_step(2, prompt + 1, comp).seconds
        assert a.finish == pytest.approx(t, rel=1e-12)
        # B decodes alone: each step priced at its *current* KV length
        for gen in range(2, 10):
            t += cm.decode_step(1, prompt + gen, comp).seconds
        assert b.finish == pytest.approx(t, rel=1e-12)

    def test_finish_frees_budget_for_waiting(self):
        # a queued request blocked on budget is admitted right after a
        # finish frees tokens, not only at a block boundary
        inst = instance(max_batch=2)
        reqs = requests(3, resp=16, spacing=0.0)
        res = inst.run(reqs)
        assert all(r.finish is not None for r in res.requests)
        assert res.requests[2].prefill_start >= min(
            res.requests[0].finish, res.requests[1].finish
        )


class TestEdgeCases:
    def test_empty_stream(self):
        res = instance().run([])
        assert res.requests == [] and res.mean_e2e() == 0.0
        assert res.percentile_e2e(99) == 0.0

    def test_empty_stream_static(self):
        assert instance(engine=TRL).run([]).requests == []

    def test_arrival_gap_larger_than_decode_block(self):
        # the instance drains, idles, and serves the late arrival as if
        # it were alone — the clock jumps instead of spinning
        alone = instance().run(requests(1)).mean_e2e()
        inst = instance()
        first = ServingRequest("r0", 0.0, 256, 32)
        late = ServingRequest("late", 1000.0, 256, 32)
        res = inst.run([first, late])
        assert late.prefill_start == pytest.approx(1000.0)
        assert late.e2e_latency == pytest.approx(alone, rel=1e-9)

    def test_max_batch_one_serializes(self):
        inst = instance(max_batch=1)
        reqs = requests(4, spacing=0.0, resp=8)
        res = inst.run(reqs)
        assert all(r.finish is not None for r in res.requests)
        # strictly serial: each request starts after the previous ends
        ordered = sorted(reqs, key=lambda r: r.prefill_start)
        for prev, nxt in zip(ordered, ordered[1:]):
            assert nxt.prefill_start >= prev.finish - 1e-9

    def test_zero_length_response(self):
        z = ServingRequest("z", 0.0, 128, 0)
        res = instance().run([z])
        assert z.finish is not None and z.generated == 0
        assert z.finish == z.first_token  # prefill only
        assert res.mean_e2e() > 0.0

    def test_zero_length_response_static(self):
        z = ServingRequest("z", 0.0, 128, 0)
        instance(engine=TRL).run([z])
        assert z.finish is not None and z.finish == z.first_token


class TestTrace:
    def _traced(self, n=8, **kw):
        inst = instance(**kw)
        trace = Trace()
        res = inst.run(requests(n, spacing=0.05), trace=trace)
        return res, trace

    def test_event_kinds_present(self):
        _, trace = self._traced()
        counts = trace.counts()
        assert counts["ADMIT"] == counts["PREFILL"] == counts["FINISH"] == 8
        assert counts["DECODE_STEP"] > 0

    def test_latencies_match_simulation_exactly(self):
        res, trace = self._traced()
        lat = request_latencies(trace)
        for r in res.completed:
            assert lat[r.request_id] == r.e2e_latency  # no tolerance

    def test_latencies_match_static_mode(self):
        res, trace = self._traced(engine=TRL)
        lat = request_latencies(trace)
        for r in res.completed:
            assert lat[r.request_id] == r.e2e_latency

    def test_queue_delays_match_requests(self):
        res, trace = self._traced()
        delays = queue_delays(trace)
        for r in res.completed:
            assert delays[r.request_id] == pytest.approx(r.queue_delay)

    def test_render_and_filters(self):
        _, trace = self._traced(n=4)
        text = trace.render_timeline(limit=5)
        assert "ADMIT" in text and "more events" in text
        assert len(trace.for_request("r0")) >= 3
        assert len(trace.of_kind(EventType.ADMIT)) == 4

    def test_step_metrics(self):
        _, trace = self._traced()
        m = StepMetrics.from_trace(trace)
        assert m.decode_steps == len(trace.of_kind(EventType.DECODE_STEP))
        assert m.admits == m.finishes == 8
        assert 1.0 <= m.mean_batch_occupancy <= m.peak_batch_occupancy
        assert 0.0 < m.mean_budget_utilization <= 1.0
        assert m.mean_tbot > 0.0
        assert set(m.as_dict()) >= {"decode_steps", "preempts", "rejects"}

    def test_step_metrics_empty_trace(self):
        m = StepMetrics.from_trace(Trace())
        assert m.decode_steps == 0 and m.mean_batch_occupancy == 0.0


class TestPreemption:
    def _overload(self, n=24):
        # peak footprints far beyond what the budget can hold at once
        return [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(n)]

    def test_dynamic_admission_preempts_and_completes(self):
        inst = instance(admission="dynamic")
        trace = Trace()
        res = inst.run(self._overload(), trace=trace)
        assert len(trace.of_kind(EventType.PREEMPT)) > 0
        assert all(r.finish is not None for r in res.completed)
        assert len(res.completed) == 24
        assert any(r.preemptions > 0 for r in res.completed)

    def test_reserve_admission_never_preempts(self):
        inst = instance(admission="reserve")
        trace = Trace()
        inst.run(self._overload(), trace=trace)
        assert len(trace.of_kind(EventType.PREEMPT)) == 0

    def test_preempted_requests_recompute(self):
        inst = instance(admission="dynamic")
        res = inst.run(self._overload())
        victim = max(res.completed, key=lambda r: r.preemptions)
        assert victim.preemptions >= 1
        assert victim.generated == victim.response_len  # still finished

    def test_invalid_admission_mode(self):
        with pytest.raises(ValueError):
            instance(admission="magic")


class TestCluster:
    def test_shared_clock_matches_independent_runs(self):
        # instances never interact, so a shared clock must not change
        # any latency relative to running each stream alone
        solo = instance().run(requests(6, spacing=0.1))
        cluster = Cluster([instance(), instance()])
        outs = cluster.run(
            [requests(6, spacing=0.1), requests(6, spacing=0.3, prompt=128)]
        )
        np.testing.assert_allclose(outs[0].e2e, solo.e2e, rtol=1e-12)

    def test_stream_count_validated(self):
        cluster = Cluster([instance()])
        with pytest.raises(ValueError):
            cluster.run([[], []])
        with pytest.raises(ValueError):
            Cluster([])

    def test_views_expose_live_state(self):
        cluster = Cluster([instance(), instance()], names=["a", "b"])
        cluster._attach_all(None)
        views = cluster.views()
        assert [v.name for v in views] == ["a", "b"]
        assert all(v.queue_depth == 0 and v.used_tokens == 0 for v in views)
        assert all(0.0 <= v.occupancy <= 1.0 for v in views)

    def test_run_online_assignment(self):
        cluster = Cluster([instance(), instance()])
        reqs = requests(8, spacing=0.05)
        results, assignment = cluster.run_online(
            reqs,
            pick=lambda req, views, now: int(
                np.argmin([v.used_tokens + v.waiting_tokens for v in views])
            ),
            make=lambda req, idx, now: req,
        )
        assert len(assignment) == 8
        assert sum(len(r.completed) for r in results) == 8
        assert len(set(assignment.values())) == 2  # load actually spread


class TestOnlineRouting:
    def _routed(self, n=16):
        rng = np.random.default_rng(1)
        arr = np.cumsum(rng.exponential(0.1, size=n))
        return [
            RoutedRequest(
                request_id=f"r{i}",
                arrival=float(arr[i]),
                prompt_len=int(rng.integers(128, 512)),
                intended_len=24,
                lengths_by_algo={"fp16": 24},
            )
            for i in range(n)
        ]

    def test_online_load_balance_spreads(self):
        router = Router(
            [instance() for _ in range(4)], ["fp16"] * 4,
            RoutingPolicy.LOAD_BALANCE,
        )
        res = router.serve_online(self._routed())
        assert res.mode == "online"
        assert len(set(res.assignment.values())) >= 3
        assert len(res.all_e2e()) == 16

    def test_serve_online_flag(self):
        router = Router(
            [instance(), instance()], ["fp16"] * 2, RoutingPolicy.LOAD_BALANCE
        )
        res = router.serve(self._routed(), online=True)
        assert res.mode == "online"

    def test_online_comparable_to_offline(self):
        reqs = self._routed()
        off = Router(
            [instance() for _ in range(2)], ["fp16"] * 2,
            RoutingPolicy.LOAD_BALANCE,
        ).serve(reqs)
        on = Router(
            [instance() for _ in range(2)], ["fp16"] * 2,
            RoutingPolicy.LOAD_BALANCE,
        ).serve_online(self._routed())
        assert on.mean_e2e() <= 2.0 * off.mean_e2e()

    def test_router_result_summary(self):
        router = Router(
            [instance(), instance()], ["fp16"] * 2, RoutingPolicy.LOAD_BALANCE
        )
        s = router.serve(self._routed()).latency_summary()
        assert s.tbot is not None and s.tbot > 0.0
        assert s.queue_delay is not None and s.queue_delay >= 0.0
        assert {"tbot", "queue_delay"} <= set(s.as_dict())


class TestPipelineServing:
    def test_simulate_serving_with_trace(self):
        pipe = CompressedGenerationPipeline("fp16")
        res = pipe.simulate_serving(
            requests(4, spacing=0.2), with_trace=True
        )
        assert res.trace is not None
        lat = request_latencies(res.trace)
        for r in res.completed:
            assert lat[r.request_id] == r.e2e_latency

    def test_simulate_serving_policies(self):
        pipe = CompressedGenerationPipeline("stream-512")
        res = pipe.simulate_serving(
            requests(4, spacing=0.1), scheduler="shortest", admission="dynamic"
        )
        assert len(res.completed) == 4
