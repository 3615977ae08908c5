"""Tests for compression-aware routing and the router edge-case fixes:
empty-fleet summaries, per-run affinity reset, prefix tie-breaking,
the risk gate, and the verify-and-fallback path."""

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.engines import LMDEPLOY, ServingCostModel
from repro.experiments import serving_router
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    EventLoop,
    EventType,
    PrefixIndex,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    StepMetrics,
    Trace,
)
from repro.serving.cluster import InstanceView
from repro.serving.telemetry import Telemetry

FP16 = NoCompression().cost_spec()
KIVI = create("kivi-4").cost_spec()
STREAM = create("stream-512").cost_spec()


def instance(comp=FP16, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, comp, **kw)


def routed(rid, arrival=0.0, prompt=256, resp=32, algos=("fp16",), **kw):
    return RoutedRequest(
        request_id=rid,
        arrival=arrival,
        prompt_len=prompt,
        intended_len=resp,
        lengths_by_algo={a: resp for a in algos},
        **kw,
    )


def view(index, used=0, waiting=0, queue=0, budget=100_000):
    return InstanceView(
        index=index, name=f"inst{index}", queue_depth=queue, running=0,
        used_tokens=used, waiting_tokens=waiting, token_budget=budget,
    )


# ----------------------------------------------------------------------
# satellite fix 1: empty / all-rejected fleet summaries
# ----------------------------------------------------------------------
class TestEmptyFleetSummaries:
    def _all_rejected(self):
        # prompts larger than the KV budget are rejected at admission
        fleet = [instance(), instance()]
        too_big = max(i.token_budget for i in fleet) + 16
        router = Router(fleet, ["fp16", "fp16"], RoutingPolicy.LOAD_BALANCE)
        return router.serve(
            [routed(f"r{i}", prompt=too_big) for i in range(4)]
        )

    def test_all_rejected_all_e2e_empty(self):
        res = self._all_rejected()
        lats = res.all_e2e()  # pre-fix: np.concatenate([]) ValueError
        assert isinstance(lats, np.ndarray)
        assert lats.size == 0

    def test_all_rejected_mean_e2e_zero(self):
        # matches LatencySummary.degenerate(): zeros, not NaN/raise
        assert self._all_rejected().mean_e2e() == 0.0

    def test_all_rejected_latency_summary_degenerate(self):
        s = self._all_rejected().latency_summary()
        assert s.mean == 0.0
        assert s.goodput == 0.0

    def test_empty_request_list(self):
        router = Router(
            [instance()], ["fp16"], RoutingPolicy.LOAD_BALANCE
        )
        res = router.serve([])
        assert res.all_e2e().size == 0
        assert res.mean_e2e() == 0.0


# ----------------------------------------------------------------------
# satellite fix 2: per-run state reset on repeated serve()
# ----------------------------------------------------------------------
class TestRepeatedServe:
    def test_prefix_home_reset_between_serves(self):
        router = Router(
            [instance(), instance()], ["fp16", "fp16"], RoutingPolicy.PREFIX
        )
        shared = tuple(range(256))
        other = tuple(range(1000, 1256))
        # run 1: the shared head's first occurrence lands least-loaded
        # (instance 0) and becomes its offline "home"
        first = router.serve([routed("a", 0.0, token_ids=shared)])
        assert first.assignment["a"] == 0
        # run 2: a fresh serve must re-derive affinity.  With instance 0
        # already loaded by an earlier arrival, the shared head's first
        # occurrence now belongs on instance 1 — a stale home map from
        # run 1 would pin it back to instance 0.
        second = router.serve(
            [
                routed("warm", 0.0, token_ids=other),
                routed("b", 0.01, token_ids=shared),
            ]
        )
        assert second.assignment["warm"] == 0
        assert second.assignment["b"] == 1

    def test_repeated_serve_is_deterministic(self):
        router = Router(
            [instance(), instance()], ["fp16", "fp16"], RoutingPolicy.PREFIX
        )
        reqs = [
            routed(f"r{i}", 0.1 * i, token_ids=tuple(range(i % 3, 256)))
            for i in range(6)
        ]
        a = router.serve(reqs).assignment
        b = router.serve(reqs).assignment
        assert a == b

    def test_reused_router_starts_each_run_cold(self):
        """Every run starts with empty prefix indexes, so serving one
        workload twice through one compression router (fallback on)
        repeats the first run event for event; the second run used to
        start with the first's resident blocks and hit counts."""
        algos = serving_router.MIXED_ALGOS
        router = Router(
            serving_router.build_fleet(algos), list(algos),
            RoutingPolicy.COMPRESSION,
            throughput_fn=serving_router.make_throughput_fn(algos),
            length_fn=serving_router.length_fn,
            risk_threshold=0.25, fallback=True,
        )
        reqs, _ = serving_router.build_workload(n=48)
        runs = []
        for _ in range(2):
            trace = Trace()
            res = router.serve_online(reqs, trace=trace)
            indexes = [
                (len(p), p.hits, p.misses, p.evicted_blocks)
                for p in (inst.prefix_cache for inst in router.instances)
            ]
            runs.append(
                (res.assignment, res.fallbacks, list(trace.events), indexes)
            )
        assert runs[0][1] and runs[0][3][0][1]  # fallbacks and FP16 hits
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# satellite fix 3: online prefix ties break by least live load
# ----------------------------------------------------------------------
class TestPrefixTieBreak:
    def _warm_router(self):
        insts = [
            instance(prefix_cache=PrefixIndex()),
            instance(prefix_cache=PrefixIndex()),
        ]
        ids = tuple(range(256))
        for inst in insts:  # the same system prompt warm everywhere
            inst.prefix_cache.insert(ids)
        router = Router(insts, ["fp16", "fp16"], RoutingPolicy.PREFIX)
        return router, ids

    def test_tie_goes_to_least_loaded(self):
        router, ids = self._warm_router()
        req = routed("t", token_ids=ids)
        drain = np.ones(2)
        # pre-fix: np.argmax on equal cached lengths always picked 0
        busy0 = [view(0, used=8000), view(1, used=0)]
        assert router._pick_online(req, busy0, drain) == 1
        busy1 = [view(0, used=0), view(1, used=8000)]
        assert router._pick_online(req, busy1, drain) == 0

    def test_longer_prefix_still_wins_over_load(self):
        router, ids = self._warm_router()
        router.instances[1].prefix_cache.insert(tuple(range(512)))
        req = routed("t", prompt=512, token_ids=tuple(range(512)))
        views = [view(0, used=0), view(1, used=8000)]
        assert router._pick_online(req, views, np.ones(2)) == 1


# ----------------------------------------------------------------------
# satellite: slo arrivals without deadlines mixed with deadlined ones
# ----------------------------------------------------------------------
class TestSloDeadlineFreeMix:
    def test_mixed_deadline_stream_serves(self):
        router = Router(
            [instance(), instance()], ["fp16", "fp16"], RoutingPolicy.SLO
        )
        reqs = [
            routed(f"r{i}", 0.05 * i,
                   ttft_deadline=None if i % 2 else 1.0)
            for i in range(8)
        ]
        res = router.serve_online(reqs)
        assert len(res.all_e2e()) == 8
        s = res.latency_summary()
        # attainment is computed over the deadlined half only
        assert s.ttft_attainment is not None
        assert 0.0 <= s.ttft_attainment <= 1.0


# ----------------------------------------------------------------------
# the compression policy: risk gate, reroutes, localisation
# ----------------------------------------------------------------------
class TestCompressionPolicy:
    def _router(self, **kw):
        insts = [instance(), instance(KIVI)]
        return Router(
            insts, ["fp16", "kivi-4"], RoutingPolicy.COMPRESSION, **kw
        ), insts

    def test_risk_at_threshold_is_gated(self):
        router, _ = self._router(risk_threshold=0.5)
        req = routed("r", risk=0.5, algos=("fp16", "kivi-4"))
        # empty fleet state: the compressed instance would win on speed
        views = [view(0), view(1)]
        assert router._pick_online(req, views, np.ones(2)) == 0
        assert router._reroutes >= 0

    def test_risk_below_threshold_not_gated(self):
        router, _ = self._router(risk_threshold=0.5)
        safe = routed("s", risk=0.49, algos=("fp16", "kivi-4"))
        views = [view(0, used=9000, waiting=9000), view(1)]
        assert router._pick_online(safe, views, np.ones(2)) == 1

    def test_reroute_recorded_in_trace_and_metrics(self):
        router, _ = self._router(risk_threshold=0.5)
        reqs = [
            routed("risky", 0.0, risk=1.0, algos=("fp16", "kivi-4")),
            routed("safe", 0.05, risk=0.0, algos=("fp16", "kivi-4")),
        ]
        trace = Trace()
        res = router.serve_online(reqs, trace=trace)
        assert res.assignment["risky"] == 0
        m = StepMetrics.from_trace(trace)
        assert m.reroutes == res.reroutes
        assert m.fallbacks == 0
        if res.reroutes:
            rows = trace.rows_of(EventType.REROUTE)
            assert len(rows) == res.reroutes

    def test_gate_denial_emits_reroute_event(self):
        router, insts = self._router(risk_threshold=0.5)
        req = routed("r", risk=1.0, algos=("fp16", "kivi-4"))
        # compressed looks far cheaper; the gate must deny it
        views = [view(0, used=20000, waiting=20000, queue=4), view(1)]
        trace = Trace()
        loop = EventLoop(trace)
        for inst in insts:
            inst.attach(loop)
        idx = router._pick_online(req, views, np.ones(2), now=0.0)
        assert idx == 0
        assert router._reroutes == 1
        rows = trace.rows_of(EventType.REROUTE)
        assert len(rows) == 1

    def test_instance_risks_localised_by_length_predictor(self):
        insts = [instance(), instance(KIVI), instance(STREAM)]
        # predicted contraction only under the sparse algorithm
        def length_fn(req, algo):
            return 8.0 if algo == "stream-512" else float(req.intended_len)
        router = Router(
            insts, ["fp16", "kivi-4", "stream-512"],
            RoutingPolicy.COMPRESSION, length_fn=length_fn,
            risk_threshold=0.5,
        )
        req = routed("r", resp=32, risk=1.0,
                     algos=("fp16", "kivi-4", "stream-512"))
        risks = router._instance_risks(req, 1.0)
        assert risks[0] == 0.0          # lossless never carries risk
        assert risks[1] == 0.0          # predicted full-length: safe here
        assert risks[2] == pytest.approx(1.0)
        # the gate therefore only blocks the sparse instance
        views = [view(0, used=50000, waiting=50000, queue=8),
                 view(1, used=40000, waiting=40000, queue=8), view(2)]
        assert router._pick_online(req, views, np.ones(3)) in (0, 1)

    def test_instance_risks_spread_without_length_signal(self):
        router, _ = self._router()
        req = routed("r", risk=0.75, algos=("fp16", "kivi-4"))
        risks = router._instance_risks(req, 0.75)
        assert risks[0] == 0.0
        assert risks[1] == pytest.approx(0.75)

    def test_offline_compression_policy_serves(self):
        router, _ = self._router(risk_threshold=0.5)
        reqs = [
            routed(f"r{i}", 0.2 * i, risk=float(i % 2),
                   algos=("fp16", "kivi-4"))
            for i in range(6)
        ]
        res = router.serve(reqs)
        assert res.mode == "offline"
        # gated requests (risk 1.0 >= 0.5) never land compressed
        for i in range(6):
            if i % 2:
                assert res.assignment[f"r{i}"] == 0

    def test_risk_fn_overrides_request_field(self):
        router, _ = self._router(
            risk_fn=lambda r: 1.0, risk_threshold=0.5
        )
        req = routed("r", risk=0.0, algos=("fp16", "kivi-4"))
        views = [view(0, used=20000, waiting=20000, queue=4), view(1)]
        assert router._pick_online(req, views, np.ones(2)) == 0

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            self._router(risk_threshold=-0.1)
        with pytest.raises(ValueError):
            Router([instance()], ["fp16"], RoutingPolicy.LOAD_BALANCE,
                   fallback=True)


# ----------------------------------------------------------------------
# verify-and-fallback
# ----------------------------------------------------------------------
class TestVerifyAndFallback:
    def _fleet(self):
        return [instance(), instance(KIVI)], ["fp16", "kivi-4"]

    def _serve(self, trace=None, telemetry=None, **kw):
        insts, algos = self._fleet()
        router = Router(
            insts, algos, RoutingPolicy.COMPRESSION, fallback=True, **kw
        )
        # all risk on the compressed instance; optimistic mode still
        # routes there when it is the cheaper placement
        reqs = [
            routed("risky", 0.0, risk=1.0, algos=algos),
            routed("safe", 0.1, risk=0.0, algos=algos),
        ]
        return router.serve_online(reqs, trace=trace, telemetry=telemetry)

    def test_failed_verification_reenqueues_on_fp16(self):
        res = self._serve(verify_fn=lambda r: True, risk_threshold=2.0)
        # every compressed decode fails verification -> one fb each
        compressed_served = [
            rid for rid, idx in res.assignment.items()
            if idx == 1 and not rid.endswith("#fb")
        ]
        assert compressed_served  # the optimistic path used kivi
        assert set(res.fallbacks) == set(compressed_served)
        for rid, fb_rid in res.fallbacks.items():
            assert fb_rid == rid + "#fb"
            assert res.assignment[fb_rid] == 0  # lossless target

    def test_fallback_preserves_first_token_accounting(self):
        res = self._serve(verify_fn=lambda r: True, risk_threshold=2.0)
        by_id = {r.request_id: r for r in res.all_requests()}
        merged = {r.request_id: r for r in res.effective_requests()}
        assert not any(rid.endswith("#fb") for rid in merged)
        for rid, fb_rid in res.fallbacks.items():
            orig, fb, eff = by_id[rid], by_id[fb_rid], merged[rid]
            # client-visible: original's arrival + first token, the
            # re-decode's finish + token count
            assert eff.arrival == orig.arrival
            assert eff.first_token == orig.first_token
            assert eff.finish == fb.finish
            assert eff.generated == fb.generated
            assert eff.finish > orig.finish

    def test_fallback_events_and_metrics(self):
        trace = Trace()
        tel = Telemetry()
        res = self._serve(
            verify_fn=lambda r: True, risk_threshold=2.0,
            trace=trace, telemetry=tel,
        )
        n_fb = len(res.fallbacks)
        assert n_fb > 0
        m = StepMetrics.from_trace(trace)
        assert m.fallbacks == n_fb
        rows = trace.rows_of(EventType.FALLBACK)
        assert len(rows) == n_fb
        # telemetry counter aggregates across the fleet
        total = sum(v for _, v in tel.fallbacks.series())
        assert total == n_fb

    def test_default_verification_uses_localised_risk(self):
        insts, algos = self._fleet()
        router = Router(
            insts, algos, RoutingPolicy.COMPRESSION,
            fallback=True, risk_threshold=0.5,
        )
        reqs = [routed("r", 0.0, risk=1.0, algos=algos)]
        res = router.serve_online(reqs)
        if res.assignment["r"] == 1:  # decoded compressed -> re-decoded
            assert res.fallbacks == {"r": "r#fb"}
        else:
            assert res.fallbacks == {}

    def test_passing_verification_no_fallback(self):
        res = self._serve(verify_fn=lambda r: False)
        assert res.fallbacks == {}
        assert all(not r.request_id.endswith("#fb")
                   for r in res.all_requests())

    def test_offline_fallback_rejected(self):
        insts, algos = self._fleet()
        router = Router(
            insts, algos, RoutingPolicy.COMPRESSION, fallback=True
        )
        with pytest.raises(ValueError):
            router.serve([routed("r", algos=algos)])

    def test_effective_summary_counts_originals_only(self):
        res = self._serve(verify_fn=lambda r: True, risk_threshold=2.0)
        assert len(res.effective_requests()) == 2
        s = res.effective_summary()
        assert s.goodput >= 0.0
