"""Tests for the disaggregated prefill/decode fleet: priced KV
handoffs, kv_ready admission, telemetry-driven autoscaling, monolithic
bit-for-bit parity — plus the cluster-state regression cases (stale
telemetry sink across runs, doomed-request occupancy inflation,
route_to mid-run semantics)."""

from collections import Counter

import numpy as np
import pytest

from repro.compression import NoCompression
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import A6000, NVLINK_A6000, PCIE_GEN4, transfer_time
from repro.model.arch import LLAMA_7B
from repro.serving import (
    Autoscaler,
    Cluster,
    DisaggFleet,
    EventLoop,
    EventType,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Telemetry,
    Trace,
    least_loaded,
)

FP16 = NoCompression().cost_spec()


def instance(comp=FP16, **kw):
    cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    return ServerInstance(cm, comp, **kw)


def instances(n, **kw):
    return [instance(**kw) for _ in range(n)]


def requests(n, prompt=256, resp=32, spacing=0.5, deadline=None):
    return [
        ServingRequest(
            f"r{i}", i * spacing, prompt, resp, ttft_deadline=deadline
        )
        for i in range(n)
    ]


def burst_requests(n_burst=24, n_tail=8, deadline=2.0):
    """A storm of near-simultaneous arrivals, then a sparse tail: the
    storm should trip scale-ups, the tail should trip drains."""
    reqs = [
        ServingRequest(f"b{i}", 0.05 * i, 384, 64, ttft_deadline=deadline)
        for i in range(n_burst)
    ]
    t0 = 0.05 * n_burst
    reqs += [
        ServingRequest(
            f"t{i}", t0 + 4.0 * (i + 1), 256, 24, ttft_deadline=deadline
        )
        for i in range(n_tail)
    ]
    return reqs


class TestKVTransfer:
    def test_transfer_event_priced_by_link(self):
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(requests(3, prompt=300, resp=16), trace=trace)
        xfers = trace.of_kind(EventType.KV_TRANSFER)
        assert len(xfers) == 3
        per_token = LLAMA_7B.kv_bytes_per_token()
        for ev in xfers:
            assert ev.data["tokens"] == 300
            assert ev.data["bytes"] == 300 * per_token
            assert ev.data["seconds"] == pytest.approx(
                transfer_time(NVLINK_A6000, 300 * per_token)
            )
            assert ev.data["link"] == "nvlink-a6000"
            assert ev.instance == "dec0"  # recorded at the receiver
        m = StepMetrics.from_trace(trace)
        assert m.kv_transfers == len(res.completed) == 3
        assert m.kv_transfer_bytes == 3 * 300 * per_token

    def test_compressed_kv_ships_fewer_bytes(self):
        from repro.compression import create

        kivi = create("kivi-4").cost_spec()
        trace = Trace()
        fleet = DisaggFleet(
            instances(1, comp=kivi), instances(1, comp=kivi)
        )
        fleet.serve(requests(1, prompt=400, resp=8), trace=trace)
        ev = trace.of_kind(EventType.KV_TRANSFER)[0]
        full = 400 * LLAMA_7B.kv_bytes_per_token()
        assert ev.data["bytes"] == pytest.approx(
            full * kivi.kv_bytes_ratio, rel=1e-9
        )
        assert ev.data["bytes"] < full

    def test_alternate_link_pricing(self):
        t_nv, t_pci = Trace(), Trace()
        DisaggFleet(instances(1), instances(1)).serve(
            requests(1, prompt=512, resp=8), trace=t_nv
        )
        DisaggFleet(
            instances(1), instances(1), interconnect=PCIE_GEN4
        ).serve(requests(1, prompt=512, resp=8), trace=t_pci)
        s_nv = t_nv.of_kind(EventType.KV_TRANSFER)[0].data["seconds"]
        s_pci = t_pci.of_kind(EventType.KV_TRANSFER)[0].data["seconds"]
        assert s_pci > s_nv  # PCIe link is slower, so the handoff costs more

    def test_fold_matches_recorded_values(self):
        # recorded when the object-per-event fold still existed and
        # agreed with the columnar one on every field
        trace = Trace()
        DisaggFleet(instances(1), instances(2)).serve(
            requests(6, prompt=280, resp=24), trace=trace
        )
        assert StepMetrics.from_trace(trace).as_dict() == {
            "decode_steps": 138, "admits": 12, "preempts": 0, "rejects": 0,
            "finishes": 12, "prefill_chunks": 0, "partial_requests": 0,
            "dropped_events": 0, "reroutes": 0, "fallbacks": 0,
            "kv_transfers": 6, "kv_transfer_bytes": 880803840,
            "kv_transfer_seconds": 0.01573073493333333,
            "scale_ups": 0, "scale_downs": 0,
            "decode_seconds": 2.9728650790741566,
            "mean_batch_occupancy": 1.0, "peak_batch_occupancy": 1,
            "mean_budget_utilization": 0.004820652691002505,
            "peak_budget_utilization": 0.004820652691002505,
            "mean_queue_delay": 0.0, "mean_tbot": 0.021656491405851366,
            "p99_tbot": 0.021656491405851377,
            "max_decode_gap": 0.021551910765148286,
            "ttft_attainment": 1.0, "tbot_attainment": 1.0,
            "goodput": 49.33998328823541, "prefix_hits": 0,
            "prefix_cached_tokens": 0, "prefix_saved_seconds": 0.0,
            "prefix_hit_rate": 0.0,
        }

    def test_telemetry_counters_match_trace(self):
        tel = Telemetry()
        trace = Trace()
        DisaggFleet(instances(1), instances(1)).serve(
            requests(4), trace=trace, telemetry=tel
        )
        m = StepMetrics.from_trace(trace)
        assert tel.kv_transfers.total() == m.kv_transfers == 4
        assert tel.kv_transfer_bytes.total() == m.kv_transfer_bytes
        assert tel.kv_transfer_seconds.total() == pytest.approx(
            m.kv_transfer_seconds
        )

    def test_routes_published_through_the_loop(self):
        """Every placement the fleet makes, on either pool, reaches the
        run's sink through the loop: one ``router_routed_total`` count
        per prefill and per decode placement."""
        from repro.experiments import serving_disagg

        tel = Telemetry()
        specs = serving_disagg.build_workload(
            10.0, n=120, seed=serving_disagg.SEED
        )
        fleet = serving_disagg.build_fleet("disagg")
        res = fleet.serve(
            serving_disagg.make_requests(specs), trace=Trace(), telemetry=tel
        )
        placed = Counter()
        for pf, dec in res.assignment.values():
            if pf is not None:
                placed[fleet.prefill[pf].name] += 1
            if dec is not None:
                placed[fleet.decode[dec].name] += 1
        routed = {
            labels["instance"]: int(v) for labels, v in tel.routed.series()
        }
        assert routed == placed
        assert sum(routed.values()) > len(specs)  # both pools placed


class TestDisaggServe:
    def test_ttft_made_by_prefill_pool(self):
        """first_token carries over the handoff: TTFT is the prefill
        pool's emission, while E2E additionally pays the transfer."""
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(requests(2, prompt=256, resp=32), trace=trace)
        pf_stage = {
            r.request_id: r for r in res.prefill_results[0].requests
        }
        for r in res.completed:
            stage = pf_stage[r.request_id + "#pf"]
            assert r.first_token == stage.first_token
            assert r.finish > stage.finish  # decode happens after handoff

    def test_kv_ready_skips_prefill_on_decode_pool(self):
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(requests(2, prompt=256, resp=32), trace=trace)
        dec_prefills = [
            ev for ev in trace.of_kind(EventType.PREFILL)
            if ev.instance == "dec0"
        ]
        assert dec_prefills == []  # the decode pool never re-prefills
        for r in res.completed:
            assert r.generated == r.response_len

    def test_short_requests_served_whole_on_prefill_pool(self):
        trace = Trace()
        fleet = DisaggFleet(instances(1), instances(1))
        res = fleet.serve(
            [ServingRequest("s0", 0.0, 128, 1)], trace=trace
        )
        assert len(trace.of_kind(EventType.KV_TRANSFER)) == 0
        (r,) = res.completed
        assert r.request_id == "s0" and r.finish is not None
        assert res.assignment["s0"][0] == 0  # stayed on the prefill pool

    def test_prefill_rejection_rejects_logical_request(self):
        fleet = DisaggFleet(instances(1), instances(1))
        budget = fleet.prefill[0].token_budget
        doomed = ServingRequest(
            "x0", 0.0, budget + 500, 64, ttft_deadline=1.0
        )
        ok = ServingRequest("x1", 0.0, 128, 16, ttft_deadline=1.0)
        res = fleet.serve([doomed, ok])
        by_id = {r.request_id: r for r in res.requests}
        assert by_id["x0"].rejected
        assert by_id["x1"].finish is not None
        # a rejected deadline-carrying request counts as a TTFT miss
        assert res.ttft_attainment() == pytest.approx(0.5)

    def test_monolithic_mode_bit_for_bit(self):
        t1, t2 = Trace(), Trace()
        DisaggFleet([], instances(2)).serve(
            requests(10, spacing=0.2), trace=t1
        )
        Cluster(instances(2)).run_online(
            requests(10, spacing=0.2),
            least_loaded,
            lambda r, idx, now: r,
            trace=t2,
        )
        assert list(t1.events) == list(t2.events)
        assert t1.render_timeline() == t2.render_timeline()

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            DisaggFleet(instances(1), [])
        with pytest.raises(ValueError):
            DisaggFleet(instances(2), instances(2), prefill_active=0)
        with pytest.raises(ValueError):
            DisaggFleet(instances(2), instances(2), decode_active=3)


class TestAutoscaler:
    def test_burst_scales_up_and_trough_drains(self):
        trace = Trace()
        fleet = DisaggFleet(
            instances(2),
            instances(4),
            prefill_active=1,
            decode_active=1,
            autoscaler=Autoscaler(tick=0.25, queue_high=2.0),
        )
        res = fleet.serve(burst_requests(), trace=trace)
        # scale events land in the trace, its metrics fold and the registry
        m = StepMetrics.from_trace(trace)
        assert m.scale_ups >= 1
        assert m.scale_downs >= 1
        ups = trace.of_kind(EventType.SCALE_UP)
        downs = trace.of_kind(EventType.SCALE_DOWN)
        assert len(ups) == m.scale_ups
        assert len(downs) == m.scale_downs
        for ev in ups + downs:
            assert ev.data["pool"] in ("prefill", "decode")
            assert ev.data["size"] >= 1
        tel = res.telemetry
        assert tel is not None  # created internally for the controller
        assert tel.scale_events.total() == m.scale_ups + m.scale_downs
        for pool in ("prefill", "decode"):
            assert tel.pool_size.value(pool=pool) >= 1.0

    def test_drain_respects_min_active(self):
        fleet = DisaggFleet(
            instances(2), instances(2), autoscaler=Autoscaler(min_active=1)
        )
        loop = EventLoop()
        for inst in fleet.prefill + fleet.decode:
            inst.attach(loop)
        fleet._loop = loop
        fleet._pf_active = [0]
        fleet._dec_active = [0]
        assert not fleet.scale_down("prefill", 0.0)  # already at the floor
        assert fleet.scale_up("prefill", 0.0)
        assert fleet.scale_down("prefill", 0.0)
        assert not fleet.scale_down("prefill", 0.0)
        with pytest.raises(ValueError):
            fleet.active_names("spare")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(tick=0.0)
        with pytest.raises(ValueError):
            Autoscaler(min_active=0)


class TestClusterTelemetryLifecycle:
    """Regression: a mid-run route_to publishes to the sink of the run
    in progress, set by either entry point — a sink from an earlier
    run_online() must never receive a later run's route_to events."""

    def _pick(self, req, views, now):
        return 0

    def test_stale_sink_not_published_by_later_run(self):
        tel = Telemetry()
        cluster = Cluster(instances(2))
        cluster.run_online(
            requests(2), self._pick, lambda r, i, n: r, telemetry=tel
        )
        routed_before = tel.routed.total()

        # second run WITHOUT telemetry; a mid-run route_to (the router's
        # fallback re-decode path) must not publish to the stale sink
        fired = []

        def hook(req, at):
            if not fired:
                fired.append(req.request_id)
                fb = ServingRequest(req.request_id + "#fb", at, 64, 4)
                fb.queued_at = at
                cluster.route_to(1, fb)

        cluster.instances[0].on_finish = hook
        try:
            cluster.run([requests(2), []])
        finally:
            cluster.instances[0].on_finish = None
        assert fired  # the mid-run route actually happened
        assert tel.routed.total() == routed_before

    def test_current_sink_receives_mid_run_routes(self):
        tel = Telemetry()
        cluster = Cluster(instances(2))
        fired = []

        def hook(req, at):
            if not fired:
                fired.append(req.request_id)
                fb = ServingRequest(req.request_id + "#fb", at, 64, 4)
                fb.queued_at = at
                cluster.route_to(1, fb)

        cluster.instances[0].on_finish = hook
        try:
            cluster.run([requests(2), []], telemetry=tel)
        finally:
            cluster.instances[0].on_finish = None
        assert tel.routed.value(instance=cluster.names[1]) == 1.0


class TestDoomedOccupancy:
    """Regression: requests flagged doomed at enqueue must not inflate
    waiting_tokens in the window before the rejection pass runs."""

    def test_waiting_tokens_excludes_doomed(self):
        inst = instance()
        loop = EventLoop()
        inst.attach(loop)
        big = ServingRequest("big", 0.0, inst.token_budget + 1000, 8)
        inst.receive(big)
        assert inst.waiting_tokens == 0  # pre-fix: budget + 1008
        ok = ServingRequest("ok", 0.0, 64, 8)
        inst.receive(ok)
        assert inst.waiting_tokens == 64 + 8
        loop.run()
        assert big.rejected and not ok.rejected

    def test_occupancy_view_unaffected_by_doomed(self):
        cluster = Cluster(instances(2))
        loop = cluster._attach_all(None)
        big = ServingRequest("big", 0.0, cluster.instances[0].token_budget + 1, 8)
        cluster.instances[0].receive(big)
        views = cluster.views()
        assert views[0].waiting_tokens == views[1].waiting_tokens == 0
        assert views[0].occupancy == views[1].occupancy


class TestRouteToMidRun:
    def test_online_receive_matches_submit_queue_delays(self):
        """expect/receive (the route_to machinery) must admit
        mid-decode-block arrivals with the same delays as submit()."""
        reqs = requests(8, prompt=320, resp=96, spacing=0.11)
        via_submit = Cluster(instances(1)).run(
            [requests(8, prompt=320, resp=96, spacing=0.11)]
        )[0]
        via_receive, _ = Cluster(instances(1)).run_online(
            reqs, lambda r, v, n: 0, lambda r, i, n: r
        )
        a = {r.request_id: r for r in via_submit.requests}
        b = {r.request_id: r for r in via_receive[0].requests}
        assert a.keys() == b.keys()
        for rid in a:
            assert a[rid].prefill_start == b[rid].prefill_start
            assert a[rid].first_token == b[rid].first_token
            assert a[rid].finish == b[rid].finish
            assert a[rid].queue_delay == b[rid].queue_delay

    def test_fb_redecode_lands_mid_decode_block(self):
        """A #fb re-decode routed at an instant the target is inside a
        decode block is admitted promptly and accounted normally."""
        cluster = Cluster(instances(1, max_batch=4))
        trace = Trace()
        loop = cluster._attach_all(trace)
        base = ServingRequest("b0", 0.0, 256, 400)  # long decode
        cluster.instances[0].submit(base)
        fb = ServingRequest("b0#fb", 0.0, 256, 40)
        # pick a routing instant strictly inside the base decode
        cluster.instances[0].expect(0.9)
        fb.arrival = 0.9
        fb.queued_at = 0.9
        loop.schedule(0.9, lambda: cluster.route_to(0, fb))
        loop.run()
        assert fb.finish is not None and not fb.rejected
        assert base.generated == 400 and fb.generated == 40
        # admitted while the base request was still decoding
        assert fb.prefill_start < base.finish
        admits = [
            ev for ev in trace.of_kind(EventType.ADMIT)
            if ev.request_id == "b0#fb"
        ]
        assert len(admits) == 1
        assert admits[0].data["queued_at"] == pytest.approx(0.9)
        assert fb.queue_delay == pytest.approx(fb.prefill_start - 0.9)

    def test_route_from_finish_hook_waits_for_arrival(self):
        """An on_finish hook fires inside a decode burst simulated ahead
        of the shared clock, so its re-decode arrives in the loop's
        future; an idle target must still not admit it early."""
        cluster = Cluster(instances(2))
        routed = []

        def hook(req, at):
            fb = ServingRequest(req.request_id + "#fb", at, 64, 4)
            routed.append(fb)
            cluster.route_to(1, fb)

        cluster.instances[0].on_finish = hook
        try:
            cluster.run([requests(3, prompt=256, resp=40), []])
        finally:
            cluster.instances[0].on_finish = None
        assert len(routed) == 3
        for fb in routed:
            assert fb.arrival <= fb.prefill_start <= fb.first_token
            assert fb.first_token <= fb.finish
