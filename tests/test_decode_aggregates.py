"""The instance's aggregates equal a rescan after every wake-up.

``ServerInstance`` keeps three aggregates of its running batch instead
of scanning it: ``_kv_sum`` (prompt plus generated tokens over the
batch), ``_peak_sum`` (peak tokens over the batch: the reserve-admission
ledger ``used_tokens`` reads, plus the peak of a request mid-prefill)
and ``_min_left`` (steps until the first member finishes, ``None`` when
it must be rescanned).  Its waiting queue keeps two more: the queued
peak tokens (``waiting_tokens`` reads them) and each request's admission
key, which must not change while it waits.  Each scenario below drives
one of the paths that change the batch or the queue — single-shot,
chunked (under both admission modes) and prefix-cache admission,
``kv_ready`` ingest on a disaggregated decode pool, recompute preemption
(also under the slack policy, whose requeued victims wait under
TBOT-milestone deadlines), ``_make_room``'s evictions and OOM drop, a
router's verify-and-fallback re-decode, and static batches formed under
the priority and slack policies — with every wake-up checked against a
rescan.  Every decode burst that follows ``_make_room`` must run exactly
one step: the one room was made for.
"""

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.engines import LMDEPLOY, TRL, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    DisaggFleet,
    EventType,
    PrefixIndex,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    Trace,
    make_policy,
)

FP16 = NoCompression().cost_spec()


def instance(comp=FP16, engine=LMDEPLOY, **kw):
    return ServerInstance(ServingCostModel(LLAMA_7B, A6000, engine), comp, **kw)


@pytest.fixture
def room_steps():
    """Instance names of the bursts run right after ``_make_room``."""
    return []


@pytest.fixture
def wakes(monkeypatch, room_steps):
    """Check the aggregates against a rescan after every wake-up, and
    that each burst after ``_make_room`` runs one step; returns the
    list of checked wake-ups (instance names)."""
    checked = []
    wake = ServerInstance._wake
    make_room = ServerInstance._make_room
    burst = ServerInstance._decode_burst
    made_room = set()

    def checked_make_room(self, clock):
        evicted = make_room(self, clock)
        if evicted is not None:
            made_room.add(self)
        return evicted

    def checked_burst(self, clock, max_steps):
        out = burst(self, clock, max_steps)
        if self in made_room:
            made_room.discard(self)
            assert out[0] == 1
            room_steps.append(self.name)
        return out

    def checked_wake(self):
        wake(self)
        running = self._running
        pre = self._prefilling
        assert self._kv_sum == sum(r.prompt_len + r.generated for r in running)
        peaks = sum(self._request_tokens(r) for r in running)
        assert self._peak_sum == peaks
        if (
            self.admission == "dynamic"
            and self.cost_model.engine.supports_continuous_batching
        ):
            used = sum(
                min(r.prompt_len + max(1, r.generated), self._request_tokens(r))
                for r in running
            ) + (pre.prefilled if pre is not None else 0)
        else:
            used = peaks + (self._request_tokens(pre) if pre is not None else 0)
        assert self.used_tokens == used
        if running:
            left = min(r.response_len - r.generated for r in running)
            assert self._min_left in (None, left)
        else:
            assert self._min_left is None
        queue = self._waiting
        queued = list(queue)
        assert self.queue_depth == len(queued)
        assert self.waiting_tokens == (
            sum(self._request_tokens(r) for r in queued)
            - sum(self._request_tokens(r) for r in self._doomed)
        )
        # every key is still the request's admission key, in order
        assert [k[:-1] for k in queue.keys] == [
            self.scheduler.admit_key(r) for r in queued
        ]
        assert queue.keys == sorted(queue.keys)
        checked.append(self.name)

    monkeypatch.setattr(ServerInstance, "_wake", checked_wake)
    monkeypatch.setattr(ServerInstance, "_make_room", checked_make_room)
    monkeypatch.setattr(ServerInstance, "_decode_burst", checked_burst)
    return checked


def stream(n, seed, prompt=(256, 2048), resp=(8, 160), rate=4.0):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return [
        ServingRequest(
            f"r{i}", float(arrivals[i]), int(rng.integers(*prompt)),
            int(rng.integers(*resp)),
        )
        for i in range(n)
    ]


def test_reserve_admission(wakes):
    trace = Trace()
    res = instance().run(stream(40, seed=0), trace=trace)
    assert len(res.completed) == 40
    assert wakes


def test_dynamic_admission_with_preemption(wakes):
    # peak footprints far beyond the budget: decode growth preempts
    reqs = [ServingRequest(f"L{i}", 0.01 * i, 3000, 600) for i in range(24)]
    trace = Trace()
    res = instance(admission="dynamic").run(reqs, trace=trace)
    assert trace.counts()["PREEMPT"] > 0
    assert len(res.completed) == 24


def slo_stream(n, seed, prompt, resp, spacing):
    rng = np.random.default_rng(seed)
    return [
        ServingRequest(
            f"s{i}", spacing * i, int(rng.integers(*prompt)),
            int(rng.integers(*resp)), priority=int(rng.integers(0, 4)),
            ttft_deadline=float(rng.uniform(0.5, 4.0)),
            tbot_target=float(rng.uniform(0.02, 0.2)),
        )
        for i in range(n)
    ]


def test_slo_dynamic_chunked_requeues_decoding_victims(wakes):
    reqs = slo_stream(32, seed=3, prompt=(2000, 4000), resp=(300, 700),
                      spacing=0.05)
    trace = Trace()
    inst = instance(
        scheduler=make_policy("slo"), admission="dynamic", chunk_size=512,
    )
    res = inst.run(reqs, trace=trace)
    assert trace.counts()["PREEMPT"] > 0
    # victims past their first token wait under TBOT-milestone keys
    assert any(e.data["generated"] > 0 for e in trace.of_kind(EventType.PREEMPT))
    assert len(res.completed) == 32


@pytest.mark.parametrize("policy", ["priority", "slo"])
def test_static_batches_formed_by_policy(wakes, policy):
    reqs = slo_stream(40, seed=4, prompt=(16, 512), resp=(1, 96), spacing=0.1)
    trace = Trace()
    inst = instance(engine=TRL, scheduler=make_policy(policy), max_batch=8)
    res = inst.run(reqs, trace=trace)
    assert trace.counts()["PREFILL"] < 40  # batches of more than one
    assert len(res.completed) == 40


def test_static_batches_under_dynamic_admission(wakes):
    # static batches admit and count by peak whatever admission says
    reqs = slo_stream(40, seed=4, prompt=(16, 512), resp=(1, 96), spacing=0.1)
    inst = instance(engine=TRL, admission="dynamic", max_batch=8)
    res = inst.run(reqs, trace=Trace())
    assert len(res.completed) == 40


def test_reserve_chunked_prefill_holds_its_peak(wakes):
    # long prompts fill chunk by chunk while the batch decodes: the
    # request mid-prefill holds its peak in the reserve ledger
    reqs = stream(30, seed=2, prompt=(256, 3000), resp=(8, 200), rate=20.0)
    inst = instance(chunk_size=256)
    mid_prefill = []
    decode = inst._decode

    def decode_noting_prefill(now, limit=None):
        mid_prefill.append(inst._prefilling is not None)
        decode(now, limit)

    inst._decode = decode_noting_prefill
    res = inst.run(reqs, trace=Trace())
    assert any(mid_prefill)
    assert len(res.completed) == 30
    assert inst._peak_sum == 0 and inst.used_tokens == 0


@pytest.mark.parametrize("admission", ["reserve", "dynamic"])
def test_make_room_evicts_for_oom_priced_steps(wakes, room_steps, admission):
    # price a step as OOM once the batch holds 9000 KV tokens: blocks
    # stop short and _make_room evicts the policy's victims (the
    # request mid-prefill first) before the step runs
    inst = instance(admission=admission, chunk_size=512)
    priced = inst._step_seconds
    inst._step_seconds = lambda batch, kv: (
        float("inf") if batch * kv >= 9000 else priced(batch, kv)
    )
    reqs = stream(40, seed=11, prompt=(256, 3000), resp=(1, 400), rate=30.0)
    trace = Trace()
    res = inst.run(reqs, trace=trace)
    assert trace.counts()["PREEMPT"] > 0
    assert room_steps
    assert len(res.completed) == 40


def test_chunked_prefill_with_prefix_hits(wakes):
    system = list(range(10_000, 10_000 + 1024))
    rng = np.random.default_rng(1)
    reqs = []
    for i in range(16):
        user = [int(t) for t in rng.integers(20_000, 50_000, size=96 + 64 * (i % 4))]
        ids = system + user
        reqs.append(
            ServingRequest(
                f"p{i}", 0.2 * i, len(ids), 48 + 16 * (i % 3),
                token_ids=tuple(ids),
            )
        )
    trace = Trace()
    inst = instance(
        chunk_size=256, prefix_cache=PrefixIndex(), admission="dynamic",
    )
    res = inst.run(reqs, trace=trace)
    counts = trace.counts()
    assert counts["PREFIX_HIT"] > 0 and counts["PREFILL_CHUNK"] > 0
    assert counts.get("PREFILL", 0) > 0  # short suffixes prefill in one shot
    assert len(res.completed) == 16


def test_kv_ready_ingest_on_decode_pool(wakes):
    trace = Trace()
    fleet = DisaggFleet([instance()], [instance()])
    reqs = [
        ServingRequest(f"d{i}", 0.05 * i, 512 + 64 * i, 24 + 8 * (i % 3))
        for i in range(8)
    ]
    res = fleet.serve(reqs, trace=trace)
    assert trace.counts()["KV_TRANSFER"] == 8
    assert all(r.generated == r.response_len for r in res.completed)
    assert "dec0" in wakes


def test_slow_path_oom_evicts_then_drops(wakes):
    # price every step whose mean KV reaches 2500 as OOM: once the
    # short requests finish, the two long prompts together force an
    # eviction, and each alone is dropped
    inst = instance()
    priced = inst._step_seconds
    inst._step_seconds = lambda batch, kv: (
        float("inf") if kv >= 2500 else priced(batch, kv)
    )
    reqs = [ServingRequest(f"s{i}", 0.0, 256, 16) for i in range(3)]
    reqs += [ServingRequest("big0", 0.0, 2600, 200),
             ServingRequest("big1", 0.0, 2700, 200)]
    trace = Trace()
    res = inst.run(reqs, trace=trace)
    counts = trace.counts()
    assert counts["PREEMPT"] > 0
    dropped = [e for e in trace.of_kind(EventType.REJECT) if "generated" in e.data]
    assert {e.request_id for e in dropped} == {"big0", "big1"}
    assert len(res.completed) == 3


def test_router_fallback_redecode(wakes):
    kivi = create("kivi-4").cost_spec()
    algos = ["fp16", "kivi-4"]
    router = Router(
        [instance(), instance(kivi)], algos, RoutingPolicy.COMPRESSION,
        fallback=True, verify_fn=lambda r: True, risk_threshold=2.0,
    )
    reqs = [
        RoutedRequest(
            request_id=f"q{i}", arrival=0.1 * i, prompt_len=256 + 32 * i,
            intended_len=32, lengths_by_algo={a: 32 for a in algos},
            risk=1.0 if i % 2 == 0 else 0.0,
        )
        for i in range(6)
    ]
    trace = Trace()
    res = router.serve_online(reqs, trace=trace)
    assert res.fallbacks
    assert trace.counts()["FALLBACK"] == len(res.fallbacks)
