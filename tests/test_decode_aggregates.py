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
the priority and slack policies, dynamic admission under a sparse KV
budget — with every wake-up checked against a rescan.  Without a sparse
budget the dynamic footprint and ``_overflow()`` read ``_kv_sum``; both
are checked against the per-member formula.  Every decode burst that
follows ``_make_room`` must run exactly one step: the one room was made
for.  After each run every memoized prefill and decode-step price must
equal a fresh ``prefill_chunk`` / ``decode_step`` price.

A hypothesis test drives ``_decode_burst`` directly on random running
batches and checks its overflow horizon and per-step footprint against
the per-member NumPy formula the aggregates replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import NoCompression, create
from repro.engines import LMDEPLOY, TRL, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B, LLAMA_13B
from repro.serving import (
    DisaggFleet,
    EventLoop,
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


def instance(comp=FP16, engine=LMDEPLOY, arch=LLAMA_7B, **kw):
    return ServerInstance(ServingCostModel(arch, A6000, engine), comp, **kw)


def live_footprint(inst, step=0):
    """The dynamic footprint ``step`` decode steps ahead, member by
    member: each holds prompt + generated, capped at its peak."""
    live = sum(
        min(r.prompt_len + max(1, r.generated) + step, inst._request_tokens(r))
        for r in inst._running
    )
    pre = inst._prefilling
    return live + (pre.prefilled if pre is not None else 0)


@pytest.fixture
def room_steps():
    """Instance names of the bursts run right after ``_make_room``."""
    return []


@pytest.fixture
def wakes(monkeypatch, room_steps):
    """Check the aggregates against a rescan after every wake-up, and
    that each burst after ``_make_room`` runs one step; returns the
    list of checked wake-ups (instance names).  After the test, every
    woken instance's memoized prefill and decode-step prices are checked
    against fresh ones."""
    checked = []
    woken = {}
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
            used = live_footprint(self)
            # the test _make_room applies before the next step
            overflow = live_footprint(self, step=1) > self.token_budget
            assert self._overflow() == overflow
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
        woken[id(self)] = self

    monkeypatch.setattr(ServerInstance, "_wake", checked_wake)
    monkeypatch.setattr(ServerInstance, "_make_room", checked_make_room)
    monkeypatch.setattr(ServerInstance, "_decode_burst", checked_burst)
    yield checked
    for inst in woken.values():
        cm, prices = inst.cost_model, inst._prices
        for (batch, tokens, prefix), seconds in prices.prefill.items():
            fresh = cm.prefill_chunk(batch, tokens, prefix, inst.comp)
            assert seconds == fresh.seconds
        for batch, by_kv in prices.decode.items():
            for kv, seconds in by_kv.items():
                assert seconds == cm.decode_step(batch, kv, inst.comp).seconds


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


def test_dynamic_admission_under_sparse_budget(wakes):
    # StreamingLLM caps a member at 512 + response tokens: prompts over
    # that hold the cap from admission, prompts between 512 and it
    # reach it mid-decode, and on LLaMA-13B the batch's steps run out
    # of memory and preempt
    reqs = stream(56, seed=5, prompt=(64, 2048), resp=(64, 512), rate=40.0)
    comp = create("stream-512").cost_spec()
    inst = instance(comp, arch=LLAMA_13B, admission="dynamic")
    trace = Trace()
    res = inst.run(reqs, trace=trace)
    assert trace.counts()["PREEMPT"] > 0
    assert any(r.prompt_len >= 512 + r.response_len for r in reqs)
    assert any(512 < r.prompt_len < 512 + r.response_len for r in reqs)
    assert len(res.completed) == 56


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
    assert any(batch > 1 for batch, _, _ in inst._prices.prefill)
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
    # suffixes and later chunks are priced over a cached prefix
    assert any(prefix > 0 for _, _, prefix in inst._prices.prefill)
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


# ----------------------------------------------------------------------
# the overflow horizon and per-step footprint against the member scan
# ----------------------------------------------------------------------
def member_horizon(base, peak, k, budget):
    """Steps a burst of at most ``k`` runs before its footprint would
    overflow ``budget``, and the footprint after each: every member
    grows one KV token per step, capped at its peak (the per-member
    formula ``_decode_burst`` used before the aggregates)."""
    if int(peak.sum()) > budget:
        for j in range(k):
            if int(np.minimum(base + (j + 1), peak).sum()) > budget:
                k = j
                break
    steps = np.arange(1, k + 1)
    used = np.minimum(base[None, :] + steps[:, None], peak).sum(axis=1)
    return k, [int(u) for u in used]


_BURST_INSTANCE = []


def burst_instance():
    """One FP16 dynamic instance, built once (its budget is searched)."""
    if not _BURST_INSTANCE:
        _BURST_INSTANCE.append(instance(admission="dynamic"))
    return _BURST_INSTANCE[0]


@settings(max_examples=300, deadline=None)
@given(
    members=st.lists(
        st.tuples(
            st.integers(1, 4000),  # prompt
            st.integers(2, 600),  # response
            st.floats(0.0, 1.0, exclude_max=True),  # generated fraction
        ),
        min_size=1, max_size=12,
    ),
    prefilled=st.one_of(st.none(), st.integers(1, 3000)),
    max_steps=st.integers(1, 8),
    ahead=st.integers(-1, 9),
    offset=st.integers(-12, 12),
)
def test_burst_horizon_matches_member_formula(
    members, prefilled, max_steps, ahead, offset
):
    inst = burst_instance()
    trace = Trace()
    inst.attach(EventLoop(trace))
    for i, (prompt, response, frac) in enumerate(members):
        req = ServingRequest(f"m{i}", 0.0, prompt, response)
        req.generated = 1 + int(frac * (response - 1))  # 1 <= g < response
        inst._join(req)
    extra = 0
    if prefilled is not None:
        inst._prefilling = ServingRequest("pre", 0.0, prefilled + 1, 8)
        inst._prefilling.prefilled = extra = prefilled
    running = inst._running
    base = np.array([r.prompt_len + r.generated for r in running])
    peak = np.array([r.prompt_len + r.response_len for r in running])
    # a budget about ``ahead`` steps past the footprint, so the horizon
    # binds at every step of a burst
    inst.token_budget = (
        int(base.sum()) + extra + len(running) * ahead + offset
    )
    assert inst.used_tokens == int(base.sum()) + extra
    assert inst._overflow() == (
        int(np.minimum(base + 1, peak).sum()) + extra > inst.token_budget
    )
    # price every step (no OOM), so only the horizon can stop the burst
    _, kv0 = inst._priced_step()
    inst._prices.decode[len(running)] = {kv: 0.01 for kv in range(kv0, kv0 + 9)}
    fin = min(r.response_len - r.generated for r in running)
    want, used = member_horizon(
        base, peak, min(fin, max_steps), inst.token_budget - extra
    )
    ran, _, _ = inst._decode_burst(0.0, max_steps)
    assert ran == want
    steps = trace.of_kind(EventType.DECODE_STEP)
    assert [e.data["used_tokens"] for e in steps] == [u + extra for u in used]
