"""Static batches run on the continuous decode path, and do what their
own code path did.

A static (eager TRL) batch decodes in bursts through ``_decode`` and
``_decode_burst``, priced padded (the formed batch size, the widest
prompt plus the tokens each member has generated), and completes its
prefill through ``_prefilled``, the members the prefill finishes first.
``ReferenceStatic`` below is the code path it replaced, kept as the
oracle: one decode step per wake-up and a first-token / finish / join
loop of its own.  Hypothesis drives both over TRL and TRL+FA, batch
limits, policies, responses of 0 and 1 tokens and up to 300, tied and
spread arrivals, and prompts above the KV budget (doomed requests that
arrive while a batch decodes); the JSONL exports, the request fields,
what an ``on_finish`` hook sees and the telemetry registry must match.

The one intended difference is migrated KV: a member that arrives
``kv_ready`` (a disaggregated decode pool's handoff) keeps its first
token and is not prefilled again.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import NoCompression
from repro.engines.presets import cost_model
from repro.serving import (
    EventType,
    ServerInstance,
    ServingRequest,
    Telemetry,
    Trace,
    dump_jsonl,
    make_policy,
)
from repro.serving.replay import build_scenario, fleet_scenario, instance_config

FP16 = NoCompression().cost_spec()
_INF = float("inf")


class ReferenceStatic(ServerInstance):
    """Static batching on its own code path: every member gets the
    first token at the prefill's end, finishers finish, the rest join,
    and each wake-up runs one decode step priced at the formed batch
    size and the widest prompt plus the steps run."""

    def _wake_static(self, now):
        if self._running:
            self._static_decode(now)
            return
        self._form_static_batch(now)

    def _form_static_batch(self, now):
        if not self._waiting.requests:
            return  # idle until the next arrival
        batch = []
        used = widest = longest = 0
        pool = self._waiting.copy()
        while pool.requests and len(batch) < self.max_batch:
            req = self.scheduler.select(pool, now)
            need = self._request_tokens(req)
            if used + need > self.token_budget:
                break  # head-of-line: keep the policy's ordering
            wide = max(widest, req.prompt_len)
            long = max(longest, req.response_len)
            if self._step_seconds(len(batch) + 1, wide + long - 1) == _INF:
                break  # head-of-line, as for the budget
            pool.remove(req, need)
            used += need
            widest, longest = wide, long
            batch.append(req)
        if not batch:
            return
        seconds = self.prefill_seconds(widest, batch=len(batch))
        if seconds == _INF:
            req = max(batch, key=lambda r: r.prompt_len)
            self._reject(now, req, self._request_tokens(req))
            self._schedule_wake(now)
            return
        end = now + seconds
        for r in batch:
            self._dequeue(r)
            r.prefill_start = now
            self._record_admit(now, r)
            r.first_token = end
            r.generated = 1 if r.response_len > 0 else 0
        self._record(
            now, EventType.PREFILL,
            seconds=seconds, batch=len(batch), prompt=widest,
        )
        # every finish comes first: an on_finish hook sees the batch as
        # not yet running
        for r in batch:
            if r.done:
                self._finish(r, end)
        for r in batch:
            if not r.done:
                self._join(r)
        self._sbatch_size = len(batch)
        self._sstep = 0
        self._smax_prompt = widest
        self._schedule_wake(end)

    def _static_decode(self, now):
        """One decode step; stragglers hold the batch, so the step stays
        priced at the *formed* batch size (padded execution)."""
        running = self._running
        kv = self._smax_prompt + 1 + self._sstep
        dt = self._step_seconds(self._sbatch_size, kv)
        clock = now + dt
        for r in running:
            r.generated += 1
        self._kv_sum += len(running)
        batch, used, live = self._sbatch_size, self.used_tokens, len(running)
        if self._trace is not None:
            self._trace.record_fields(
                clock, EventType.DECODE_STEP, "", self.name,
                dict(batch=batch, kv=kv, seconds=dt, used_tokens=used,
                     token_budget=self.token_budget, live=live),
            )
        if self._telemetry is not None:
            # the one-step fold the per-event telemetry path made
            self._telemetry.on_decode_steps(
                self.name, (clock,), batch, (kv,), (dt,), used,
                self.token_budget, live,
            )
        self._retire_done(clock)
        self._sstep += 1
        self._schedule_wake(clock)


def _serve(cls, model, policy, max_batch, specs, telemetry):
    inst = cls(model, FP16, max_batch=max_batch, scheduler=make_policy(policy))
    seen = []
    inst.on_finish = lambda req, at: seen.append(
        (req.request_id, at, inst.running_count, inst.used_tokens)
    )
    reqs = [
        ServingRequest(f"r{i}", arrival, prompt, response, priority=prio)
        for i, (arrival, prompt, response, prio) in enumerate(specs)
    ]
    trace = Trace()
    tel = Telemetry() if telemetry else None
    result = inst.run(reqs, trace=trace, telemetry=tel)
    return result.requests, trace, seen, tel


def _fields(req):
    out = dataclasses.asdict(req)
    del out["prefilled"]
    return out


@pytest.fixture(scope="module")
def models():
    # prices are pure functions of the cost model and their arguments,
    # so every example may read the entries earlier ones filled
    return {engine: cost_model(engine=engine) for engine in ("trl", "trl+fa")}


@pytest.fixture(scope="module")
def jsonl_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("static-jsonl")


_request = st.tuples(
    # prompt: mostly short; sometimes long enough that memory bounds the
    # padded batch, or above the ~63K-token budget
    st.one_of(st.integers(16, 3000), st.integers(16, 3000),
              st.integers(20_000, 63_000), st.integers(60_000, 90_000)),
    st.one_of(st.integers(0, 2), st.integers(0, 300)),
    st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    engine=st.sampled_from(["trl", "trl+fa"]),
    policy=st.sampled_from(["fcfs", "priority", "shortest"]),
    max_batch=st.integers(1, 16),
    requests=st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.01, 0.2, 1.0]), _request),
        min_size=1, max_size=10,
    ),
    telemetry=st.booleans(),
)
def test_static_burst_path_matches_reference(
    models, jsonl_dir, engine, policy, max_batch, requests, telemetry
):
    specs, clock = [], 0.0
    for gap, (prompt, response, prio) in requests:
        clock += gap
        specs.append((clock, prompt, response, prio))
    run = (models[engine], policy, max_batch, specs, telemetry)
    ref_reqs, ref_trace, ref_seen, ref_tel = _serve(ReferenceStatic, *run)
    new_reqs, new_trace, new_seen, new_tel = _serve(ServerInstance, *run)
    ref_path, new_path = jsonl_dir / "ref.jsonl", jsonl_dir / "new.jsonl"
    dump_jsonl(ref_trace, ref_path)
    dump_jsonl(new_trace, new_path)
    assert new_path.read_bytes() == ref_path.read_bytes()
    assert [_fields(r) for r in new_reqs] == [_fields(r) for r in ref_reqs]
    for r in new_reqs:
        # a served member's KV is complete after its prefill, as on the
        # continuous path (the reference never set the field)
        assert r.prefilled == (r.prompt_len if r.prefill_start is not None else 0)
    assert new_seen == ref_seen
    if telemetry:
        # every token after the prefill's first came from a decode step
        assert new_tel.generated_tokens.total() == sum(
            max(r.generated - 1, 0) for r in new_reqs
        )
        ref_snap, new_snap = ref_tel.snapshot(), new_tel.snapshot()
        # fewer loop events: a burst is one wake-up, not one per step
        for snap in (ref_snap, new_snap):
            del snap["eventloop_events_fired_total"]
        assert new_snap == ref_snap


def test_static_runs_fire_fewer_loop_events():
    specs = [(0.05 * i, 256 + 64 * i, 40 + 8 * i, 0) for i in range(8)]
    run = (cost_model(engine="trl"), "fcfs", 4, specs, True)
    ref = _serve(ReferenceStatic, *run)[3]
    new = _serve(ServerInstance, *run)[3]
    assert new.loop_fired.value() < ref.loop_fired.value()


def test_static_decode_pool_keeps_migrated_kv():
    """A TRL decode pool behind a prefill pool neither prefills migrated
    requests again nor moves their first token."""
    fleet = build_scenario(fleet_scenario(
        decode=[instance_config(engine="trl", max_batch=4)],
        prefill=[instance_config()],
    ))
    trace = Trace()
    fleet.serve(
        [ServingRequest(f"r{i}", 0.05 * i, 512, 32) for i in range(4)],
        trace=trace,
    )
    finish = {e.request_id: e for e in trace.of_kind(EventType.FINISH)}
    for i in range(4):
        assert finish[f"r{i}"].instance.startswith("dec")
        assert finish[f"r{i}"].data["first_token"] == finish[f"r{i}#pf"].time
    # every decode-pool batch was all migrated: no prefill there at all
    assert trace.of_kind(EventType.PREFILL)
    assert all(
        e.instance.startswith("pf") for e in trace.of_kind(EventType.PREFILL)
    )
    # so the first batch decodes as soon as it is formed
    admit = next(
        e for e in trace.of_kind(EventType.ADMIT) if e.instance == "dec0"
    )
    step = next(
        e for e in trace.of_kind(EventType.DECODE_STEP) if e.instance == "dec0"
    )
    assert step.time == admit.time + step.data["seconds"]


def test_static_prefill_prices_only_members_without_kv():
    inst = ServerInstance(cost_model(engine="trl"), FP16, max_batch=4)
    migrated = ServingRequest("m", 0.0, 2048, 8, kv_ready=True)
    migrated.first_token = 0.0
    local = [ServingRequest("a", 0.0, 256, 8), ServingRequest("b", 0.0, 512, 8)]
    trace = Trace()
    inst.run([migrated, *local], trace=trace)
    (prefill,) = trace.of_kind(EventType.PREFILL)
    # padded to the widest member that needs a prefill
    assert prefill.data == {
        "seconds": inst.prefill_seconds(512, batch=2), "batch": 2,
        "prompt": 512,
    }
    assert migrated.first_token == 0.0
    assert [r.first_token for r in local] == [prefill.data["seconds"]] * 2
    # the decode stays padded to the widest prompt of the whole batch
    step = trace.of_kind(EventType.DECODE_STEP)[0]
    assert (step.data["batch"], step.data["kv"]) == (3, 2048 + 1)

