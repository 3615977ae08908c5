"""Tests for Sarathi/vLLM-style chunked prefill and the serving-core
accounting fixes that rode along with it:

- ``prefill_chunk`` cost-model semantics (exact reduction to single-shot
  prefill at ``kv_prefix=0``, cost growing with the cached prefix);
- the ``chunk_size`` knob on ``ServerInstance`` (bit-for-bit parity when
  disabled or when the chunk covers the prompt, work conservation,
  decode-stall reduction, preemption of partial prefills);
- ``first_token`` preserved across recompute preemption;
- degenerate latency summaries for all-rejected streams;
- the unified DECODE_STEP payload (``live`` in both batching modes).
"""

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.core.pipeline import CompressedGenerationPipeline
from repro.engines import LMDEPLOY, TRL, TRL_FA, ServingCostModel
from repro.hardware import A6000
from repro.model.arch import LLAMA_7B
from repro.serving import (
    EventType,
    LatencySummary,
    ServerInstance,
    ServingRequest,
    StepMetrics,
    Trace,
    request_latencies,
)

FP16 = NoCompression().cost_spec()
COST_MODEL = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)


def instance(comp=FP16, engine=LMDEPLOY, **kw):
    return ServerInstance(ServingCostModel(LLAMA_7B, A6000, engine), comp, **kw)


def long_prompt_scenario():
    """Eight short requests decoding when a 3.2k-token prompt lands."""
    reqs = [ServingRequest(f"d{i}", 0.0, 256, 512) for i in range(8)]
    reqs.append(ServingRequest("long", 2.0, 3200, 64))
    return reqs


class TestPrefillChunkCostModel:
    @pytest.mark.parametrize("engine", [LMDEPLOY, TRL, TRL_FA])
    @pytest.mark.parametrize("algo", ["fp16", "kivi-4", "h2o-512", "gear-4"])
    def test_zero_prefix_reduces_to_prefill_exactly(self, engine, algo):
        comp = FP16 if algo == "fp16" else create(algo).cost_spec()
        cm = ServingCostModel(LLAMA_7B, A6000, engine)
        for batch, L in [(1, 512), (1, 3072), (4, 1024)]:
            full = cm.prefill(batch, L, comp)
            chunk = cm.prefill_chunk(batch, L, 0, comp)
            assert chunk.seconds == full.seconds  # bit-for-bit, no tolerance
            assert chunk.breakdown == full.breakdown

    def test_cost_grows_with_prefix(self):
        costs = [
            COST_MODEL.prefill_chunk(1, 512, p, FP16).seconds
            for p in (0, 512, 1024, 2048, 4096)
        ]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_chunked_sum_exceeds_single_shot(self):
        # re-streaming the prefix each chunk makes the chunked total
        # strictly costlier than one shot — chunking buys latency
        # interleaving, not free compute
        L, C = 3072, 512
        single = COST_MODEL.prefill(1, L, FP16).seconds
        chunked = sum(
            COST_MODEL.prefill_chunk(1, C, p, FP16).seconds
            for p in range(0, L, C)
        )
        assert chunked > single
        # ... but not absurdly so on a flash/paged engine
        assert chunked < 2.0 * single

    def test_oom_chunk(self):
        cost = COST_MODEL.prefill_chunk(1, 512, 10**7, FP16)
        assert cost.oom and cost.seconds == float("inf")


class TestChunkSizeParity:
    """``chunk_size=None`` and ``chunk_size >= prompt_len`` must leave
    the simulation bit-for-bit identical to the seed single-shot path."""

    def _e2e(self, **kw):
        inst = instance(**kw)
        reqs = long_prompt_scenario()
        res = inst.run(reqs)
        return [r.e2e_latency for r in res.completed], [
            r.ttft for r in res.completed
        ]

    def test_none_matches_default(self):
        base_e2e, base_ttft = self._e2e()
        none_e2e, none_ttft = self._e2e(chunk_size=None)
        assert base_e2e == none_e2e and base_ttft == none_ttft

    def test_chunk_covering_prompt_matches(self):
        base_e2e, base_ttft = self._e2e()
        big_e2e, big_ttft = self._e2e(chunk_size=4096)
        assert base_e2e == big_e2e  # no tolerance
        assert base_ttft == big_ttft

    def test_chunked_trace_has_no_single_shot_events_for_long(self):
        inst = instance(chunk_size=512)
        trace = Trace()
        inst.run(long_prompt_scenario(), trace=trace)
        long_events = trace.for_request("long")
        kinds = {e.kind for e in long_events}
        assert EventType.PREFILL_CHUNK in kinds
        assert EventType.PREFILL not in kinds
        # short prompts (256 <= chunk) still prefill in one shot
        assert any(
            e.kind == EventType.PREFILL for e in trace.for_request("d0")
        )

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            instance(chunk_size=0)


class TestChunkedExecution:
    def _traced(self, chunk_size, reqs=None, **kw):
        inst = instance(chunk_size=chunk_size, **kw)
        trace = Trace()
        res = inst.run(reqs or long_prompt_scenario(), trace=trace)
        return inst, res, trace

    def test_work_conserved(self):
        _, res, trace = self._traced(512)
        chunks = [
            e for e in trace.of_kind(EventType.PREFILL_CHUNK)
            if e.request_id == "long"
        ]
        assert sum(e.data["chunk"] for e in chunks) == 3200
        assert chunks[-1].data["prefilled"] == 3200
        long = next(r for r in res.completed if r.request_id == "long")
        assert long.prefilled == 3200 and long.generated == 64

    def test_stall_reduced_at_equal_throughput(self):
        def run(chunk):
            _, res, trace = self._traced(chunk)
            m = StepMetrics.from_trace(trace)
            tokens = sum(r.generated for r in res.completed)
            makespan = max(r.finish for r in res.completed)
            return m, tokens / makespan

        m_none, thr_none = run(None)
        m_512, thr_512 = run(512)
        # the acceptance criterion: >= 2x smaller max decode stall at
        # equal total throughput
        assert m_512.max_decode_gap * 2 <= m_none.max_decode_gap
        assert thr_512 == pytest.approx(thr_none, rel=0.02)
        assert m_512.prefill_chunks == 3200 // 512 + 1  # ceil(3200/512)
        assert m_none.prefill_chunks == 0

    def test_decode_steps_interleave_chunks(self):
        _, _, trace = self._traced(512)
        chunks = [
            e.time for e in trace.of_kind(EventType.PREFILL_CHUNK)
        ]
        steps = [e.time for e in trace.of_kind(EventType.DECODE_STEP)]
        # at least one decode step lands strictly between the first and
        # last chunk — the running batch kept emitting tokens
        assert any(chunks[0] < t < chunks[-1] for t in steps)

    def test_first_token_at_last_chunk(self):
        _, res, trace = self._traced(512)
        long = next(r for r in res.completed if r.request_id == "long")
        chunks = [
            e for e in trace.of_kind(EventType.PREFILL_CHUNK)
            if e.request_id == "long"
        ]
        last = chunks[-1]
        assert long.first_token == pytest.approx(
            last.time + last.data["seconds"]
        )

    def test_trace_latencies_exact_in_chunked_mode(self):
        _, res, trace = self._traced(512)
        lat = request_latencies(trace)
        for r in res.completed:
            assert lat[r.request_id] == r.e2e_latency  # no tolerance

    def test_reserve_budget_returns_to_zero(self):
        inst, res, _ = self._traced(512)
        assert len(res.completed) == 9
        assert inst._peak_sum == 0 and inst.used_tokens == 0

    def test_zero_response_chunked(self):
        z = ServingRequest("z", 0.0, 1500, 0)
        inst, res, trace = self._traced(512, reqs=[z])
        assert z.finish is not None and z.generated == 0
        assert z.finish == z.first_token  # prefill only
        assert len(trace.of_kind(EventType.PREFILL_CHUNK)) == 3
        assert inst._peak_sum == 0

    def test_chunked_with_dynamic_admission_completes(self):
        reqs = [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)]
        inst, res, trace = self._traced(512, reqs=reqs, admission="dynamic")
        assert len(res.completed) == 24
        assert all(r.finish is not None for r in res.completed)
        assert len(trace.of_kind(EventType.PREEMPT)) > 0

    def test_partial_prefill_preempted_first(self):
        # PREEMPT events carry the prefilled counter; victims taken
        # mid-prefill re-run their chunks from scratch
        reqs = [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)]
        _, res, trace = self._traced(512, reqs=reqs, admission="dynamic")
        preempts = trace.of_kind(EventType.PREEMPT)
        assert all("prefilled" in e.data for e in preempts)
        for r in res.completed:
            assert r.prefilled == r.prompt_len  # fully refilled by the end


class TestFirstTokenPreservedAcrossPreemption:
    """Regression: a victim re-admitted after recompute preemption must
    keep its *earliest* first_token — the client already received those
    tokens — instead of re-measuring TTFT from the last admission."""

    def _preempted_run(self, **kw):
        inst = instance(admission="dynamic", **kw)
        reqs = [ServingRequest(f"L{i}", 0.0, 3000, 2000) for i in range(24)]
        trace = Trace()
        res = inst.run(reqs, trace=trace)
        victims = [r for r in res.completed if r.preemptions > 0]
        assert victims, "scenario must actually preempt"
        return res, trace, victims

    def test_first_token_before_readmission(self):
        _, trace, victims = self._preempted_run()
        for v in victims:
            admits = [
                e for e in trace.of_kind(EventType.ADMIT)
                if e.request_id == v.request_id
            ]
            assert len(admits) == v.preemptions + 1
            preempt = next(
                e for e in trace.of_kind(EventType.PREEMPT)
                if e.request_id == v.request_id
            )
            if preempt.data["generated"] > 0:
                # emitted tokens before eviction: TTFT anchored there
                assert v.first_token <= preempt.time
                assert v.first_token < admits[-1].time

    def test_ttft_monotone_under_preemption(self):
        res, _, victims = self._preempted_run()
        for v in victims:
            assert v.ttft < v.e2e_latency
            assert v.tbot > 0.0

    def test_chunked_preemption_also_preserves(self):
        _, trace, victims = self._preempted_run(chunk_size=512)
        finishes = {e.request_id: e for e in trace.of_kind(EventType.FINISH)}
        for v in victims:
            assert finishes[v.request_id].data["first_token"] == v.first_token


class TestAllRejectedStream:
    """Regression: a stream where every request is rejected used to
    crash ``LatencySummary.from_requests`` with ValueError."""

    def _all_rejected(self, **kw):
        inst = instance(**kw)
        reqs = [
            ServingRequest(f"big{i}", 0.1 * i, inst.token_budget + 10, 10)
            for i in range(3)
        ]
        trace = Trace()
        res = inst.run(reqs, trace=trace)
        assert len(res.completed) == 0 and len(res.rejected) == 3
        return res, trace

    def test_summary_degenerate_not_raise(self):
        res, _ = self._all_rejected()
        s = LatencySummary.from_requests(res.requests)
        assert s == LatencySummary.degenerate()
        assert s.as_dict()["tbot"] == 0.0

    def test_step_metrics_well_defined(self):
        _, trace = self._all_rejected()
        m = StepMetrics.from_trace(trace)
        assert m.rejects == 3 and m.decode_steps == 0
        assert m.max_decode_gap == 0.0 and m.p99_tbot == 0.0


class TestDecodeStepPayloadUnified:
    """Regression: continuous-mode DECODE_STEP events omitted the
    ``live`` field static mode records, so trace rendering diverged."""

    PAYLOAD = {"batch", "kv", "seconds", "used_tokens", "token_budget", "live"}

    def _steps(self, engine):
        inst = instance(engine=engine)
        trace = Trace()
        inst.run(
            [ServingRequest(f"r{i}", 0.1 * i, 256, 16) for i in range(4)],
            trace=trace,
        )
        return trace.of_kind(EventType.DECODE_STEP)

    def test_continuous_records_live(self):
        steps = self._steps(LMDEPLOY)
        assert steps
        for e in steps:
            assert set(e.data) == self.PAYLOAD
            assert e.data["live"] == e.data["batch"]  # membership == batch

    def test_static_payload_matches(self):
        steps = self._steps(TRL)
        assert steps
        for e in steps:
            assert set(e.data) == self.PAYLOAD
            assert e.data["live"] <= e.data["batch"]


class TestPipelinePlumbing:
    def test_simulate_serving_chunked(self):
        pipe = CompressedGenerationPipeline("fp16")
        res = pipe.simulate_serving(
            long_prompt_scenario(), chunk_size=512, with_trace=True
        )
        assert len(res.completed) == 9
        assert len(res.trace.of_kind(EventType.PREFILL_CHUNK)) > 0

    def test_serving_instance_knob(self):
        pipe = CompressedGenerationPipeline("kivi-4")
        inst = pipe.serving_instance(chunk_size=256)
        assert inst.chunk_size == 256
