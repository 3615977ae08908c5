"""Event-driven simulator of serving instances.

One :class:`ServerInstance` is a state machine driven by a shared
:class:`~repro.serving.events.EventLoop`: request arrivals and engine
wake-ups are timed events, and each wake-up performs one unit of work —
admit-and-prefill one request, or run decode steps for the running
batch.  Both batching disciplines run on the same loop:

- *continuous* (iteration-level, LMDeploy/vLLM-style): requests join
  and leave the batch between decode steps; each step is priced for the
  batch's **current** membership and KV lengths, so a request finishing
  mid-block immediately re-prices its peers' steps.
- *static* (eager TRL): a batch is formed, prefilled together, and
  decoded until all members finish; steps stay priced at the formed
  batch size (stragglers hold their padded slots).

With ``chunk_size`` set, continuous mode runs Sarathi/vLLM-style
**chunked prefill**: a prompt longer than the chunk is admitted and
filled chunk by chunk, each chunk alternating with one decode step for
the running batch, so a 3k-token prefill no longer stalls every running
decode for its whole duration.  Each chunk is priced by
``ServingCostModel.prefill_chunk`` (its cost grows with the cached
prefix it attends over), partially-prefilled requests count toward the
KV budget, and under dynamic admission they are the *first* preemption
victims (dropping chunk KV loses no emitted tokens).  ``chunk_size=None``
(the default) reproduces single-shot prefill bit-for-bit; static mode
ignores the knob (eager engines prefill the whole batch at once).

With a :class:`~repro.serving.prefix.PrefixIndex` attached, admission
runs **automatic prefix caching**: a prompt whose leading KV blocks are
already resident (same tokens, same position — matched content-
addressed, like vLLM's prefix caching / SGLang's RadixAttention) starts
with ``req.prefilled = cached`` and only the uncached suffix is priced,
via the same ``prefill_chunk`` model chunked prefill uses — the two
features compose.  Completed prefills register their prompt's blocks
for future arrivals.  Sharing is FP16-only: a compressed instance
(``kv_bytes_ratio < 1`` or a sparse budget) never shares, since evicted
or quantized blocks no longer hold what their content hash promises —
the paper's Section 3.1.2 friction between compression and paged reuse.

Admission is gated by a KV-token budget derived from the memory model.
Two admission modes exist: ``"reserve"`` (seed behaviour — a request's
peak KV footprint is reserved at admission, so the budget can never be
exhausted mid-decode) and ``"dynamic"`` (only the live footprint
counts; decode growth can exhaust the budget, triggering vLLM-style
recompute **preemption** of a policy-chosen victim).  Requests whose
peak footprint exceeds the budget outright are *rejected* with a
recorded failure instead of stalling the clock.

Admission order and preemption victims come from a pluggable
:class:`~repro.serving.scheduler.SchedulerPolicy` (FCFS by default).
Every decision can be recorded in a :class:`~repro.serving.trace.Trace`
for step-level observability (``python -m repro.cli trace``), and the
same event stream can opt-in feed a live
:class:`~repro.serving.telemetry.Telemetry` sink (metrics registry +
dashboard series; ``python -m repro.cli dashboard``) — with
``telemetry=None`` (the default) the instrumentation adds nothing and
traces stay bit-for-bit identical to an uninstrumented run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import CompressionCostSpec
from repro.engines.base import ServingCostModel
from repro.serving.events import EventLoop
from repro.serving.prefix import PrefixIndex
from repro.serving.request import ServingRequest
from repro.serving.scheduler import FCFSPolicy, SchedulerPolicy
from repro.serving.telemetry.core import active as _active_telemetry
from repro.serving.trace import EventType, Trace, TraceEvent

ADMISSION_MODES = ("reserve", "dynamic")


@dataclass
class SimulationResult:
    """Outcome of serving a request stream on one instance."""

    requests: List[ServingRequest]
    trace: Optional[Trace] = None

    @property
    def completed(self) -> List[ServingRequest]:
        """Requests that were actually served."""
        return [r for r in self.requests if not r.rejected]

    @property
    def rejected(self) -> List[ServingRequest]:
        """Requests dropped because they could never fit the budget."""
        return [r for r in self.requests if r.rejected]

    def _collect(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.completed])

    @property
    def e2e(self) -> np.ndarray:
        """Per-request end-to-end latencies (served requests only)."""
        return self._collect("e2e_latency")

    @property
    def ttft(self) -> np.ndarray:
        """Per-request times to first token."""
        return self._collect("ttft")

    def mean_e2e(self) -> float:
        """Average end-to-end latency (Table 8's headline metric)."""
        lats = self.e2e
        return float(lats.mean()) if lats.size else 0.0

    def percentile_e2e(self, q: float) -> float:
        """E2E latency percentile (e.g. 99 for tail latency)."""
        lats = self.e2e
        return float(np.percentile(lats, q)) if lats.size else 0.0


class ServerInstance:
    """One GPU (or TP group) running one compression configuration."""

    def __init__(
        self,
        cost_model: ServingCostModel,
        comp: CompressionCostSpec,
        max_batch: int = 64,
        decode_block: int = 8,
        scheduler: Optional[SchedulerPolicy] = None,
        admission: str = "reserve",
        chunk_size: Optional[int] = None,
        prefix_cache: Optional[PrefixIndex] = None,
        name: str = "",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for single-shot)")
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got {admission!r}"
            )
        self.cost_model = cost_model
        self.comp = comp
        self.max_batch = max_batch
        self.decode_block = decode_block
        self.scheduler = scheduler or FCFSPolicy()
        self.admission = admission
        self.chunk_size = chunk_size
        self.prefix_cache = prefix_cache
        self.name = name
        self.token_budget = self._token_budget()
        self._step_cache: Dict[Tuple[int, int], float] = {}
        self._loop: Optional[EventLoop] = None
        self._trace: Optional[Trace] = None
        self._telemetry = None
        # optional (request, finish_time) completion hook — the router's
        # verify-and-fallback path re-enqueues suspect decodes from here.
        # Deliberately not reset by attach(): the owner installs it once
        # per run, before the cluster attaches instances to the loop.
        self.on_finish: Optional[Callable[[ServingRequest, float], None]] = None
        self._init_state()

    def _token_budget(self) -> int:
        """KV tokens that fit alongside weights and workspace."""
        spec = self.cost_model._memory_spec(self.comp)
        mem = self.cost_model.memory
        lo, hi = 0, 4_000_000
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mem.breakdown(spec, 1, mid).fits:
                lo = mid
            else:
                hi = mid - 1
        return lo

    @property
    def _prefix_shareable(self) -> bool:
        """Whether this instance can reuse cached prefixes at all.

        FP16 only: quantized or sparsely-evicted KV blocks diverge from
        the content their hash promises (paper Section 3.1.2), and
        static batching has no per-request admission to consult a cache
        from.
        """
        return (
            self.prefix_cache is not None
            and self.comp.kv_bytes_ratio == 1.0
            and self.comp.sparse_budget is None
            and self.cost_model.engine.supports_continuous_batching
        )

    def peek_prefix(self, token_ids: Optional[Sequence[int]]) -> int:
        """Cached-prefix tokens this instance holds for ``token_ids``
        (pure probe for cache-affinity routing; no stats, no LRU touch)."""
        if not self._prefix_shareable or token_ids is None:
            return 0
        return self.prefix_cache.peek(token_ids)

    def _prefix_lookup(self, now: float, req: ServingRequest) -> int:
        """Resident-prefix tokens for an admission; records PREFIX_HIT.

        ``saved_seconds`` is the single-shot prefill delta the reuse
        avoids — telemetry, not the priced cost (a chunked admission's
        actual schedule differs).
        """
        if not self._prefix_shareable or req.token_ids is None:
            return 0
        cached = min(self.prefix_cache.lookup(req.token_ids), req.prompt_len - 1)
        req.cached_prefix = cached
        if self._telemetry is not None:
            self._telemetry.on_prefix_lookup(cached)
            self._telemetry.sample_prefix(self.prefix_cache)
        if cached:
            saved = (
                self.cost_model.prefill(1, req.prompt_len, self.comp).seconds
                - self.cost_model.prefill_chunk(
                    1, req.prompt_len - cached, cached, self.comp
                ).seconds
            )
            self._record(
                now, EventType.PREFIX_HIT, req.request_id,
                cached=cached, prompt=req.prompt_len, saved_seconds=saved,
            )
        return cached

    def _prefix_insert(self, req: ServingRequest) -> None:
        """Register a fully-prefilled prompt's blocks for future reuse."""
        if self._prefix_shareable and req.token_ids is not None:
            self.prefix_cache.insert(req.token_ids)
            if self._telemetry is not None:
                self._telemetry.sample_prefix(self.prefix_cache)

    def _request_tokens(self, req: ServingRequest) -> int:
        """KV tokens a request will occupy at its peak.

        The peak is static per (request, compression config), so it is
        memoized on the request — admission feasibility, overflow checks
        and ``waiting_tokens`` probe it constantly.
        """
        key = self.comp.sparse_budget
        cache = req.peak_cache
        if cache is not None and cache[0] == key:
            return cache[1]
        total = req.total_tokens
        if key is not None:
            total = min(total, key + req.response_len)
        req.peak_cache = (key, total)
        return total

    def _live_tokens(self, req: ServingRequest) -> int:
        """KV tokens a request occupies right now (dynamic admission)."""
        return min(req.prompt_len + max(1, req.generated), self._request_tokens(req))

    # ------------------------------------------------------------------
    # event-loop attachment
    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        self._waiting: List[ServingRequest] = []
        # arrived requests whose peak footprint exceeds the budget:
        # flagged once at enqueue (the peak is static), so the per-wake
        # rejection pass is O(1) when nothing is doomed instead of a
        # full queue scan
        self._doomed: List[ServingRequest] = []
        # whether the waiting queue is arrival-sorted (loop events fire
        # in time order, so only an out-of-order requeue breaks it) —
        # lets FCFS-like policies take the head without a scan
        self._waiting_sorted = True
        self._running: List[ServingRequest] = []
        self._future: List[float] = []  # arrival times not yet reached
        self._used = 0
        self._wake_at: Optional[float] = None
        self._submitted: List[ServingRequest] = []
        # chunked-prefill state: the request currently mid-prefill, and
        # whose turn the next wake-up is (chunk vs decode step)
        self._prefilling: Optional[ServingRequest] = None
        self._decode_turn = False
        # static-batching state
        self._sbatch: List[ServingRequest] = []
        self._sbatch_size = 0
        self._sstep = 0
        self._smax_prompt = 0

    def attach(
        self,
        loop: EventLoop,
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> None:
        """Bind this instance to a (possibly shared) event loop.

        ``telemetry`` is an opt-in :class:`~repro.serving.telemetry.
        Telemetry` sink: every recorded event is also folded into its
        metrics registry, and each wake-up samples live gauges.  Left
        ``None`` (or passed a disabled sink), nothing is published and
        the run is bit-for-bit the uninstrumented one.
        """
        self._loop = loop
        self._trace = trace
        self._telemetry = _active_telemetry(telemetry)
        self._init_state()

    def submit(self, req: ServingRequest) -> None:
        """Schedule a request's arrival on the attached loop."""
        assert self._loop is not None, "attach() before submit()"
        self._submitted.append(req)
        heapq.heappush(self._future, req.arrival)
        self._loop.schedule(req.arrival, partial(self._on_arrival, req))

    def expect(self, at: float) -> None:
        """Pre-register a *possible* future arrival time.

        The online routing path decides the target instance only at the
        arrival instant, after any in-flight decode block has already
        been simulated past it — so without advance notice a routed
        request waited up to a full ``decode_block`` before admission
        was even considered, while ``submit()`` arrivals broke the block
        at their arrival time.  ``Cluster.run_online`` calls this on
        every instance for every arrival; entries that turn out to be
        someone else's request are pruned at the next wake-up.
        """
        heapq.heappush(self._future, at)

    def receive(self, req: ServingRequest) -> None:
        """Accept a request *now* (online routing path).

        Consumes the matching :meth:`expect` entry exactly like
        ``_on_arrival`` does for ``submit()``, so both paths admit
        mid-decode-block arrivals with identical queue delays.
        """
        assert self._loop is not None, "attach() before receive()"
        self._submitted.append(req)
        if self._future and self._future[0] <= req.arrival:
            heapq.heappop(self._future)
        self._enqueue(req)
        self._ensure_wake()

    def result(self) -> SimulationResult:
        """Collect the outcome after the loop has drained."""
        reqs = sorted(self._submitted, key=lambda r: r.arrival)
        return SimulationResult(requests=reqs, trace=self._trace)

    # live state (read by Cluster / online Router)
    @property
    def queue_depth(self) -> int:
        """Requests waiting (arrived, not yet admitted)."""
        return len(self._waiting)

    @property
    def running_count(self) -> int:
        """Requests currently decoding or mid-prefill."""
        mid = 1 if self._prefilling is not None else 0
        return len(self._running) + len(self._sbatch) + mid

    @property
    def used_tokens(self) -> int:
        """Live KV-token occupancy."""
        if self.admission == "dynamic":
            live = sum(self._live_tokens(r) for r in self._running)
            if self._prefilling is not None:
                live += self._prefilling.prefilled
        else:
            live = self._used
        return live + self._static_used()

    @property
    def waiting_tokens(self) -> int:
        """Peak KV tokens of everything still queued.

        Requests flagged doomed at enqueue are excluded: they sit in
        the waiting queue only until the next wake-up's rejection pass,
        and their (over-budget, often huge) peaks would show phantom
        load to an online router probing ``InstanceView.occupancy`` in
        that window — misrouting real arrivals toward other instances
        while this one is actually about to free up.
        """
        total = sum(self._request_tokens(r) for r in self._waiting)
        if self._doomed:
            total -= sum(self._request_tokens(r) for r in self._doomed)
        return total

    def _static_used(self) -> int:
        return sum(self._request_tokens(r) for r in self._sbatch)

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[ServingRequest],
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> SimulationResult:
        """Serve ``requests`` on a private event loop; returns latencies."""
        telemetry = _active_telemetry(telemetry)
        loop = EventLoop(telemetry=telemetry)
        self.attach(loop, trace, telemetry)
        for r in sorted(requests, key=lambda r: r.arrival):
            self.submit(r)
        loop.run()
        return self.result()

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, req: ServingRequest) -> None:
        if self._future and self._future[0] <= req.arrival:
            heapq.heappop(self._future)
        self._enqueue(req)
        self._ensure_wake()

    def _enqueue(self, req: ServingRequest) -> None:
        """Append to the waiting queue, flagging can-never-fit requests
        for the next wake-up's rejection pass."""
        waiting = self._waiting
        if waiting:
            if req.arrival < waiting[-1].arrival:
                self._waiting_sorted = False
        else:
            self._waiting_sorted = True  # removals preserve order
        waiting.append(req)
        if self._request_tokens(req) > self.token_budget:
            self._doomed.append(req)

    def _ensure_wake(self) -> None:
        if self._wake_at is None:
            self._schedule_wake(self._loop.now)

    def _schedule_wake(self, at: float) -> None:
        self._wake_at = at
        self._loop.schedule(at, self._wake)

    def record_event(
        self, time: float, kind: EventType, rid: str = "", **data
    ) -> None:
        """Public trace/telemetry append attributed to this instance.

        The router uses this to emit fleet-level decisions (``REROUTE``
        / ``FALLBACK``) into the same trace stream the instance writes,
        so folds and spans see one consistent timeline per request.
        """
        self._record(time, kind, rid, **data)

    def _record(self, time: float, kind: EventType, rid: str = "", **data) -> None:
        trace, tel = self._trace, self._telemetry
        if tel is None:
            if trace is not None:
                # columnar traces decompose the payload straight into
                # the columns; no TraceEvent object is built at all
                trace.record_fields(time, kind, rid, self.name, data)
            return
        event = TraceEvent(time, kind, rid, self.name, data)
        if trace is not None:
            trace.append(event)
        tel.on_event(event)

    def _record_admit(self, now: float, req: ServingRequest) -> None:
        """ADMIT event carrying the (re)queue epoch and SLO targets."""
        data = {
            "arrival": req.arrival,
            "queued_at": req.queued_at if req.queued_at is not None else req.arrival,
        }
        if req.ttft_deadline is not None:
            data["ttft_deadline"] = req.ttft_deadline
        if req.tbot_target is not None:
            data["tbot_target"] = req.tbot_target
        self._record(now, EventType.ADMIT, req.request_id, **data)

    def _wake(self) -> None:
        self._wake_at = None
        now = self._loop.now
        if self._telemetry is not None:
            self._telemetry.sample_instance(now, self)
        # drop stale expected-arrival entries: every arrival event at or
        # before `now` has already fired (setup-scheduled events precede
        # same-time wake-ups), so anything left is an online arrival
        # that was routed to a different instance
        while self._future and self._future[0] <= now:
            heapq.heappop(self._future)
        self._reject_impossible(now)
        if self.cost_model.engine.supports_continuous_batching:
            self._wake_continuous(now)
        else:
            self._wake_static(now)

    def _reject_impossible(self, now: float) -> None:
        """Drop arrived requests whose peak footprint can never fit.

        Only the requests flagged at enqueue are visited (the waiting
        queue holds arrived requests only — arrivals are loop events —
        and the budget and each peak are static), in queue order.
        """
        if not self._doomed:
            return
        for req in self._doomed:
            self._waiting.remove(req)
            req.rejected = True
            self._record(
                now, EventType.REJECT, req.request_id,
                need=self._request_tokens(req),
                token_budget=self.token_budget,
            )
        self._doomed.clear()

    def _reject(self, now: float, req: ServingRequest, need: int) -> None:
        self._waiting.remove(req)
        req.rejected = True
        self._record(
            now, EventType.REJECT, req.request_id,
            need=need, token_budget=self.token_budget,
        )

    # ------------------------------------------------------------------
    # continuous (iteration-level) batching
    # ------------------------------------------------------------------
    def _wake_continuous(self, now: float) -> None:
        if self._prefilling is not None:
            # a chunked prefill is in progress: alternate one decode
            # step with each chunk so running requests keep emitting
            # tokens while the long prompt fills in
            if self._running and self._decode_turn:
                self._decode(now, limit=1)
            else:
                self._prefill_chunk(now)
            return
        if self._try_admit(now):
            return
        if self._running:
            self._decode(now)
        # else: idle — the next arrival event re-wakes us

    def _admit_need(self, req: ServingRequest) -> int:
        if self.admission == "dynamic":
            return self._live_tokens(req)
        return self._request_tokens(req)

    def _try_admit(self, now: float) -> bool:
        """Admit (and prefill) one request if the policy's pick fits."""
        # the waiting queue holds arrived requests only (arrivals are
        # loop events fired at their arrival time), so no re-filter
        arrived = self._waiting
        if not arrived or len(self._running) >= self.max_batch:
            return False
        if self.scheduler.head_of_sorted and self._waiting_sorted:
            req = arrived[0]  # FCFS on a sorted queue: head-of-line
        else:
            req = arrived[self.scheduler.select(arrived, now)]
        need = self._admit_need(req)
        if self.used_tokens + need > self.token_budget:
            return False  # head-of-line stall until a finish frees budget
        if req.kv_ready:
            # disaggregated decode-stage ingest: the prompt KV arrived
            # with the request (the prefill was priced on the prefill
            # pool and the move by the interconnect model), so admission
            # costs nothing here — the request goes straight to the
            # running batch with its prompt KV counted against the
            # budget.  The prefix index is not consulted or updated:
            # migrated blocks were never hashed on this instance.
            self._waiting.remove(req)
            req.prefill_start = now
            self._record_admit(now, req)
            if req.first_token is None:
                req.first_token = now
            req.prefilled = req.prompt_len
            if req.generated == 0:
                req.generated = 1 if req.response_len > 0 else 0
            if req.done:
                self._finish(req, now)
            else:
                self._running.append(req)
                if self.admission == "reserve":
                    self._used += need
            self._schedule_wake(now)
            return True
        cached = self._prefix_lookup(now, req)
        if (
            self.chunk_size is not None
            and req.prompt_len - cached > self.chunk_size
        ):
            return self._admit_chunked(now, req, need, cached)
        if cached:
            # only the uncached suffix runs; the resident prefix is
            # attended over, not recomputed (prefill_chunk prices that)
            cost = self.cost_model.prefill_chunk(
                1, req.prompt_len - cached, cached, self.comp
            )
        else:
            cost = self.cost_model.prefill(1, req.prompt_len, self.comp)
        if cost.oom:
            self._reject(now, req, need)
            self._schedule_wake(now)
            return True
        self._waiting.remove(req)
        req.prefill_start = now
        self._record_admit(now, req)
        data = {"seconds": cost.seconds, "prompt": req.prompt_len}
        if cached:
            data["cached"] = cached
        self._record(now, EventType.PREFILL, req.request_id, **data)
        end = now + cost.seconds
        if req.first_token is None:  # preserved across recompute preemption
            req.first_token = end
        req.prefilled = req.prompt_len
        req.generated = 1 if req.response_len > 0 else 0
        self._prefix_insert(req)
        if req.done:
            self._finish(req, end)
        else:
            self._running.append(req)
            if self.admission == "reserve":
                self._used += need
        self._schedule_wake(end)
        return True

    def _admit_chunked(
        self, now: float, req: ServingRequest, need: int, cached: int = 0
    ) -> bool:
        """Start a chunked prefill: the prompt fills chunk by chunk,
        interleaved with decode steps for the running batch.  A cached
        prefix is already-filled KV, so chunking starts there."""
        self._waiting.remove(req)
        req.prefill_start = now
        req.prefilled = cached
        self._record_admit(now, req)
        self._prefilling = req
        if self.admission == "reserve":
            self._used += need
        self._prefill_chunk(now)
        return True

    def _prefill_chunk(self, now: float) -> None:
        """Run the next chunk of the in-progress prefill."""
        req = self._prefilling
        chunk = min(self.chunk_size, req.prompt_len - req.prefilled)
        cost = self.cost_model.prefill_chunk(
            1, chunk, req.prefilled, self.comp
        )
        if cost.oom:
            # a later chunk can OOM on activation memory even when the
            # first fit; the request can never complete here — drop it
            self._prefilling = None
            if self.admission == "reserve":
                self._used -= self._request_tokens(req)
            req.prefilled = 0
            req.rejected = True
            self._record(
                now, EventType.REJECT, req.request_id,
                need=self._request_tokens(req), token_budget=self.token_budget,
            )
            self._schedule_wake(now)
            return
        end = now + cost.seconds
        req.prefilled += chunk
        self._record(
            now, EventType.PREFILL_CHUNK, req.request_id,
            seconds=cost.seconds, chunk=chunk,
            prefilled=req.prefilled, prompt=req.prompt_len,
        )
        if req.prefilled >= req.prompt_len:
            self._prefilling = None
            if req.first_token is None:
                req.first_token = end
            req.generated = 1 if req.response_len > 0 else 0
            self._prefix_insert(req)
            if req.done:
                if self.admission == "reserve":
                    self._used -= self._request_tokens(req)
                self._finish(req, end)
            else:
                self._running.append(req)
        self._decode_turn = True  # decodes get the next slot
        self._schedule_wake(end)

    def _finish(self, req: ServingRequest, at: float) -> None:
        req.finish = at
        data = {
            "arrival": req.arrival,
            "first_token": req.first_token,
            "generated": req.generated,
        }
        if req.ttft_deadline is not None:
            data["ttft_deadline"] = req.ttft_deadline
            if req.first_token - req.arrival > req.ttft_deadline:
                data["ttft_miss"] = 1
        if req.tbot_target is not None:
            data["tbot_target"] = req.tbot_target
            if (
                req.generated > 1
                and (at - req.first_token) / (req.generated - 1)
                > req.tbot_target
            ):
                data["tbot_miss"] = 1
        self._record(at, EventType.FINISH, req.request_id, **data)
        if self.on_finish is not None:
            self.on_finish(req, at)

    def _decode_kv_len(self, running: List[ServingRequest]) -> int:
        lens = [r.prompt_len + r.generated for r in running]
        return int(np.mean(lens)) if lens else 0

    def _step_seconds(self, batch: int, kv: int) -> float:
        key = (batch, kv)
        cached = self._step_cache.get(key)
        if cached is None:
            cached = self.cost_model.decode_step(batch, kv, self.comp).seconds
            self._step_cache[key] = cached
        return cached

    def _decode(self, now: float, limit: Optional[int] = None) -> None:
        """Run up to ``decode_block`` steps (or ``limit`` while a chunked
        prefill is interleaving); stop early whenever batch membership
        changes (finish/preempt) so every step is priced for the batch
        actually executing it, or when a new arrival lands.

        Preemption runs *before* each step is priced (vLLM-style): the
        budget check uses the footprint the step is about to write, so
        the executing step always fits.  The pre-fix simulator preempted
        after the step, letting the overflowing step itself be priced
        against a state the memory model rejects — ``seconds=inf`` —
        and silently running the clock to infinity.

        Within one burst the batch membership is constant, so the
        per-step accounting is precomputed on arrays for the whole
        block (:meth:`_decode_burst`): the first-finisher step from the
        minimum remaining response, the budget-overflow horizon from
        the batch's cumulative KV growth, and the trace writes as one
        columnar append.  Steps that hit a boundary the burst cannot
        model — budget overflow forcing a preemption, or a cost-model
        OOM (``seconds=inf``) — fall back to :meth:`_decode_step_slow`,
        the original single-step logic.  Both paths make identical
        decisions at identical clocks.
        """
        clock = now
        self._decode_turn = False
        remaining = self.decode_block if limit is None else limit
        while remaining > 0 and self._running:
            ran, clock, stop = self._decode_burst(clock, remaining)
            remaining -= ran
            if stop or remaining <= 0:
                break
            clock, stop = self._decode_step_slow(clock)
            remaining -= 1
            if stop:
                break
        self._schedule_wake(clock)

    def _decode_burst(
        self, clock: float, max_steps: int
    ) -> Tuple[int, float, bool]:
        """Run consecutive fixed-membership decode steps in bulk.

        Returns ``(steps_ran, clock, stop)``; ``stop`` means the block
        is over (a finish or a mid-block arrival — the same break
        points as the per-step loop).  ``steps_ran == 0`` with
        ``stop=False`` means the very next step needs the slow path
        (preemption pressure or an OOM-priced step).
        """
        running = self._running
        batch = len(running)
        # steps until the earliest finisher leaves the batch (>= 1:
        # running requests are never done)
        fin = min(r.response_len - r.generated for r in running)
        k = fin if fin < max_steps else max_steps
        extra = (
            self._prefilling.prefilled if self._prefilling is not None else 0
        )
        if self.admission == "dynamic":
            # pre-step budget check for step j: every member grows one
            # KV token per step, capped at its peak — find the horizon
            # where the batched footprint first overflows
            base = np.fromiter(
                (r.prompt_len + r.generated for r in running),
                np.int64, count=batch,
            )
            peak = np.fromiter(
                (self._request_tokens(r) for r in running),
                np.int64, count=batch,
            )
            budget = self.token_budget - extra
            if int(peak.sum()) > budget:
                for j in range(k):
                    if int(np.minimum(base + (j + 1), peak).sum()) > budget:
                        k = j
                        break
            if k <= 0:
                return 0, clock, False  # slow path preempts first
        kv_sum = sum(r.prompt_len + r.generated for r in running)
        next_arr = self._future[0] if self._future else None
        inf = float("inf")
        times: List[float] = []
        kvs: List[int] = []
        dts: List[float] = []
        executed = 0
        stop = False
        for _ in range(k):
            # int(sum / batch) is exactly int(np.mean(lengths)) for
            # lengths whose sum stays exact in float64
            kv = int(kv_sum / batch)
            dt = self._step_seconds(batch, kv)
            if dt == inf:
                break  # slow path evicts or drops
            clock += dt
            kv_sum += batch
            times.append(clock)
            kvs.append(kv)
            dts.append(dt)
            executed += 1
            if executed == fin:
                stop = True  # this step finished someone
                break
            if next_arr is not None and next_arr <= clock:
                stop = True  # a new arrival landed mid-block
                break
        if executed == 0:
            return 0, clock, stop
        for r in running:
            r.generated += executed
        trace, tel = self._trace, self._telemetry
        if trace is not None or tel is not None:
            if self.admission == "dynamic":
                steps = np.arange(1, executed + 1)
                used = [
                    int(u) + extra
                    for u in np.minimum(
                        base[None, :] + steps[:, None], peak
                    ).sum(axis=1)
                ]
            else:
                used = self._used + self._static_used()
            # the whole burst lands in one batched call per sink
            if trace is not None:
                trace.record_decode_steps(
                    self.name, times, batch, kvs, dts, used,
                    self.token_budget,
                )
            if tel is not None:
                tel.on_decode_steps(
                    self.name, times, batch, kvs, dts, used,
                    self.token_budget,
                )
        if executed == fin:
            for r in [r for r in running if r.done]:
                running.remove(r)
                if self.admission == "reserve":
                    self._used -= self._request_tokens(r)
                self._finish(r, clock)
        return executed, clock, stop

    def _decode_step_slow(self, clock: float) -> Tuple[float, bool]:
        """One decode step with the original per-step logic — handles
        the boundaries the burst cannot: pre-step preemption pressure
        and OOM-priced (``seconds=inf``) steps.  Returns ``(clock,
        stop)`` with ``stop=True`` when the block must end (membership
        changed, a drop, or a mid-block arrival)."""
        preempted = False
        if self.admission == "dynamic":
            preempted = self._preempt_if_needed(clock, pre_step=True)
        if not self._running:
            return clock, True
        batch = len(self._running)
        kv = self._decode_kv_len(self._running)
        dt = self._step_seconds(batch, kv)
        while dt == float("inf") and self._evict_victim(clock):
            # memory-model OOM the token budget missed (per-batch
            # workspace overhead): evict one victim and re-price
            preempted = True
            batch = len(self._running)
            kv = self._decode_kv_len(self._running)
            dt = self._step_seconds(batch, kv)
        if dt == float("inf"):
            # a request whose decode can never fit: drop the
            # scheduler's victim (the request whose footprint caused
            # the OOM, per policy) rather than spinning the clock to
            # infinity
            victim = self._running.pop(
                self.scheduler.victim(self._running, clock)
            )
            if self.admission == "reserve":
                self._used -= self._request_tokens(victim)
            victim.rejected = True
            self._record(
                clock, EventType.REJECT, victim.request_id,
                need=self._request_tokens(victim),
                token_budget=self.token_budget,
                generated=victim.generated,
            )
            return clock, True
        clock += dt
        for r in self._running:
            r.generated += 1
        self._record(
            clock, EventType.DECODE_STEP,
            batch=batch, kv=kv, seconds=dt,
            used_tokens=self.used_tokens, token_budget=self.token_budget,
            live=len(self._running),
        )
        changed = preempted
        for r in [r for r in self._running if r.done]:
            self._running.remove(r)
            if self.admission == "reserve":
                self._used -= self._request_tokens(r)
            self._finish(r, clock)
            changed = True
        if changed:
            return clock, True  # membership changed: re-price next wake
        if self._future and self._future[0] <= clock:
            return clock, True  # a new arrival landed mid-block
        return clock, False

    def _overflow(self, pre_step: bool = False) -> bool:
        """Live footprint (decoding + partially-prefilled) over budget?

        With ``pre_step=True`` the check uses the footprint *after* the
        step about to run (each running request writes one more KV
        token), so the step that executes is guaranteed to fit.
        """
        grow = 1 if pre_step else 0
        live = sum(
            min(
                r.prompt_len + max(1, r.generated) + grow,
                self._request_tokens(r),
            )
            for r in self._running
        )
        if self._prefilling is not None:
            live += self._prefilling.prefilled
        return live > self.token_budget

    def _evict_victim(self, clock: float) -> bool:
        """Evict one request to reclaim memory and requeue it for
        recompute.  A partially-prefilled request is the first victim —
        dropping its chunk KV loses no emitted tokens — then the
        policy's pick among the decoding batch (never the last one, so
        forward progress is guaranteed)."""
        if self._prefilling is not None:
            victim = self._prefilling
            self._prefilling = None
        elif len(self._running) > 1:
            victim = self._running.pop(
                self.scheduler.victim(self._running, clock)
            )
        else:
            return False
        if self.admission == "reserve":
            self._used -= self._request_tokens(victim)
        self._record(
            clock, EventType.PREEMPT, victim.request_id,
            generated=victim.generated,
            prefilled=victim.prefilled,
            requeued_at=clock,
            used_tokens=self.used_tokens,
            token_budget=self.token_budget,
        )
        victim.generated = 0  # recompute-style: KV dropped, re-prefill
        victim.prefilled = 0
        victim.cached_prefix = 0  # re-admission consults the index afresh
        victim.kv_ready = False  # migrated KV dropped too: re-prefill here
        victim.preemptions += 1
        victim.queued_at = clock  # queue delay restarts at the requeue
        self._enqueue(victim)
        return True

    def _preempt_if_needed(self, clock: float, pre_step: bool = False) -> bool:
        """Evict victims until the live footprint fits the budget."""
        preempted = False
        while self._overflow(pre_step) and self._evict_victim(clock):
            preempted = True
        return preempted

    # ------------------------------------------------------------------
    # static batching (engines without continuous batching)
    # ------------------------------------------------------------------
    def _wake_static(self, now: float) -> None:
        if self._sbatch:
            self._static_decode(now)
            return
        self._form_static_batch(now)

    def _form_static_batch(self, now: float) -> None:
        if not self._waiting:
            return  # idle until the next arrival
        batch: List[ServingRequest] = []
        used = 0
        pool = list(self._waiting)
        take_head = self.scheduler.head_of_sorted and self._waiting_sorted
        while pool and len(batch) < self.max_batch:
            req = pool[0] if take_head else pool[self.scheduler.select(pool, now)]
            need = self._request_tokens(req)
            if used + need > self.token_budget:
                break  # head-of-line: keep the policy's ordering
            pool.remove(req)
            used += need
            batch.append(req)
        if not batch:
            return
        max_prompt = max(r.prompt_len for r in batch)
        cost = self.cost_model.prefill(len(batch), max_prompt, self.comp)
        if cost.oom:
            widest = max(batch, key=lambda r: r.prompt_len)
            self._reject(now, widest, self._request_tokens(widest))
            self._schedule_wake(now)
            return
        end = now + cost.seconds
        for r in batch:
            self._waiting.remove(r)
            r.prefill_start = now
            self._record_admit(now, r)
            r.first_token = end
            r.generated = 1 if r.response_len > 0 else 0
        self._record(
            now, EventType.PREFILL,
            seconds=cost.seconds, batch=len(batch), prompt=max_prompt,
        )
        for r in batch:
            if r.done:
                self._finish(r, end)
        self._sbatch = [r for r in batch if not r.done]
        self._sbatch_size = len(batch)
        self._sstep = 0
        self._smax_prompt = max_prompt
        self._schedule_wake(end)

    def _static_decode(self, now: float) -> None:
        """One decode step; stragglers hold the batch, so the step stays
        priced at the *formed* batch size (padded execution)."""
        kv = self._smax_prompt + 1 + self._sstep
        dt = self._step_seconds(self._sbatch_size, kv)
        clock = now + dt
        for r in self._sbatch:
            r.generated += 1
        self._record(
            clock, EventType.DECODE_STEP,
            batch=self._sbatch_size, kv=kv, seconds=dt,
            used_tokens=self.used_tokens, token_budget=self.token_budget,
            live=len(self._sbatch),
        )
        for r in [r for r in self._sbatch if r.done]:
            self._sbatch.remove(r)
            self._finish(r, clock)
        self._sstep += 1
        if not self._sbatch:
            self._sbatch_size = 0
        self._schedule_wake(clock)
