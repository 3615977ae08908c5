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
  decoded until all members finish; steps stay priced padded, at the
  formed batch size and the widest prompt (stragglers hold their padded
  slots).  Static bursts run through the same decode path as
  continuous ones.

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
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import CompressionCostSpec
from repro.engines.base import ServingCostModel
from repro.serving.events import EventLoop
from repro.serving.prefix import PrefixIndex
from repro.serving.request import ServingRequest
from repro.serving.scheduler import FCFSPolicy, SchedulerPolicy, WaitingQueue
from repro.serving.trace import EventType, Trace, TraceEvent

ADMISSION_MODES = ("reserve", "dynamic")
_INF = float("inf")


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
        # static batches admit by peak whatever ``admission`` says
        self._dynamic = (
            admission == "dynamic"
            and cost_model.engine.supports_continuous_batching
        )
        # a sparse budget caps each member's live footprint at its peak,
        # so the dynamic footprint is summed member by member; without
        # one it is the running-batch aggregate ``_kv_sum``
        self._per_member = self._dynamic and comp.sparse_budget is not None
        self.chunk_size = chunk_size
        self.prefix_cache = prefix_cache
        self.name = name
        # memoized prices, shared by every instance on this cost model
        # serving the same spec: replicas price each distinct step once
        self._prices = cost_model.prices(comp)
        self.token_budget = self._prices.token_budget
        self._loop: Optional[EventLoop] = None
        self._trace: Optional[Trace] = None
        self._telemetry = None
        # optional (request, finish_time) completion hook — the router's
        # verify-and-fallback path re-enqueues suspect decodes from here.
        # Deliberately not reset by attach(): the owner installs it once
        # per run, before the cluster attaches instances to the loop.
        self.on_finish: Optional[Callable[[ServingRequest, float], None]] = None
        self._init_state()

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
            full = self.prefill_seconds(req.prompt_len)
            suffix = self.prefill_seconds(req.prompt_len - cached, cached)
            self._record(
                now, EventType.PREFIX_HIT, req.request_id,
                cached=cached, prompt=req.prompt_len,
                saved_seconds=full - suffix,
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
        memoized on the request — admission feasibility, overflow checks,
        and every waiting-queue push and removal probe it constantly.
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
        # arrived requests in the policy's admission order
        self._waiting = WaitingQueue(self.scheduler)
        # arrived requests whose peak footprint exceeds the budget:
        # flagged once at enqueue (the peak is static), so the per-wake
        # rejection pass is O(1) when nothing is doomed instead of a
        # full queue scan
        self._doomed: List[ServingRequest] = []
        # the running batch: continuous members, or the static batch
        self._running: List[ServingRequest] = []
        # running-batch aggregates, kept by _join/_leave and the decode
        # steps: the KV sum (prompt + generated over _running), the peak
        # sum (the reserve-admission ledger) and the steps until the
        # first member finishes (None: rescan on use)
        self._kv_sum = 0
        self._peak_sum = 0
        self._min_left: Optional[int] = None
        self._future: List[float] = []  # arrival times not yet reached
        self._wake_at: Optional[float] = None
        self._submitted: List[ServingRequest] = []
        # chunked-prefill state: the request currently mid-prefill, and
        # whose turn the next wake-up is (chunk vs decode step)
        self._prefilling: Optional[ServingRequest] = None
        self._decode_turn = False
        # static batch: its formed size and widest prompt, the shape
        # its padded steps are priced at (0: continuous batching)
        self._sbatch_size = 0
        self._smax_prompt = 0

    def attach(self, loop: EventLoop) -> None:
        """Bind this instance to a (possibly shared) event loop and to
        the trace and opt-in telemetry sinks the loop holds."""
        self._loop = loop
        self._trace = loop.trace
        self._telemetry = loop.telemetry
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
        self._on_arrival(req)

    def result(self) -> SimulationResult:
        """Collect the outcome after the loop has drained."""
        reqs = sorted(self._submitted, key=lambda r: r.arrival)
        return SimulationResult(requests=reqs, trace=self._trace)

    # live state (read by Cluster / online Router)
    @property
    def queue_depth(self) -> int:
        """Requests waiting (arrived, not yet admitted)."""
        return len(self._waiting.requests)

    @property
    def running_count(self) -> int:
        """Requests currently decoding or mid-prefill."""
        return len(self._running) + (self._prefilling is not None)

    @property
    def used_tokens(self) -> int:
        """Live KV-token occupancy (reserve admission: the peaks held)."""
        pre = self._prefilling
        if self._dynamic:
            if self._per_member:
                live = sum(self._live_tokens(r) for r in self._running)
            else:
                # a running member holds 1 <= generated <= response, so
                # its live footprint is prompt + generated: its _kv_sum term
                live = self._kv_sum
            return live + (pre.prefilled if pre is not None else 0)
        return self._peak_sum + (
            self._request_tokens(pre) if pre is not None else 0
        )

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
        total = self._waiting.tokens
        if self._doomed:
            total -= sum(self._request_tokens(r) for r in self._doomed)
        return total

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[ServingRequest],
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> SimulationResult:
        """Serve ``requests`` on a private event loop; returns latencies."""
        loop = EventLoop(trace, telemetry)
        self.attach(loop)
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
        """Push onto the waiting queue, flagging can-never-fit requests
        for the next wake-up's rejection pass."""
        need = self._request_tokens(req)
        self._waiting.push(req, need)
        if need > self.token_budget:
            self._doomed.append(req)

    def _dequeue(self, req: ServingRequest) -> None:
        """Remove ``req`` from the waiting queue (pushed with its peak)."""
        self._waiting.remove(req, self._request_tokens(req))

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
        """Record one event; ``DECODE_STEP`` rows come in bursts through
        :meth:`_decode_burst` instead."""
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
            self._reject(now, req, self._request_tokens(req))
        self._doomed.clear()

    def _reject(self, now: float, req: ServingRequest, need: int) -> None:
        self._dequeue(req)
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
        if self._dynamic:
            return self._live_tokens(req)
        return self._request_tokens(req)

    def _try_admit(self, now: float) -> bool:
        """Admit (and prefill) one request if the policy's pick fits."""
        # the waiting queue holds arrived requests only (arrivals are
        # loop events fired at their arrival time), so no re-filter
        if not self._waiting.requests or len(self._running) >= self.max_batch:
            return False
        req = self.scheduler.select(self._waiting, now)
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
            self._dequeue(req)
            req.prefill_start = now
            self._record_admit(now, req)
            self._prefilled(req, now)
            self._schedule_wake(now)
            return True
        cached = self._prefix_lookup(now, req)
        if (
            self.chunk_size is not None
            and req.prompt_len - cached > self.chunk_size
        ):
            return self._admit_chunked(now, req, cached)
        # only the uncached suffix runs; the resident prefix is attended
        # over, not recomputed
        seconds = self.prefill_seconds(req.prompt_len - cached, cached)
        if seconds == _INF:
            self._reject(now, req, need)
            self._schedule_wake(now)
            return True
        self._dequeue(req)
        req.prefill_start = now
        self._record_admit(now, req)
        data = {"seconds": seconds, "prompt": req.prompt_len}
        if cached:
            data["cached"] = cached
        self._record(now, EventType.PREFILL, req.request_id, **data)
        end = now + seconds
        self._prefix_insert(req)
        self._prefilled(req, end)
        self._schedule_wake(end)
        return True

    def _admit_chunked(
        self, now: float, req: ServingRequest, cached: int = 0
    ) -> bool:
        """Start a chunked prefill: the prompt fills chunk by chunk,
        interleaved with decode steps for the running batch.  A cached
        prefix is already-filled KV, so chunking starts there."""
        self._dequeue(req)
        req.prefill_start = now
        req.prefilled = cached
        self._record_admit(now, req)
        self._prefilling = req
        self._prefill_chunk(now)
        return True

    def _prefill_chunk(self, now: float) -> None:
        """Run the next chunk of the in-progress prefill."""
        req = self._prefilling
        chunk = min(self.chunk_size, req.prompt_len - req.prefilled)
        seconds = self.prefill_seconds(chunk, req.prefilled)
        if seconds == _INF:
            # a later chunk can OOM on activation memory even when the
            # first fit; the request can never complete here — drop it
            self._prefilling = None
            req.prefilled = 0
            req.rejected = True
            self._record(
                now, EventType.REJECT, req.request_id,
                need=self._request_tokens(req), token_budget=self.token_budget,
            )
            self._schedule_wake(now)
            return
        end = now + seconds
        req.prefilled += chunk
        self._record(
            now, EventType.PREFILL_CHUNK, req.request_id,
            seconds=seconds, chunk=chunk,
            prefilled=req.prefilled, prompt=req.prompt_len,
        )
        if req.prefilled >= req.prompt_len:
            self._prefilling = None
            self._prefix_insert(req)
            self._prefilled(req, end)
        self._decode_turn = True  # decodes get the next slot
        self._schedule_wake(end)

    def _prefilled(self, req: ServingRequest, at: float) -> None:
        """The prompt's KV is complete at ``at``: emit the first token
        (kept across recompute preemption and the prefill->decode
        handoff), then finish a request with no response or add it to
        the running batch."""
        if req.first_token is None:
            req.first_token = at
        req.prefilled = req.prompt_len
        req.generated = 1 if req.response_len > 0 else 0
        if req.done:
            self._finish(req, at)
        else:
            self._join(req)

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

    def _join(self, req: ServingRequest) -> None:
        """Add ``req`` to the running batch, keeping the aggregates."""
        self._running.append(req)
        self._kv_sum += req.prompt_len + req.generated
        self._peak_sum += self._request_tokens(req)
        if self._min_left is not None:
            self._min_left = min(self._min_left, req.response_len - req.generated)

    def _leave(self, i: int) -> ServingRequest:
        """Remove and return ``_running[i]``, keeping the aggregates."""
        req = self._running.pop(i)
        self._kv_sum -= req.prompt_len + req.generated
        self._peak_sum -= self._request_tokens(req)
        if (
            self._min_left is not None
            and req.response_len - req.generated <= self._min_left
        ):
            self._min_left = None  # it may have been the only minimum
        return req

    def _retire_done(self, clock: float) -> None:
        """Finish every done member of the running batch, in batch
        order, each leaving before its FINISH (the completion hook sees
        the batch without it)."""
        done = [i for i, r in enumerate(self._running) if r.done]
        for gone, i in enumerate(done):
            r = self._leave(i - gone)  # earlier leavers shifted it down
            self._finish(r, clock)

    def _priced_step(self) -> Tuple[int, int]:
        """The (batch, KV length) the running batch's next decode step
        is priced at.

        Continuous: the batch and its mean KV length, truncated —
        ``int(sum / batch)`` is exactly ``int(np.mean(lengths))`` for
        lengths whose sum stays exact in float64.  Static: padded, at
        the formed batch size and the widest prompt plus the tokens each
        member has generated (the members generate in lock step).
        """
        if self._sbatch_size:
            return self._sbatch_size, self._smax_prompt + self._running[0].generated
        return len(self._running), int(self._kv_sum / len(self._running))

    def prefill_seconds(
        self, tokens: int, prefix: int = 0, batch: int = 1
    ) -> float:
        """Seconds of one prefill pass of ``tokens`` new tokens per
        sequence over a ``prefix`` of cached ones, for ``batch``
        sequences; ``inf`` when it does not fit in memory.

        Read from the instance's price table (see
        :class:`~repro.engines.base.PriceTable`): admission, each chunk,
        the prefix-hit saving and a router's candidate scoring all read
        the same entries, and so do the other instances of the
        deployment.
        """
        return self._prices.prefill_seconds(tokens, prefix, batch)

    def _step_seconds(self, batch: int, kv: int) -> float:
        return self._prices.decode_seconds(batch, kv)

    def _decode(self, now: float, limit: Optional[int] = None) -> None:
        """Run up to ``decode_block`` steps (or ``limit`` while a chunked
        prefill is interleaving); stop early whenever batch membership
        changes (finish/preempt) so every step is priced for the batch
        actually executing it (a static batch's at its padded shape), or
        when a new arrival lands.

        Every step runs through :meth:`_decode_burst`, which runs the
        block's fixed-membership steps at once.  A burst stops short of
        the block at the first step it cannot run: one whose footprint
        would overflow the budget (dynamic admission) or whose price is
        a cost-model OOM (``seconds=inf``).  :meth:`_make_room` then
        evicts (or drops) requests *before* that step is priced
        (vLLM-style), so the executing step always fits — an
        overflowing step priced ``inf`` would run the clock to
        infinity — and a one-step burst runs it.  An eviction changed
        the batch, so the block ends there and the next wake-up
        re-prices.
        """
        clock = now
        self._decode_turn = False
        remaining = self.decode_block if limit is None else limit
        while remaining > 0 and self._running:
            ran, clock, stop = self._decode_burst(clock, remaining)
            remaining -= ran
            if stop or remaining <= 0:
                break
            evicted = self._make_room(clock)
            if evicted is None:
                break
            _, clock, stop = self._decode_burst(clock, 1)
            remaining -= 1
            if stop or evicted:
                break
        self._schedule_wake(clock)

    def _decode_burst(
        self, clock: float, max_steps: int
    ) -> Tuple[int, float, bool]:
        """Run consecutive fixed-membership decode steps in bulk.

        The first-finisher step comes from the running-batch aggregate
        ``_min_left``, the step prices are consecutive memo entries from
        :meth:`_priced_step` (a static batch's padded shape, or the
        aggregate KV sum), the clocks are their running sum, the
        budget-overflow horizon (dynamic admission) comes from the
        batch's KV growth — one token per member and step from
        ``_kv_sum`` without a sparse budget, member by member with one —
        and the trace and telemetry each get one call for the whole
        burst, with the members that decoded as ``live``.

        Returns ``(steps_ran, clock, stop)``; ``stop`` means the block
        is over (a finish, or an arrival at or before a step's end: that
        step is the block's last).  ``stop=False`` with fewer than
        ``max_steps`` run means the next step needs :meth:`_make_room`
        first (it would overflow the budget or is OOM-priced).
        """
        running = self._running
        live = len(running)
        # steps until the earliest finisher leaves the batch (>= 1:
        # running requests are never done)
        if self._min_left is None:
            self._min_left = min(r.response_len - r.generated for r in running)
        fin = self._min_left
        k = fin if fin < max_steps else max_steps
        extra = (
            self._prefilling.prefilled if self._prefilling is not None else 0
        )
        kv_sum = self._kv_sum
        if self._per_member:
            # pre-step budget check for step j: every member grows one
            # KV token per step, capped at its peak — find the horizon
            # where the batched footprint first overflows
            base = np.fromiter(
                (r.prompt_len + r.generated for r in running),
                np.int64, count=live,
            )
            peak = np.fromiter(
                (self._request_tokens(r) for r in running),
                np.int64, count=live,
            )
            budget = self.token_budget - extra
            if int(peak.sum()) > budget:
                for j in range(k):
                    if int(np.minimum(base + (j + 1), peak).sum()) > budget:
                        k = j
                        break
        elif self._dynamic:
            # no member reaches its peak within fin steps, so the
            # footprint after step j is kv_sum + live * j: the first
            # overflowing step is one past the floor division
            fits = (self.token_budget - extra - kv_sum) // live
            if fits < k:
                k = fits
        if k <= 0:
            return 0, clock, False  # _make_room preempts first
        # every member grows one token per step, so the priced KV length
        # rises by exactly one (for the truncated mean, int((S + j*b) / b)
        # == int(S / b) + j for exact ints): step j is priced at
        # (batch, kv0 + j)
        batch, kv0 = self._priced_step()
        next_arr = self._future[0] if self._future else None
        prices = self._prices.decode.get(batch, {})
        dts = list(map(prices.get, range(kv0, kv0 + k)))
        if None in dts:
            # price the misses in step order, only as far as the burst
            # gets (an OOM step or an arrival ends it)
            end = clock
            for j, dt in enumerate(dts):
                if dt is None:
                    dt = dts[j] = self._step_seconds(batch, kv0 + j)
                if dt == _INF:
                    break
                end += dt
                if next_arr is not None and next_arr <= end:
                    break
            del dts[j + 1:]
        if _INF in dts:
            del dts[dts.index(_INF):]  # _make_room evicts or drops
        if not dts:
            return 0, clock, False
        # the step clocks, added left to right exactly as clock += dt
        ends = accumulate(dts, initial=clock)
        next(ends)
        times = list(ends)
        stop = len(times) == fin  # the last step finishes someone
        if next_arr is not None:
            cut = bisect_left(times, next_arr)
            if cut < len(times):
                # a new arrival landed mid-block: its step is the last
                del times[cut + 1:], dts[cut + 1:]
                stop = True
        executed = len(times)
        clock = times[-1]
        for r in running:
            r.generated += executed
        self._kv_sum += live * executed
        self._min_left -= executed
        trace, tel = self._trace, self._telemetry
        if trace is not None or tel is not None:
            kvs = range(kv0, kv0 + executed)
            if self._per_member:
                steps = np.arange(1, executed + 1)
                used = [
                    int(u) + extra
                    for u in np.minimum(
                        base[None, :] + steps[:, None], peak
                    ).sum(axis=1)
                ]
            elif self._dynamic:
                # each step adds one token per member (see the horizon)
                used = [
                    kv_sum + live * j + extra for j in range(1, executed + 1)
                ]
            else:
                used = self.used_tokens  # the ledger: constant per burst
            # the whole burst lands in one batched call per sink
            if trace is not None:
                trace.record_decode_steps(
                    self.name, times, batch, kvs, dts, used,
                    self.token_budget, live,
                )
            if tel is not None:
                tel.on_decode_steps(
                    self.name, times, batch, kvs, dts, used,
                    self.token_budget, live,
                )
        if executed == fin:
            self._retire_done(clock)
        return executed, clock, stop

    def _make_room(self, clock: float) -> Optional[bool]:
        """Evict requests until the next decode step can run: under
        dynamic admission its footprint must fit the budget, and its
        price must be finite (a memory-model OOM the token budget missed,
        such as per-batch workspace overhead).

        Returns whether anything was evicted, or ``None`` when no victim
        is left and the step is still OOM-priced: the request whose
        decode can never fit (the scheduler's victim) is then dropped
        rather than spinning the clock to infinity, and the block ends.
        """
        evicted = False
        if self._dynamic:
            while self._overflow() and self._evict_victim(clock):
                evicted = True
        while self._step_seconds(*self._priced_step()) == _INF:
            if not self._evict_victim(clock):
                victim = self._leave(self.scheduler.victim(self._running, clock))
                victim.rejected = True
                self._record(
                    clock, EventType.REJECT, victim.request_id,
                    need=self._request_tokens(victim),
                    token_budget=self.token_budget,
                    generated=victim.generated,
                )
                return None
            evicted = True
        return evicted

    def _overflow(self) -> bool:
        """Would the next decode step overflow the budget?

        The footprint counted is the one *after* the step (each running
        request writes one more KV token) plus the partially-prefilled
        request's, so the step that executes is guaranteed to fit.
        Without a sparse budget no member is at its peak here (a member
        that reached it finished and left), so each adds exactly one.
        """
        if self._per_member:
            live = sum(
                min(
                    r.prompt_len + max(1, r.generated) + 1,
                    self._request_tokens(r),
                )
                for r in self._running
            )
        else:
            live = self._kv_sum + len(self._running)
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
            victim = self._leave(self.scheduler.victim(self._running, clock))
        else:
            return False
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

    # ------------------------------------------------------------------
    # static batching (engines without continuous batching)
    # ------------------------------------------------------------------
    def _wake_static(self, now: float) -> None:
        if self._running:
            self._decode(now)
        else:
            self._form_static_batch(now)

    def _form_static_batch(self, now: float) -> None:
        """Form a batch in the policy's order while the peaks fit the
        budget and the padded batch's last decode step — every member
        at the widest prompt plus the longest response, less the token
        the prefill emits — fits in memory (its price is finite: the
        steps before it hold less KV).  A lone request always fits, its
        peak being within the budget.  Members whose KV already arrived
        (``kv_ready``) are not prefilled again."""
        if not self._waiting.requests:
            return  # idle until the next arrival
        batch: List[ServingRequest] = []
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
        # one padded prefill for the members whose KV is not here yet;
        # migrated (kv_ready) members arrive with theirs
        cold = [r for r in batch if not r.kv_ready]
        end = now
        if cold:
            pad = max(cold, key=lambda r: r.prompt_len)  # the padded width
            seconds = self.prefill_seconds(pad.prompt_len, batch=len(cold))
            if seconds == _INF:
                self._reject(now, pad, self._request_tokens(pad))
                self._schedule_wake(now)
                return
            end = now + seconds
        for r in batch:
            self._dequeue(r)
            r.prefill_start = now
            self._record_admit(now, r)
        if cold:
            self._record(
                now, EventType.PREFILL,
                seconds=seconds, batch=len(cold), prompt=pad.prompt_len,
            )
        # the members the prefill finishes come first: an on_finish hook
        # sees the batch as not yet running
        for r in sorted(batch, key=lambda r: r.response_len > 1):
            self._prefilled(r, end)
        self._sbatch_size = len(batch)
        self._smax_prompt = widest
        self._schedule_wake(end)
