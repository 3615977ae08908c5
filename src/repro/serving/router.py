"""Request router combining the paper's throughput and length predictors.

Reproduces the Section 5.4 experiment: four serving instances, one
running FP16 and three running a compression algorithm, with four
routing policies:

- ``load_balance`` — the baseline: route to the instance with the least
  outstanding KV tokens (the paper's "minimum memory usage").
- ``throughput``  — route to the instance whose *predicted* decode
  throughput for this request is highest.
- ``length``      — route to the instance with the smallest *predicted*
  response length.
- ``both``        — route to the instance with the smallest predicted
  end-to-end latency (prefill + predicted length / predicted decode
  throughput + queued work).
- ``slo``         — route a deadlined arrival to the instance most
  likely to meet its TTFT deadline: maximize predicted slack
  (``ttft_deadline − (backlog drain + own prefill)``), with the backlog
  estimated from live queue depth and KV-token occupancy in online mode
  (the decayed load model offline).  Deadline-free arrivals fall back to
  least-loaded, keeping lightly loaded instances available for urgent
  traffic.
- ``prefix``      — cache-affinity routing: send an arrival to the
  instance holding the longest cached prefix of its prompt
  (``ServerInstance.peek_prefix`` against each instance's live
  :class:`~repro.serving.prefix.PrefixIndex` in online mode; a sticky
  prompt-head -> instance map offline), falling back to least-loaded
  when nobody holds anything.  Ties (a shared system prompt warm on
  several instances) break by least live load.  Keeps a conversation's
  turns — and all sharers of a system prompt — landing where their KV
  already lives.
- ``compression`` — compression-aware routing (the live-loop version of
  the paper's Section 5 tooling): score every instance by predicted
  end-to-end latency (length predictor x throughput predictor + live
  backlog), discounted by the instance's cached prefix of this prompt,
  then inflated by a soft risk penalty on compressed instances (the
  negative-sample risk score — a request likely to *degrade* under
  compression should prefer lossless serving), by KV-occupancy
  pressure, and by predicted TTFT-deadline overrun.  A configurable
  ``risk_threshold`` adds a hard quality gate: requests whose risk
  crosses it are kept off compressed instances entirely (a ``REROUTE``
  trace event records each denial).  With ``fallback=True`` the gate
  goes optimistic, VeriCache-style: risky requests may decode
  compressed for fast first tokens, but any compressed decode that
  fails post-hoc verification (``verify_fn``, defaulting to the same
  risk-threshold test) is re-enqueued on the least-loaded FP16 instance
  at its finish instant (``FALLBACK`` event) — lossy serving made
  lossless at a measurable goodput cost.
  :meth:`RouterResult.effective_summary` reports the client-visible
  latencies with each fallback re-decode folded into its original
  request (arrival and first token stay the original's).

Two routing modes share these policies:

- **offline** (:meth:`Router.serve`, the seed path and Table 8 parity
  option): assignments are made up front from predictor estimates and a
  decayed load model, then each per-instance stream is replayed.
- **online** (:meth:`Router.serve_online`): the whole fleet runs as a
  :class:`~repro.serving.cluster.Cluster` on one shared clock, and each
  request is dispatched at its arrival instant against *live* queue
  depth and KV-token occupancy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.cluster import Cluster, InstanceView
from repro.serving.metrics import LatencySummary
from repro.serving.request import ServingRequest
from repro.serving.simulator import ServerInstance, SimulationResult
from repro.serving.trace import EventType, Trace

#: router verify-and-fallback re-decodes run under this suffix
FALLBACK_SUFFIX = "#fb"

#: (algo_name, batch, kv_len) -> predicted decode tokens/second
ThroughputFn = Callable[[str, int, int], float]
#: (request, algo_name) -> predicted response tokens
LengthFn = Callable[["RoutedRequest", str], float]
#: request -> negative-sample risk score in [0, 1]
RiskFn = Callable[["RoutedRequest"], float]
#: request -> True when a compressed decode fails verification
VerifyFn = Callable[["RoutedRequest"], bool]


class RoutingPolicy(enum.Enum):
    """Routing policies evaluated in Table 8."""

    LOAD_BALANCE = "load_balance"
    THROUGHPUT = "throughput"
    LENGTH = "length"
    BOTH = "both"
    SLO = "slo"
    PREFIX = "prefix"
    COMPRESSION = "compression"


@dataclass
class RoutedRequest:
    """A request plus its per-algorithm true response lengths.

    ``ttft_deadline`` / ``tbot_target`` are optional per-request SLO
    targets, forwarded onto the concrete :class:`ServingRequest` and
    used by the ``slo`` routing policy.
    """

    request_id: str
    arrival: float
    prompt_len: int
    intended_len: int
    lengths_by_algo: Dict[str, int]
    ttft_deadline: Optional[float] = None
    tbot_target: Optional[float] = None
    token_ids: Optional[Tuple[int, ...]] = None  # for prefix affinity/caching
    #: negative-sample risk score in [0, 1] — the ``compression`` policy
    #: reads it (unless the Router was given a ``risk_fn``); 0 / unset
    #: means "safe under any compression algorithm"
    risk: Optional[float] = None


@dataclass
class RouterResult:
    """Merged outcome of a routed simulation."""

    results: List[SimulationResult]
    assignment: Dict[str, int]
    mode: str = "offline"
    #: original request id -> fallback re-decode id (``<rid>#fb``) for
    #: every verify-and-fallback re-enqueue this run performed
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: risk-gate denials: requests redirected off a compressed instance
    reroutes: int = 0

    def all_requests(self) -> List[ServingRequest]:
        """Every request record across the fleet (fallback re-decodes
        included, as their own ``<rid>#fb`` records)."""
        return [r for res in self.results for r in res.requests]

    def mean_e2e(self) -> float:
        """Average end-to-end latency over all served requests (0.0 when
        nothing completed, matching ``LatencySummary``'s degenerate
        handling)."""
        lats = self.all_e2e()
        return float(lats.mean()) if lats.size else 0.0

    def all_e2e(self) -> np.ndarray:
        """All end-to-end latencies (empty when nothing completed)."""
        arrays = [r.e2e for r in self.results if len(r.completed)]
        if not arrays:
            return np.empty(0)
        return np.concatenate(arrays)

    def latency_summary(self) -> LatencySummary:
        """Fleet-wide summary including mean TBOT and queue delay."""
        return LatencySummary.from_requests(self.all_requests())

    def effective_requests(self) -> List[ServingRequest]:
        """One record per *logical* request, fallbacks folded in.

        A completed fallback re-decode replaces its original's finish
        time and token count — the client keeps the compressed stream's
        first token (``first_token`` and ``arrival`` stay the
        original's) but is only done once the verified lossless decode
        lands.  A fallback that was rejected or never finished leaves
        the original record untouched.
        """
        if not self.fallbacks:
            return self.all_requests()
        by_id = {r.request_id: r for r in self.all_requests()}
        fb_ids = set(self.fallbacks.values())
        merged: List[ServingRequest] = []
        for req in self.all_requests():
            if req.request_id in fb_ids:
                continue  # folded into its original below
            fb = by_id.get(self.fallbacks.get(req.request_id, ""))
            if fb is not None and not fb.rejected and fb.finish is not None:
                merged.append(
                    replace(req, finish=fb.finish, generated=fb.generated)
                )
            else:
                merged.append(req)
        return merged

    def effective_summary(self) -> LatencySummary:
        """Client-visible fleet summary over :meth:`effective_requests`."""
        return LatencySummary.from_requests(self.effective_requests())


class Router:
    """Greedy predictor-guided router over heterogeneous instances."""

    def __init__(
        self,
        instances: Sequence[ServerInstance],
        algos: Sequence[str],
        policy: RoutingPolicy,
        throughput_fn: Optional[ThroughputFn] = None,
        length_fn: Optional[LengthFn] = None,
        risk_fn: Optional[RiskFn] = None,
        risk_threshold: float = 0.5,
        fallback: bool = False,
        verify_fn: Optional[VerifyFn] = None,
    ) -> None:
        if len(instances) != len(algos):
            raise ValueError("one algorithm label per instance required")
        needs_tp = policy in (RoutingPolicy.THROUGHPUT, RoutingPolicy.BOTH)
        needs_len = policy in (RoutingPolicy.LENGTH, RoutingPolicy.BOTH)
        if needs_tp and throughput_fn is None:
            raise ValueError(f"{policy} requires a throughput predictor")
        if needs_len and length_fn is None:
            raise ValueError(f"{policy} requires a length predictor")
        if risk_threshold < 0.0:
            raise ValueError("risk_threshold must be >= 0")
        if fallback and policy is not RoutingPolicy.COMPRESSION:
            raise ValueError("verify-and-fallback requires the compression policy")
        self.instances = list(instances)
        self.algos = list(algos)
        self.policy = policy
        self.throughput_fn = throughput_fn
        self.length_fn = length_fn
        self.risk_fn = risk_fn
        self.risk_threshold = float(risk_threshold)
        self.fallback = bool(fallback)
        self.verify_fn = verify_fn
        # a compressed instance loses fidelity on negative samples; same
        # test the prefix-sharing gate uses (quantized or sparse KV)
        self._compressed = [
            inst.comp.kv_bytes_ratio < 1.0 or inst.comp.sparse_budget is not None
            for inst in self.instances
        ]
        # offline prefix affinity: prompt head -> instance that saw it
        # first (no live cache state exists before the replay runs)
        self._prefix_home: Dict[Tuple[int, ...], int] = {}
        self._home_key_len = 32
        # per-run verify-and-fallback state (reset by serve/serve_online)
        self._routed_by_rid: Dict[str, Tuple[RoutedRequest, float]] = {}
        self._fallbacks: Dict[str, str] = {}
        self._fb_assignment: Dict[str, int] = {}
        self._reroutes = 0

    # ------------------------------------------------------------------
    def _drain_rates(self) -> np.ndarray:
        """Rough decode drain rate per instance (tokens/s)."""
        return np.array(
            [
                inst.cost_model.decode_throughput(8, 1024, inst.comp) or 1.0
                for inst in self.instances
            ]
        )

    def _estimate(
        self,
        req: RoutedRequest,
        idx: int,
        load_tokens: np.ndarray,
        load_seconds: np.ndarray,
    ) -> Tuple[float, float, float]:
        """(pred_throughput, pred_length, pred_e2e) for instance ``idx``."""
        algo = self.algos[idx]
        inst = self.instances[idx]
        pred_len = (
            self.length_fn(req, algo)
            if self.length_fn
            else float(req.intended_len)
        )
        active = 1 + int(load_tokens[idx] / max(1, req.prompt_len + pred_len))
        active = min(active, inst.max_batch)
        kv = int(req.prompt_len + pred_len / 2)
        per_seq_rate = 1.0
        if self.throughput_fn:
            # per-sequence decode rate at the load this request would join
            per_seq_rate = self.throughput_fn(algo, active, kv) / active
        prefill = inst.prefill_seconds(req.prompt_len)
        decode = pred_len / max(per_seq_rate, 1e-6)
        e2e = load_seconds[idx] + prefill + decode
        return per_seq_rate, pred_len, e2e

    def _slo_slack(
        self, req: RoutedRequest, idx: int, load_seconds: np.ndarray
    ) -> float:
        """Predicted TTFT slack on instance ``idx``: deadline minus the
        backlog drain plus this request's own prefill."""
        prefill = self.instances[idx].prefill_seconds(req.prompt_len)
        return req.ttft_deadline - (load_seconds[idx] + prefill)

    # ------------------------------------------------------------------
    # compression-aware scoring
    # ------------------------------------------------------------------
    def _risk(self, req: RoutedRequest) -> float:
        """Negative-sample risk score for a request, floored at 0."""
        if self.risk_fn is not None:
            risk = self.risk_fn(req)
        else:
            risk = getattr(req, "risk", None) or 0.0
        return max(0.0, float(risk))

    def _instance_risks(self, req: RoutedRequest, risk: float) -> np.ndarray:
        """The scalar negative-sample risk localised per instance.

        With a length predictor, an instance whose algorithm is
        predicted to keep the full response carries no risk for this
        request — a sample fragile only under sparsification can still
        be served losslessly-in-effect by a quantised instance.  The
        scalar risk concentrates on the instances predicted to contract
        the response (normalised by the worst predicted contraction).
        Without a length signal every compressed instance carries the
        full scalar risk.  Lossless instances always carry zero.
        """
        n = len(self.instances)
        if risk <= 0.0:
            return np.zeros(n)
        if self.length_fn is not None:
            intended = max(float(req.intended_len), 1.0)
            contraction = np.array(
                [
                    max(
                        0.0,
                        1.0 - self.length_fn(req, self.algos[i]) / intended,
                    )
                    if self._compressed[i]
                    else 0.0
                    for i in range(n)
                ]
            )
            if contraction.max() > 0.0:
                return risk * contraction / contraction.max()
        # no length signal to localise the risk: spread it
        return np.where(self._compressed, risk, 0.0)

    def _compression_score(
        self,
        req: RoutedRequest,
        idx: int,
        load_tokens: np.ndarray,
        load_seconds: np.ndarray,
        occupancy: np.ndarray,
        queue_depth: np.ndarray,
        cached: int,
        risk: float,
    ) -> float:
        """Lower is better: backlog and marginal work priced in
        instance-seconds at the instance's true effective rate,
        prefix-discounted, inflated by quality risk, occupancy pressure
        and predicted SLO overrun."""
        inst = self.instances[idx]
        algo = self.algos[idx]
        prefill = inst.prefill_seconds(req.prompt_len)
        pred_len = (
            self.length_fn(req, algo)
            if self.length_fn
            else float(req.intended_len)
        )
        kv = int(req.prompt_len + pred_len / 2)
        batch = max(inst.max_batch, 1)
        tp = (
            self.throughput_fn(algo, batch, kv)
            if self.throughput_fn
            else inst.cost_model.decode_throughput(batch, kv, inst.comp)
        ) or 1.0
        # instance-seconds one request of this shape consumes: its
        # prefill is serial, its decode claims pred_len tokens out of
        # the full-batch aggregate rate — prefill is compute-bound and
        # near-identical across compression variants, so effective
        # rates differ far less than raw decode throughput suggests
        service = prefill + pred_len / max(tp, 1e-6)
        eff_rate = (req.prompt_len + pred_len) / max(service, 1e-9)
        # backlog priced at the instance's own effective rate: the
        # faster instance genuinely clears the same token backlog
        # sooner and should absorb proportionally more traffic
        wait = load_tokens[idx] / eff_rate
        score = wait + service
        if cached > 0:
            # live cached prefix: admission will only price the suffix
            saved = prefill - inst.prefill_seconds(
                req.prompt_len - cached, cached
            )
            score = max(score - saved, 1e-9)
        # soft risk penalty: requests prefer instances predicted not to
        # degrade them, even below the hard threshold (``risk`` here is
        # this instance's localised risk — zero on lossless instances)
        score *= 1.0 + risk
        # occupancy pressure: a near-full KV budget means queueing and
        # preemption risk the load model can't see yet
        score *= 1.0 + occupancy[idx] ** 2
        if req.ttft_deadline is not None:
            overrun = (wait + prefill) - req.ttft_deadline
            if overrun > 0:
                score *= 1.0 + overrun / max(req.ttft_deadline, 1e-6)
        return score

    def _compression_pick(
        self,
        req: RoutedRequest,
        load_tokens: np.ndarray,
        load_seconds: np.ndarray,
        occupancy: np.ndarray,
        queue_depth: np.ndarray,
        cached: Optional[Sequence[int]],
        risk: float,
    ) -> Tuple[int, Optional[int]]:
        """Best instance plus, when the risk gate fired, the compressed
        instance the score alone would have chosen."""
        n = len(self.instances)
        inst_risk = self._instance_risks(req, risk)
        scores = np.array(
            [
                self._compression_score(
                    req, i, load_tokens, load_seconds, occupancy,
                    queue_depth, cached[i] if cached is not None else 0,
                    float(inst_risk[i]),
                )
                for i in range(n)
            ]
        )
        best = int(np.argmin(scores))
        if self.fallback:
            return best, None  # optimistic: verify after the decode
        # hard gate, per instance: any instance whose localised risk
        # crosses the threshold is off-limits for this request
        blocked = inst_risk >= self.risk_threshold
        if not blocked[best]:
            return best, None
        allowed = ~blocked
        if not allowed.any():
            return best, None  # nowhere safe to send it
        gated = np.where(allowed, scores, np.inf)
        return int(np.argmin(gated)), best

    def _occupancy_offline(self, load_tokens: np.ndarray) -> np.ndarray:
        budgets = np.array(
            [inst.token_budget for inst in self.instances], dtype=float
        )
        return load_tokens / np.maximum(budgets, 1.0)

    def _pick(self, req, load_tokens, load_seconds) -> int:
        n = len(self.instances)
        if self.policy == RoutingPolicy.LOAD_BALANCE:
            return int(np.argmin(load_tokens))
        if self.policy == RoutingPolicy.PREFIX:
            # offline: no live cache to probe — sticky-route each prompt
            # head to the instance that first saw it, least-loaded else
            ids = getattr(req, "token_ids", None)
            if ids is None:
                return int(np.argmin(load_tokens))
            key = tuple(ids[: self._home_key_len])
            idx = self._prefix_home.get(key)
            if idx is None:
                idx = int(np.argmin(load_tokens))
                self._prefix_home[key] = idx
            return idx
        if self.policy == RoutingPolicy.SLO:
            if getattr(req, "ttft_deadline", None) is None:
                # deadline-free: spread by load, keeping fast instances
                # free for urgent traffic
                return int(np.argmin(load_tokens))
            return int(np.argmax(
                [self._slo_slack(req, i, load_seconds) for i in range(n)]
            ))
        if self.policy == RoutingPolicy.COMPRESSION:
            # offline has no live caches or queues to probe: no prefix
            # discount, no queue-depth term
            idx, denied = self._compression_pick(
                req, load_tokens, load_seconds,
                self._occupancy_offline(load_tokens),
                np.zeros(n), None, self._risk(req),
            )
            if denied is not None:
                self._reroutes += 1
            return idx
        est = [self._estimate(req, i, load_tokens, load_seconds) for i in range(n)]
        if self.policy == RoutingPolicy.THROUGHPUT:
            # highest *per-sequence* decode rate this request would see
            return int(np.argmax([e[0] for e in est]))
        if self.policy == RoutingPolicy.LENGTH:
            return int(np.argmin([e[1] for e in est]))
        return int(np.argmin([e[2] for e in est]))

    def _pick_online(
        self,
        req: RoutedRequest,
        views: Sequence[InstanceView],
        drain: np.ndarray,
        now: float = 0.0,
    ) -> int:
        """Choose an instance from *live* queue depth and occupancy."""
        load_tokens = np.array(
            [v.used_tokens + v.waiting_tokens for v in views], dtype=float
        )
        # live backlog converted to seconds via each instance's drain rate
        load_seconds = load_tokens / np.maximum(drain, 1e-6)
        if self.policy == RoutingPolicy.PREFIX:
            # cache affinity against the *live* prefix indices: longest
            # cached prefix wins, least-loaded when nobody holds any
            ids = getattr(req, "token_ids", None)
            if ids is not None:
                cached = np.array(
                    [inst.peek_prefix(ids) for inst in self.instances]
                )
                best = cached.max()
                if best > 0:
                    # several instances may hold equally long prefixes (a
                    # shared system prompt warm everywhere): break the tie
                    # by least live load, not instance order
                    tied = np.where(cached == best, load_tokens, np.inf)
                    return int(np.argmin(tied))
            return int(np.argmin(load_tokens))
        if self.policy == RoutingPolicy.COMPRESSION:
            ids = getattr(req, "token_ids", None)
            cached = (
                [inst.peek_prefix(ids) for inst in self.instances]
                if ids is not None
                else None
            )
            risk = self._risk(req)
            occupancy = np.array([v.occupancy for v in views])
            queue_depth = np.array(
                [v.queue_depth for v in views], dtype=float
            )
            # compression-aware load accounting: a sparse cache caps the
            # KV it holds per sequence, so a sparse instance's
            # used_tokens under-report its live work by ~kv/cap — taken
            # at face value the sparse instance looks near-idle and
            # attracts the whole fleet's overflow
            kv_typ = req.prompt_len + float(req.intended_len) / 2.0
            sparse_corr = np.array(
                [
                    max(1.0, kv_typ / inst.comp.sparse_budget)
                    if inst.comp.sparse_budget is not None
                    else 1.0
                    for inst in self.instances
                ]
            )
            used = np.array([v.used_tokens for v in views], dtype=float)
            waiting = np.array(
                [v.waiting_tokens for v in views], dtype=float
            )
            load_corr = used * sparse_corr + waiting
            # drain-neutral backlog pricing: admission wait is dominated
            # by prefill compute and the concurrency cap, both identical
            # across compression variants — pricing backlog with each
            # instance's *decode* rate would let the compressed
            # instances absorb deep queues before the lossless one ever
            # looks attractive.  Instance speed still enters through the
            # request's own prefill + decode terms in the score.
            mean_drain = float(np.mean(np.maximum(drain, 1e-6)))
            idx, denied = self._compression_pick(
                req, load_corr, load_corr / mean_drain, occupancy,
                queue_depth, cached, risk,
            )
            self._routed_by_rid[req.request_id] = (req, risk)
            if denied is not None:
                self._reroutes += 1
                self.instances[idx].record_event(
                    now, EventType.REROUTE, req.request_id,
                    risk=risk, threshold=self.risk_threshold, denied=denied,
                )
            return idx
        return self._pick(req, load_tokens, load_seconds)

    def _make_request(self, req: RoutedRequest, idx: int) -> ServingRequest:
        algo = self.algos[idx]
        true_len = req.lengths_by_algo[algo]
        pred_len = self.length_fn(req, algo) if self.length_fn else None
        return ServingRequest(
            request_id=req.request_id,
            arrival=req.arrival,
            prompt_len=req.prompt_len,
            response_len=max(1, true_len),
            predicted_len=pred_len,
            ttft_deadline=req.ttft_deadline,
            tbot_target=req.tbot_target,
            token_ids=req.token_ids,
        )

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[RoutedRequest],
        online: bool = False,
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> RouterResult:
        """Assign and simulate ``requests``; returns merged latencies.

        ``online=False`` (default) keeps the seed's offline assignment;
        ``online=True`` delegates to :meth:`serve_online`.  ``telemetry``
        (opt-in) is forwarded to the cluster so one sink aggregates the
        whole fleet.
        """
        if online:
            return self.serve_online(requests, trace=trace, telemetry=telemetry)
        if self.fallback:
            raise ValueError(
                "verify-and-fallback re-enqueues at finish instants; it "
                "requires online routing (serve_online)"
            )
        self._reset_run_state()
        n = len(self.instances)
        load_tokens = np.zeros(n)
        load_seconds = np.zeros(n)
        streams: List[List[ServingRequest]] = [[] for _ in range(n)]
        assignment: Dict[str, int] = {}
        # rough drain rate for the live-load decay (tokens/s per instance)
        drain = self._drain_rates()
        last_arrival = 0.0
        for req in sorted(requests, key=lambda r: r.arrival):
            dt = req.arrival - last_arrival
            last_arrival = req.arrival
            load_tokens = np.maximum(0.0, load_tokens - drain * dt)
            load_seconds = np.maximum(0.0, load_seconds - dt)
            idx = self._pick(req, load_tokens, load_seconds)
            algo = self.algos[idx]
            true_len = req.lengths_by_algo[algo]
            streams[idx].append(self._make_request(req, idx))
            assignment[req.request_id] = idx
            load_tokens[idx] += req.prompt_len + true_len
            per_tok = 1.0 / max(drain[idx], 1e-6)
            load_seconds[idx] += true_len * per_tok * 4
        cluster = Cluster(self.instances)
        results = cluster.run(streams, trace=trace, telemetry=telemetry)
        return RouterResult(
            results=results, assignment=assignment, mode="offline",
            reroutes=self._reroutes,
        )

    def serve_online(
        self,
        requests: Sequence[RoutedRequest],
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> RouterResult:
        """Route each request at its arrival instant on a shared-clock
        cluster, using live queue depth and KV-token occupancy."""
        self._reset_run_state()
        drain = self._drain_rates()
        cluster = Cluster(self.instances)
        self._install_fallback(cluster)
        results, assignment = cluster.run_online(
            requests,
            pick=lambda req, views, now: self._pick_online(req, views, drain, now),
            make=lambda req, idx, now: self._make_request(req, idx),
            trace=trace,
            telemetry=telemetry,
        )
        assignment.update(self._fb_assignment)
        return RouterResult(
            results=results, assignment=assignment, mode="online",
            fallbacks=dict(self._fallbacks), reroutes=self._reroutes,
        )

    # ------------------------------------------------------------------
    # verify-and-fallback
    # ------------------------------------------------------------------
    def _reset_run_state(self) -> None:
        """Per-serve state: a reused Router must not carry a previous
        run's affinity map, risk table or fallback bookkeeping."""
        self._prefix_home.clear()
        self._routed_by_rid.clear()
        self._fallbacks.clear()
        self._fb_assignment.clear()
        self._reroutes = 0

    def _needs_fallback(
        self, routed: RoutedRequest, risk: float, idx: int
    ) -> bool:
        """Post-hoc verification of a compressed decode on ``idx``.

        ``verify_fn`` models an output-quality check that only exists
        *after* the decode (VeriCache's verification pass); without one,
        the serving instance's localised risk against the threshold is
        all we have — the same criterion the hard gate applies a priori
        when the fallback path is off.
        """
        if self.verify_fn is not None:
            return bool(self.verify_fn(routed))
        inst_risk = self._instance_risks(routed, risk)
        return float(inst_risk[idx]) >= self.risk_threshold

    def _on_instance_finish(
        self, cluster: Cluster, idx: int, req: ServingRequest, at: float
    ) -> None:
        rid = req.request_id
        if not self._compressed[idx] or rid in self._fallbacks:
            return
        entry = self._routed_by_rid.get(rid)
        if entry is None:
            return  # a fallback re-decode, or not routed by this run
        routed, risk = entry
        if not self._needs_fallback(routed, risk, idx):
            return
        lossless = [i for i, c in enumerate(self._compressed) if not c]
        if not lossless:
            return
        views = cluster.views()
        loads = [
            views[i].used_tokens + views[i].waiting_tokens for i in lossless
        ]
        target = lossless[int(np.argmin(loads))]
        algo = self.algos[target]
        fb = ServingRequest(
            request_id=rid + FALLBACK_SUFFIX,
            arrival=at,
            prompt_len=req.prompt_len,
            response_len=max(1, routed.lengths_by_algo[algo]),
            token_ids=req.token_ids,
        )
        self._fallbacks[rid] = fb.request_id
        self._fb_assignment[fb.request_id] = target
        self.instances[target].record_event(
            at, EventType.FALLBACK, rid,
            risk=risk, threshold=self.risk_threshold,
            generated=req.generated, refill=fb.response_len,
        )
        cluster.route_to(target, fb)

    def _install_fallback(self, cluster: Cluster) -> None:
        """Arm (or disarm) the per-instance completion hooks for this
        run; hooks survive ``attach()`` so they must be reset here."""
        armed = self.policy is RoutingPolicy.COMPRESSION and self.fallback
        for idx, inst in enumerate(self.instances):
            inst.on_finish = (
                partial(self._on_instance_finish, cluster, idx)
                if armed
                else None
            )
