"""Disaggregated prefill/decode fleet with priced KV handoff.

DistServe-style pool split (Section 5 of the paper's serving analysis):
a *prefill pool* runs prompt passes only, then ships the finished KV to
a *decode pool* over an interconnect link priced by
:func:`repro.hardware.interconnect.transfer_time`.  The handoff lands as
a ``KV_TRANSFER`` trace event (bytes / seconds / tokens / link) on the
receiving decode instance, and the decode-stage request arrives with
``kv_ready=True`` so admission ingests it at zero prefill cost — the
prompt pass was already paid on the prefill pool and the move by the
link model.

Stage bookkeeping reuses the router's suffix convention: the prefill
stage of logical request ``r42`` runs as ``r42#pf`` (one response token,
deadline-free, so SLO accounting is not double-counted), and the decode
stage runs under the original id with ``first_token`` carried over from
the prefill pool — TTFT measures the prefill path, end-to-end latency
additionally pays the transfer and any decode queueing.

A fleet-level :class:`Autoscaler` closes the loop on live telemetry: on
a fixed control tick it reads queue depth and KV occupancy gauges plus
the per-tick delta of TTFT SLO misses from the metrics registry, and
activates standby instances (``SCALE_UP``) or drains active ones
(``SCALE_DOWN``) per pool.  Scale events are traced with the pool name
and the new pool size, and counted in ``fleet_scale_events_total``.

With the prefill pool empty the fleet degenerates to a monolithic
cluster: :meth:`DisaggFleet.serve` delegates straight to
:meth:`~repro.serving.cluster.Cluster.run_online`, so traces are
bit-for-bit what a plain :class:`~repro.serving.cluster.Cluster` with
the same pick function produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hardware.interconnect import (
    NVLINK_A6000,
    InterconnectSpec,
    transfer_time,
)
from repro.serving.cluster import Cluster, InstanceView
from repro.serving.events import EventLoop
from repro.serving.request import ServingRequest
from repro.serving.simulator import ServerInstance, SimulationResult
from repro.serving.telemetry.core import Telemetry
from repro.serving.trace import EventType, Trace

PREFILL_SUFFIX = "#pf"

POOLS = ("prefill", "decode")


def least_loaded(req, views: Sequence[InstanceView], now: float) -> int:
    """Default pick: fewest committed tokens, then shortest queue."""
    return min(
        range(len(views)),
        key=lambda i: (
            views[i].used_tokens + views[i].waiting_tokens,
            views[i].queue_depth,
            i,
        ),
    )


class Autoscaler:
    """Telemetry-driven control loop over the fleet's pools.

    Every ``tick`` seconds (while work is outstanding) it reads, per
    pool, the mean ``serving_queue_depth`` and ``serving_kv_occupancy``
    gauges over the pool's *active* instances, plus the fleet-wide TTFT
    attainment over the last tick (delta of ``FINISH`` events vs
    ``ttft`` SLO misses in the registry).  A pool scales up — one
    standby activated — when its queue or occupancy crosses the high
    watermark, or when attainment drops below ``ttft_target`` while the
    pool is visibly queued.  It drains one instance when both signals
    sit below the low watermarks and attainment holds, never below
    ``min_active``.  ``cooldown_ticks`` quiet ticks follow every action
    so the loop reacts to the *new* pool, not the old backlog.
    """

    def __init__(
        self,
        tick: float = 0.5,
        ttft_target: float = 0.95,
        queue_high: float = 4.0,
        queue_low: float = 0.5,
        occ_high: float = 0.85,
        occ_low: float = 0.25,
        cooldown_ticks: int = 2,
        min_active: int = 1,
    ) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        if min_active < 1:
            raise ValueError("min_active must be at least 1")
        self.tick = tick
        self.ttft_target = ttft_target
        self.queue_high = queue_high
        self.queue_low = queue_low
        self.occ_high = occ_high
        self.occ_low = occ_low
        self.cooldown_ticks = cooldown_ticks
        self.min_active = min_active
        self._fleet: Optional["DisaggFleet"] = None
        self._telemetry: Optional[Telemetry] = None
        self._last_finish = 0.0
        self._last_miss = 0.0
        self._cooldown = {pool: 0 for pool in POOLS}

    def bind(self, fleet: "DisaggFleet", telemetry: Telemetry) -> None:
        """Reset controller state for a fresh run over ``fleet``."""
        self._fleet = fleet
        self._telemetry = telemetry
        self._last_finish = 0.0
        self._last_miss = 0.0
        self._cooldown = {pool: 0 for pool in POOLS}

    # -- registry reads ------------------------------------------------
    def _slo_counts(self) -> Tuple[float, float]:
        tel, fleet = self._telemetry, self._fleet
        finishes = 0.0
        misses = 0.0
        for name in fleet.instance_names():
            finishes += tel.events_total.value(instance=name, kind="FINISH")
            misses += tel.slo_misses.value(instance=name, slo="ttft")
        return finishes, misses

    def _pool_stats(self, pool: str) -> Tuple[float, float]:
        tel = self._telemetry
        names = self._fleet.active_names(pool)
        if not names:
            return 0.0, 0.0
        # added left to right: builtin sum() of floats is compensated
        # from Python 3.12 on, and these means steer the scaling
        depth = occ = 0.0
        for n in names:
            depth += tel.queue_depth.value(instance=n)
            occ += tel.kv_occupancy.value(instance=n)
        return depth / len(names), occ / len(names)

    # -- control law ---------------------------------------------------
    def step(self, now: float) -> None:
        """One control tick: read the registry, maybe resize pools."""
        finishes, misses = self._slo_counts()
        d_fin = finishes - self._last_finish
        d_miss = misses - self._last_miss
        self._last_finish, self._last_miss = finishes, misses
        attainment = 1.0 - d_miss / d_fin if d_fin > 0 else None
        for pool in POOLS:
            self._step_pool(pool, now, attainment)

    def _step_pool(
        self, pool: str, now: float, attainment: Optional[float]
    ) -> None:
        if self._cooldown[pool] > 0:
            self._cooldown[pool] -= 1
            return
        depth, occ = self._pool_stats(pool)
        hot = depth > self.queue_high or occ > self.occ_high
        if (
            not hot
            and attainment is not None
            and attainment < self.ttft_target
            and depth > 0
        ):
            hot = True  # SLO pressure lands on whichever pool is queued
        if hot:
            if self._fleet.scale_up(pool, now):
                self._cooldown[pool] = self.cooldown_ticks
            return
        calm = (
            depth <= self.queue_low
            and occ <= self.occ_low
            and (attainment is None or attainment >= self.ttft_target)
        )
        if calm and self._fleet.scale_down(pool, now):
            self._cooldown[pool] = self.cooldown_ticks


@dataclass
class FleetResult:
    """Outcome of one :meth:`DisaggFleet.serve` run.

    ``logical`` holds one record per *logical* request — the decode
    stage for handed-off requests (with ``first_token`` from the
    prefill pool), the request itself when it was served whole, or the
    original marked ``rejected`` when its prefill stage was dropped.
    """

    logical: SimulationResult
    prefill_results: List[SimulationResult]
    decode_results: List[SimulationResult]
    #: request id -> (prefill instance index or None, decode index or None)
    assignment: Dict[str, Tuple[Optional[int], Optional[int]]]
    trace: Optional[Trace] = None
    telemetry: Optional[Telemetry] = None

    @property
    def requests(self) -> List[ServingRequest]:
        return self.logical.requests

    @property
    def completed(self) -> List[ServingRequest]:
        return self.logical.completed

    @property
    def rejected(self) -> List[ServingRequest]:
        return self.logical.rejected

    def ttft_attainment(self) -> Optional[float]:
        """Fraction of deadline-carrying requests whose first token met
        its deadline; a rejected request with a deadline counts as a
        miss (dropping work must not flatter the SLO)."""
        met = judged = 0
        for r in self.requests:
            if r.ttft_deadline is None:
                continue
            if r.rejected:
                judged += 1
            elif r.finish is not None:
                judged += 1
                met += 1 if r.ttft_met else 0
        return met / judged if judged else None


class DisaggFleet:
    """Prefill pool + decode pool on one shared discrete-event clock.

    ``prefill_active`` / ``decode_active`` bound the initially active
    prefix of each pool; the remainder are standby instances an
    :class:`Autoscaler` may activate mid-run.  With ``prefill`` empty
    the fleet runs monolithic — every instance does both phases — by
    delegating to :meth:`Cluster.run_online`, which keeps traces
    bit-for-bit identical to an undisaggregated cluster.
    """

    def __init__(
        self,
        prefill: Sequence[ServerInstance],
        decode: Sequence[ServerInstance],
        interconnect: InterconnectSpec = NVLINK_A6000,
        prefill_active: Optional[int] = None,
        decode_active: Optional[int] = None,
        autoscaler: Optional[Autoscaler] = None,
        pick=least_loaded,
    ) -> None:
        if not decode:
            raise ValueError("the decode pool needs at least one instance")
        self.prefill = list(prefill)
        self.decode = list(decode)
        self.interconnect = interconnect
        self.autoscaler = autoscaler
        self.pick = pick
        n_pf = len(self.prefill) if prefill_active is None else prefill_active
        n_dec = len(self.decode) if decode_active is None else decode_active
        if self.prefill and not 1 <= n_pf <= len(self.prefill):
            raise ValueError("prefill_active out of range")
        if not 1 <= n_dec <= len(self.decode):
            raise ValueError("decode_active out of range")
        self._pf0, self._dec0 = (n_pf if self.prefill else 0), n_dec
        if self.prefill:
            # pool-qualified names; monolithic mode keeps the Cluster
            # default ("inst{i}") so traces match the plain cluster
            for i, inst in enumerate(self.prefill):
                inst.name = f"pf{i}"
            for i, inst in enumerate(self.decode):
                inst.name = f"dec{i}"
        self._pf_active: List[int] = []
        self._dec_active: List[int] = []

    @property
    def disaggregated(self) -> bool:
        return bool(self.prefill)

    # -- pool introspection (used by the autoscaler) -------------------
    def _pool(self, pool: str) -> Tuple[List[ServerInstance], List[int]]:
        if pool == "prefill":
            return self.prefill, self._pf_active
        if pool == "decode":
            return self.decode, self._dec_active
        raise ValueError(f"unknown pool {pool!r}")

    def active_names(self, pool: str) -> List[str]:
        insts, active = self._pool(pool)
        return [insts[i].name for i in active]

    def instance_names(self) -> List[str]:
        return [inst.name for inst in self.prefill + self.decode]

    def scale_up(self, pool: str, now: float) -> bool:
        """Activate one standby instance of ``pool``; False if none left."""
        insts, active = self._pool(pool)
        standby = [i for i in range(len(insts)) if i not in active]
        if not standby:
            return False
        idx = standby[0]
        active.append(idx)
        insts[idx].record_event(
            now, EventType.SCALE_UP, "", pool=pool, size=len(active)
        )
        return True

    def scale_down(self, pool: str, now: float) -> bool:
        """Drain the least-loaded active instance of ``pool``.

        The instance stops receiving new routes; whatever it already
        holds finishes normally.  Refuses to go below the autoscaler's
        ``min_active`` (or 1).
        """
        insts, active = self._pool(pool)
        floor = self.autoscaler.min_active if self.autoscaler else 1
        if len(active) <= floor:
            return False
        idx = min(
            active,
            key=lambda i: (
                insts[i].queue_depth + insts[i].running_count,
                insts[i].used_tokens,
                -i,  # ties: drain the latest-activated instance
            ),
        )
        active.remove(idx)
        insts[idx].record_event(
            now, EventType.SCALE_DOWN, "", pool=pool, size=len(active)
        )
        return True

    # -- serving -------------------------------------------------------
    def serve(
        self,
        requests: Sequence[ServingRequest],
        trace: Optional[Trace] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> FleetResult:
        """Serve ``requests``, splitting phases across the pools."""
        requests = sorted(requests, key=lambda r: r.arrival)
        if telemetry is None and self.autoscaler is not None:
            # the controller steers off the live registry; give it one
            # even when the caller didn't ask for instrumentation
            telemetry = Telemetry()
        if not self.disaggregated:
            return self._serve_monolithic(requests, trace, telemetry)
        return self._serve_disagg(requests, trace, telemetry)

    def _serve_monolithic(
        self,
        requests: List[ServingRequest],
        trace: Optional[Trace],
        telemetry: Optional[Telemetry],
    ) -> FleetResult:
        cluster = Cluster(self.decode)
        results, assignment = cluster.run_online(
            requests,
            self.pick,
            lambda r, idx, now: r,
            trace=trace,
            telemetry=telemetry,
        )
        logical = sorted(
            (r for res in results for r in res.requests),
            key=lambda r: r.arrival,
        )
        return FleetResult(
            logical=SimulationResult(requests=logical, trace=trace),
            prefill_results=[],
            decode_results=results,
            assignment={rid: (None, idx) for rid, idx in assignment.items()},
            trace=trace,
            telemetry=telemetry,
        )

    def _serve_disagg(
        self,
        requests: List[ServingRequest],
        trace: Optional[Trace],
        telemetry: Optional[Telemetry],
    ) -> FleetResult:
        loop = self._loop = EventLoop(trace, telemetry)
        for inst in self.prefill + self.decode:
            inst.attach(loop)
        self._pf_active = list(range(self._pf0))
        self._dec_active = list(range(self._dec0))
        if telemetry is not None:
            telemetry.pool_size.set(float(len(self._pf_active)), pool="prefill")
            telemetry.pool_size.set(float(len(self._dec_active)), pool="decode")
        self._pending: Dict[str, ServingRequest] = {}  # awaiting handoff
        self._live: Dict[str, ServingRequest] = {}  # current-stage object
        self._transit: Set[str] = set()  # between prefill finish and delivery
        self._assignment: Dict[str, List[Optional[int]]] = {}

        for inst in self.prefill:
            inst.on_finish = partial(self._prefill_done, inst)
        try:
            for req in requests:
                if req.response_len <= 1:
                    # nothing to decode beyond the prefill's own token:
                    # serve it whole on the prefill pool, no handoff
                    self._live[req.request_id] = req
                    loop.schedule(
                        req.arrival, partial(self._dispatch_prefill, req, req)
                    )
                else:
                    stage = ServingRequest(
                        request_id=req.request_id + PREFILL_SUFFIX,
                        arrival=req.arrival,
                        prompt_len=req.prompt_len,
                        response_len=1,
                        priority=req.priority,
                        predicted_len=1.0,
                        token_ids=req.token_ids,
                    )
                    self._pending[req.request_id] = req
                    self._live[req.request_id] = stage
                    loop.schedule(
                        req.arrival,
                        partial(self._dispatch_prefill, req, stage),
                    )
            if self.autoscaler is not None and requests:
                self.autoscaler.bind(self, telemetry)
                loop.schedule(
                    requests[0].arrival + self.autoscaler.tick, self._tick
                )
            loop.run()
        finally:
            for inst in self.prefill:
                inst.on_finish = None

        logical: List[ServingRequest] = []
        for rid, req in self._live.items():
            if rid in self._pending:
                # the prefill stage was rejected: the logical request
                # never reached a decode instance
                orig = self._pending[rid]
                orig.rejected = True
                logical.append(orig)
            else:
                logical.append(req)
        logical.sort(key=lambda r: r.arrival)
        return FleetResult(
            logical=SimulationResult(requests=logical, trace=trace),
            prefill_results=[inst.result() for inst in self.prefill],
            decode_results=[inst.result() for inst in self.decode],
            assignment={
                rid: tuple(pair) for rid, pair in self._assignment.items()
            },
            trace=trace,
            telemetry=telemetry,
        )

    # -- stage plumbing ------------------------------------------------
    def _pick_active(
        self, pool: List[ServerInstance], active: List[int], req
    ) -> int:
        views = [InstanceView.of(i, pool[i]) for i in active]
        return active[self.pick(req, views, self._loop.now)]

    def _dispatch_prefill(
        self, orig: ServingRequest, stage: ServingRequest
    ) -> None:
        idx = self._pick_active(self.prefill, self._pf_active, orig)
        self._assignment.setdefault(orig.request_id, [None, None])[0] = idx
        inst = self.prefill[idx]
        if self._loop.telemetry is not None:
            self._loop.telemetry.on_route(inst.name)
        inst.receive(stage)

    def _kv_bytes(
        self, inst: ServerInstance, orig: ServingRequest
    ) -> Tuple[int, int]:
        """(tokens, bytes) of KV the prefill instance must ship."""
        tokens = orig.prompt_len
        if inst.comp.sparse_budget is not None:
            tokens = min(tokens, inst.comp.sparse_budget)
        nbytes = int(
            round(
                tokens
                * inst.cost_model.arch.kv_bytes_per_token()
                * inst.comp.kv_bytes_ratio
            )
        )
        return tokens, nbytes

    def _prefill_done(
        self, inst: ServerInstance, stage: ServingRequest, at: float
    ) -> None:
        rid = stage.request_id
        if not rid.endswith(PREFILL_SUFFIX):
            return  # a short request served whole on the prefill pool
        lrid = rid[: -len(PREFILL_SUFFIX)]
        orig = self._pending.pop(lrid)
        del self._live[lrid]
        self._transit.add(lrid)
        tokens, nbytes = self._kv_bytes(inst, orig)
        seconds = transfer_time(self.interconnect, nbytes)
        deliver = at + seconds
        # the KV is on the wire: every active decode instance must know
        # an arrival may land, so a mid-decode-block instance breaks
        # the block at the delivery instant (same contract as submit())
        for i in self._dec_active:
            self.decode[i].expect(deliver)
        self._loop.schedule(
            deliver,
            partial(self._deliver, orig, stage, tokens, nbytes, seconds),
        )

    def _deliver(
        self,
        orig: ServingRequest,
        stage: ServingRequest,
        tokens: int,
        nbytes: int,
        seconds: float,
    ) -> None:
        now = self._loop.now
        lrid = orig.request_id
        self._transit.discard(lrid)
        idx = self._pick_active(self.decode, self._dec_active, orig)
        self._assignment[lrid][1] = idx
        inst = self.decode[idx]
        dreq = ServingRequest(
            request_id=lrid,
            arrival=orig.arrival,
            prompt_len=orig.prompt_len,
            response_len=orig.response_len,
            priority=orig.priority,
            predicted_len=orig.predicted_len,
            ttft_deadline=orig.ttft_deadline,
            tbot_target=orig.tbot_target,
            kv_ready=True,
        )
        dreq.first_token = stage.first_token  # emitted by the prefill pool
        dreq.queued_at = now
        inst.record_event(
            now,
            EventType.KV_TRANSFER,
            lrid,
            bytes=nbytes,
            seconds=seconds,
            tokens=tokens,
            link=self.interconnect.name,
        )
        self._live[lrid] = dreq
        if self._loop.telemetry is not None:
            self._loop.telemetry.on_route(inst.name)
        inst.receive(dreq)

    # -- autoscaler plumbing -------------------------------------------
    def _outstanding(self) -> int:
        n = len(self._transit)
        for req in self._live.values():
            if req.finish is None and not req.rejected:
                n += 1
        return n

    def _tick(self) -> None:
        if self._outstanding() == 0:
            return  # drained: stop ticking so the loop can finish
        now = self._loop.now
        self.autoscaler.step(now)
        self._loop.schedule(now + self.autoscaler.tick, self._tick)
