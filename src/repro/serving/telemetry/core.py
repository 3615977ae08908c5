"""The telemetry sink threaded through the serving stack.

A :class:`Telemetry` object owns one :class:`MetricsRegistry` plus a
set of sampled time series for the dashboard, and exposes the small
publishing surface the serving components call:

- ``on_event(event)``       — every :class:`TraceEvent` an instance
  records (fed from ``ServerInstance._record``); folds the event into
  counters and histograms (TTFT, TBOT, queue delay, prefill seconds,
  SLO misses, prefix reuse).
- ``on_decode_steps(...)``  — a burst of ``DECODE_STEP`` events, fed
  alongside ``Trace.record_decode_steps`` (step seconds, batch size,
  generated tokens, KV occupancy).
- ``sample_instance(now, inst)`` — per-wake-up gauges: queue depth
  and running batch; also appended to the dashboard series.
- ``on_loop(now, pending, fired)`` — event-loop health gauges, and the
  trace-buffer gauges of every sampled instance on the loop's sampling
  tick.
- ``on_route(instance)``    — router decision counter.
- ``on_prefix_lookup`` / ``sample_prefix`` — prefix-index hit/miss
  counters and residency gauges.

Series points are samples taken when a hook runs: ``queue_depth`` and
``running`` get one per wake-up, ``kv_occupancy`` one per decode burst
(its last step), ``loop_pending`` one per 16 loop events.

Instrumentation is **opt-in**: every component takes ``telemetry=None``
and skips publishing entirely when unset, so a run without telemetry is
bit-for-bit identical to one on a build without this module.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.serving.trace import EventType, TraceEvent
from repro.serving.telemetry.registry import (
    MetricsRegistry,
    _HistSeries,
    log_buckets,
)

#: dashboard time-series key: (instance name, metric name)
SeriesKey = Tuple[str, str]

# the kinds on_event tests first, and every kind's label value, resolved
# once: on CPython 3.11 an enum member or ``.value`` lookup costs
# 0.15-0.25 us (x86 VM), and on_event made several per event
_ADMIT, _PREFILL, _PREFILL_CHUNK, _FINISH = (
    EventType.ADMIT, EventType.PREFILL, EventType.PREFILL_CHUNK,
    EventType.FINISH,
)
_KIND_VALUE = {kind: kind.value for kind in EventType}


class _InstHot:
    """Per-instance pre-resolved write targets for the decode fold.

    ``on_decode_steps`` runs once per decode burst and
    ``sample_instance`` once per wake-up; resolving the metric series /
    value dicts once per instance lets them update with plain dict/list
    ops instead of a chain of method calls.  ``trace`` is the trace the
    instance last recorded into, read by ``on_loop``'s sample.
    """

    __slots__ = (
        "ik", "buckets", "bounds", "step", "batch_values", "gen_values",
        "kv_values", "kv_pts", "ev_decode", "qd_values", "run_values",
        "qd_pts", "run_pts", "trace_values", "trace",
    )

    def __init__(self, tel: "Telemetry", inst: str) -> None:
        self.ik = (inst,)
        self.ev_decode = (inst, EventType.DECODE_STEP.value)
        self.qd_values = tel.queue_depth._values
        self.run_values = tel.running._values
        self.qd_pts = tel.series.setdefault((inst, "queue_depth"), [])
        self.run_pts = tel.series.setdefault((inst, "running"), [])
        self.buckets = tel.step_seconds.buckets
        # bucket i holds bounds[i] < x <= bounds[i + 1]
        self.bounds = (float("-inf"),) + self.buckets + (float("inf"),)
        series = tel.step_seconds._series
        s = series.get(self.ik)
        if s is None:
            s = series[self.ik] = _HistSeries(len(self.buckets))
        self.step = s
        self.batch_values = tel.batch_size._values
        self.gen_values = tel.generated_tokens._values
        self.kv_values = tel.kv_occupancy._values
        self.kv_pts = tel.series.setdefault((inst, "kv_occupancy"), [])
        self.trace_values = (
            tel.trace_events._values, tel.trace_capacity._values,
            tel.trace_buffer_bytes._values, tel.trace_dropped._values,
        )
        self.trace = None


class Telemetry:
    """Live metrics registry + sampled series for one serving run."""

    def __init__(
        self,
        labels: Optional[Dict[str, str]] = None,
        series_limit: int = 2048,
    ) -> None:
        self.labels = dict(labels or {})
        self.series_limit = max(16, series_limit)
        self.registry = MetricsRegistry(const_labels=self.labels)
        r = self.registry
        lat_buckets = log_buckets(1e-4, 1e3, per_decade=3)
        self.events_total = r.counter(
            "serving_events_total", "trace events recorded",
            ("instance", "kind"),
        )
        self.queue_depth = r.gauge(
            "serving_queue_depth", "requests waiting for admission",
            ("instance",),
        )
        self.running = r.gauge(
            "serving_running_requests", "requests decoding or mid-prefill",
            ("instance",),
        )
        self.kv_occupancy = r.gauge(
            "serving_kv_occupancy",
            "fraction of the KV token budget currently held",
            ("instance",),
        )
        self.batch_size = r.gauge(
            "serving_batch_size", "batch size of the last decode step",
            ("instance",),
        )
        self.queue_delay = r.histogram(
            "serving_queue_delay_seconds",
            "seconds queued before each admission",
            ("instance",), buckets=lat_buckets,
        )
        self.ttft = r.histogram(
            "serving_ttft_seconds", "time to first token",
            ("instance",), buckets=lat_buckets,
        )
        self.tbot = r.histogram(
            "serving_tbot_seconds", "mean time between output tokens",
            ("instance",), buckets=lat_buckets,
        )
        self.prefill_seconds = r.histogram(
            "serving_prefill_seconds",
            "prefill pass / chunk durations",
            ("instance",), buckets=lat_buckets,
        )
        self.step_seconds = r.histogram(
            "serving_decode_step_seconds", "decode step durations",
            ("instance",), buckets=lat_buckets,
        )
        self.generated_tokens = r.counter(
            "serving_generated_tokens_total",
            "tokens emitted by decode steps", ("instance",),
        )
        self.slo_misses = r.counter(
            "serving_slo_miss_total", "finished requests violating an SLO",
            ("instance", "slo"),
        )
        self.prefix_cached_tokens = r.counter(
            "serving_prefix_cached_tokens_total",
            "prompt tokens reused from the prefix cache", ("instance",),
        )
        self.prefix_saved_seconds = r.counter(
            "serving_prefix_saved_seconds_total",
            "single-shot prefill seconds avoided by prefix reuse",
            ("instance",),
        )
        self.prefix_lookups = r.counter(
            "prefix_index_lookups_total",
            "prefix-index admission lookups", ("outcome",),
        )
        self.prefix_blocks = r.gauge(
            "prefix_index_resident_blocks",
            "block keys resident in the prefix index",
        )
        self.prefix_evictions = r.gauge(
            "prefix_index_evicted_blocks_total",
            "block keys dropped from the prefix index LRU",
        )
        self.routed = r.counter(
            "router_routed_total", "requests dispatched per instance",
            ("instance",),
        )
        self.rerouted = r.counter(
            "router_reroutes_total",
            "risk-gated requests redirected to a lossless instance",
            ("instance",),
        )
        self.fallbacks = r.counter(
            "router_fallbacks_total",
            "verify-and-fallback re-decodes enqueued on a lossless instance",
            ("instance",),
        )
        self.kv_transfers = r.counter(
            "fleet_kv_transfers_total",
            "prefill->decode KV migrations delivered",
            ("instance", "link"),
        )
        self.kv_transfer_bytes = r.counter(
            "fleet_kv_transfer_bytes_total",
            "KV bytes moved prefill->decode", ("instance", "link"),
        )
        self.kv_transfer_seconds = r.counter(
            "fleet_kv_transfer_seconds_total",
            "interconnect seconds spent moving KV", ("instance", "link"),
        )
        self.scale_events = r.counter(
            "fleet_scale_events_total",
            "autoscaler pool-size changes", ("pool", "direction"),
        )
        self.pool_size = r.gauge(
            "fleet_pool_size", "active instances per fleet pool",
            ("pool",),
        )
        self.trace_events = r.gauge(
            "serving_trace_events", "events held in the trace ring buffer",
            ("instance",),
        )
        self.trace_capacity = r.gauge(
            "serving_trace_capacity",
            "allocated event slots in the trace ring buffer",
            ("instance",),
        )
        self.trace_buffer_bytes = r.gauge(
            "serving_trace_buffer_bytes",
            "bytes held by the columnar trace buffers",
            ("instance",),
        )
        self.trace_dropped = r.gauge(
            "serving_trace_dropped_events_total",
            "oldest events dropped by a bounded trace",
            ("instance",),
        )
        self.loop_pending = r.gauge(
            "eventloop_pending_events", "events queued on the shared clock",
        )
        self.loop_fired = r.gauge(
            "eventloop_events_fired_total", "events executed so far",
        )
        self.loop_now = r.gauge(
            "eventloop_clock_seconds", "simulated clock",
        )
        self.replay_drift = r.gauge(
            "replay_drift_fields",
            "StepMetrics fields differing between a recorded trace and "
            "its replay (0 = exact reproduction)",
        )
        self.mined_anomalies = r.counter(
            "mining_anomalies_total",
            "anomalies flagged by trace-mining detectors", ("detector",),
        )
        self.mined_incidents = r.counter(
            "mining_incidents_total",
            "clustered incidents reported by trace mining", ("detector",),
        )
        #: dashboard time series: (instance, metric) -> [(t, value), ...]
        self.series: Dict[SeriesKey, List[Tuple[float, float]]] = {}
        self._loop_tick = 0
        self._hot: Dict[str, _InstHot] = {}
        self._ev_values = self.events_total._values
        self._loop_values = (
            self.loop_now._values,
            self.loop_pending._values,
            self.loop_fired._values,
        )
        # the ("", "loop_pending") series, resolved at its first sample
        self._loop_pts: Optional[List[Tuple[float, float]]] = None

    # ------------------------------------------------------------------
    # publishing surface (called by the serving components)
    # ------------------------------------------------------------------
    def on_event(self, e: TraceEvent) -> None:
        """Fold one trace event into the registry.

        Decode steps are folded in bursts by :meth:`on_decode_steps`.
        The kinds here use the metrics' pre-built-key fast paths —
        label keys are the label *values* in declared order.
        """
        inst = e.instance
        d = e.data
        k = e.kind
        ev = self._ev_values
        kk = (inst, _KIND_VALUE[k])
        ev[kk] = ev.get(kk, 0.0) + 1.0
        ik = (inst,)
        if k is _ADMIT:
            since = d.get("queued_at", d.get("arrival"))
            if since is not None:
                self.queue_delay.observe_key(ik, e.time - since)
        elif k is _PREFILL or k is _PREFILL_CHUNK:
            seconds = d.get("seconds")
            if seconds is not None:
                self.prefill_seconds.observe_key(ik, seconds)
        elif k is _FINISH:
            if "arrival" in d and "first_token" in d:
                self.ttft.observe_key(ik, d["first_token"] - d["arrival"])
            if "first_token" in d and d.get("generated", 0) > 1:
                self.tbot.observe_key(
                    ik, (e.time - d["first_token"]) / (d["generated"] - 1)
                )
            if d.get("ttft_miss"):
                self.slo_misses.inc_key((inst, "ttft"))
            if d.get("tbot_miss"):
                self.slo_misses.inc_key((inst, "tbot"))
        elif k is EventType.PREFIX_HIT:
            cached = d.get("cached")
            if cached is not None:
                self.prefix_cached_tokens.inc_key(ik, cached)
            saved = d.get("saved_seconds")
            if saved is not None:
                self.prefix_saved_seconds.inc_key(ik, saved)
        elif k is EventType.REROUTE:
            self.rerouted.inc_key(ik)
        elif k is EventType.FALLBACK:
            self.fallbacks.inc_key(ik)
        elif k is EventType.KV_TRANSFER:
            lk = (inst, str(d.get("link", "")))
            self.kv_transfers.inc_key(lk)
            nbytes = d.get("bytes")
            if nbytes is not None:
                self.kv_transfer_bytes.inc_key(lk, nbytes)
            seconds = d.get("seconds")
            if seconds is not None:
                self.kv_transfer_seconds.inc_key(lk, seconds)
        elif k is EventType.SCALE_UP or k is EventType.SCALE_DOWN:
            pool = str(d.get("pool", ""))
            direction = "up" if k is EventType.SCALE_UP else "down"
            self.scale_events.inc_key((pool, direction))
            size = d.get("size")
            if size is not None:
                self.pool_size.set_key((pool,), float(size))

    def on_decode_steps(
        self,
        instance: str,
        times,
        batch: int,
        kvs,
        seconds,
        used_tokens,
        token_budget: int,
        live: int,
    ) -> None:
        """Fold a burst of ``DECODE_STEP`` events in one call.

        Fed by the simulator's burst decode path alongside
        ``Trace.record_decode_steps`` — the shared counters and
        histogram land in one update per burst instead of one per
        step.  ``used_tokens`` is a scalar or a per-step sequence, as in
        the trace call; the ``kv_occupancy`` gauge and series take the
        burst's last step.  ``batch`` is the priced batch size (the
        ``serving_batch_size`` gauge) and ``live`` the members that
        emitted a token each step (a static batch's stragglers decode
        in a padded batch).
        """
        k = len(times)
        if k == 0:
            return
        hot = self._hot.get(instance)
        if hot is None:
            hot = self._hot[instance] = _InstHot(self, instance)
        ev = self._ev_values
        kk = hot.ev_decode
        ev[kk] = ev.get(kk, 0.0) + float(k)
        s = hot.step
        counts = s.counts
        buckets = hot.buckets
        # a burst's steps cost about the same: bisect only for steps
        # outside the first step's bucket
        first = bisect_left(buckets, seconds[0])
        low, high = hot.bounds[first], hot.bounds[first + 1]
        same = k
        total = s.sum
        for sec in seconds:
            total += sec  # left to right, step by step
            if not low < sec <= high:
                counts[bisect_left(buckets, sec)] += 1
                same -= 1
        counts[first] += same
        s.sum = total
        s.count += k
        ik = hot.ik
        hot.batch_values[ik] = float(batch)
        hot.gen_values[ik] = hot.gen_values.get(ik, 0.0) + float(live) * k
        if isinstance(used_tokens, (list, tuple)):
            used_tokens = used_tokens[-1]
        occ = used_tokens / max(1, token_budget)
        hot.kv_values[ik] = occ
        pts = hot.kv_pts
        pts.append((times[-1], occ))
        if len(pts) > 2 * self.series_limit:
            pts[:] = pts[::2]

    def sample_instance(self, now: float, inst) -> None:
        """Per-wake-up gauges from live ``ServerInstance`` state (its
        trace's buffer gauges follow on the loop's sampling tick)."""
        name = inst.name
        hot = self._hot.get(name)
        if hot is None:
            hot = self._hot[name] = _InstHot(self, name)
        ik = hot.ik
        # ServerInstance.queue_depth and .running_count, read directly
        depth = float(len(inst._waiting.requests))
        running = float(len(inst._running) + (inst._prefilling is not None))
        hot.qd_values[ik] = depth
        hot.run_values[ik] = running
        lim = 2 * self.series_limit
        pts = hot.qd_pts
        pts.append((now, depth))
        if len(pts) > lim:
            pts[:] = pts[::2]
        pts = hot.run_pts
        pts.append((now, running))
        if len(pts) > lim:
            pts[:] = pts[::2]
        hot.trace = inst._trace

    def on_loop(self, now: float, pending: int, fired: int) -> None:
        """Event-loop health.  The ``loop_pending`` series is sampled
        every 16th event; the trace gauges then and when the loop
        drains."""
        now_v, pending_v, fired_v = self._loop_values
        now_v[()] = now
        pending_v[()] = float(pending)
        fired_v[()] = float(fired)
        tick = self._loop_tick = self._loop_tick + 1
        if not tick & 15:
            pts = self._loop_pts
            if pts is None:
                pts = self._loop_pts = self.series.setdefault(
                    ("", "loop_pending"), []
                )
            pts.append((now, pending))
            if len(pts) > 2 * self.series_limit:
                pts[:] = pts[::2]  # decimate: halve resolution, keep the span
        elif pending:
            return
        for hot in self._hot.values():
            trace = hot.trace
            if trace is not None:
                # Trace.memory_stats() fields, read without its dict
                events, capacity, nbytes, dropped = hot.trace_values
                ik = hot.ik
                events[ik] = float(trace._n)
                capacity[ik] = float(trace._cap)
                nbytes[ik] = float(trace._buffer_bytes)
                dropped[ik] = float(trace.dropped_events)

    def on_route(self, instance: str) -> None:
        self.routed.inc(instance=instance)

    def on_prefix_lookup(self, matched_tokens: int) -> None:
        outcome = "hit" if matched_tokens else "miss"
        self.prefix_lookups.inc(outcome=outcome)

    def sample_prefix(self, index) -> None:
        """Residency gauges from a :class:`PrefixIndex`."""
        self.prefix_blocks.set(len(index))
        self.prefix_evictions.set(index.evicted_blocks)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Registry snapshot (see :meth:`MetricsRegistry.snapshot`)."""
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the whole registry."""
        return self.registry.render_prometheus()
