"""Latency aggregation helpers (TTFT, TBOT, queue delay, E2E, CDFs)
plus step-level aggregates over a serving :class:`~repro.serving.trace.Trace`.

Both folds are **columnar**: :meth:`StepMetrics.from_trace` never
materializes an event — every statistic is a masked NumPy reduction
over the trace's kind/time/payload columns — and
:meth:`LatencySummary.from_requests` gathers request attributes into
arrays once and reduces.  The golden manifest
(``tests/test_golden_traces.py``) pins the fold bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.serving.trace import EventType, Trace, queue_delays


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample.

    ``tbot`` (mean time between output tokens) and ``queue_delay``
    (mean seconds queued before admission) are filled in when the
    summary is built from served requests (:meth:`from_requests`);
    plain samples (:meth:`from_samples`) leave them ``None``.

    ``ttft_attainment`` / ``tbot_attainment`` are the fractions of
    served requests meeting their TTFT / TBOT SLO targets (``None``
    when no request carries that target), and ``goodput`` is attained
    tokens per second — tokens from requests that met every SLO target
    they set, divided by the stream's makespan (plain throughput when
    the stream is deadline-free).

    ``prefix_hit_rate`` (fraction of served requests whose admission
    reused cached prefix KV) and ``cached_prefix_tokens`` (total tokens
    reused) appear only when some request actually hit the prefix
    cache, so summaries of prefix-free runs are unchanged.
    """

    mean: float
    p50: float
    p90: float
    p99: float
    max: float
    tbot: Optional[float] = None
    queue_delay: Optional[float] = None
    ttft_attainment: Optional[float] = None
    tbot_attainment: Optional[float] = None
    goodput: Optional[float] = None
    prefix_hit_rate: Optional[float] = None
    cached_prefix_tokens: Optional[int] = None

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencySummary":
        """Build from raw per-request latencies."""
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ValueError("empty latency sample")
        return LatencySummary(
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p90=float(np.percentile(arr, 90)),
            p99=float(np.percentile(arr, 99)),
            max=float(arr.max()),
        )

    @staticmethod
    def degenerate() -> "LatencySummary":
        """All-zero summary for streams where nothing was served
        (e.g. every request rejected under a tight token budget)."""
        return LatencySummary(
            mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0,
            tbot=0.0, queue_delay=0.0, goodput=0.0,
        )

    @staticmethod
    def from_requests(requests: Sequence) -> "LatencySummary":
        """Build from served :class:`~repro.serving.request.ServingRequest`
        records, including mean TBOT and queue delay.

        Request attributes are gathered into NumPy arrays in one pass
        and every statistic is an array reduction; the results are
        bit-identical to the old per-request Python fold (integer sums
        stay exact in float64, and the sample orders feeding means and
        percentiles are unchanged).

        A stream where every request was rejected yields the
        :meth:`degenerate` all-zero summary instead of raising, so
        experiments under tight token budgets report cleanly.
        """
        served = [r for r in requests if not getattr(r, "rejected", False)]
        if not served:
            return LatencySummary.degenerate()
        n = len(served)
        e2e = np.fromiter((r.e2e_latency for r in served), float, count=n)
        base = LatencySummary.from_samples(e2e)
        gen = np.fromiter((r.generated for r in served), np.int64, count=n)
        tbots = np.fromiter(
            (r.tbot for r in served if r.generated > 1), float
        )
        has_ttft = np.fromiter(
            (getattr(r, "ttft_deadline", None) is not None for r in served),
            bool, count=n,
        )
        has_tbot = np.fromiter(
            (getattr(r, "tbot_target", None) is not None for r in served),
            bool, count=n,
        )
        n_ttft = int(has_ttft.sum())
        n_tbot = int(has_tbot.sum())
        ttft_met = (
            sum(r.ttft_met for r, h in zip(served, has_ttft) if h)
            if n_ttft else 0
        )
        tbot_met = (
            sum(r.tbot_met for r, h in zip(served, has_tbot) if h)
            if n_tbot else 0
        )
        finish = np.fromiter((r.finish for r in served), float, count=n)
        arrival = np.fromiter((r.arrival for r in served), float, count=n)
        span = float(finish.max() - arrival.min())
        slo_ok = np.fromiter(
            (getattr(r, "slo_met", True) for r in served), bool, count=n
        )
        attained = int(gen[slo_ok].sum())
        cached = np.fromiter(
            (getattr(r, "cached_prefix", 0) for r in served),
            np.int64, count=n,
        )
        hits = cached > 0
        any_hit = bool(hits.any())
        qd = np.fromiter((r.queue_delay for r in served), float, count=n)
        return LatencySummary(
            mean=base.mean,
            p50=base.p50,
            p90=base.p90,
            p99=base.p99,
            max=base.max,
            tbot=float(np.mean(tbots)) if tbots.size else 0.0,
            queue_delay=float(np.mean(qd)),
            ttft_attainment=ttft_met / n_ttft if n_ttft else None,
            tbot_attainment=tbot_met / n_tbot if n_tbot else None,
            goodput=attained / span if span > 0 else 0.0,
            prefix_hit_rate=int(hits.sum()) / n if any_hit else None,
            cached_prefix_tokens=int(cached.sum()) if any_hit else None,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (request-level fields only when present)."""
        out = {
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
        }
        if self.tbot is not None:
            out["tbot"] = self.tbot
        if self.queue_delay is not None:
            out["queue_delay"] = self.queue_delay
        if self.ttft_attainment is not None:
            out["ttft_attainment"] = self.ttft_attainment
        if self.tbot_attainment is not None:
            out["tbot_attainment"] = self.tbot_attainment
        if self.goodput is not None:
            out["goodput"] = self.goodput
        if self.prefix_hit_rate is not None:
            out["prefix_hit_rate"] = self.prefix_hit_rate
        if self.cached_prefix_tokens is not None:
            out["cached_prefix_tokens"] = self.cached_prefix_tokens
        return out


@dataclass(frozen=True)
class StepMetrics:
    """Aggregates of a step-level serving trace.

    Occupancy and budget utilization are weighted by step duration, so
    long steps count for what they actually held the GPU for.
    """

    decode_steps: int
    admits: int
    preempts: int
    rejects: int
    finishes: int
    prefill_chunks: int
    partial_requests: int
    #: events the recording itself shed (a bounded ring-buffer trace
    #: dropping its oldest quarter, surfaced by the JSONL metadata
    #: header on round-trip) — nonzero means every count above is a
    #: floor over an incomplete window, not a full-run total
    dropped_events: int
    #: router decisions recorded into the trace by the ``compression``
    #: policy: risk-gate denials and verify-and-fallback re-enqueues
    reroutes: int
    fallbacks: int
    #: disaggregated-fleet events: prefill->decode KV migrations (count,
    #: payload bytes, and priced link seconds) and autoscaler actions
    kv_transfers: int
    kv_transfer_bytes: int
    kv_transfer_seconds: float
    scale_ups: int
    scale_downs: int
    decode_seconds: float
    mean_batch_occupancy: float
    peak_batch_occupancy: int
    mean_budget_utilization: float
    peak_budget_utilization: float
    mean_queue_delay: float
    mean_tbot: float
    p99_tbot: float
    max_decode_gap: float
    ttft_attainment: float
    tbot_attainment: float
    goodput: float
    prefix_hits: int
    prefix_cached_tokens: int
    prefix_saved_seconds: float
    prefix_hit_rate: float

    @staticmethod
    def from_trace(trace: Trace) -> "StepMetrics":
        """Fold a trace into scheduler-level summaries.

        ``max_decode_gap`` is the largest interval between consecutive
        ``DECODE_STEP`` completions *while some client was mid-stream*
        — the decode-stall metric: a long single-shot prefill freezes
        every running decode for its whole duration, while chunked
        prefill bounds the gap near one chunk.  A gap counts only if a
        served request's token stream spans it (``first_token`` at or
        before the gap opens, ``finish`` at or after it closes);
        between-burst idle time, when nobody is waiting for a next
        token, is not a stall.

        ``mean_queue_delay`` averages each served request's *last*
        admission, measured from its ``queued_at`` epoch — so it equals
        the mean of ``ServingRequest.queue_delay`` even on traces with
        preemptions, where the old admit-minus-arrival accounting
        double-counted the wait before the first admission.

        ``ttft_attainment`` / ``tbot_attainment`` are fractions of
        finished requests meeting their SLO targets (1.0 when the trace
        carries none), and ``goodput`` is attained tokens per second
        over the stream's makespan.

        ``prefix_hits`` / ``prefix_cached_tokens`` /
        ``prefix_saved_seconds`` fold the PREFIX_HIT events (reused-KV
        admissions and the single-shot prefill time they avoided);
        ``prefix_hit_rate`` is hits over admissions.

        The fold tolerates *partial* traces (a truncated JSONL export,
        or requests still in flight when the trace stopped): events
        missing the payload keys a statistic needs are skipped instead
        of raising ``KeyError``, and ``partial_requests`` counts the
        request ids that appear in the trace without a complete FINISH
        or a REJECT.  On a complete trace it is zero and every number
        matches the strict fold exactly.

        Every statistic is a masked reduction over the columns.
        Exactness notes (these keep the fold bit-for-bit equal to a
        per-event scan, and so the golden manifest stable): integer
        payloads are exact in float64, so int/int Python divisions
        equal the float64 divisions here; array orders feeding
        ``np.mean``/``np.percentile`` are the event orders; and
        ``prefix_saved_seconds`` / ``kv_transfer_seconds`` keep a
        *sequential* left-to-right float summation, which NumPy's
        pairwise ``sum`` would not reproduce.
        """
        trace._flush()  # the raw columns below must hold every row
        n = len(trace)
        time = trace._time[:n]
        req = trace._req[:n]

        def present(rows: np.ndarray, *keys: str) -> np.ndarray:
            mask = np.ones(len(rows), dtype=bool)
            for key in keys:
                _, p = trace.payload(key)
                if p is None:
                    return np.zeros(len(rows), dtype=bool)
                mask &= p[rows]
            return mask

        step_rows = trace.rows_of(EventType.DECODE_STEP)
        step_rows = step_rows[
            present(
                step_rows, "seconds", "batch", "used_tokens", "token_budget"
            )
        ]
        if len(step_rows):
            secs = trace.payload("seconds")[0][step_rows]
            batches = trace.payload("batch")[0][step_rows]
            utils = trace.payload("used_tokens")[0][step_rows] / np.maximum(
                trace.payload("token_budget")[0][step_rows], 1.0
            )
            times = time[step_rows]
        else:
            secs = batches = utils = times = np.empty(0)
        wall = float(secs.sum())
        w = secs / wall if wall > 0 else None

        fin_rows = trace.rows_of(EventType.FINISH)
        n_finishes_all = len(fin_rows)
        frows = fin_rows[present(fin_rows, "arrival", "first_token", "generated")]
        if len(frows):
            f_time = time[frows]
            f_arr = trace.payload("arrival")[0][frows]
            f_ft = trace.payload("first_token")[0][frows]
            f_gen = trace.payload("generated")[0][frows]
        else:
            f_time = f_arr = f_ft = f_gen = np.empty(0)

        # token streams in flight: a gap only stalls a client whose
        # stream covers it entirely.  Sort streams by first_token and
        # keep a running max of finish times; then "some stream covers
        # (t1, t2)" is one searchsorted lookup per gap instead of an
        # O(steps x finishes) scan.
        gap = 0.0
        if len(times) > 1 and len(frows):
            t1, t2 = times[:-1], times[1:]
            order = np.argsort(f_ft, kind="stable")
            starts = f_ft[order]
            end_max = np.maximum.accumulate(f_time[order])
            idx = np.searchsorted(starts, t1, side="right") - 1
            covered = np.zeros(len(t1), dtype=bool)
            ok = idx >= 0
            covered[ok] = end_max[idx[ok]] >= t2[ok]
            if covered.any():
                gap = float((t2 - t1)[covered].max())

        multi = f_gen > 1
        tbots = (f_time[multi] - f_ft[multi]) / (f_gen[multi] - 1.0)

        admit_rows = trace.rows_of(EventType.ADMIT)
        reject_rows = trace.rows_of(EventType.REJECT)
        dropped = set(req[reject_rows].tolist())
        # requests that were admitted but later dropped mid-decode are
        # excluded (they were never served)
        names = trace._req_names
        dropped_names = {names[rid] for rid in dropped}
        delays = [
            d for rid, d in queue_delays(trace).items()
            if rid not in dropped_names
        ]

        def miss_truthy(key: str) -> np.ndarray:
            v, p = trace.payload(key)
            if p is None or not len(frows):
                return np.zeros(len(frows), dtype=bool)
            return p[frows] & (v[frows] != 0)

        n_ttft = int(present(frows, "ttft_deadline").sum())
        n_ttft_miss = int(present(frows, "ttft_deadline", "ttft_miss").sum())
        n_tbot = int(present(frows, "tbot_target").sum())
        n_tbot_miss = int(present(frows, "tbot_target", "tbot_miss").sum())
        att = ~miss_truthy("ttft_miss") & ~miss_truthy("tbot_miss")
        attained = int(f_gen[att].sum()) if len(frows) else 0
        span = float(f_time.max() - f_arr.min()) if len(frows) else 0.0

        complete = set(req[frows].tolist())
        partial = sum(
            1
            for rid in range(1, len(trace._req_names))
            if rid not in complete and rid not in dropped
        )

        hit_rows = trace.rows_of(EventType.PREFIX_HIT)
        cached_total = 0
        saved = 0.0
        if len(hit_rows):
            cv, cp = trace.payload("cached")
            if cp is not None:
                cached_total = int(cv[hit_rows][cp[hit_rows]].sum())
            sv, sp = trace.payload("saved_seconds")
            if sp is not None:
                # sequential sum (see the exactness notes)
                for i in hit_rows.tolist():
                    if sp[i]:
                        saved += float(sv[i])
        n_admits = len(admit_rows)

        xfer_rows = trace.rows_of(EventType.KV_TRANSFER)
        xfer_bytes = 0
        xfer_seconds = 0.0
        if len(xfer_rows):
            bv, bp = trace.payload("bytes")
            if bp is not None:
                xfer_bytes = int(bv[xfer_rows][bp[xfer_rows]].sum())
            sv, sp = trace.payload("seconds")
            if sp is not None:
                # sequential sum (see the exactness notes)
                for i in xfer_rows.tolist():
                    if sp[i]:
                        xfer_seconds += float(sv[i])

        return StepMetrics(
            decode_steps=len(step_rows),
            admits=n_admits,
            preempts=len(trace.rows_of(EventType.PREEMPT)),
            rejects=len(reject_rows),
            finishes=n_finishes_all,
            prefill_chunks=len(trace.rows_of(EventType.PREFILL_CHUNK)),
            partial_requests=partial,
            dropped_events=trace.dropped_events,
            reroutes=len(trace.rows_of(EventType.REROUTE)),
            fallbacks=len(trace.rows_of(EventType.FALLBACK)),
            kv_transfers=len(xfer_rows),
            kv_transfer_bytes=xfer_bytes,
            kv_transfer_seconds=xfer_seconds,
            scale_ups=len(trace.rows_of(EventType.SCALE_UP)),
            scale_downs=len(trace.rows_of(EventType.SCALE_DOWN)),
            decode_seconds=wall,
            mean_batch_occupancy=(
                float((batches * w).sum()) if w is not None else 0.0
            ),
            peak_batch_occupancy=int(batches.max()) if len(step_rows) else 0,
            mean_budget_utilization=(
                float((utils * w).sum()) if w is not None else 0.0
            ),
            peak_budget_utilization=(
                float(utils.max()) if len(step_rows) else 0.0
            ),
            mean_queue_delay=float(np.mean(delays)) if delays else 0.0,
            mean_tbot=float(np.mean(tbots)) if tbots.size else 0.0,
            p99_tbot=float(np.percentile(tbots, 99)) if tbots.size else 0.0,
            max_decode_gap=gap,
            ttft_attainment=(
                1.0 - n_ttft_miss / n_ttft if n_ttft else 1.0
            ),
            tbot_attainment=(
                1.0 - n_tbot_miss / n_tbot if n_tbot else 1.0
            ),
            goodput=attained / span if span > 0 else 0.0,
            prefix_hits=len(hit_rows),
            prefix_cached_tokens=cached_total,
            prefix_saved_seconds=float(saved),
            prefix_hit_rate=len(hit_rows) / n_admits if n_admits else 0.0,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view."""
        return {
            "decode_steps": self.decode_steps,
            "admits": self.admits,
            "preempts": self.preempts,
            "rejects": self.rejects,
            "finishes": self.finishes,
            "prefill_chunks": self.prefill_chunks,
            "partial_requests": self.partial_requests,
            "dropped_events": self.dropped_events,
            "reroutes": self.reroutes,
            "fallbacks": self.fallbacks,
            "kv_transfers": self.kv_transfers,
            "kv_transfer_bytes": self.kv_transfer_bytes,
            "kv_transfer_seconds": self.kv_transfer_seconds,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "decode_seconds": self.decode_seconds,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "peak_batch_occupancy": self.peak_batch_occupancy,
            "mean_budget_utilization": self.mean_budget_utilization,
            "peak_budget_utilization": self.peak_budget_utilization,
            "mean_queue_delay": self.mean_queue_delay,
            "mean_tbot": self.mean_tbot,
            "p99_tbot": self.p99_tbot,
            "max_decode_gap": self.max_decode_gap,
            "ttft_attainment": self.ttft_attainment,
            "tbot_attainment": self.tbot_attainment,
            "goodput": self.goodput,
            "prefix_hits": self.prefix_hits,
            "prefix_cached_tokens": self.prefix_cached_tokens,
            "prefix_saved_seconds": self.prefix_saved_seconds,
            "prefix_hit_rate": self.prefix_hit_rate,
        }

    def render(self) -> str:
        """Multi-line human-readable summary."""
        return "\n".join(
            f"{k:24s} {v:.4f}" if isinstance(v, float) else f"{k:24s} {v}"
            for k, v in self.as_dict().items()
        )


def cdf(samples: Sequence[float], n_points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF evaluated on an even grid (for Fig. 5/16 plots).

    Returns (x, F(x)) arrays of length ``n_points``.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise ValueError("empty sample")
    xs = np.linspace(arr[0], arr[-1], n_points)
    ys = np.searchsorted(arr, xs, side="right") / arr.size
    return xs, ys


def tbot(e2e: float, ttft: float, response_len: int) -> float:
    """Time between output tokens, from an end-to-end measurement."""
    if response_len <= 1:
        return 0.0
    return (e2e - ttft) / (response_len - 1)
