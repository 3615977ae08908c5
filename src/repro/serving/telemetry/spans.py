"""Per-request causal spans derived from the serving trace.

The flat :class:`~repro.serving.trace.Trace` stream is exact but
request-blind: understanding *one* request's life means grepping its
events out and reconstructing what overlapped what.  :func:`build_spans`
does that reconstruction once, turning each request's events into a
root span with children:

- ``queue_wait``     — from each (re)queue epoch to the admission.
- ``prefix_lookup``  — instant marker when admission reused cached KV
  (meta: ``cached`` tokens, ``saved_seconds``).
- ``prefill`` / ``prefill_chunk`` — the priced prompt passes.
- ``decode``         — first token (or last chunk landing) to finish,
  one per admission episode when preemption splits the request.
- ``preempted``      — instant marker at each eviction; the requeue
  wait shows up as the following ``queue_wait`` child.

Spans are derived purely from the ``TraceEvent`` stream — no simulator
state — so they work identically on a live trace and on one reloaded
from a JSONL export.  The tests cross-check the derived tree against
the trace's own folds (root duration == the E2E latency
``request_latencies`` reconstructs; children nested inside the root),
which is also what keeps the Chrome exporter's nesting honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serving.trace import EventType, Trace

_EPS = 1e-9


@dataclass
class Span:
    """One named interval of a request's life (possibly instant)."""

    name: str
    start: float
    end: float
    request_id: str = ""
    instance: str = ""
    meta: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self):
        """This span, then every descendant (pre-order)."""
        yield self
        for c in self.children:
            yield from c.walk()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "request_id": self.request_id,
            "instance": self.instance,
            "meta": dict(self.meta),
            "children": [c.as_dict() for c in self.children],
        }


def _request_spans(rid: str, events: List) -> Optional[Span]:
    if not events:
        return None
    instance = next((e.instance for e in events if e.instance), "")
    first = events[0]
    arrival = min(
        (
            e.data["arrival"]
            for e in events
            if e.kind in (EventType.ADMIT, EventType.FINISH)
            and "arrival" in e.data
        ),
        default=first.time,
    )
    finish = next(
        (e for e in events if e.kind is EventType.FINISH), None
    )
    reject = next(
        (e for e in events if e.kind is EventType.REJECT), None
    )
    status = "finished" if finish else ("rejected" if reject else "partial")
    end = max(arrival, events[-1].time)
    root = Span(
        name=f"request {rid}",
        start=arrival,
        end=end,
        request_id=rid,
        instance=instance,
        meta={"status": status},
    )
    children: List[Span] = []
    queued_since = arrival  # epoch the current wait is measured from
    prefill_end: Optional[float] = None
    episode = 0

    def child(name: str, start: float, stop: float, **meta) -> None:
        children.append(
            Span(
                name=name,
                start=max(root.start, start),
                end=min(root.end, max(start, stop)),
                request_id=rid,
                instance=instance,
                meta=meta,
            )
        )

    for e in events:
        d = e.data
        if e.kind is EventType.ADMIT:
            since = d.get("queued_at", d.get("arrival", queued_since))
            if e.time > since + _EPS:
                child("queue_wait", since, e.time, episode=episode)
            queued_since = e.time
        elif e.kind is EventType.PREFIX_HIT:
            child(
                "prefix_lookup", e.time, e.time,
                cached=d.get("cached", 0),
                saved_seconds=d.get("saved_seconds", 0.0),
            )
        elif e.kind is EventType.PREFILL:
            stop = e.time + d.get("seconds", 0.0)
            child("prefill", e.time, stop, seconds=d.get("seconds", 0.0))
            prefill_end = stop
        elif e.kind is EventType.PREFILL_CHUNK:
            stop = e.time + d.get("seconds", 0.0)
            child(
                "prefill_chunk", e.time, stop,
                chunk=d.get("chunk", 0), prefilled=d.get("prefilled", 0),
            )
            prefill_end = stop
        elif e.kind is EventType.PREEMPT:
            if prefill_end is not None and e.time > prefill_end + _EPS:
                child("decode", prefill_end, e.time, episode=episode)
            child("preempted", e.time, e.time, generated=d.get("generated", 0))
            queued_since = d.get("requeued_at", e.time)
            prefill_end = None
            episode += 1
        elif e.kind is EventType.FINISH:
            start = prefill_end
            if start is None:
                # static batching prices prefill at batch level (no
                # per-request PREFILL event): synthesize it from the
                # admission-to-first-token interval
                ft = d.get("first_token")
                if ft is not None and ft > queued_since + _EPS:
                    child("prefill", queued_since, ft, episode=episode)
                start = ft
            if start is not None and e.time > start + _EPS:
                child("decode", start, e.time, episode=episode)
    root.children = sorted(children, key=lambda s: (s.start, s.end))
    return root


def build_spans(trace: Trace) -> List[Span]:
    """One root span per request, in first-appearance order.

    Requests whose trace is incomplete (no FINISH/REJECT — e.g. a
    truncated export) still get a root span, flagged
    ``meta["status"] == "partial"`` and closed at their last event.
    """
    roots = []
    for rid in trace.request_ids():
        root = _request_spans(rid, trace.for_request(rid))
        if root is not None:
            roots.append(root)
    return roots

