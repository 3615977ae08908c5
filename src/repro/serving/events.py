"""Discrete-event loop shared by every serving component.

``EventLoop`` is a minimal simulation kernel: a monotonically advancing
clock plus a time-ordered queue of callbacks.  One loop can drive a
single :class:`~repro.serving.simulator.ServerInstance` or a whole
:class:`~repro.serving.cluster.Cluster` — all instances then share the
same clock, which is what lets a router make *online* decisions against
live instance state instead of replaying per-instance streams offline.

Events scheduled for the same timestamp fire in FIFO order (a sequence
counter breaks ties), so arrival handling stays deterministic.

The loop is the one holder of a run's sinks: an optional
:class:`~repro.serving.trace.Trace` and an optional telemetry sink
(duck-typed; see :class:`repro.serving.telemetry.Telemetry`), which
every attached instance records into and which also receives the
loop's clock, pending-event depth, and fired count after every
callback.  With both ``None`` (the default) the loop is exactly the
uninstrumented seed loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventLoop:
    """Shared simulation clock with a time-ordered callback queue."""

    def __init__(self, trace=None, telemetry=None) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self.trace = trace
        self.telemetry = telemetry

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` when the clock reaches ``at`` (clamped to now)."""
        heapq.heappush(self._heap, (max(at, self.now), next(self._seq), fn))

    def schedule_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` seconds of simulated time."""
        self.schedule(self.now + delay, fn)

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue (optionally stopping at ``until``); returns now.

        Callbacks may schedule further events; the loop keeps going until
        the queue is empty or every remaining event lies beyond ``until``.
        """
        tel = self.telemetry
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            self._events_fired += 1
            fn()
            if tel is not None:
                tel.on_loop(self.now, len(self._heap), self._events_fired)
        return self.now
