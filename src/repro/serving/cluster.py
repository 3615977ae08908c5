"""A fleet of serving instances on one shared clock.

``Cluster`` attaches N :class:`~repro.serving.simulator.ServerInstance`
objects to a single :class:`~repro.serving.events.EventLoop`, so their
timelines interleave exactly as they would on real hardware.  Two entry
points:

- :meth:`run` — offline assignment: per-instance request streams are
  decided up front (the seed path; Table 8 parity).
- :meth:`run_online` — online routing: each request is dispatched at
  its arrival instant by a caller-supplied ``pick`` function that sees
  **live** instance state (:class:`InstanceView`: queue depth, token
  occupancy, running batch) instead of a decayed offline load model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serving.events import EventLoop
from repro.serving.request import ServingRequest
from repro.serving.simulator import ServerInstance, SimulationResult
from repro.serving.trace import Trace


@dataclass(frozen=True)
class InstanceView:
    """Live snapshot of one instance, as seen by an online router."""

    index: int
    name: str
    queue_depth: int
    running: int
    used_tokens: int
    waiting_tokens: int
    token_budget: int

    @classmethod
    def of(cls, index: int, inst: ServerInstance) -> InstanceView:
        """Live snapshot of ``inst``, the fleet's instance ``index``."""
        return cls(
            index=index,
            name=inst.name,
            queue_depth=inst.queue_depth,
            running=inst.running_count,
            used_tokens=inst.used_tokens,
            waiting_tokens=inst.waiting_tokens,
            token_budget=inst.token_budget,
        )

    @property
    def occupancy(self) -> float:
        """Fraction of the KV-token budget currently (or soon) held."""
        return (self.used_tokens + self.waiting_tokens) / max(1, self.token_budget)


#: (request, live views, now) -> chosen instance index
PickFn = Callable[[object, Sequence[InstanceView], float], int]
#: (request, chosen index, now) -> concrete ServingRequest for that instance
MakeFn = Callable[[object, int, float], ServingRequest]


class Cluster:
    """N serving instances sharing one discrete-event clock."""

    def __init__(
        self,
        instances: Sequence[ServerInstance],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if not instances:
            raise ValueError("a cluster needs at least one instance")
        self.instances = list(instances)
        names = list(names) if names else [f"inst{i}" for i in range(len(instances))]
        if len(names) != len(self.instances):
            raise ValueError("one name per instance required")
        for inst, name in zip(self.instances, names):
            inst.name = name
        self.names = names
        self._loop: Optional[EventLoop] = None  # the latest run's loop

    def _attach_all(
        self, trace: Optional[Trace], telemetry=None
    ) -> EventLoop:
        loop = self._loop = EventLoop(trace, telemetry)
        for inst in self.instances:
            inst.attach(loop)
        return loop

    def view(self, index: int) -> InstanceView:
        """Live snapshot of instance ``index``."""
        return InstanceView.of(index, self.instances[index])

    def views(self) -> List[InstanceView]:
        """Live snapshots of every instance."""
        return [self.view(i) for i in range(len(self.instances))]

    def route_to(self, index: int, req: ServingRequest) -> None:
        """Dispatch ``req`` to instance ``index`` mid-run.

        Used by re-routing paths that originate *inside* the simulation
        (the router's verify-and-fallback re-decodes).  Such a hook can
        fire inside a decode burst simulated ahead of the shared clock,
        so ``req.arrival`` may lie in the loop's future: the request is
        delivered as one loop event at its arrival (``submit``), never
        admitted before it.  The route is published to the sink of the
        latest run's loop: only the run in progress can receive it.
        """
        inst = self.instances[index]
        if self._loop.telemetry is not None:
            self._loop.telemetry.on_route(inst.name)
        inst.submit(req)

    # ------------------------------------------------------------------
    def run(
        self,
        streams: Sequence[Sequence[ServingRequest]],
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> List[SimulationResult]:
        """Serve pre-assigned per-instance streams on the shared clock.

        ``trace`` and ``telemetry`` (opt-in) become the sinks of the
        run's loop, which every instance records into, so one registry
        aggregates the whole fleet, labeled per instance."""
        if len(streams) != len(self.instances):
            raise ValueError("one request stream per instance required")
        loop = self._attach_all(trace, telemetry)
        for inst, stream in zip(self.instances, streams):
            for req in sorted(stream, key=lambda r: r.arrival):
                inst.submit(req)
        loop.run()
        return [inst.result() for inst in self.instances]

    def run_online(
        self,
        requests: Sequence[object],
        pick: PickFn,
        make: MakeFn,
        trace: Optional[Trace] = None,
        telemetry=None,
    ) -> Tuple[List[SimulationResult], Dict[str, int]]:
        """Dispatch ``requests`` at their arrival instants.

        ``requests`` only need an ``arrival`` and ``request_id``
        attribute (e.g. :class:`~repro.serving.router.RoutedRequest`);
        ``pick`` chooses an instance from live views and ``make`` builds
        the concrete :class:`ServingRequest` for the chosen instance.
        Returns per-instance results plus the request -> instance map.

        Every arrival time is pre-registered with *every* instance
        (:meth:`ServerInstance.expect`): the routing decision only lands
        at the arrival instant, but an instance mid-decode-block must
        already know a request may arrive so it can break the block and
        consider admission — exactly as the ``submit()`` path does.
        """
        loop = self._attach_all(trace, telemetry)
        assignment: Dict[str, int] = {}

        def dispatch(req) -> None:
            idx = pick(req, self.views(), loop.now)
            assignment[req.request_id] = idx
            if telemetry is not None:
                telemetry.on_route(self.instances[idx].name)
            self.instances[idx].receive(make(req, idx, loop.now))

        for req in sorted(requests, key=lambda r: r.arrival):
            for inst in self.instances:
                inst.expect(req.arrival)
            loop.schedule(req.arrival, partial(dispatch, req))
        loop.run()
        return [inst.result() for inst in self.instances], assignment
