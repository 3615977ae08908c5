"""Pluggable scheduling policies for the event-driven serving core.

A :class:`SchedulerPolicy` answers two questions for a
:class:`~repro.serving.simulator.ServerInstance`:

- ``select(waiting, clock)`` — which arrived request to consider
  admitting next (head-of-line: if the chosen request does not fit the
  KV-token budget, admission stalls until capacity frees, preserving
  the policy's ordering guarantees).
- ``victim(running)`` — which running request to preempt when the
  dynamic admission mode exhausts the KV-token budget mid-decode.
  Preempted requests are requeued and recomputed (vLLM-style
  recompute preemption), so the victim choice trades wasted work
  against the policy's notion of priority.

Each decision is one ``min``/``max`` scan over the queue keyed by a
tuple whose trailing entries (arrival, then queue index) break ties,
so every decision is deterministic.  At the queue depths the serving
workloads reach (tens to a few hundred requests) the scan is faster
than building NumPy arrays per call.

Policies are deliberately tiny and stateless so routers, clusters and
experiments can share instances freely.  ``make_policy`` resolves the
string names used by the CLI and ``CompressedGenerationPipeline``.
"""

from __future__ import annotations

import abc
from typing import List

from repro.serving.request import ServingRequest


class SchedulerPolicy(abc.ABC):
    """Order of admission and choice of preemption victim."""

    name: str = "base"
    #: True when ``select`` on an arrival-sorted queue always picks
    #: index 0 (pure FCFS) — lets callers skip the scan
    head_of_sorted: bool = False

    @abc.abstractmethod
    def select(self, waiting: List[ServingRequest], clock: float) -> int:
        """Index (into ``waiting``) of the next request to admit."""

    def victim(self, running: List[ServingRequest], clock: float = 0.0) -> int:
        """Index (into ``running``) of the request to preempt.

        ``clock`` is the simulation time of the eviction (deadline-aware
        policies compute live slack from it; the others ignore it).

        Default: the most recently admitted request — the oldest keeps
        running, which guarantees forward progress.
        """
        return len(running) - 1


class FCFSPolicy(SchedulerPolicy):
    """First-come-first-served: strict arrival order (seed behaviour)."""

    name = "fcfs"
    #: on an arrival-sorted queue the head IS the pick — callers that
    #: track sortedness (ServerInstance does, O(1) per enqueue) can skip
    #: the scan entirely; identical decision (ties keep queue order)
    head_of_sorted = True

    def select(self, waiting: List[ServingRequest], clock: float) -> int:
        return min(range(len(waiting)), key=lambda i: (waiting[i].arrival, i))


class ShortestFirstPolicy(SchedulerPolicy):
    """Shortest-predicted-first: admit the request expected to finish
    soonest (uses ``predicted_len`` when a length predictor supplied
    one, else the true ``response_len``); preempt the longest-remaining
    request first."""

    name = "shortest"

    @staticmethod
    def _expected(req: ServingRequest) -> float:
        if req.predicted_len is not None:
            return float(req.predicted_len)
        return float(req.response_len)

    def select(self, waiting: List[ServingRequest], clock: float) -> int:
        return min(
            range(len(waiting)),
            key=lambda i: (self._expected(waiting[i]), waiting[i].arrival, i),
        )

    def victim(self, running: List[ServingRequest], clock: float = 0.0) -> int:
        return max(
            range(len(running)),
            key=lambda i: (
                self._expected(running[i]) - running[i].generated, i,
            ),
        )


class PriorityPolicy(SchedulerPolicy):
    """Highest ``ServingRequest.priority`` first (FCFS within a tier);
    preempt the lowest-priority, most recently admitted request."""

    name = "priority"

    def select(self, waiting: List[ServingRequest], clock: float) -> int:
        return min(
            range(len(waiting)),
            key=lambda i: (-waiting[i].priority, waiting[i].arrival, i),
        )

    def victim(self, running: List[ServingRequest], clock: float = 0.0) -> int:
        # lowest tier; the latest admission wins ties
        return min(
            range(len(running)), key=lambda i: (running[i].priority, -i)
        )


class SlackPolicy(SchedulerPolicy):
    """SLO-aware earliest-deadline-first by *live slack*.

    A request's slack is ``deadline − clock − predicted remaining
    work``: how many seconds of schedule margin remain before its next
    SLO milestone.  Before the first token the milestone is the TTFT
    deadline (``arrival + ttft_deadline``) and the remaining work is the
    unfilled prompt; once decoding, it is the finish time implied by the
    TBOT target (``first_token + tbot_target * (response_len − 1)``)
    with the remaining response as work.  Work is priced at
    ``seconds_per_token`` (default 0.0, i.e. pure EDF — orderings only
    shift when a calibrated per-token rate is supplied).

    Admission picks the *smallest* slack (most urgent); preemption picks
    the *largest* (least urgent).  Deadline-free requests have infinite
    slack, so they are admitted FCFS after every deadlined request and
    preempted first.  With no deadlines anywhere the policy reproduces
    FCFS bit-for-bit: admission falls back to arrival order and the
    victim to the most recent admission.
    """

    name = "slo"

    def __init__(self, seconds_per_token: float = 0.0) -> None:
        self.seconds_per_token = seconds_per_token

    def slack(self, req: ServingRequest, clock: float) -> float:
        """Seconds of margin before ``req``'s next SLO milestone."""
        if req.first_token is None:
            if req.ttft_deadline is None:
                return float("inf")
            deadline = req.arrival + req.ttft_deadline
            work = self.seconds_per_token * (req.prompt_len - req.prefilled)
        else:
            if req.tbot_target is None:
                return float("inf")
            deadline = req.first_token + req.tbot_target * max(
                req.response_len - 1, 0
            )
            work = self.seconds_per_token * (req.response_len - req.generated)
        return deadline - clock - work

    def select(self, waiting: List[ServingRequest], clock: float) -> int:
        return min(
            range(len(waiting)),
            key=lambda i: (
                self.slack(waiting[i], clock), waiting[i].arrival, i,
            ),
        )

    def victim(self, running: List[ServingRequest], clock: float = 0.0) -> int:
        return max(
            range(len(running)),
            key=lambda i: (self.slack(running[i], clock), i),
        )


_POLICIES = {
    cls.name: cls
    for cls in (FCFSPolicy, ShortestFirstPolicy, PriorityPolicy, SlackPolicy)
}


def make_policy(name: str) -> SchedulerPolicy:
    """Instantiate a scheduler policy by name (``fcfs``, ``shortest``,
    ``priority``, ``slo``)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown scheduler policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
