"""Pluggable scheduling policies for the event-driven serving core.

A :class:`SchedulerPolicy` answers two questions for a
:class:`~repro.serving.simulator.ServerInstance`:

- ``select(queue, clock)`` — which arrived request to consider
  admitting next (head-of-line: if the chosen request does not fit the
  KV-token budget, admission stalls until capacity frees, preserving
  the policy's ordering guarantees).
- ``victim(running)`` — which running request to preempt when the
  dynamic admission mode exhausts the KV-token budget mid-decode.
  Preempted requests are requeued and recomputed (vLLM-style
  recompute preemption), so the victim choice trades wasted work
  against the policy's notion of priority.

Each instance keeps its arrived requests in a :class:`WaitingQueue`
sorted by the policy's ``admit_key`` and then by enqueue order, so
admission reads the head instead of scanning the queue.  The contract
that makes this exact: a request's admission key is fixed while it
waits.  Every field a key reads (arrival, priority, predicted and
response length, SLO targets, and ``first_token``) is set before the
request is enqueued or after it leaves the queue; a requeued preemption
victim is pushed again with a fresh enqueue number.  Victim choices
look only at the running batch (at most ``max_batch`` requests), and a
trailing batch index in their tuple keys breaks ties.

Policies are deliberately tiny and stateless so routers, clusters and
experiments can share instances freely.  ``make_policy`` resolves the
string names used by the CLI and ``CompressedGenerationPipeline``.
"""

from __future__ import annotations

import abc
import copy
from bisect import bisect_left
from typing import Iterator, List

from repro.serving.request import ServingRequest

_INF = float("inf")


class WaitingQueue:
    """An instance's waiting requests in admission order.

    Two parallel lists: ``requests`` in admission order and their
    ``keys``, ``(*policy.admit_key(req), seq)`` where ``seq`` counts
    pushes, so equal admission keys keep enqueue order.  An arrival
    whose key sorts after the tail (every FCFS arrival on an
    arrival-ordered stream) is appended; anything else is
    bisect-inserted.  ``tokens`` is the sum of the peak KV tokens the
    callers pushed with the waiting requests.
    """

    __slots__ = ("requests", "keys", "tokens", "_key", "_seq")

    def __init__(self, policy: "SchedulerPolicy") -> None:
        self.requests: List[ServingRequest] = []
        self.keys: List[tuple] = []
        self.tokens = 0
        self._key = policy.admit_key
        self._seq = 0

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[ServingRequest]:
        return iter(self.requests)

    def push(self, req: ServingRequest, tokens: int) -> None:
        """Enqueue ``req``, whose peak KV footprint is ``tokens``."""
        key = (*self._key(req), self._seq)
        self._seq += 1
        keys = self.keys
        if not keys or keys[-1] < key:
            keys.append(key)
            self.requests.append(req)
        else:
            i = bisect_left(keys, key)
            keys.insert(i, key)
            self.requests.insert(i, req)
        self.tokens += tokens

    def remove(self, req: ServingRequest, tokens: int) -> None:
        """Dequeue ``req`` (by identity), pushed with ``tokens``."""
        requests = self.requests
        if requests[0] is req:
            i = 0
        else:
            # its key is unchanged since the push, and the bare admit
            # key sorts before every entry that extends it
            i = bisect_left(self.keys, self._key(req))
            while requests[i] is not req:
                i += 1
        del requests[i], self.keys[i]
        self.tokens -= tokens

    def copy(self) -> "WaitingQueue":
        """An independent queue with the same entries."""
        twin = copy.copy(self)
        twin.requests = self.requests.copy()
        twin.keys = self.keys.copy()
        return twin


class SchedulerPolicy(abc.ABC):
    """Order of admission and choice of preemption victim."""

    name: str = "base"

    @abc.abstractmethod
    def admit_key(self, req: ServingRequest) -> tuple:
        """Admission order of ``req``: smaller keys are admitted first.

        Must stay fixed while ``req`` waits (see the module docstring).
        """

    def select(self, queue: WaitingQueue, clock: float) -> ServingRequest:
        """The next request to admit: the head of the queue."""
        return queue.requests[0]

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

    def admit_key(self, req: ServingRequest) -> tuple:
        return (req.arrival,)


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

    def admit_key(self, req: ServingRequest) -> tuple:
        return (self._expected(req), req.arrival)

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

    def admit_key(self, req: ServingRequest) -> tuple:
        return (-req.priority, req.arrival)

    def victim(self, running: List[ServingRequest], clock: float = 0.0) -> int:
        # lowest tier; the latest admission wins ties
        return min(
            range(len(running)), key=lambda i: (running[i].priority, -i)
        )


class SlackPolicy(SchedulerPolicy):
    """SLO-aware earliest-deadline-first by *live slack*.

    A request's slack is ``deadline − clock``: how many seconds of
    schedule margin remain before its next SLO milestone.  It is pure
    EDF — no estimate of remaining work is subtracted.  Before the
    first token the milestone is the TTFT deadline (``arrival +
    ttft_deadline``); once decoding, it is the finish time implied by
    the TBOT target (``first_token + tbot_target * (response_len −
    1)``).

    Admission picks the *smallest* slack (most urgent), ties going to
    the earlier arrival and then the earlier enqueue; preemption picks
    the *largest* (least urgent).  The queue is sorted by deadline, and
    ``deadline − clock`` rounds monotonically, so the smallest slack is
    the head's.  Overdue requests at a large clock can round to the
    same slack although their deadlines differ by a few ulps, so
    admission scans the head run of equal slack for the earliest
    ``(arrival, enqueue)`` — almost always a run of one.
    Deadline-free requests have infinite slack, so they are admitted
    FCFS after every deadlined request and preempted first.  With no
    deadlines anywhere the policy reproduces FCFS bit-for-bit:
    admission falls back to arrival order and the victim to the most
    recent admission.
    """

    name = "slo"

    @staticmethod
    def deadline(req: ServingRequest) -> float:
        """``req``'s next SLO milestone (``inf`` without a target)."""
        if req.first_token is None:
            if req.ttft_deadline is None:
                return _INF
            return req.arrival + req.ttft_deadline
        if req.tbot_target is None:
            return _INF
        return req.first_token + req.tbot_target * max(req.response_len - 1, 0)

    def admit_key(self, req: ServingRequest) -> tuple:
        return (self.deadline(req), req.arrival)

    def slack(self, req: ServingRequest, clock: float) -> float:
        """Seconds of margin before ``req``'s next SLO milestone."""
        return self.deadline(req) - clock

    def select(self, queue: WaitingQueue, clock: float) -> ServingRequest:
        keys = queue.keys
        head = keys[0]
        if head[0] == _INF:
            return queue.requests[0]
        slack = head[0] - clock
        best, pick = head[1:], 0
        for i in range(1, len(keys)):
            key = keys[i]
            if key[0] - clock != slack:
                break
            if key[1:] < best:
                best, pick = key[1:], i
        return queue.requests[pick]

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
