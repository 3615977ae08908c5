"""The policy-ordered waiting queue picks exactly what a list scan picks.

:class:`WaitingQueue` keeps an instance's waiting requests sorted by
``(*policy.admit_key(req), seq)``, so ``select`` reads the head (or, for
the slack policy, the head run of equal slack) instead of scanning the
queue.  The references below are the list-scan ``select`` bodies the
queue replaced, copied verbatim: each takes the waiting list in enqueue
order and returns an index into it.  Hypothesis drives interleaved
pushes, head and non-head removals, preemption-style requeues with
``first_token`` set, and picks at random clocks, over equal arrivals,
equal and ulp-apart deadlines that are overdue at large clocks,
infinite deadlines mixed with finite ones, and ``predicted_len`` set
and unset.  Every pick must be the reference's object.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    FCFSPolicy,
    PriorityPolicy,
    ServingRequest,
    ShortestFirstPolicy,
    SlackPolicy,
    WaitingQueue,
    make_policy,
)


# ----------------------------------------------------------------------
# references: the list-scan selects the queue replaced
# ----------------------------------------------------------------------
class RefFCFS:
    def select(self, waiting, clock):
        return min(range(len(waiting)), key=lambda i: (waiting[i].arrival, i))


class RefShortest:
    @staticmethod
    def _expected(req):
        if req.predicted_len is not None:
            return float(req.predicted_len)
        return float(req.response_len)

    def select(self, waiting, clock):
        return min(
            range(len(waiting)),
            key=lambda i: (self._expected(waiting[i]), waiting[i].arrival, i),
        )


class RefPriority:
    def select(self, waiting, clock):
        return min(
            range(len(waiting)),
            key=lambda i: (-waiting[i].priority, waiting[i].arrival, i),
        )


class RefSlack:
    seconds_per_token = 0.0

    def slack(self, req, clock):
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

    def select(self, waiting, clock):
        return min(
            range(len(waiting)),
            key=lambda i: (
                self.slack(waiting[i], clock), waiting[i].arrival, i,
            ),
        )


REFERENCES = {
    "fcfs": RefFCFS(),
    "shortest": RefShortest(),
    "priority": RefPriority(),
    "slo": RefSlack(),
}

ULP = math.nextafter(1.0, 2.0)
#: arrivals repeat, so admission keys tie and enqueue order decides
ARRIVALS = [0.0, 0.0, 0.5, 1.0, 2.5]
#: with the arrivals above these make equal deadlines (0.0 + 1.0 and
#: 0.5 + 0.5) and deadlines an ulp apart (1.0 and ULP), which round to
#: the same slack once overdue at a large clock; None is an infinite
#: deadline
TTFT = [None, None, 0.5, 1.0, ULP, math.nextafter(0.5, 1.0), 3.0]
FIRST_TOKEN = [1.0, ULP, 2.0]
TBOT = [None, 0.0, 0.1, 0.25]
CLOCKS = [0.0, 0.75, 1.0, 3.0, 1e3, 1e6]


def request(data, i):
    return ServingRequest(
        f"r{i}",
        data.draw(st.sampled_from(ARRIVALS)),
        16,
        data.draw(st.integers(1, 4)),
        priority=data.draw(st.integers(0, 2)),
        predicted_len=data.draw(st.sampled_from([None, 1.0, 2.0, 3.5])),
        ttft_deadline=data.draw(st.sampled_from(TTFT)),
        tbot_target=data.draw(st.sampled_from(TBOT)),
    )


def clock(data):
    return data.draw(
        st.one_of(st.sampled_from(CLOCKS), st.floats(0.0, 1e6)), label="clock"
    )


def reference_order(ref, waiting, at):
    """Repeated reference picks at one clock: the static-batch order."""
    pool = list(waiting)
    order = []
    while pool:
        order.append(pool.pop(ref.select(pool, at)))
    return order


def drain(policy, queue, at):
    """Repeated ``select``/``remove`` on a copy, as static batching does."""
    pool = queue.copy()
    order = []
    while pool.requests:
        req = policy.select(pool, at)
        pool.remove(req, req.total_tokens)
        order.append(req)
    return order


def remove(waiting, req):
    del waiting[next(i for i, r in enumerate(waiting) if r is req)]


@pytest.mark.parametrize("name", sorted(REFERENCES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_queue_matches_list_scan(name, data):
    policy, ref = make_policy(name), REFERENCES[name]
    queue = WaitingQueue(policy)
    waiting = []  # the list the reference scans, in enqueue order
    ops = data.draw(st.integers(1, 40), label="ops")
    for i in range(ops):
        op = data.draw(
            st.sampled_from(["push", "push", "admit", "remove", "requeue"])
        )
        if op == "push" or not waiting:
            req = request(data, i)
            queue.push(req, req.total_tokens)
            waiting.append(req)
        elif op == "admit":
            # the pick leaves the queue (usually the head)
            req = policy.select(queue, clock(data))
            queue.remove(req, req.total_tokens)
            remove(waiting, req)
        else:
            req = data.draw(st.sampled_from(waiting))
            queue.remove(req, req.total_tokens)
            remove(waiting, req)
            if op == "requeue":
                # a preemption victim: admitted, decoded, pushed again
                if req.first_token is None:
                    req.first_token = data.draw(st.sampled_from(FIRST_TOKEN))
                queue.push(req, req.total_tokens)
                waiting.append(req)
        assert len(queue) == len(waiting)
        assert queue.tokens == sum(r.total_tokens for r in waiting)
        if waiting:
            at = clock(data)
            assert policy.select(queue, at) is waiting[ref.select(waiting, at)]
    at = clock(data)
    assert drain(policy, queue, at) == reference_order(ref, waiting, at)
    # iteration is admission order: the reference's picks at a clock
    # where slack is exactly the deadline (every policy but slo ignores
    # the clock)
    assert list(queue) == reference_order(ref, waiting, 0.0)
    assert len(queue) == len(waiting)  # the drained copy was independent


def test_overdue_ulp_apart_deadlines_pick_earlier_arrival():
    # the head has the smaller deadline, but once both are overdue at a
    # large clock their slacks round together and arrival decides
    head = ServingRequest("head", 0.5, 16, 4, ttft_deadline=0.5)
    early = ServingRequest("early", 0.0, 16, 4, ttft_deadline=ULP)
    policy = SlackPolicy()
    queue = WaitingQueue(policy)
    for req in (head, early):
        queue.push(req, req.total_tokens)
    assert list(queue) == [head, early]
    assert policy.select(queue, 0.5) is head
    assert policy.select(queue, 1000.0) is early
    assert RefSlack().select([head, early], 1000.0) == 1


def test_infinite_deadlines_follow_finite_ones_in_arrival_order():
    reqs = [
        ServingRequest("free-late", 0.2, 16, 4),
        ServingRequest("tight", 0.3, 16, 4, ttft_deadline=1.0),
        ServingRequest("free-early", 0.1, 16, 4),
    ]
    policy = SlackPolicy()
    queue = WaitingQueue(policy)
    for req in reqs:
        queue.push(req, req.total_tokens)
    assert [r.request_id for r in queue] == ["tight", "free-early", "free-late"]


def test_push_appends_arrival_ordered_fcfs_stream():
    queue = WaitingQueue(FCFSPolicy())
    reqs = [ServingRequest(f"r{i}", 0.1 * i, 16, 4) for i in range(5)]
    for req in reqs:
        queue.push(req, 20)
    assert queue.requests == reqs
    assert queue.keys == [(r.arrival, i) for i, r in enumerate(reqs)]
    assert queue.tokens == 100
    late = ServingRequest("late", 0.05, 16, 4)  # an out-of-order requeue
    queue.push(late, 20)
    assert queue.requests == [reqs[0], late, *reqs[1:]]
    queue.remove(reqs[3], 20)
    queue.remove(reqs[0], 20)
    assert queue.requests == [late, reqs[1], reqs[2], reqs[4]]
    assert queue.tokens == 80


@pytest.mark.parametrize(
    "policy", [FCFSPolicy(), ShortestFirstPolicy(), PriorityPolicy()]
)
def test_remove_finds_the_identical_object_among_equal_keys(policy):
    twins = [ServingRequest("twin", 0.0, 16, 4) for _ in range(3)]
    queue = WaitingQueue(policy)
    for req in twins:
        queue.push(req, 20)
    queue.remove(twins[1], 20)
    assert len(queue) == 2
    assert all(a is b for a, b in zip(queue, [twins[0], twins[2]]))
