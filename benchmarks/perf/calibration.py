"""Host-speed calibration: a fixed kernel timed between measured segments.

The benchmark runs on a shared host whose speed drifts by tens of
percent over seconds to minutes (other tenants' load), and the drift
slows the program and a comparable fixed kernel in proportion.  So a
repetition is timed in segments -- the whole repetition, or the phases
a workload marks with ``lap()`` -- and after every segment the kernel
runs twice.  A segment's *reference time* is its wall time scaled by
the kernel's reference time over the kernel's median time on both sides
of that segment: the time it would have taken with the host at the
speed the benchmark was tuned at.  On a quiet host the two agree.

The kernels share no code with the program, so a change to the program
can never speed up or slow down its own yardstick.  Each workload uses
the kernel closest to its own work: interpreter-bound Python for the
simulator, BLAS-bound NumPy for the model.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

import numpy as np

#: kernel runs after each measured segment
SAMPLES = 2


class _Node:
    __slots__ = ("key", "size", "log")

    def __init__(self, key: int) -> None:
        self.key = key
        self.size = key * 2
        self.log: List[int] = []


#: the Python kernel's objects, in a fixed random visiting order (built
#: on first use): about 4 MB, more than a core's L2 cache.  A kernel
#: whose data fit in L2 slowed about a quarter more than the simulator
#: when other tenants loaded the host; this one slows alike.
_VISIT: List[_Node] = []


def python_kernel() -> int:
    """Interpreter-bound work shaped like the simulator's: attribute
    reads, list and dict updates and a bounded heap, over objects
    scattered in memory."""
    if not _VISIT:
        nodes = [_Node(i) for i in range(20_000)]
        order = np.random.default_rng(0).permutation(len(nodes))
        _VISIT.extend(nodes[k] for k in order)
    heap: list = []
    table: dict = {}
    acc = 0
    for i, node in enumerate(_VISIT):
        node.log.append(i)
        if len(node.log) > 4:
            node.log.pop(0)
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 1023] = table.get(i & 511, 0) + node.size
        acc += node.key
    return acc


_Q = np.random.default_rng(0).standard_normal((4, 8, 64, 64)).astype(np.float32)
_K = np.random.default_rng(1).standard_normal((4, 8, 64, 512)).astype(np.float32)


def numpy_kernel() -> float:
    """BLAS-bound work shaped like the model's attention: batched
    float32 matmuls around a softmax-style exponent (a few MB, so the
    kernel barely moves the process's peak memory)."""
    total = 0.0
    for _ in range(4):
        s = _Q @ _K
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        total += float((s @ _K.transpose(0, 1, 3, 2)).sum())
    return total


#: name -> (kernel, its reference time in seconds: about its lower
#: quartile on a quiet 2-vCPU Sapphire Rapids KVM guest, one BLAS thread)
KERNELS = {
    "python": (python_kernel, 0.0280),
    "numpy": (numpy_kernel, 0.0230),
}


class Calibration:
    """Times work in reference seconds with one kernel.

    ``start()`` opens a repetition, ``lap()`` closes a segment (and
    opens the next); ``wall`` and ``ref`` accumulate the repetition's
    host and reference seconds, kernel runs excluded.
    """

    def __init__(self, name: str) -> None:
        self.kernel, self.reference = KERNELS[name]
        self.kernel()  # untimed: a first run also builds the kernel's data
        self._before = self._sample()
        self.wall = self.ref = 0.0
        self._t0 = time.perf_counter()

    def _sample(self) -> List[float]:
        times = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return times

    def scale(self) -> float:
        """Reference over host speed since the previous kernel runs."""
        after = self._sample()
        factor = self.reference / statistics.median(self._before + after)
        self._before = after
        return factor

    def start(self) -> None:
        self.wall = self.ref = 0.0
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        seconds = time.perf_counter() - self._t0
        self.wall += seconds
        self.ref += seconds * self.scale()
        self._t0 = time.perf_counter()
