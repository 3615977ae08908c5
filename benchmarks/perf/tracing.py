"""Benchmark-side layer tracing and planted slowdowns.

Nothing here edits the program: each traced layer is a public function
or method of ``repro`` that the tracer replaces, for the traced
repetitions only, with a wrapper recording an in-memory span ``(name,
start, end, parent, rep)``.  A function is replaced where it is *looked
up*: a module-level function in every loaded module that holds it
(``naive_attention`` is defined in ``repro.model.attention`` but called
through ``repro.model.transformer``), a method on its class.  Self time
is a span's duration minus the part its child spans cover
(:func:`self_times`).

Boundaries hit far more often than the layers around them get a
counting wrapper instead (no clock reads), so their time stays in the
enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Hook = Callable[[Dict[str, float], tuple], None]


def _add(key: str, amount: Callable[[tuple], float]) -> Hook:
    """Hook adding ``amount(args)`` to counter ``key`` on every call."""

    def hook(counters, args):
        counters[key] += amount(args)

    return hook


def _attention_cost(counters, args) -> None:
    """FLOP and bytes of one ``naive_attention`` call, from its argument
    shapes: the QK^T and PV matmuls, and q/k/v/out plus the score matrix
    written and read once."""
    q, k = args[0], args[1]
    b, h, sq, dh = q.shape
    n = k.shape[2]
    counters["model.naive_attention.gflop"] += 4.0 * b * h * sq * n * dh / 1e9
    elems = 2 * q.size + 2 * k.size + 2 * b * h * sq * n
    counters["model.naive_attention.gbytes"] += elems * q.itemsize / 1e9


#: (span name, ``module:qualname``, argument hook).  The span name is
#: the per-layer metric prefix of ``<name>.calls`` and ``<name>.self_s``.
SPANS: Tuple[Tuple[str, str, Optional[Hook]], ...] = (
    # serving.simulator: the admit/decode loop runs inside these two
    ("serving.simulator.run", "repro.serving.simulator:ServerInstance.run", None),
    ("serving.simulator.loop", "repro.serving.events:EventLoop.run", None),
    # serving.scheduler: every policy's own select / victim
    *(
        ("serving.scheduler.select", f"repro.serving.scheduler:{cls}.select",
         _add("serving.scheduler.select.queue_len", lambda a: len(a[1])))
        for cls in ("FCFSPolicy", "ShortestFirstPolicy", "PriorityPolicy",
                    "SlackPolicy")
    ),
    *(
        ("serving.scheduler.victim", f"repro.serving.scheduler:{cls}.victim", None)
        for cls in ("SchedulerPolicy", "ShortestFirstPolicy", "PriorityPolicy",
                    "SlackPolicy")
    ),
    ("serving.trace.record_fields", "repro.serving.trace:Trace.record_fields", None),
    ("serving.trace.record_decode_steps",
     "repro.serving.trace:Trace.record_decode_steps",
     _add("serving.trace.decode_rows", lambda a: len(a[2]))),
    ("serving.trace.append", "repro.serving.trace:Trace.append", None),
    ("serving.metrics.from_trace", "repro.serving.metrics:StepMetrics.from_trace", None),
    ("serving.metrics.request_latencies", "repro.serving.trace:request_latencies", None),
    ("serving.metrics.queue_delays", "repro.serving.trace:queue_delays", None),
    *(
        (f"serving.telemetry.{m}", f"repro.serving.telemetry.core:Telemetry.{m}", None)
        for m in ("on_event", "on_decode_steps", "sample_instance", "on_loop")
    ),
    ("serving.export.dump_jsonl", "repro.serving.telemetry.export:dump_jsonl", None),
    ("serving.export.load_jsonl", "repro.serving.telemetry.export:load_jsonl", None),
    ("serving.replay.replay_trace", "repro.serving.replay:replay_trace", None),
    ("serving.fleet.serve", "repro.serving.fleet:DisaggFleet.serve", None),
    ("serving.fleet.autoscaler_step", "repro.serving.fleet:Autoscaler.step", None),
    ("serving.router.serve_online", "repro.serving.router:Router.serve_online", None),
    *(
        (f"serving.prefix.{m}", f"repro.serving.prefix:PrefixIndex.{m}", None)
        for m in ("lookup", "insert", "peek")
    ),
    *(
        (f"engines.{m}", f"repro.engines.base:ServingCostModel.{m}", None)
        for m in ("decode_step", "prefill", "prefill_chunk", "decode_throughput")
    ),
    ("hardware.roofline_total_seconds", "repro.hardware.roofline:Roofline.total_seconds", None),
    ("hardware.roofline_breakdown", "repro.hardware.roofline:Roofline.breakdown", None),
    ("hardware.memory_breakdown", "repro.hardware.memory:MemoryModel.breakdown", None),
    ("model.prefill", "repro.model.transformer:FunctionalTransformer.prefill",
     _add("model.prefill_tokens", lambda a: a[1].size)),
    ("model.decode_step", "repro.model.transformer:FunctionalTransformer.decode_step",
     _add("model.decode_tokens", lambda a: a[1].size)),
    ("model.naive_attention", "repro.model.attention:naive_attention", _attention_cost),
    ("model.head_bias_matrix", "repro.model.attention:HeadBias.matrix", None),
    ("model.cache_append", "repro.model.cache:LayerCache.append", None),
    ("model.build_score_mask", "repro.model.attention:build_score_mask", None),
    ("model.softmax_inplace", "repro.model.layers:softmax_inplace", None),
    ("model.mlp_forward", "repro.model.layers:MLPWeights.forward", None),
    ("model.project_qkv", "repro.model.layers:AttentionWeights.project_qkv", None),
    ("model.project_out", "repro.model.layers:AttentionWeights.project_out", None),
    ("compression.kivi.compress", "repro.compression.quant.kivi:KIVICompressor.compress", None),
    ("compression.gear.compress", "repro.compression.quant.gear:GEARCompressor.compress", None),
    ("compression.h2o.compress", "repro.compression.sparse.h2o:H2OCompressor.compress", None),
    ("compression.h2o.observe", "repro.compression.sparse.h2o:H2OCompressor.observe", None),
    ("compression.stream.compress",
     "repro.compression.sparse.streaming:StreamingLLMCompressor.compress", None),
    ("compression.quant_per_channel",
     "repro.compression.quant.codec:quant_dequant_per_channel", None),
    ("compression.quant_per_token",
     "repro.compression.quant.codec:quant_dequant_per_token", None),
)

#: (counter name, ``module:qualname``): call counts without spans
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("serving.simulator.loop_events", "repro.serving.events:EventLoop.schedule"),
    ("hardware.transfer_time.calls", "repro.hardware.interconnect:transfer_time"),
)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def resolve(spec: str):
    """``"pkg.module:Qual.name"`` -> (owner object, attribute name)."""
    modname, _, qualname = spec.partition(":")
    if not qualname:
        raise ValueError(f"expected MODULE:QUALNAME, got {spec!r}")
    owner = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError for a wrong name
    return owner, attr


class Patches:
    """Function replacements; :meth:`undo` restores every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def wrap(self, spec: str, make: Callable[[Callable], Callable]) -> None:
        """Replace the function at ``spec`` by ``make(function)``."""
        owner, attr = resolve(spec)
        if isinstance(owner, ModuleType):
            fn = getattr(owner, attr)
            new = make(fn)
            # every module that imported the function by name calls it
            # through its own reference: swap each one
            for mod in list(sys.modules.values()):
                names = getattr(mod, "__dict__", None) or {}
                for name, value in list(names.items()):
                    if value is fn:
                        self._undo.append((mod, name, fn, True))
                        setattr(mod, name, new)
            return
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw, attr in vars(owner)))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, raw, own in reversed(self._undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)  # the method was inherited
        self._undo.clear()


def busy_wait(seconds: float) -> None:
    """Spin rather than sleep: the slowdown must cost CPU like work."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def parse_plant(text: str) -> Tuple[str, float]:
    """``MODULE:QUALNAME=FACTOR`` -> (spec, factor >= 1)."""
    spec, sep, factor = text.rpartition("=")
    if not sep or ":" not in spec:
        raise ValueError(f"--plant expects MODULE:QUALNAME=FACTOR, got {text!r}")
    f = float(factor)
    if f < 1.0:
        raise ValueError("a plant factor must be >= 1")
    return spec, f


def plant(spec: str, factor: float) -> Patches:
    """Make each call of ``spec`` take ``factor`` times its own duration
    by busy-waiting ``factor - 1`` times that duration after it."""

    def make(fn):
        @functools.wraps(fn)
        def slowed(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                busy_wait((time.perf_counter() - t0) * (factor - 1.0))

        return slowed

    patches = Patches()
    patches.wrap(spec, make)
    return patches


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` indexes span ``i``'s enclosing span, or is -1.  The
    children of one span never overlap (one thread), so what remains is
    exactly the time the span spent in itself.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


class Tracer:
    """Spans and counters of the traced repetitions, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rep = array("i")
        self.current_rep = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches = Patches()

    def _span(self, name: str, hook: Optional[Hook]):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends, reps = (
            self.name_id, self.parent, self.start, self.end, self.rep,
        )
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kw):
                if hook is not None:
                    hook(counters, args)
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                reps.append(self.current_rep)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kw)
                finally:
                    ends[idx] = clock()
                    stack.pop()

            return traced

        return make

    def _counter(self, name: str):
        counters = self.counters

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kw):
                counters[name] += 1
                return fn(*args, **kw)

            return counted

        return make

    def install(self, spans=SPANS, counts=COUNTS) -> None:
        """Wrap every layer boundary.  Install after any planted
        slowdown, so the planted time lands in the planted layer's span."""
        for name, spec, hook in spans:
            self._patches.wrap(spec, self._span(name, hook))
        for name, spec in counts:
            self._patches.wrap(spec, self._counter(name))

    def uninstall(self) -> None:
        self._patches.undo()

    def begin_rep(self, rep: int) -> None:
        self.current_rep = rep
        self.counters.clear()

    def _first_span(self, rep: int) -> int:
        """Index of ``rep``'s first span (a repetition's spans are
        contiguous), or the span count if it has none."""
        rep_of = np.array(self.rep, dtype=np.int32)
        hits = np.nonzero(rep_of == rep)[0]
        return int(hits[0]) if hits.size else len(rep_of)

    def rep_summary(self, rep: int) -> Dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` of one repetition, plus
        its counters."""
        out = dict(self.counters)
        first, stop = self._first_span(rep), len(self.rep)
        if first == stop:
            return out
        parent = np.array(self.parent[first:stop], dtype=np.int64)
        own = self_times(
            np.array(self.start[first:stop]),
            np.array(self.end[first:stop]),
            np.where(parent >= 0, parent - first, -1),
        )
        nid = np.array(self.name_id[first:stop], dtype=np.int64)
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        return out

    def drop_rep(self, rep: int) -> None:
        """Free the spans of ``rep``, the most recent repetition."""
        cut = self._first_span(rep)
        for arr in (self.name_id, self.parent, self.start, self.end, self.rep):
            del arr[cut:]

    def write_chrome_trace(self, path: str) -> int:
        """Write the kept spans as Chrome ``trace_event`` JSON (complete
        events in microseconds); returns the span count."""
        t0 = self.start[0] if len(self.start) else 0.0
        events = [
            {
                "name": self.names[self.name_id[i]],
                "ph": "X",
                "ts": (self.start[i] - t0) * 1e6,
                "dur": (self.end[i] - self.start[i]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"rep": self.rep[i], "parent": self.parent[i]},
            }
            for i in range(len(self.start))
        ]
        with open(path, "w") as fp:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fp)
        return len(events)
