"""Trace exporters: JSONL dump/load and Chrome ``trace_event`` JSON.

JSONL is the machine-readable archive format: one event per line,
loss-free (:func:`load_jsonl` rebuilds a :class:`Trace` whose
``StepMetrics.from_trace`` fold is *exactly* the in-memory one — floats
round-trip through ``json`` by value), and tolerant of truncation (a
half-written final line is skipped, and the partial-trace-aware folds
report the requests it cut off instead of crashing).  That makes traces
replayable artifacts: tests, offline analysis, and the
:mod:`repro.serving.replay` harness recompute every serving metric —
or re-run the whole workload — from a file.

Two refinements over the naive per-event loop:

- **Metadata header.**  A dump may open with one header line,
  ``{"__trace_meta__": {"schema": 1, ...}}``, carrying what the event
  stream itself cannot: the recording's ring-buffer truncation
  (``dropped_events`` / ``max_events`` — a bounded trace that shed its
  oldest quarter must not round-trip as a complete run), and optionally
  the ``scenario`` config and ``workload`` specs the replay harness
  uses to re-run the recording.  The header is *optional* and only
  written when there is something to say (truncation happened, a bound
  was set, or the caller passed context), so plain unbounded dumps stay
  byte-for-byte what they always were.  ``load_jsonl`` surfaces it as
  ``trace.meta`` and restores ``trace.dropped_events``, which the
  metrics folds and the anomaly miner report instead of silently
  treating a truncated trace as a full run.
- **Columnar streaming.**  Dumping walks the :class:`Trace` columns
  directly — signature-resolved payload keys, one reused dict per
  line — instead of materializing (and permanently caching) a
  :class:`TraceEvent` per row, which defeated the columnar memory win
  on export-heavy runs.  The golden manifest
  (``tests/test_golden_traces.py``) pins the output bytes.

The Chrome exporter emits the ``trace_event`` JSON object format
(``{"traceEvents": [...]}``) so a *simulated* serving run opens in
``chrome://tracing`` / Perfetto like a real profile: one process per
serving instance, one thread lane per request, complete (``"X"``)
events for the span tree :func:`build_spans` derives (children nested
inside their request's root span by containment), instant (``"i"``)
markers for preemptions/rejections/prefix hits, and counter (``"C"``)
tracks for KV occupancy and batch size.  Timestamps are microseconds,
per the spec.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterator, List, Optional, Union

from repro.serving.telemetry.spans import Span, build_spans
from repro.serving.trace import (
    _BOOL,
    _FLOAT,
    _INT,
    _OBJ,
    KINDS,
    EventType,
    Trace,
)

PathLike = Union[str, pathlib.Path]

_US = 1e6  # trace_event timestamps are microseconds

#: reserved top-level key marking the optional JSONL header line
META_KEY = "__trace_meta__"
#: header schema version (bump when header fields change shape)
META_SCHEMA = 1


def _header(trace: Trace, scenario, workload, meta) -> Optional[dict]:
    """The optional metadata header, or ``None`` when a plain dump
    (complete, unbounded, context-free) should stay header-less."""
    dropped = trace.dropped_events
    max_events = trace.max_events
    if not (dropped or max_events is not None or scenario is not None
            or workload is not None or meta):
        return None
    head: Dict[str, object] = {
        "schema": META_SCHEMA,
        "events": len(trace),
        "dropped_events": dropped,
        "max_events": max_events,
    }
    if scenario is not None:
        head["scenario"] = scenario
    if workload is not None:
        head["workload"] = list(workload)
    if meta:
        head.update(meta)
    return {META_KEY: head}


def _iter_jsonl(trace: Trace) -> Iterator[str]:
    """One JSON line per event, streamed straight off the columns.

    Each line is ``{"time", "kind", "request_id", "instance", "data"}``,
    built without a :class:`TraceEvent` per row: the columns are
    unboxed to plain Python lists once, payload keys come from the
    interned signatures, and each line reuses one dict.
    """
    trace._flush()
    n = len(trace)
    kind_names = [k.value for k in KINDS]
    times = trace._time[:n].tolist()
    kinds = trace._kind[:n].tolist()
    reqs = trace._req[:n].tolist()
    insts = trace._inst[:n].tolist()
    sigs = trace._sig[:n].tolist()
    req_names = trace._req_names
    inst_names = trace._inst_names
    signatures = trace._sigs
    cols = {
        key: (col.values[:n].tolist(), col.tags[:n].tolist())
        for key, col in trace._cols.items()
    }
    objs = trace._obj
    for i in range(n):
        data: Dict[str, object] = {}
        for key in signatures[sigs[i]]:
            values, tags = cols[key]
            tag = tags[i]
            if tag == _FLOAT:
                data[key] = values[i]
            elif tag == _INT:
                data[key] = int(values[i])
            elif tag == _BOOL:
                data[key] = bool(values[i])
            elif tag == _OBJ:
                data[key] = objs[(i, key)]
            # _ABSENT: key recorded for other events only; skip
        yield json.dumps(
            {
                "time": times[i],
                "kind": kind_names[kinds[i]],
                "request_id": req_names[reqs[i]],
                "instance": inst_names[insts[i]],
                "data": data,
            }
        )


def dump_jsonl(
    trace: Trace,
    path: PathLike,
    scenario: Optional[dict] = None,
    workload: Optional[List[dict]] = None,
    meta: Optional[dict] = None,
) -> int:
    """Write ``trace`` as JSON-lines; returns the event count.

    ``scenario`` / ``workload`` / ``meta`` land in the optional header
    line (see the module docstring) together with the trace's
    ring-buffer truncation state; a complete unbounded trace dumped
    without context stays header-less, bytes identical to the legacy
    format.
    """
    path = pathlib.Path(path)
    head = _header(trace, scenario, workload, meta)
    count = 0
    with path.open("w") as fp:
        if head is not None:
            fp.write(json.dumps(head) + "\n")
        batch: List[str] = []
        for line in _iter_jsonl(trace):
            batch.append(line)
            count += 1
            if len(batch) >= 4096:
                fp.write("\n".join(batch) + "\n")
                batch.clear()
        if batch:
            fp.write("\n".join(batch) + "\n")
    return count


def load_jsonl(path: PathLike) -> Trace:
    """Rebuild a :class:`Trace` from a JSONL export.

    Corrupt lines (e.g. the half-written tail of a dump truncated
    mid-run, or an event whose ``data`` is not a JSON object) are
    skipped, not fatal — the partial-trace-tolerant folds downstream
    account for the requests they cut off.  Each event is written
    straight into the trace's columns (no :class:`TraceEvent` is built).

    A metadata header line, when present, is surfaced as ``trace.meta``
    and its ``dropped_events`` restored onto the rebuilt trace, so a
    bounded recording that shed events no longer round-trips as if it
    were a complete run (``StepMetrics.from_trace`` reports it via
    ``dropped_events`` and the anomaly miner flags the trace partial).
    The rebuilt trace itself is unbounded — loading never re-sheds.
    """
    trace = Trace()
    path = pathlib.Path(path)
    with path.open() as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # truncated / corrupt line
            if isinstance(obj, dict) and META_KEY in obj:
                head = obj[META_KEY]
                if isinstance(head, dict) and not trace.meta:
                    trace.meta = dict(head)
                    try:
                        trace.dropped_events = int(
                            head.get("dropped_events", 0) or 0
                        )
                    except (TypeError, ValueError):
                        pass
                continue
            try:
                kind = EventType(obj["kind"])
                time = float(obj["time"])
            except (ValueError, KeyError, TypeError):
                continue  # truncated / corrupt line
            data = obj.get("data", {})
            if not isinstance(data, dict):
                continue  # corrupt payload
            trace.record_fields(
                time, kind, str(obj.get("request_id", "")),
                str(obj.get("instance", "")), data,
            )
    return trace


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def _span_events(
    span: Span, pid: int, tid: int, out: List[dict]
) -> None:
    ph = "X"
    evt = {
        "name": span.name,
        "cat": "serving",
        "ph": ph,
        "ts": span.start * _US,
        "dur": max(0.0, span.duration) * _US,
        "pid": pid,
        "tid": tid,
        "args": dict(span.meta),
    }
    out.append(evt)
    for child in span.children:
        _span_events(child, pid, tid, out)


def to_chrome_trace(
    trace: Trace, spans: Optional[List[Span]] = None
) -> dict:
    """Render ``trace`` as a Chrome/Perfetto ``trace_event`` object.

    One *process* per serving instance (unnamed instances fold into a
    ``serving`` process), one *thread* lane per request carrying its
    nested span tree, plus instant markers and KV/batch counter tracks.
    """
    if spans is None:
        spans = build_spans(trace)
    events: List[dict] = []
    pids: Dict[str, int] = {}

    def pid_for(instance: str) -> int:
        if instance not in pids:
            pids[instance] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[instance],
                    "tid": 0,
                    "args": {"name": instance or "serving"},
                }
            )
        return pids[instance]

    for tid, root in enumerate(spans, start=1):
        pid = pid_for(root.instance)
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": root.request_id or f"lane {tid}"},
            }
        )
        _span_events(root, pid, tid, events)

    tids = {root.request_id: tid for tid, root in enumerate(spans, start=1)}
    for e in trace.events:
        pid = pid_for(e.instance)
        if e.kind in (EventType.PREEMPT, EventType.REJECT):
            events.append(
                {
                    "name": e.kind.value,
                    "cat": "serving",
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "ts": e.time * _US,
                    "pid": pid,
                    "tid": tids.get(e.request_id, 0),
                    "args": dict(e.data),
                }
            )
        elif e.kind is EventType.DECODE_STEP:
            args = {}
            if "used_tokens" in e.data:
                args["kv_used_tokens"] = e.data["used_tokens"]
            if "batch" in e.data:
                args["batch"] = e.data["batch"]
            if args:
                events.append(
                    {
                        "name": "kv_and_batch",
                        "cat": "serving",
                        "ph": "C",
                        "ts": e.time * _US,
                        "pid": pid,
                        "tid": 0,
                        "args": args,
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Trace, path: PathLike) -> int:
    """Write the Chrome export; returns the ``traceEvents`` count."""
    doc = to_chrome_trace(trace)
    pathlib.Path(path).write_text(json.dumps(doc) + "\n")
    return len(doc["traceEvents"])
