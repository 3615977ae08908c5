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
- **A codec on the columns.**  Both directions work on the
  :class:`Trace` columns, :data:`WINDOW` rows at a time, and never
  build a :class:`TraceEvent`.  The dump groups a window's rows by
  (signature, kind) and formats each group through one ``%`` template
  that has the kind, the payload keys and the separators already
  encoded; each column slice becomes JSON text by its tag, the way
  ``json.dumps`` writes that type (``float.__repr__`` with
  ``NaN``/``Infinity``, ``int.__repr__``, ``true``/``false``, and
  ``json.dumps`` itself for side-table objects), and each interned
  request id and instance name is encoded once.  So the bytes are those
  of one ``json.dumps`` per event, which the golden manifest
  (``tests/test_golden_traces.py``) pins.  The load keeps exactly the
  lines ``json.loads`` parses into an event of a known kind, and writes
  each window with one :meth:`Trace.record_events` call, which leaves
  the trace as one ``record_fields`` call per event would.
  ``tests/test_trace_codec.py`` checks both against the per-event codec.

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
from json.encoder import encode_basestring_ascii as _str_text
from typing import Dict, List, Optional, Union

import numpy as np

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

#: rows encoded, or lines staged, per window of the JSONL codec
WINDOW = 4096

_KIND_NAMES: Dict[str, EventType] = {kind.value: kind for kind in KINDS}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def _float_texts(values: np.ndarray) -> List[str]:
    """``json.dumps`` text of each float: ``float.__repr__``, and
    ``NaN`` / ``Infinity`` / ``-Infinity`` for the non-finite ones."""
    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


#: payload tag -> the ``json.dumps`` texts of a float64 slice of them
_TAG_TEXTS = {
    _FLOAT: _float_texts,
    _INT: lambda v: list(map(int.__repr__, v.astype(np.int64).tolist())),
    _BOOL: lambda v: ["true" if x else "false" for x in v.tolist()],
}


def _payload_texts(
    trace: Trace, key: str, rows: np.ndarray
) -> List[Optional[str]]:
    """``json.dumps`` text of ``key``'s value on each of ``rows`` (by
    its tag; ``None`` where the row does not hold the key)."""
    col = trace._cols[key]
    values = col.values[rows]
    tags = col.tags[rows]
    first = int(tags[0])
    if first in _TAG_TEXTS and (tags == first).all():
        return _TAG_TEXTS[first](values)
    texts: List[Optional[str]] = [None] * len(rows)
    for tag, encode in _TAG_TEXTS.items():
        at = np.flatnonzero(tags == tag)
        if at.size:
            for i, text in zip(at.tolist(), encode(values[at])):
                texts[i] = text
    for i in np.flatnonzero(tags == _OBJ).tolist():
        texts[i] = json.dumps(trace._obj[(int(rows[i]), key)])
    return texts


def _name_texts(names: List[str]) -> List[str]:
    """``json.dumps`` text of each interned request id / instance name."""
    return [
        _str_text(name) if isinstance(name, str) else json.dumps(name)
        for name in names
    ]


def _window_lines(
    trace: Trace, start: int, stop: int,
    req_texts: List[str], inst_texts: List[str],
) -> List[str]:
    """The JSON lines of rows ``[start, stop)``, in row order.

    Rows are grouped by (signature, kind); each group is formatted
    through one ``%`` template with its kind, keys and separators
    already encoded, from column slices turned into JSON text by tag.
    A group where some row lacks one of its signature's keys joins
    each row's payload on its own.
    """
    group_key = trace._sig[start:stop].astype(np.int64) * len(KINDS)
    group_key += trace._kind[start:stop]
    order = np.argsort(group_key, kind="stable")
    cuts = np.flatnonzero(np.diff(group_key[order])) + 1
    lines: List[str] = []
    for group in np.split(order, cuts):
        rows = group + start
        first = int(rows[0])
        keys = trace._sigs[trace._sig[first]]
        kind = KINDS[trace._kind[first]].value
        fields = [
            _float_texts(trace._time[rows]),
            list(map(req_texts.__getitem__, trace._req[rows].tolist())),
            list(map(inst_texts.__getitem__, trace._inst[rows].tolist())),
        ]
        values = [_payload_texts(trace, key, rows) for key in keys]
        # the key text json.dumps writes (it converts non-str keys)
        key_texts = [json.dumps({key: 0})[1:-4] for key in keys]
        head = '{"time": %s, "kind": "' + kind + '", "request_id": %s, ' \
            '"instance": %s, "data": '
        if all(None not in texts for texts in values):
            data = ", ".join(
                text.replace("%", "%%") + ": %s" for text in key_texts
            )
            template = head + "{" + data + "}}"
            fields += values
        else:
            pieces = [
                [None if t is None else f"{key}: {t}" for t in texts]
                for key, texts in zip(key_texts, values)
            ]
            fields.append([
                "{" + ", ".join([p for p in row if p is not None]) + "}"
                for row in zip(*pieces)
            ])
            template = head + "%s}"
        lines.extend(map(template.__mod__, zip(*fields)))
    if len(cuts):
        # back from group order to row order
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        lines = list(map(lines.__getitem__, where.tolist()))
    return lines


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
    format.  The events are encoded from the columns, :data:`WINDOW`
    rows at a time (see the module docstring).
    """
    path = pathlib.Path(path)
    head = _header(trace, scenario, workload, meta)
    trace._flush()
    n = len(trace)
    req_texts = _name_texts(trace._req_names)
    inst_texts = _name_texts(trace._inst_names)
    with path.open("w") as fp:
        if head is not None:
            fp.write(json.dumps(head) + "\n")
        for start in range(0, n, WINDOW):
            stop = min(start + WINDOW, n)
            lines = _window_lines(trace, start, stop, req_texts, inst_texts)
            fp.write("\n".join(lines) + "\n")
    return n


def load_jsonl(path: PathLike) -> Trace:
    """Rebuild a :class:`Trace` from a JSONL export.

    Corrupt lines (e.g. the half-written tail of a dump truncated
    mid-run, or an event whose ``data`` is not a JSON object) are
    skipped, not fatal — the partial-trace-tolerant folds downstream
    account for the requests they cut off.  A line is kept exactly when
    ``json.loads`` parses it and its ``kind`` names an
    :class:`EventType`.  The events are staged :data:`WINDOW` at a time
    and written with one :meth:`Trace.record_events` call (no
    :class:`TraceEvent` is built), which leaves the trace as one
    ``record_fields`` call per event would.

    A metadata header line, when present, is surfaced as ``trace.meta``
    and its ``dropped_events`` restored onto the rebuilt trace, so a
    bounded recording that shed events no longer round-trips as if it
    were a complete run (``StepMetrics.from_trace`` reports it via
    ``dropped_events`` and the anomaly miner flags the trace partial).
    The rebuilt trace itself is unbounded — loading never re-sheds.
    """
    trace = Trace()
    path = pathlib.Path(path)
    times: List[float] = []
    kinds: List[EventType] = []
    reqs: List[str] = []
    insts: List[str] = []
    datas: List[dict] = []
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
                kind = _KIND_NAMES[obj["kind"]]
                time = float(obj["time"])
            except (ValueError, KeyError, TypeError):
                continue  # truncated / corrupt line
            data = obj.get("data", {})
            if not isinstance(data, dict):
                continue  # corrupt payload
            times.append(time)
            kinds.append(kind)
            reqs.append(str(obj.get("request_id", "")))
            insts.append(str(obj.get("instance", "")))
            datas.append(data)
            if len(times) == WINDOW:
                trace.record_events(times, kinds, reqs, insts, datas)
                times, kinds, reqs, insts, datas = [], [], [], [], []
    trace.record_events(times, kinds, reqs, insts, datas)
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
