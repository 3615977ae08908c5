"""Step-level trace of a serving simulation, stored column-wise.

Every scheduling decision the event-driven simulator makes can be
recorded as a typed :class:`TraceEvent`:

- ``ADMIT``        — a request left the queue (data: ``arrival``,
  ``queued_at`` — the last (re)queue epoch, which is the arrival for a
  fresh request and the preemption instant for a requeued one — plus
  ``ttft_deadline`` / ``tbot_target`` when SLO targets are set).
- ``PREFIX_HIT``   — admission found part of the prompt's KV already
  resident in the instance's prefix index (data: ``cached``, ``prompt``,
  ``saved_seconds`` — the single-shot prefill time the reuse avoids).
- ``PREFILL``      — its prompt pass ran in one shot (data: ``seconds``;
  after a prefix hit also ``cached``, the reused tokens not re-priced).
- ``PREFILL_CHUNK`` — one chunk of a chunked prefill ran (data:
  ``seconds``, ``chunk``, ``prefilled``, ``prompt``); the request's
  first token is emitted when the last chunk lands.
- ``DECODE_STEP``  — one decode iteration for the whole batch
  (data: ``batch``, ``kv``, ``seconds``, ``used_tokens``,
  ``token_budget``, ``live``).
- ``PREEMPT``      — a request was evicted mid-decode to reclaim KV
  budget and requeued for recompute (data includes ``requeued_at``,
  the epoch its next queue delay is measured from).
- ``FINISH``       — a request completed (data: ``arrival``,
  ``first_token``, ``generated``, plus ``ttft_deadline`` /
  ``tbot_target`` when set, with ``ttft_miss=1`` / ``tbot_miss=1``
  flagging violated SLOs inline in the rendered timeline).
- ``REJECT``       — a request could never fit and was dropped
  (data: ``need``, ``token_budget``; mid-decode drops also carry
  ``generated``, the tokens emitted before the drop).
- ``REROUTE``      — the ``compression`` routing policy's risk gate
  denied a compressed instance the scorer preferred and redirected the
  request to a lossless one at dispatch time (data: ``risk``,
  ``threshold``, ``denied`` — the index of the compressed instance the
  score alone would have picked; recorded on the instance that actually
  received the request).
- ``FALLBACK``     — a decode that completed on a compressed instance
  failed post-hoc verification and was re-enqueued on an FP16 instance
  (data: ``risk``, ``threshold``, ``generated`` — the compressed tokens
  being discarded — and ``refill``, the lossless response length of the
  re-decode; recorded on the fallback target under the *original*
  request id, at the original's finish time).
- ``KV_TRANSFER``  — a disaggregated fleet migrated a finished prefill's
  KV from a prefill-pool instance to a decode-pool instance (data:
  ``bytes``, ``seconds`` — priced by
  :func:`repro.hardware.interconnect.transfer_time` — plus ``tokens``
  and the ``link`` name; recorded on the *receiving* decode instance at
  the delivery instant).
- ``SCALE_UP`` / ``SCALE_DOWN`` — the fleet autoscaler activated a
  standby instance or started draining an active one (data: ``pool``,
  ``size`` — the pool's active size after the action; recorded on the
  affected instance at the control-loop tick).

Storage is **columnar** (struct-of-arrays): :class:`Trace` keeps NumPy
ring-buffer columns for ``time`` (float64), ``kind`` (uint8 code),
``request_id`` / ``instance`` (int32 indices into intern tables), plus
one ``(values, tags)`` float64/uint8 column pair per payload key.  Each
``EventType`` carries a bounded set of payload fields, so the payload
keys an event holds (and their dict order) are interned as a
*signature* — one int32 per event — which is what lets the columns
reconstruct every event's ``data`` dict byte-for-byte, optional keys
and insertion order included.  Value *types* round-trip exactly: a
per-entry tag distinguishes float / int / bool, and anything else
(strings, NumPy scalars) falls back to an object side-table.  The
rendered timeline, the JSONL export and every fold are pinned
scenario by scenario by the golden manifest
(``tests/test_golden_traces.py``).

The buffer grows geometrically (capacity doubles when full); passing
``max_events`` bounds it ring-buffer-style instead — once full, the
*oldest* quarter of events is dropped in one bulk shift and
``dropped_events`` counts what fell off, so fleet-scale sweeps can cap
trace memory.  :meth:`Trace.memory_stats` reports
events/capacity/bytes/drops for the telemetry memory gauges.

The object API is a set of thin lazy views: ``trace.events``
indexes and iterates like a list (each row materializes one
:class:`TraceEvent` on demand, cached), and :meth:`Trace.of_kind` /
:meth:`Trace.for_request` return **cached, no-copy** lists — repeat
calls return the same list object until a new matching event is
recorded (treat them as immutable).  ``repro.serving.metrics`` folds
the columns directly with masked NumPy reductions instead of touching
events at all.

:func:`request_latencies` folds a trace back into per-request E2E
latencies; they match ``SimulationResult.e2e`` exactly, which is the
invariant the trace tests pin.  ``repro.serving.metrics.StepMetrics``
aggregates a trace into queue-delay / TBOT / occupancy / budget
summaries, and ``python -m repro.cli trace`` dumps a run's timeline.
Folding is tolerant of *partial* traces (a JSONL export truncated
mid-run, or events missing payload keys): events without the keys a
fold needs are skipped rather than raising ``KeyError``, and
``StepMetrics.partial_requests`` counts the requests left incomplete.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class EventType(str, enum.Enum):
    """Kinds of scheduling events the simulator emits."""

    ADMIT = "ADMIT"
    PREFIX_HIT = "PREFIX_HIT"
    PREFILL = "PREFILL"
    PREFILL_CHUNK = "PREFILL_CHUNK"
    DECODE_STEP = "DECODE_STEP"
    PREEMPT = "PREEMPT"
    FINISH = "FINISH"
    REJECT = "REJECT"
    # appended after the seed kinds: uint8 codes in KINDS are positional,
    # so new members must only ever be added at the end
    REROUTE = "REROUTE"
    FALLBACK = "FALLBACK"
    KV_TRANSFER = "KV_TRANSFER"
    SCALE_UP = "SCALE_UP"
    SCALE_DOWN = "SCALE_DOWN"


#: fixed kind <-> uint8 code mapping for the kind column
KINDS: Tuple[EventType, ...] = tuple(EventType)
_KIND_CODE: Dict[EventType, int] = {k: i for i, k in enumerate(KINDS)}

# payload value tags: how to reconstruct the exact Python value
_ABSENT = 0
_FLOAT = 1
_INT = 2
_BOOL = 3
_OBJ = 4  # non-scalar fallback (object side-table keeps the original)

#: ints beyond this are not exact in float64; they take the object path
_MAX_EXACT_INT = 2 ** 53


def _render_value(v) -> str:
    """Payload value formatting for the rendered timeline.

    Bools render as ``1``/``0`` (not ``True``), ints get thousands
    separators, floats four decimals; exporters rely on this exact
    format, pinned by a golden test.
    """
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.4f}"
    if isinstance(v, int):
        return f"{v:,}"
    return str(v)


@dataclass
class TraceEvent:
    """One timestamped scheduling event."""

    time: float
    kind: EventType
    request_id: str = ""
    instance: str = ""
    data: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """One timeline line (fixed-width prefix, key=value payload)."""
        payload = " ".join(
            f"{k}={_render_value(v)}" for k, v in self.data.items()
        )
        rid = self.request_id or "-"
        inst = f"[{self.instance}] " if self.instance else ""
        return f"{self.time:10.4f}s  {self.kind.value:13s} {inst}{rid:12s} {payload}"


class _Column:
    """One payload key's value/tag column pair."""

    __slots__ = ("values", "tags")

    def __init__(self, capacity: int) -> None:
        self.values = np.zeros(capacity, dtype=np.float64)
        self.tags = np.zeros(capacity, dtype=np.uint8)

    def grow(self, capacity: int) -> None:
        values = np.zeros(capacity, dtype=np.float64)
        tags = np.zeros(capacity, dtype=np.uint8)
        values[: self.values.size] = self.values
        tags[: self.tags.size] = self.tags
        self.values, self.tags = values, tags

    def shift(self, drop: int, n: int) -> None:
        self.values[: n - drop] = self.values[drop:n]
        self.tags[: n - drop] = self.tags[drop:n]
        self.tags[n - drop:n] = _ABSENT


class _EventsView(Sequence):
    """List-like lazy view over a columnar trace's events."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace._n

    def __getitem__(self, i):
        n = self._trace._n
        if isinstance(i, slice):
            return [self._trace._event(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace event index out of range")
        return self._trace._event(i)

    def __iter__(self):
        for i in range(self._trace._n):
            yield self._trace._event(i)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_EventsView, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"<trace events x{len(self)}>"


class Trace:
    """Columnar append-only collector of scheduling events.

    See the module docstring for the layout.  The object API
    (``events``, :meth:`of_kind`, :meth:`for_request`) materializes
    :class:`TraceEvent` views lazily; the hot path appends scalars (or,
    via :meth:`record_decode_steps`, whole batches) straight into the
    columns.
    """

    def __init__(
        self, capacity: int = 1024, max_events: Optional[int] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_events is not None and max_events < 4:
            raise ValueError("max_events must be >= 4 (or None)")
        if max_events is not None:
            capacity = min(capacity, max_events)
        self._cap = capacity
        self._n = 0
        self.max_events = max_events
        self.dropped_events = 0
        #: sidecar metadata (filled by ``load_jsonl`` from a trace
        #: export's header line: schema version, the recording's
        #: ``dropped_events`` / ``max_events``, and optionally the
        #: scenario config + workload the replay harness consumes)
        self.meta: Dict[str, object] = {}
        self._time = np.zeros(capacity, dtype=np.float64)
        self._kind = np.zeros(capacity, dtype=np.uint8)
        self._req = np.zeros(capacity, dtype=np.int32)
        self._inst = np.zeros(capacity, dtype=np.int32)
        self._sig = np.zeros(capacity, dtype=np.int32)
        # intern tables (index 0 is the empty id on both)
        self._req_names: List[str] = [""]
        self._req_ids: Dict[str, int] = {"": 0}
        self._inst_names: List[str] = [""]
        self._inst_ids: Dict[str, int] = {"": 0}
        # payload-key-order signatures (signature 0 = no payload)
        self._sigs: List[Tuple[str, ...]] = [()]
        self._sig_ids: Dict[Tuple[str, ...], int] = {(): 0}
        self._cols: Dict[str, _Column] = {}
        self._obj: Dict[Tuple[int, str], object] = {}
        # lazy caches, invalidated by version bumps
        self._version = 0
        self._mat: Dict[int, TraceEvent] = {}
        self._kind_cache: Dict[EventType, Tuple[int, List[TraceEvent]]] = {}
        self._req_cache: Dict[str, Tuple[int, List[TraceEvent]]] = {}
        self._rows_cache: Dict[EventType, Tuple[int, np.ndarray]] = {}
        # buffer residency, maintained on growth so the telemetry
        # gauges can read it every sample without an O(columns) walk
        self._buffer_bytes = 0
        self._recount_bytes()

    def _recount_bytes(self) -> None:
        self._buffer_bytes = (
            self._time.nbytes + self._kind.nbytes + self._req.nbytes
            + self._inst.nbytes + self._sig.nbytes
            + sum(
                col.values.nbytes + col.tags.nbytes
                for col in self._cols.values()
            )
        )

    # ------------------------------------------------------------------
    # ring-buffer growth
    # ------------------------------------------------------------------
    def _reserve(self, extra: int) -> int:
        """Make room for ``extra`` rows; returns the first row index."""
        need = self._n + extra
        if self.max_events is not None and need > self.max_events:
            # bounded ring: shed the oldest quarter (at least enough to
            # fit) in one bulk shift, so drops stay amortized O(1)
            drop = max(need - self.max_events, self.max_events // 4)
            drop = min(drop, self._n)
            if drop:
                n = self._n
                for arr in (self._time, self._kind, self._req,
                            self._inst, self._sig):
                    arr[: n - drop] = arr[drop:n]
                for col in self._cols.values():
                    col.shift(drop, n)
                self._obj = {
                    (i - drop, k): v
                    for (i, k), v in self._obj.items()
                    if i >= drop
                }
                self._n -= drop
                self.dropped_events += drop
                self._version += 1
                self._mat.clear()
            need = self._n + extra
        while need > self._cap:
            new_cap = max(self._cap * 2, need)
            if self.max_events is not None:
                new_cap = min(max(new_cap, need), max(self.max_events, need))
            self._cap = new_cap
            for name in ("_time", "_kind", "_req", "_inst", "_sig"):
                old = getattr(self, name)
                arr = np.zeros(new_cap, dtype=old.dtype)
                arr[: old.size] = old
                setattr(self, name, arr)
            for col in self._cols.values():
                col.grow(new_cap)
            self._recount_bytes()
        row = self._n
        self._n = row + extra
        self._version += 1
        return row

    def _intern(self, names: List[str], ids: Dict[str, int], name: str) -> int:
        idx = ids.get(name)
        if idx is None:
            idx = ids[name] = len(names)
            names.append(name)
        return idx

    def _signature(self, keys: Tuple[str, ...]) -> int:
        sig = self._sig_ids.get(keys)
        if sig is None:
            sig = self._sig_ids[keys] = len(self._sigs)
            self._sigs.append(keys)
        return sig

    def _column(self, key: str) -> _Column:
        col = self._cols.get(key)
        if col is None:
            col = self._cols[key] = _Column(self._cap)
            self._buffer_bytes += col.values.nbytes + col.tags.nbytes
        return col

    def _set_value(self, row: int, col: _Column, key: str, v) -> None:
        t = type(v)
        if t is float:
            col.values[row] = v
            col.tags[row] = _FLOAT
        elif t is bool:
            col.values[row] = 1.0 if v else 0.0
            col.tags[row] = _BOOL
        elif t is int and -_MAX_EXACT_INT < v < _MAX_EXACT_INT:
            col.values[row] = v
            col.tags[row] = _INT
        else:
            # exact-object fallback (strings, NumPy scalars, huge ints):
            # keep the original for reconstruction, plus a numeric shadow
            # so the folds still see a value when one exists
            self._obj[(row, key)] = v
            try:
                col.values[row] = float(v)
            except (TypeError, ValueError):
                col.values[row] = np.nan
            col.tags[row] = _OBJ

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        kind: EventType,
        request_id: str = "",
        instance: str = "",
        **data,
    ) -> None:
        """Append one event straight into the columns."""
        self.record_fields(time, kind, request_id, instance, data)

    def record_fields(
        self,
        time: float,
        kind: EventType,
        request_id: str,
        instance: str,
        data: Dict[str, float],
    ) -> None:
        """Append one event whose payload dict is already built."""
        row = self._reserve(1)
        self._time[row] = time
        self._kind[row] = _KIND_CODE[kind]
        self._req[row] = (
            self._req_ids.get(request_id)
            if request_id in self._req_ids
            else self._intern(self._req_names, self._req_ids, request_id)
        )
        self._inst[row] = (
            self._inst_ids.get(instance)
            if instance in self._inst_ids
            else self._intern(self._inst_names, self._inst_ids, instance)
        )
        if data:
            keys = tuple(data)
            self._sig[row] = self._signature(keys)
            for k, v in data.items():
                self._set_value(row, self._column(k), k, v)
        else:
            self._sig[row] = 0

    def append(self, event: TraceEvent) -> None:
        """Append an already-built event (decomposed into the columns)."""
        self.record_fields(
            event.time, event.kind, event.request_id, event.instance,
            event.data,
        )

    _DECODE_KEYS = (
        "batch", "kv", "seconds", "used_tokens", "token_budget", "live",
    )

    def record_decode_steps(
        self,
        instance: str,
        times: Sequence[float],
        batch: int,
        kvs: Sequence[int],
        seconds: Sequence[float],
        used_tokens,
        token_budget: int,
    ) -> None:
        """Append a burst of ``DECODE_STEP`` events in one columnar write.

        ``used_tokens`` may be a scalar (reserve admission: occupancy is
        constant across the burst) or a per-step sequence (dynamic
        admission).  ``live`` equals ``batch`` — continuous batching
        records steps only while membership is fixed.  This is the
        simulator's hot-path append: a whole decode block lands as a
        handful of slice assignments instead of per-event dicts.
        """
        k = len(times)
        if k == 0:
            return
        row = self._reserve(k)
        end = row + k
        self._time[row:end] = times
        self._kind[row:end] = _KIND_CODE[EventType.DECODE_STEP]
        self._req[row:end] = 0
        self._inst[row:end] = (
            self._inst_ids.get(instance)
            if instance in self._inst_ids
            else self._intern(self._inst_names, self._inst_ids, instance)
        )
        self._sig[row:end] = self._signature(self._DECODE_KEYS)
        for key, value in (
            ("batch", batch),
            ("kv", kvs),
            ("used_tokens", used_tokens),
            ("token_budget", token_budget),
            ("live", batch),
        ):
            col = self._column(key)
            col.values[row:end] = value
            col.tags[row:end] = _INT
        col = self._column("seconds")
        col.values[row:end] = seconds
        col.tags[row:end] = _FLOAT

    # ------------------------------------------------------------------
    # lazy object views
    # ------------------------------------------------------------------
    def _event(self, row: int) -> TraceEvent:
        ev = self._mat.get(row)
        if ev is None:
            data: Dict[str, float] = {}
            for key in self._sigs[self._sig[row]]:
                col = self._cols[key]
                tag = col.tags[row]
                if tag == _FLOAT:
                    data[key] = float(col.values[row])
                elif tag == _INT:
                    data[key] = int(col.values[row])
                elif tag == _BOOL:
                    data[key] = bool(col.values[row])
                elif tag == _OBJ:
                    data[key] = self._obj[(row, key)]
                # _ABSENT: key recorded for other events only; skip
            ev = TraceEvent(
                float(self._time[row]),
                KINDS[self._kind[row]],
                self._req_names[self._req[row]],
                self._inst_names[self._inst[row]],
                data,
            )
            self._mat[row] = ev
        return ev

    @property
    def events(self) -> _EventsView:
        """Lazy list-like view; each access materializes a
        :class:`TraceEvent` from the columns (cached per row)."""
        return _EventsView(self)

    def rows_of(self, kind: EventType) -> np.ndarray:
        """Row indices of one kind, in time order (cached)."""
        cached = self._rows_cache.get(kind)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        rows = np.nonzero(self._kind[: self._n] == _KIND_CODE[kind])[0]
        self._rows_cache[kind] = (self._version, rows)
        return rows

    def payload(self, key: str):
        """``(values, present)`` float64/bool column views for one
        payload key (``(None, None)`` if no event ever carried it)."""
        col = self._cols.get(key)
        if col is None:
            return None, None
        return col.values[: self._n], col.tags[: self._n] != _ABSENT

    def of_kind(self, kind: EventType) -> List[TraceEvent]:
        """All events of one kind, in time order.

        Returns a **cached view**: repeat calls return the same list
        object until another event of this kind is recorded (no copy —
        ``StepMetrics``-style folds may call this many times).  Treat
        the result as immutable.
        """
        cached = self._kind_cache.get(kind)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        events = [self._event(int(i)) for i in self.rows_of(kind)]
        self._kind_cache[kind] = (self._version, events)
        return events

    def for_request(self, request_id: str) -> List[TraceEvent]:
        """All events touching one request (cached, no-copy view)."""
        cached = self._req_cache.get(request_id)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        idx = self._req_ids.get(request_id)
        if idx is None:
            events: List[TraceEvent] = []
        else:
            rows = np.nonzero(self._req[: self._n] == idx)[0]
            events = [self._event(int(i)) for i in rows]
        self._req_cache[request_id] = (self._version, events)
        return events

    def request_ids(self) -> List[str]:
        """Distinct non-empty request ids, in first-appearance order."""
        return self._req_names[1:]

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram (kinds with at least one event)."""
        hist = np.bincount(self._kind[: self._n], minlength=len(KINDS))
        return {
            kind.value: int(hist[code])
            for code, kind in enumerate(KINDS)
            if hist[code]
        }

    def render_timeline(self, limit: Optional[int] = None) -> str:
        """Human-readable timeline (optionally truncated to ``limit``).

        ``limit=None`` renders everything; any other value is clamped
        to ``[0, len(trace)]``, and a single ``... (N more events)``
        suffix reports exactly the rows cut off (no off-by-one, no
        stray blank lines — ``limit=0`` on an empty trace is ``""``).
        """
        n = self._n
        shown = n if limit is None else max(0, min(limit, n))
        lines = [self._event(i).render() for i in range(shown)]
        if shown < n:
            lines.append(f"... ({n - shown} more events)")
        return "\n".join(lines)

    def memory_stats(self) -> Dict[str, int]:
        """Ring-buffer residency for the telemetry memory gauges.

        O(1): ``buffer_bytes`` is maintained on growth, not summed here
        — the gauges sample this on every instance wake-up.
        """
        return {
            "events": self._n,
            "capacity": self._cap,
            "payload_columns": len(self._cols),
            "buffer_bytes": self._buffer_bytes,
            "dropped_events": self.dropped_events,
        }

    def __len__(self) -> int:
        return self._n


def request_latencies(trace: Trace) -> Dict[str, float]:
    """Per-request E2E latency reconstructed purely from trace events.

    ``FINISH.time - FINISH.data["arrival"]`` — exactly what the
    simulator stores on each request, so these match
    ``SimulationResult.e2e`` with no tolerance.  FINISH events missing
    ``arrival`` (hand-built or truncated partial traces) are skipped.
    The last FINISH per request wins.
    """
    out: Dict[str, float] = {}
    rows = trace.rows_of(EventType.FINISH)
    arr, present = trace.payload("arrival")
    if arr is None or not len(rows):
        return out
    names = trace._req_names
    times = trace._time
    req = trace._req
    for i in rows.tolist():
        if present[i]:
            out[names[req[i]]] = float(times[i] - arr[i])
    return out


def queue_delays(trace: Trace) -> Dict[str, float]:
    """Per-request queue delay (admit time minus the (re)queue epoch).

    Each admission is measured from ``queued_at`` — the arrival for a
    fresh request, the preemption instant for a re-admission — so a
    preempted request's second wait is not double-counted from its
    original arrival.  The last ADMIT wins, matching
    ``ServingRequest.queue_delay`` exactly.  ADMIT events carrying
    neither epoch (partial traces) are skipped.
    """
    out: Dict[str, float] = {}
    rows = trace.rows_of(EventType.ADMIT)
    if not len(rows):
        return out
    qa, qa_p = trace.payload("queued_at")
    ar, ar_p = trace.payload("arrival")
    names = trace._req_names
    times = trace._time
    req = trace._req
    for i in rows.tolist():
        if qa_p is not None and qa_p[i]:
            since = qa[i]
        elif ar_p is not None and ar_p[i]:
            since = ar[i]
        else:
            continue
        out[names[req[i]]] = float(times[i] - since)
    return out
