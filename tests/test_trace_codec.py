"""The JSONL codec against the per-event codec it replaced.

``dump_jsonl`` encodes the trace's columns a window of rows at a time
and ``load_jsonl`` stages a window of parsed lines per
``Trace.record_events`` call.  Both must keep the per-event behaviour
exactly, so the per-event encoder and loader are kept below as the
oracle (``reference_dump_jsonl`` / ``reference_load_jsonl``), and a
bounded hypothesis property drives both pairs over random traces: every
event kind, optional payload keys and keys cleared to absent, empty
payloads, floats including ±inf and NaN, ints on both sides of 2**53,
bools, ``None``, lists, and strings with quotes, backslashes, newlines,
``%`` and non-ASCII characters, in unbounded traces and in bounded ones
that dropped rows, with and without a header.  The dump must write the
oracle's bytes, and the loader must rebuild the oracle's trace: every
event and value type, ``request_ids()``, the intern and column order,
every column, ``meta``, ``dropped_events`` and the ``memory_stats()``
counts (not the buffer size, which follows the windows) — also
from files with corrupt lines, a truncated last line and a BOM.  The
window is drawn small as well as at its real size, so groups and
windows split everywhere.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from typing import Dict, Iterator, List, Optional
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import EventType, Trace, dump_jsonl, load_jsonl
from repro.serving.telemetry import export
from repro.serving.telemetry.export import META_KEY, _header
from repro.serving.trace import _ABSENT, _BOOL, _FLOAT, _INT, _OBJ, KINDS


# ----------------------------------------------------------------------
# the per-event codec (the oracle)
# ----------------------------------------------------------------------
def reference_iter_jsonl(trace: Trace) -> Iterator[str]:
    """One ``json.dumps`` line per event, read row by row."""
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


def reference_dump_jsonl(
    trace: Trace,
    path,
    scenario: Optional[dict] = None,
    workload: Optional[List[dict]] = None,
    meta: Optional[dict] = None,
) -> int:
    path = pathlib.Path(path)
    head = _header(trace, scenario, workload, meta)
    count = 0
    with path.open("w") as fp:
        if head is not None:
            fp.write(json.dumps(head) + "\n")
        batch: List[str] = []
        for line in reference_iter_jsonl(trace):
            batch.append(line)
            count += 1
            if len(batch) >= 4096:
                fp.write("\n".join(batch) + "\n")
                batch.clear()
        if batch:
            fp.write("\n".join(batch) + "\n")
    return count


def reference_load_jsonl(path) -> Trace:
    """``json.loads`` and one ``record_fields`` call per kept line."""
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
# strategies
# ----------------------------------------------------------------------
ODD = '"\\\n\t%é☃\x00{}'
names = st.sampled_from(
    ["", "r0", "r1#pf", "inst-0", 'q"uote', "back\\slash", "new\nline",
     "ünï☃", "pct%s%%", "\x00"]
)
keys = st.sampled_from(
    ["seconds", "batch", "kv", "used_tokens", "pool", 'k"q', "k\\b", "ké",
     "100%", "%s", "a\nb"]
)
floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, float("inf"),
                     float("-inf"), float("nan"), 2.0 ** 53]),
)
ints = st.one_of(
    st.integers(-(2 ** 62), 2 ** 62),
    st.sampled_from([0, -1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                     -(2 ** 53) + 1, -(2 ** 53), 10 ** 30]),
)
texts = st.text(alphabet=st.sampled_from(list("ab1.e" + ODD)), max_size=6)
values = st.one_of(
    floats, ints, st.booleans(), st.none(), texts,
    st.lists(st.one_of(ints, texts, st.none()), max_size=3),
)
event_op = st.tuples(
    st.just("event"), floats, st.sampled_from(KINDS), names, names,
    st.dictionaries(keys, values, max_size=4),
)
burst_op = st.tuples(
    st.just("burst"), names,
    st.lists(
        st.tuples(floats, st.integers(0, 2 ** 40), floats), min_size=1,
        max_size=5,
    ),
    st.integers(0, 64), st.one_of(st.integers(0, 10 ** 6), st.none()),
)


@st.composite
def traces(draw) -> Trace:
    """A random trace; some bounded so rows drop, some with payload
    keys cleared to absent on rows whose signature holds them."""
    max_events = draw(st.one_of(st.none(), st.integers(4, 12)))
    trace = Trace(capacity=draw(st.sampled_from([1, 3, 1024])),
                  max_events=max_events)
    for op in draw(st.lists(st.one_of(event_op, burst_op), max_size=30)):
        if op[0] == "event":
            trace.record_fields(*op[1:])
        else:
            _, instance, steps, batch, used = op
            times, kvs, seconds = (list(col) for col in zip(*steps))
            trace.record_decode_steps(
                instance, times, batch, kvs, seconds,
                kvs if used is None else used, 100_000, batch // 2,
            )
    trace._flush()
    for row, which in draw(
        st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 9)),
                 max_size=4)
    ):
        if len(trace):
            row %= len(trace)
            sig = trace._sigs[trace._sig[row]]
            if sig:
                trace._cols[sig[which % len(sig)]].tags[row] = _ABSENT
    return trace


contexts = st.fixed_dictionaries({}, optional={
    "scenario": st.just({"kind": "fleet", "decode": []}),
    "workload": st.just([{"request_id": "r0", "arrival": 0.0}]),
    "meta": st.just({"note": 'a "quoted" é'}),
})
windows = st.sampled_from([1, 2, 3, export.WINDOW])


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def assert_same_trace(got: Trace, want: Trace) -> None:
    def rows(trace):
        return [
            (e.kind, repr(e.time), e.request_id, e.instance,
             [(k, type(v), repr(v)) for k, v in e.data.items()])
            for e in trace.events
        ]

    assert rows(got) == rows(want)
    assert got.request_ids() == want.request_ids()
    assert got._inst_names == want._inst_names
    assert got._sigs == want._sigs
    assert list(got._cols) == list(want._cols)
    n = len(want)
    for key, col in want._cols.items():
        other = got._cols[key]
        assert np.array_equal(other.tags[:n], col.tags[:n]), key
        assert np.array_equal(
            other.values[:n], col.values[:n], equal_nan=True
        ), key
    assert got._obj == want._obj
    assert got.meta == want.meta
    assert got.dropped_events == want.dropped_events
    sized = ("capacity", "buffer_bytes")  # follow the loader's windows
    stats = [
        {k: v for k, v in t.memory_stats().items() if k not in sized}
        for t in (got, want)
    ]
    assert stats[0] == stats[1]


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(trace=traces(), context=contexts, window=windows)
def test_dump_and_load_match_the_per_event_codec(trace, context, window):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(export, "WINDOW", window):
        path = pathlib.Path(tmp, "new.jsonl")
        ref = pathlib.Path(tmp, "ref.jsonl")
        assert dump_jsonl(trace, path, **context) == len(trace)
        assert reference_dump_jsonl(trace, ref, **context) == len(trace)
        assert path.read_bytes() == ref.read_bytes()
        assert not trace._mat  # no TraceEvent was built to dump
        assert_same_trace(load_jsonl(path), reference_load_jsonl(path))


CORRUPT = [
    # extra data after an object
    '{"time": 1.0, "kind": "ADMIT", "request_id": "x", "instance": "i", '
    '"data": {}} {"time": 2.0}',
    '{"time": 1.0, "kind": "ADMIT", "data": {}}x',
    # BOM
    '\ufeff{"time": 1.0, "kind": "ADMIT", "request_id": "bom", "data": {}}',
    # data that is not an object
    '{"time": 1.0, "kind": "ADMIT", "request_id": "x", "data": [1]}',
    '{"time": 1.0, "kind": "ADMIT", "request_id": "x", "data": null}',
    '{"time": 1.0, "kind": "ADMIT", "request_id": "x", "data": "s"}',
    # unknown or unhashable kind
    '{"time": 1.0, "kind": "NOPE", "data": {}}',
    '{"time": 1.0, "kind": ["ADMIT"], "data": {}}',
    '{"time": 1.0, "kind": {"a": 1}, "data": {}}',
    '{"time": 1.0, "kind": 3, "data": {}}',
    '{"time": 1.0, "data": {}}',
    # time that is a string, or not a number at all
    '{"time": "1.5", "kind": "FINISH", "request_id": "s", "data": {"a": 1}}',
    '{"time": "soon", "kind": "FINISH", "data": {}}',
    '{"time": null, "kind": "FINISH", "data": {}}',
    '{"time": true, "kind": "FINISH", "data": {}}',
    '{"time": [1], "kind": "FINISH", "data": {}}',
    '{"kind": "ADMIT", "data": {}}',
    '{"time": NaN, "kind": "ADMIT", "data": {"v": -Infinity}}',
    # defaults and non-string ids
    '{"time": 2.0, "kind": "ADMIT"}',
    '{"time": 2.0, "kind": "PREEMPT", "request_id": 7, "instance": null, '
    '"data": {"a": 1, "a": 2.5, "b": [1, {"c": null}]}}',
    # not objects, not JSON
    "[1, 2, 3]", "3", '"str"', "null", "{not json",
    '{"time": 1.0, "kind": "ADM',
    # headers: late, repeated, malformed
    '{"__trace_meta__": {"schema": 1, "dropped_events": 5}}',
    '{"__trace_meta__": {"schema": 1, "dropped_events": 9, "note": 1}}',
    '{"__trace_meta__": [1]}',
    '{"__trace_meta__": {"dropped_events": "x"}}',
    '{"__trace_meta__": {"dropped_events": [2]}}',
    '{"__trace_meta__": {}}',
    # whitespace
    "   ",
    '\t{"time": 3.0, "kind": "REJECT", "data": {"need": 5}}  ',
]


@settings(max_examples=100, deadline=None)
@given(
    trace=traces(), context=contexts, window=windows,
    inserts=st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.sampled_from(CORRUPT)),
        max_size=6,
    ),
    cut=st.one_of(st.none(), st.integers(0, 10 ** 6)),
)
def test_load_keeps_and_skips_the_lines_the_per_event_loader_does(
    trace, context, window, inserts, cut
):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(export, "WINDOW", window):
        path = pathlib.Path(tmp, "trace.jsonl")
        reference_dump_jsonl(trace, path, **context)
        lines = path.read_text(encoding="utf-8").splitlines()
        for at, line in inserts:
            lines.insert(at % (len(lines) + 1), line)
        text = "\n".join(lines) + "\n"
        if cut is not None and lines:
            # truncate inside the last line, dropping its newline
            last = len(text) - len(lines[-1]) - 1
            text = text[: last + cut % (len(lines[-1]) + 1)]
        path.write_text(text, encoding="utf-8")
        assert_same_trace(load_jsonl(path), reference_load_jsonl(path))

