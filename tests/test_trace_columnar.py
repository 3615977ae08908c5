"""Unit coverage for the columnar Trace internals: ring-buffer growth,
bounded-mode drops, exact payload-type round-trips, the lazy events
view, batched decode-step recording (and that its deferred column
writes are invisible to every reader), and the ``render_timeline``
edge contract (``limit=0``, negative limits, empty traces)."""

import numpy as np
import pytest

from repro.serving import (
    EventType,
    StepMetrics,
    Trace,
    TraceEvent,
    dump_jsonl,
    queue_delays,
    request_latencies,
)


def fill(trace, n, kind=EventType.DECODE_STEP):
    for i in range(n):
        trace.record(float(i), kind, f"r{i % 5}", "inst", batch=i)
    return trace


class TestRenderTimelineEdges:
    @pytest.mark.parametrize("make", [Trace])
    def test_empty_trace(self, make):
        t = make()
        assert t.render_timeline() == ""
        assert t.render_timeline(limit=0) == ""
        assert t.render_timeline(limit=10) == ""

    @pytest.mark.parametrize("make", [Trace])
    def test_limit_zero_reports_all_cut(self, make):
        t = fill(make(), 5)
        assert t.render_timeline(limit=0) == "... (5 more events)"

    @pytest.mark.parametrize("make", [Trace])
    def test_negative_limit_clamps_to_zero(self, make):
        t = fill(make(), 3)
        assert t.render_timeline(limit=-2) == "... (3 more events)"

    @pytest.mark.parametrize("make", [Trace])
    def test_limit_at_or_past_len_has_no_suffix(self, make):
        t = fill(make(), 4)
        full = t.render_timeline()
        assert "more events" not in full
        assert t.render_timeline(limit=4) == full
        assert t.render_timeline(limit=99) == full
        assert len(full.splitlines()) == 4

    @pytest.mark.parametrize("make", [Trace])
    def test_partial_limit_counts_exactly(self, make):
        t = fill(make(), 10)
        out = t.render_timeline(limit=7)
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[-1] == "... (3 more events)"


class TestRingBufferGrowth:
    def test_capacity_doubles_and_events_survive(self):
        t = Trace(capacity=4)
        fill(t, 100)
        stats = t.memory_stats()
        assert stats["events"] == 100
        assert stats["capacity"] >= 100
        assert stats["dropped_events"] == 0
        assert [e.time for e in t.events] == [float(i) for i in range(100)]
        assert [e.data["batch"] for e in t.events] == list(range(100))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Trace(capacity=0)
        with pytest.raises(ValueError):
            Trace(max_events=3)

    def test_bounded_drops_oldest(self):
        t = Trace(capacity=4, max_events=16)
        fill(t, 40)
        assert len(t) <= 16
        assert t.dropped_events == 40 - len(t)
        # the survivors are the newest events, still in order
        times = [e.time for e in t.events]
        assert times == sorted(times)
        assert times[-1] == 39.0
        assert t.memory_stats()["capacity"] <= 16
        assert t.memory_stats()["dropped_events"] == t.dropped_events

    def test_bounded_drop_invalidates_views(self):
        t = Trace(max_events=8)
        fill(t, 8)
        before = t.of_kind(EventType.DECODE_STEP)
        assert len(before) == 8
        t.record(99.0, EventType.FINISH, "r0", arrival=0.5)
        after = t.of_kind(EventType.DECODE_STEP)
        assert after is not before
        assert len(t) <= 8
        assert t.of_kind(EventType.FINISH)[0].time == 99.0
        # counts/request views rebuilt against the shifted columns
        assert sum(t.counts().values()) == len(t)
        for rid in t.request_ids():
            for e in t.for_request(rid):
                assert e.request_id == rid

    def test_bounded_drop_shifts_object_sidetable(self):
        t = Trace(max_events=8)
        for i in range(12):
            t.record(float(i), EventType.ADMIT, f"r{i}", note=f"s{i}")
        assert len(t) <= 8
        for e in t.events:
            assert e.data["note"] == f"s{int(e.time)}"


class TestPayloadTypeRoundTrip:
    def test_scalar_types_exact(self):
        t = Trace()
        t.record(
            0.0, EventType.FINISH, "r0",
            f=1.25, i=7, b_true=True, b_false=False, z=0,
        )
        d = t.events[0].data
        assert type(d["f"]) is float and d["f"] == 1.25
        assert type(d["i"]) is int and d["i"] == 7
        assert d["b_true"] is True and d["b_false"] is False
        assert type(d["z"]) is int and d["z"] == 0

    def test_object_fallback_exact(self):
        t = Trace()
        big = 2 ** 63  # beyond float64 exactness
        npv = np.float64(0.5)
        t.record(0.0, EventType.ADMIT, "r0", s="hello", big=big, npv=npv)
        d = t.events[0].data
        assert d["s"] == "hello" and type(d["s"]) is str
        assert d["big"] == big and type(d["big"]) is int
        assert d["npv"] is npv
        # folds still see numeric shadows where one exists
        vals, present = t.payload("big")
        assert present[0] and vals[0] == float(big)
        vals, present = t.payload("s")
        assert present[0] and np.isnan(vals[0])

    def test_key_order_preserved_per_event(self):
        t = Trace()
        t.record(0.0, EventType.ADMIT, "a", x=1, y=2)
        t.record(1.0, EventType.ADMIT, "b", y=3, x=4)
        assert list(t.events[0].data) == ["x", "y"]
        assert list(t.events[1].data) == ["y", "x"]

    def test_absent_key_not_invented(self):
        t = Trace()
        t.record(0.0, EventType.ADMIT, "a", x=1)
        t.record(1.0, EventType.FINISH, "a", y=2)
        assert t.events[0].data == {"x": 1}
        assert t.events[1].data == {"y": 2}


class TestEventsView:
    def trace(self):
        return fill(Trace(), 10)

    def test_len_iter_index(self):
        t = self.trace()
        ev = t.events
        assert len(ev) == 10
        assert [e.time for e in ev] == [float(i) for i in range(10)]
        assert ev[0].time == 0.0
        assert ev[-1].time == 9.0
        with pytest.raises(IndexError):
            ev[10]
        with pytest.raises(IndexError):
            ev[-11]

    def test_slicing(self):
        ev = self.trace().events
        assert [e.time for e in ev[2:5]] == [2.0, 3.0, 4.0]
        assert [e.time for e in ev[::-1]] == [float(i) for i in range(9, -1, -1)]
        assert ev[5:2] == []

    def test_eq_against_list_and_view(self):
        t = self.trace()
        as_list = list(t.events)
        assert t.events == as_list
        assert t.events == tuple(as_list)
        assert t.events == t.events
        assert not (t.events == as_list[:-1])

    def test_row_materialization_cached(self):
        t = self.trace()
        assert t.events[3] is t.events[3]


class TestRecordDecodeSteps:
    def test_matches_per_event_record(self):
        times = [0.1, 0.2, 0.3]
        kvs = [100, 104, 108]
        secs = [0.01, 0.011, 0.012]
        used = [500, 516, 532]
        batched = Trace()
        batched.record_decode_steps("i0", times, 4, kvs, secs, used, 4096, 4)
        manual = Trace()
        for j in range(3):
            manual.record(
                times[j], EventType.DECODE_STEP, "", "i0",
                batch=4, kv=kvs[j], seconds=secs[j],
                used_tokens=used[j], token_budget=4096, live=4,
            )
        assert batched.events == manual.events
        for be, me in zip(batched.events, manual.events):
            assert list(be.data) == list(me.data)
            for k in be.data:
                assert type(be.data[k]) is type(me.data[k])

    def test_scalar_used_tokens_broadcasts(self):
        t = Trace()
        t.record_decode_steps("i0", [0.1, 0.2], 2, [8, 10], [0.01, 0.01],
                              640, 4096, 2)
        assert [e.data["used_tokens"] for e in t.events] == [640, 640]

    def test_empty_burst_is_noop(self):
        t = Trace()
        t.record_decode_steps("i0", [], 0, [], [], 0, 4096, 0)
        assert len(t) == 0

    def test_burst_grows_buffer(self):
        t = Trace(capacity=2)
        n = 50
        t.record_decode_steps(
            "i0", [0.01 * j for j in range(n)], 3,
            list(range(n)), [0.001] * n, list(range(n)), 1 << 20, 3,
        )
        assert len(t) == n
        assert t.events[-1].data["kv"] == n - 1


def _flat(event):
    """An event as comparable plain data, payload value types included."""
    return (
        event.time, event.kind, event.request_id, event.instance,
        [(k, type(v), v) for k, v in event.data.items()],
    )


def _script(seed, n_ops=500):
    """A seeded interleaving of decode bursts (scalar and per-step
    ``used_tokens``), single-event writes (ADMIT, PREFILL, FINISH) and
    reads."""
    rng = np.random.default_rng(seed)
    ops = []
    clock = 0.0
    waiting, running, n_req = [], [], 0
    for _ in range(n_ops):
        u = rng.random()
        if u < 0.45:
            k = int(rng.integers(1, 9))
            secs = [float(s) for s in rng.uniform(0.01, 0.05, size=k)]
            times = []
            for s in secs:
                clock += s
                times.append(clock)
            kv0 = int(rng.integers(256, 4096))
            if rng.random() < 0.5:
                used = int(rng.integers(1000, 60_000))
            else:
                used = [int(x) for x in rng.integers(1000, 60_000, size=k)]
            batch = int(rng.integers(1, 65))
            ops.append(("burst", (
                f"i{int(rng.integers(2))}", times, batch,
                list(range(kv0, kv0 + k)), secs, used, 60_000,
                int(rng.integers(1, batch + 1)),
            )))
        elif u < 0.75:
            clock += 0.001
            if running and rng.random() < 0.4:
                rid, arrival, first = running.pop(int(rng.integers(len(running))))
                data = {"arrival": arrival, "first_token": first,
                        "generated": int(rng.integers(1, 500))}
                ops.append(("fields", (clock, EventType.FINISH, rid, "i0", data)))
            elif waiting and rng.random() < 0.5:
                rid, arrival = waiting.pop(0)
                ops.append(("fields", (clock, EventType.ADMIT, rid, "i0",
                                       {"arrival": arrival, "queued_at": arrival})))
                ops.append(("fields", (clock, EventType.PREFILL, rid, "i0",
                                       {"seconds": 0.05, "prompt": 512})))
                running.append((rid, arrival, clock + 0.05))
            else:
                waiting.append((f"r{n_req}", clock))
                n_req += 1
        else:
            ops.append(("read", int(rng.integers(1 << 30))))
    return ops


def _readers(tmp_path):
    """Every trace reader, each mapped to comparable plain data."""

    def events(t, arg):
        return [_flat(t.events[i]) for i in {0, arg % len(t), -1}] if len(t) else []

    def of_kind(t, arg):
        kind = (EventType.DECODE_STEP, EventType.FINISH)[arg % 2]
        return [_flat(e) for e in t.of_kind(kind)]

    def for_request(t, arg):
        ids = t.request_ids()[-3:]  # the ones with events near the tail
        return [_flat(e) for e in t.for_request(ids[arg % len(ids)])] if ids else []

    def rows_of(t, arg):
        return t.rows_of((EventType.DECODE_STEP, EventType.ADMIT)[arg % 2]).tolist()

    def payload(t, arg):
        keys = ("kv", "seconds", "used_tokens", "token_budget", "live", "arrival")
        values, present = t.payload(keys[arg % len(keys)])
        return None if values is None else (values.tolist(), present.tolist())

    def dumped(t, arg):
        path = tmp_path / "trace.jsonl"
        dump_jsonl(t, path)
        return path.read_bytes()

    return [
        events, of_kind, for_request, rows_of, payload,
        lambda t, arg: t.counts(),
        lambda t, arg: t.render_timeline(),
        dumped,
        lambda t, arg: StepMetrics.from_trace(t).as_dict(),
        lambda t, arg: request_latencies(t),
        lambda t, arg: queue_delays(t),
    ]


class TestDeferredBurstWrites:
    """``record_decode_steps`` queues its column writes; no reader may
    tell the difference from a trace flushed after every write."""

    @pytest.mark.parametrize("flush_rows", [None, 16])
    @pytest.mark.parametrize("max_events", [None, 96])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_readers_match_eager_twin(
        self, tmp_path, monkeypatch, seed, max_events, flush_rows
    ):
        if flush_rows is not None:
            monkeypatch.setattr(Trace, "_FLUSH_ROWS", flush_rows)
        readers = _readers(tmp_path)
        lazy = Trace(capacity=8, max_events=max_events)
        eager = Trace(capacity=8, max_events=max_events)
        queued = 0
        reads = 0
        for op, args in _script(seed):
            if op == "read":
                read = readers[args % len(readers)]
                assert read(lazy, args) == read(eager, args)
                reads += 1
                continue
            for t in (lazy, eager):
                if op == "burst":
                    t.record_decode_steps(*args)
                else:
                    t.record_fields(*args)
            eager._flush()  # every write lands at once
            queued = max(queued, lazy._queue.rows)
            assert lazy.memory_stats() == eager.memory_stats()
        assert queued and reads >= len(readers)
        if max_events is not None:
            assert lazy.dropped_events > 0
        for read in readers:
            assert read(lazy, 0) == read(eager, 0)

    def test_queue_is_bounded(self):
        lazy, eager = Trace(), Trace()
        for j in range(1200):
            burst = ("i0", [j + 0.1 * s for s in range(8)], 4,
                     list(range(j, j + 8)), [0.1] * 8, 512 + j, 60_000, 4)
            lazy.record_decode_steps(*burst)
            eager.record_decode_steps(*burst)
            eager._flush()
            assert lazy._queue.rows < Trace._FLUSH_ROWS
        assert [_flat(e) for e in lazy.events] == [_flat(e) for e in eager.events]


class TestMemoryStats:
    def test_keys_and_monotonic_growth(self):
        t = Trace(capacity=8)
        s0 = t.memory_stats()
        assert set(s0) == {
            "events", "capacity", "payload_columns", "buffer_bytes",
            "dropped_events",
        }
        assert s0["events"] == 0 and s0["payload_columns"] == 0
        fill(t, 64)
        s1 = t.memory_stats()
        assert s1["events"] == 64
        assert s1["payload_columns"] == 1  # just "batch"
        assert s1["buffer_bytes"] > s0["buffer_bytes"]

    def test_append_round_trips_events(self):
        src = fill(Trace(), 20, kind=EventType.FINISH)
        dst = Trace()
        for e in src.events:
            dst.append(
                TraceEvent(e.time, e.kind, e.request_id, e.instance,
                           dict(e.data))
            )
        assert dst.events == src.events
