"""Prometheus-style metrics primitives for the serving stack.

Three metric families — :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` with **fixed log-spaced buckets** — live in a
:class:`MetricsRegistry`.  Every family carries declared label names
(e.g. ``instance``, ``kind``) plus the registry's constant labels
(e.g. ``policy``, ``comp``), so one fleet-wide registry can be sliced
per instance / scheduler policy / compression method.

Two read-out forms:

- :meth:`MetricsRegistry.render_prometheus` — text exposition in the
  Prometheus format (``# TYPE`` headers, ``_bucket{le=...}`` cumulative
  histogram series), so a run's metrics paste straight into any
  Prometheus-compatible tool.
- :meth:`MetricsRegistry.snapshot` — a plain nested dict for tests,
  JSON dumps, and the ASCII dashboard.

Everything is pure Python with O(1) updates; the serving hot path
(one ``observe``/``inc``/``set`` per trace event) stays cheap enough
that `benchmarks/test_telemetry_overhead.py` bounds the enabled-path
cost on the serving-core scenario.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple


def log_buckets(
    lo: float = 1e-4, hi: float = 1e3, per_decade: int = 3
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per factor of ten; the implicit ``+Inf``
    overflow bucket is not included.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(round(math.log10(hi / lo) * per_decade))
    return tuple(lo * 10 ** (i / per_decade) for i in range(n + 1))


DEFAULT_BUCKETS = log_buckets()  # 1e-4 .. 1e3 s, 3 per decade


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class Metric:
    """Base of one metric family: a name plus labeled series."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        names = self.label_names
        try:
            key = tuple(str(labels[n]) for n in names)
        except KeyError:
            key = None
        if key is None or len(labels) != len(names):
            raise ValueError(
                f"{self.name} expects labels {names}, got {tuple(labels)}"
            )
        return key

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help="", label_names=()):
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def inc_key(self, key: Tuple[str, ...], amount: float = 1.0) -> None:
        """Hot-path increment: ``key`` is the label *values* in declared
        order, pre-built by the caller (no kwargs, no validation)."""
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labeled series, added left to right (builtin
        ``sum()`` of floats is compensated from Python 3.12 on)."""
        total = 0.0
        for v in self._values.values():
            total += v
        return total

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        return [
            (self._label_dict(k), v) for k, v in sorted(self._values.items())
        ]


class Gauge(Metric):
    """Point-in-time value (set, not accumulated)."""

    kind = "gauge"

    def __init__(self, name, help="", label_names=()):
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[self._key(labels)] = float(value)

    def set_key(self, key: Tuple[str, ...], value: float) -> None:
        """Hot-path set: pre-built label-value key, no validation."""
        self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        return [
            (self._label_dict(k), v) for k, v in sorted(self._values.items())
        ]


class _HistSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf overflow bucket
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Distribution over fixed log-spaced buckets.

    Buckets are upper bounds (plus an implicit ``+Inf``); exposition is
    cumulative, Prometheus-style.  :meth:`quantile` interpolates within
    the landing bucket, which is what the dashboard sparklines report.
    """

    kind = "histogram"

    def __init__(self, name, help="", label_names=(), buckets=None):
        super().__init__(name, help, label_names)
        self.buckets = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("bucket bounds must be sorted")
        self._series: Dict[Tuple[str, ...], _HistSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(self._key(labels), value)

    def observe_key(self, key: Tuple[str, ...], value: float) -> None:
        """Hot-path observe: pre-built label-value key, no validation."""
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _HistSeries(len(self.buckets))
        s.counts[bisect.bisect_left(self.buckets, value)] += 1
        s.sum += value
        s.count += 1

    def series(self) -> List[Tuple[Dict[str, str], _HistSeries]]:
        return [
            (self._label_dict(k), s) for k, s in sorted(self._series.items())
        ]

    def aggregate(self) -> Tuple[List[int], float, int]:
        """(per-bucket counts, sum, count) merged across every series."""
        counts = [0] * (len(self.buckets) + 1)
        total, n = 0.0, 0
        for s in self._series.values():
            for i, c in enumerate(s.counts):
                counts[i] += c
            total += s.sum
            n += s.count
        return counts, total, n

    def mean(self) -> float:
        _, total, n = self.aggregate()
        return total / n if n else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the aggregated buckets (linear
        interpolation inside the landing bucket; 0.0 when empty)."""
        counts, _, n = self.aggregate()
        if n == 0:
            return 0.0
        target = q * n
        cum = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cum + c >= target:
                hi = (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else self.buckets[-1]
                )
                lo = self.buckets[i - 1] if i > 0 else 0.0
                frac = (target - cum) / c
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            cum += c
        return float(self.buckets[-1])


class MetricsRegistry:
    """Named collection of metric families with constant labels."""

    def __init__(self, const_labels: Optional[Dict[str, str]] = None) -> None:
        self.const_labels = dict(const_labels or {})
        self._metrics: "Dict[str, Metric]" = {}

    def _register(self, cls, name, help, label_names, **kw) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.label_names != tuple(
                label_names
            ):
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    "type or label set"
                )
            return existing
        metric = cls(name, help, label_names, **kw)
        self._metrics[name] = metric
        return metric

    def counter(self, name, help="", labels=()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name, help="", labels=()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name, help="", labels=(), buckets=None) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._metrics.values())

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict view of every family (tests, JSON, dashboard)."""
        out: Dict[str, dict] = {}
        for m in self._metrics.values():
            entry: Dict[str, object] = {"type": m.kind, "help": m.help}
            if isinstance(m, Histogram):
                entry["buckets"] = list(m.buckets)
                entry["series"] = [
                    {
                        "labels": labels,
                        "counts": list(s.counts),
                        "sum": s.sum,
                        "count": s.count,
                    }
                    for labels, s in m.series()
                ]
            else:
                entry["series"] = [
                    {"labels": labels, "value": v} for labels, v in m.series()
                ]
            out[m.name] = entry
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every family."""
        lines: List[str] = []
        for m in self._metrics.values():
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            if isinstance(m, Histogram):
                for labels, s in m.series():
                    base = {**self.const_labels, **labels}
                    cum = 0
                    for bound, c in zip(m.buckets, s.counts):
                        cum += c
                        lab = _fmt_labels({**base, "le": f"{bound:g}"})
                        lines.append(f"{m.name}_bucket{lab} {cum}")
                    lab = _fmt_labels({**base, "le": "+Inf"})
                    lines.append(f"{m.name}_bucket{lab} {s.count}")
                    lab = _fmt_labels(base)
                    lines.append(f"{m.name}_sum{lab} {s.sum:g}")
                    lines.append(f"{m.name}_count{lab} {s.count}")
            else:
                series = m.series() or [({}, None)]
                for labels, v in series:
                    if v is None:
                        continue
                    lab = _fmt_labels({**self.const_labels, **labels})
                    lines.append(f"{m.name}{lab} {v:g}")
        return "\n".join(lines) + "\n"
