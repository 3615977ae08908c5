"""First-class observability for the serving stack.

``repro.serving.telemetry`` packages four layers (see DESIGN.md
"Telemetry"):

- :mod:`registry` — Counter / Gauge / Histogram metric families with
  fixed log-spaced buckets, Prometheus text exposition + dict snapshot.
- :mod:`core` — the :class:`Telemetry` sink the serving components
  publish into (opt-in; ``None`` = off, with the disabled path
  bit-for-bit identical to an uninstrumented run).
- :mod:`spans` — per-request causal span trees derived from the
  :class:`~repro.serving.trace.Trace` stream.
- :mod:`export` — JSONL dump/load (offline ``StepMetrics`` replay) and
  Chrome/Perfetto ``trace_event`` JSON.
- :mod:`dashboard` — ASCII sparkline dashboard (``cli dashboard``).
"""

from repro.serving.telemetry.core import Telemetry
from repro.serving.telemetry.dashboard import render_dashboard, sparkline
from repro.serving.telemetry.export import (
    dump_jsonl,
    load_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.serving.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.serving.telemetry.spans import Span, build_spans, validate_spans

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "log_buckets",
    "Telemetry",
    "Span",
    "build_spans",
    "validate_spans",
    "dump_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_dashboard",
    "sparkline",
]
