"""Event-driven serving simulation: batching, scheduling, routing, tracing."""

from repro.serving.cluster import Cluster, InstanceView
from repro.serving.events import EventLoop
from repro.serving.fleet import Autoscaler, DisaggFleet, FleetResult, least_loaded
from repro.serving.metrics import LatencySummary, StepMetrics, cdf, tbot
from repro.serving.mining import (
    Anomaly,
    DETECTORS,
    Incident,
    MiningReport,
    default_detectors,
    emit_regression_tests,
    make_detector,
    mine,
    run_mined_scenario,
)
from repro.serving.prefix import PrefixIndex
from repro.serving.replay import (
    ReplayReport,
    ReplayWorkload,
    build_scenario,
    extract_workload,
    fleet_scenario,
    instance_config,
    replay_trace,
    workload_specs,
)
from repro.serving.request import ServingRequest
from repro.serving.router import (
    RoutedRequest,
    Router,
    RouterResult,
    RoutingPolicy,
)
from repro.serving.scheduler import (
    FCFSPolicy,
    PriorityPolicy,
    SchedulerPolicy,
    ShortestFirstPolicy,
    SlackPolicy,
    WaitingQueue,
    make_policy,
)
from repro.serving.simulator import ServerInstance, SimulationResult
from repro.serving.telemetry import (
    MetricsRegistry,
    Span,
    Telemetry,
    build_spans,
    dump_jsonl,
    load_jsonl,
    render_dashboard,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.serving.trace import (
    EventType,
    Trace,
    TraceEvent,
    queue_delays,
    request_latencies,
)

__all__ = [
    "Cluster",
    "InstanceView",
    "EventLoop",
    "Autoscaler",
    "DisaggFleet",
    "FleetResult",
    "least_loaded",
    "LatencySummary",
    "StepMetrics",
    "cdf",
    "tbot",
    "PrefixIndex",
    "Anomaly",
    "DETECTORS",
    "Incident",
    "MiningReport",
    "default_detectors",
    "emit_regression_tests",
    "make_detector",
    "mine",
    "run_mined_scenario",
    "ReplayReport",
    "ReplayWorkload",
    "build_scenario",
    "extract_workload",
    "fleet_scenario",
    "instance_config",
    "replay_trace",
    "workload_specs",
    "ServingRequest",
    "RoutedRequest",
    "Router",
    "RouterResult",
    "RoutingPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "SchedulerPolicy",
    "ShortestFirstPolicy",
    "SlackPolicy",
    "WaitingQueue",
    "make_policy",
    "ServerInstance",
    "SimulationResult",
    "MetricsRegistry",
    "Telemetry",
    "Span",
    "build_spans",
    "dump_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_dashboard",
    "EventType",
    "Trace",
    "TraceEvent",
    "queue_delays",
    "request_latencies",
]
