"""Trace replay: re-run a recorded serving workload and verify the fold.

The telemetry exporter round-trips traces exactly (every payload value
by json value), which makes a recorded run a *benchmark artifact*: the
workload that produced it — arrival instants, prompt/response shapes,
SLO targets, and the routing decisions actually taken — is either
embedded in the export's metadata header (``dump_jsonl(scenario=...,
workload=...)``) or reconstructable from the events themselves
(:func:`extract_workload`).  :func:`replay_trace` rebuilds the serving
scenario from its config, re-runs the workload through
:class:`~repro.serving.fleet.DisaggFleet` (a monolithic cluster is the
empty-prefill-pool special case, which delegates to
:meth:`~repro.serving.cluster.Cluster.run_online`), folds both traces
with :class:`~repro.serving.metrics.StepMetrics`, and reports the
drift field by field.

On an unchanged build, a complete recording replays **exactly**: the
simulator is deterministic, the exporter is loss-free, and pinned
routing (:func:`pinned_pick`) re-issues every recorded placement — so
``ReplayReport.exact`` is the regression signal CI asserts on.  When
code has changed, the drift list *is* the diff: which scheduler-level
statistics moved, recorded vs replayed.

Scenario configs are plain JSON dicts (see :func:`fleet_scenario` /
:func:`instance_config`) so they embed in trace headers and in the
auto-emitted regression tests under ``tests/mined/``:

``{"kind": "fleet", "interconnect": "nvlink-a6000",``
``  "prefill": [<instance>...], "decode": [<instance>...],``
``  "prefill_active": N|null, "decode_active": N|null,``
``  "autoscaler": {<Autoscaler kwargs>}|null}``

with each instance ``{"algo", "arch", "gpu", "engine", "tp",
"max_batch", "decode_block", "policy", "admission", "chunk_size",
"prefix_caching"}``.  Workload specs are one dict per logical request
(``request_id`` / ``arrival`` / ``prompt_len`` / ``response_len`` /
``priority`` / ``predicted_len`` / ``ttft_deadline`` / ``tbot_target``
/ ``token_ids``).

Router-synthesized stages are recognised, not replayed: ``#pf``
prefill stages are folded into their logical request, and ``#fb``
fallback re-decodes (plus ``REROUTE``/``FALLBACK`` policy decisions)
originate *inside* the router, so a router trace replays best-effort
through the plain fleet with the policy-layer drift reported instead
of silently absorbed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.interconnect import (
    NVLINK_A6000,
    NVLINK_H800,
    PCIE_GEN4,
    InterconnectSpec,
)
from repro.serving.fleet import (
    PREFILL_SUFFIX,
    Autoscaler,
    DisaggFleet,
    least_loaded,
)
from repro.serving.metrics import StepMetrics
from repro.serving.request import ServingRequest
from repro.serving.router import FALLBACK_SUFFIX
from repro.serving.trace import EventType, Trace

_INTERCONNECTS: Dict[str, InterconnectSpec] = {
    spec.name: spec for spec in (NVLINK_A6000, NVLINK_H800, PCIE_GEN4)
}

#: instance-config defaults (omitted keys mean exactly these)
_INSTANCE_DEFAULTS: Dict[str, object] = {
    "algo": "fp16",
    "arch": "llama-7b",
    "gpu": "a6000",
    "engine": "lmdeploy",
    "tp": 1,
    "max_batch": 64,
    "decode_block": 8,
    "policy": "fcfs",
    "admission": "reserve",
    "chunk_size": None,
    "prefix_caching": False,
}

_SPEC_KEYS = (
    "request_id", "arrival", "prompt_len", "response_len", "priority",
    "predicted_len", "ttft_deadline", "tbot_target", "token_ids",
)


# ----------------------------------------------------------------------
# scenario configs -> live fleets
# ----------------------------------------------------------------------
def instance_config(**overrides) -> Dict[str, object]:
    """A normalized (all keys present) JSON-able instance config."""
    unknown = set(overrides) - set(_INSTANCE_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown instance config keys: {sorted(unknown)}")
    cfg = dict(_INSTANCE_DEFAULTS)
    cfg.update(overrides)
    return cfg


def fleet_scenario(
    decode: Sequence[Dict[str, object]],
    prefill: Sequence[Dict[str, object]] = (),
    interconnect: str = "nvlink-a6000",
    prefill_active: Optional[int] = None,
    decode_active: Optional[int] = None,
    autoscaler: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A JSON-able fleet scenario (monolithic when ``prefill`` is empty)."""
    return {
        "kind": "fleet",
        "interconnect": interconnect,
        "prefill": [instance_config(**dict(c)) for c in prefill],
        "decode": [instance_config(**dict(c)) for c in decode],
        "prefill_active": prefill_active,
        "decode_active": decode_active,
        "autoscaler": dict(autoscaler) if autoscaler else None,
    }


def build_instance(cfg: Dict[str, object], cost_model):
    """Construct a :class:`ServerInstance` from one instance config, on
    ``cost_model`` (the cost model of the config's deployment)."""
    from repro.compression import create
    from repro.serving.prefix import PrefixIndex
    from repro.serving.scheduler import make_policy
    from repro.serving.simulator import ServerInstance

    cfg = instance_config(**dict(cfg))
    return ServerInstance(
        cost_model,
        create(str(cfg["algo"])).cost_spec(),
        max_batch=int(cfg["max_batch"]),
        decode_block=int(cfg["decode_block"]),
        scheduler=make_policy(str(cfg["policy"])),
        admission=str(cfg["admission"]),
        chunk_size=(
            None if cfg["chunk_size"] is None else int(cfg["chunk_size"])
        ),
        prefix_cache=PrefixIndex() if cfg["prefix_caching"] else None,
    )


def build_scenario(scenario: Dict[str, object]) -> DisaggFleet:
    """Construct a fresh fleet from a scenario config dict.

    Instances on the same ``(arch, gpu, engine, tp)`` share one fresh
    cost model, and with it their price tables.
    """
    # imported lazily: repro.engines pulls in the numeric stack, and
    # replay is importable from repro.serving.*
    from repro.engines.presets import cost_model

    kind = scenario.get("kind", "fleet")
    if kind != "fleet":
        raise ValueError(f"unknown scenario kind {kind!r}")
    link = str(scenario.get("interconnect") or "nvlink-a6000")
    if link not in _INTERCONNECTS:
        raise ValueError(
            f"unknown interconnect {link!r}; known: {sorted(_INTERCONNECTS)}"
        )
    models: Dict[Tuple[str, str, str, int], object] = {}

    def build(c: Dict[str, object]):
        cfg = instance_config(**dict(c))
        key = (
            str(cfg["arch"]), str(cfg["gpu"]), str(cfg["engine"]),
            int(cfg["tp"]),
        )
        if key not in models:
            models[key] = cost_model(*key)
        return build_instance(cfg, models[key])

    auto_cfg = scenario.get("autoscaler")
    return DisaggFleet(
        [build(c) for c in scenario.get("prefill", ())],
        [build(c) for c in scenario["decode"]],
        interconnect=_INTERCONNECTS[link],
        prefill_active=scenario.get("prefill_active"),
        decode_active=scenario.get("decode_active"),
        autoscaler=Autoscaler(**auto_cfg) if auto_cfg else None,
    )


# ----------------------------------------------------------------------
# workload specs <-> requests
# ----------------------------------------------------------------------
def workload_specs(requests: Sequence[ServingRequest]) -> List[Dict[str, object]]:
    """JSON-able workload specs for a request stream (pre-run shape
    only — the simulator-filled lifecycle fields are not part of the
    workload)."""
    return [
        {
            "request_id": r.request_id,
            "arrival": r.arrival,
            "prompt_len": r.prompt_len,
            "response_len": r.response_len,
            "priority": r.priority,
            "predicted_len": r.predicted_len,
            "ttft_deadline": r.ttft_deadline,
            "tbot_target": r.tbot_target,
            "token_ids": list(r.token_ids) if r.token_ids else None,
        }
        for r in requests
    ]


def make_requests(specs: Sequence[Dict[str, object]]) -> List[ServingRequest]:
    """Fresh request objects from workload specs (the simulator mutates
    requests in place, so every replay needs its own)."""
    out: List[ServingRequest] = []
    for spec in specs:
        unknown = set(spec) - set(_SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown workload spec keys: {sorted(unknown)}")
        token_ids = spec.get("token_ids")
        out.append(
            ServingRequest(
                request_id=str(spec["request_id"]),
                arrival=float(spec["arrival"]),
                prompt_len=int(spec["prompt_len"]),
                response_len=int(spec["response_len"]),
                priority=int(spec.get("priority", 0) or 0),
                predicted_len=(
                    None if spec.get("predicted_len") is None
                    else float(spec["predicted_len"])
                ),
                ttft_deadline=(
                    None if spec.get("ttft_deadline") is None
                    else float(spec["ttft_deadline"])
                ),
                tbot_target=(
                    None if spec.get("tbot_target") is None
                    else float(spec["tbot_target"])
                ),
                token_ids=tuple(token_ids) if token_ids else None,
            )
        )
    return out


# ----------------------------------------------------------------------
# workload extraction from a recorded trace
# ----------------------------------------------------------------------
def logical_id(request_id: str) -> str:
    """The logical request id behind a (possibly staged) trace id."""
    for suffix in (PREFILL_SUFFIX, FALLBACK_SUFFIX):
        if request_id.endswith(suffix):
            return request_id[: -len(suffix)]
    return request_id


@dataclass
class ReplayWorkload:
    """A recorded workload reconstructed from trace events.

    ``assignment`` maps ``(logical id, pool)`` to the instance name the
    recording actually placed that stage on (pool is ``"prefill"`` for
    ``pf*`` instances, ``"decode"`` otherwise — monolithic instances
    count as decode).  ``synthetic`` counts the router/fleet-internal
    stage ids recognised (``#pf`` prefill stages, ``#fb`` fallback
    re-decodes); ``unreplayable`` lists logical ids whose workload
    shape could not be recovered (e.g. rejected before any admission),
    with the reason.  ``partial`` flags a recording whose ring buffer
    shed events — replay can run, but exactness is off the table.
    """

    specs: List[Dict[str, object]] = field(default_factory=list)
    assignment: Dict[Tuple[str, str], str] = field(default_factory=dict)
    synthetic: Dict[str, int] = field(default_factory=dict)
    unreplayable: List[Tuple[str, str]] = field(default_factory=list)
    partial: bool = False


def extract_assignment(trace) -> Dict[Tuple[str, str], str]:
    """Recorded ``(logical id, pool) -> instance name`` placements.

    One entry per stage admission (the last ADMIT wins; preemption
    re-admissions requeue on the same instance, so this is stable).
    """
    assignment: Dict[Tuple[str, str], str] = {}
    for e in trace.of_kind(EventType.ADMIT):
        if not e.request_id or not e.instance:
            continue
        pool = "prefill" if e.instance.startswith("pf") else "decode"
        assignment[(logical_id(e.request_id), pool)] = e.instance
    return assignment


def extract_workload(trace) -> ReplayWorkload:
    """Reconstruct the workload a trace recorded, from events alone.

    Prefers nothing: callers should use the export header's embedded
    ``workload`` when present (:func:`replay_trace` does) — the events
    cannot describe requests that were rejected before any admission,
    prompt token ids, or scheduler inputs like ``priority`` that never
    land in a payload.  For everything the events *do* carry, the
    reconstruction is exact: arrivals and SLO targets from ``ADMIT``,
    prompt shapes from ``PREFILL``/``PREFILL_CHUNK``/``PREFIX_HIT``
    (falling back to ``KV_TRANSFER`` token counts), response lengths
    from the logical ``FINISH``.
    """
    wl = ReplayWorkload(
        assignment=extract_assignment(trace),
        partial=bool(trace.dropped_events),
    )
    logical: List[str] = []
    seen = set()
    for rid in trace.request_ids():
        if rid.endswith(PREFILL_SUFFIX):
            wl.synthetic["#pf"] = wl.synthetic.get("#pf", 0) + 1
        elif rid.endswith(FALLBACK_SUFFIX):
            wl.synthetic["#fb"] = wl.synthetic.get("#fb", 0) + 1
        lrid = logical_id(rid)
        if lrid and lrid not in seen:
            seen.add(lrid)
            logical.append(lrid)

    for lrid in logical:
        events = list(trace.for_request(lrid)) + list(
            trace.for_request(lrid + PREFILL_SUFFIX)
        )
        events.sort(key=lambda e: e.time)
        arrival = ttft_deadline = tbot_target = None
        prompt = response = None
        kv_tokens = None
        for e in events:
            d = e.data
            if e.kind is EventType.ADMIT:
                if arrival is None and "arrival" in d:
                    arrival = float(d["arrival"])
                if "ttft_deadline" in d:
                    ttft_deadline = float(d["ttft_deadline"])
                if "tbot_target" in d:
                    tbot_target = float(d["tbot_target"])
            elif e.kind in (
                EventType.PREFILL,
                EventType.PREFILL_CHUNK,
                EventType.PREFIX_HIT,
            ):
                if "prompt" in d:
                    prompt = int(d["prompt"])
            elif e.kind is EventType.KV_TRANSFER:
                if "tokens" in d:
                    kv_tokens = int(d["tokens"])
            elif e.kind is EventType.FINISH and e.request_id == lrid:
                if arrival is None and "arrival" in d:
                    arrival = float(d["arrival"])
                if "generated" in d:
                    response = int(d["generated"])
        if prompt is None:
            # a transfer's token count is the prompt unless the prefill
            # instance shipped a sparsity-capped cache — best effort
            prompt = kv_tokens
        if arrival is None:
            wl.unreplayable.append((lrid, "no admission recorded"))
            continue
        if prompt is None:
            wl.unreplayable.append((lrid, "no prompt shape recorded"))
            continue
        if response is None:
            wl.unreplayable.append((lrid, "no completed response recorded"))
            continue
        wl.specs.append(
            {
                "request_id": lrid,
                "arrival": arrival,
                "prompt_len": prompt,
                "response_len": response,
                "priority": 0,
                "predicted_len": None,
                "ttft_deadline": ttft_deadline,
                "tbot_target": tbot_target,
                "token_ids": None,
            }
        )
    wl.specs.sort(key=lambda s: (s["arrival"], s["request_id"]))
    return wl


def pinned_pick(assignment: Dict[Tuple[str, str], str]):
    """A fleet/cluster pick function re-issuing recorded placements.

    The pool is inferred from the live views (``pf*`` names are the
    prefill pool; ``dec*`` / ``inst*`` / unnamed are decode), matching
    :func:`extract_assignment`.  Requests the recording never placed —
    or whose recorded target is not currently active (an autoscaler
    divergence, only possible once code has changed) — fall back to
    :func:`~repro.serving.fleet.least_loaded`.
    """

    def pick(req, views, now) -> int:
        pool = (
            "prefill"
            if views and views[0].name.startswith("pf")
            else "decode"
        )
        target = assignment.get((logical_id(req.request_id), pool))
        if target is not None:
            for j, view in enumerate(views):
                if view.name == target:
                    return j
        return least_loaded(req, views, now)

    return pick


# ----------------------------------------------------------------------
# the replay harness
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Outcome of replaying a recorded trace against the current build."""

    recorded: StepMetrics
    replayed: StepMetrics
    #: ``(field, recorded value, replayed value)`` per differing field
    drift: List[Tuple[str, object, object]]
    routing: str
    n_requests: int
    events_recorded: int
    events_replayed: int
    wall_seconds: float
    #: recording shed ring-buffer events; exactness is unattainable
    partial: bool = False
    #: logical ids the workload reconstruction had to skip
    unreplayable: List[Tuple[str, str]] = field(default_factory=list)
    trace: Optional[Trace] = None

    @property
    def exact(self) -> bool:
        """Whether the replayed fold matches the recording field-for-field."""
        return not self.drift

    @property
    def events_per_second(self) -> float:
        """Replay throughput (replayed trace events per wall second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_replayed / self.wall_seconds

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"replayed {self.n_requests} requests "
            f"({self.routing} routing): "
            f"{self.events_replayed:,} events vs {self.events_recorded:,} "
            f"recorded in {self.wall_seconds:.3f}s "
            f"({self.events_per_second:,.0f} events/s)",
        ]
        if self.partial:
            lines.append(
                "recording is PARTIAL (ring buffer shed events); "
                "exact replay is unattainable"
            )
        for rid, why in self.unreplayable:
            lines.append(f"skipped {rid}: {why}")
        if self.exact:
            lines.append("fold: EXACT (every StepMetrics field matches)")
        else:
            lines.append(f"fold: DRIFT in {len(self.drift)} field(s)")
            for name, rec, rep in self.drift:
                lines.append(f"  {name:24s} recorded={rec!r} replayed={rep!r}")
        return "\n".join(lines)


def fold_drift(
    recorded: StepMetrics, replayed: StepMetrics
) -> List[Tuple[str, object, object]]:
    """Field-by-field diff of two folds (empty means exact)."""
    rec, rep = recorded.as_dict(), replayed.as_dict()
    return [(k, rec[k], rep[k]) for k in rec if rec[k] != rep[k]]


def replay_trace(
    trace,
    scenario: Optional[Dict[str, object]] = None,
    routing: str = "recorded",
    telemetry=None,
) -> ReplayReport:
    """Re-run a recorded trace's workload and diff the metric folds.

    ``scenario`` defaults to the config embedded in the trace's
    metadata header (``trace.meta["scenario"]``); likewise the workload
    specs come from ``trace.meta["workload"]`` when the export carried
    them and are reconstructed from events otherwise.  ``routing``:
    ``"recorded"`` pins every placement to the recorded instance
    (required for exactness); ``"live"`` lets the scenario's default
    policy re-route, which measures how much of the recorded outcome
    was routing rather than workload.  ``telemetry``, when given,
    receives the replay run's instrumentation plus the
    ``replay_drift_fields`` gauge.
    """
    if routing not in ("recorded", "live"):
        raise ValueError("routing must be 'recorded' or 'live'")
    meta = trace.meta
    if scenario is None:
        scenario = meta.get("scenario")
    if scenario is None:
        raise ValueError(
            "no scenario config: the trace export carries none and the "
            "caller supplied none (pass scenario=... or re-export with "
            "dump_jsonl(..., scenario=...))"
        )
    unreplayable: List[Tuple[str, str]] = []
    specs = meta.get("workload")
    if specs is None:
        wl = extract_workload(trace)
        specs = wl.specs
        unreplayable = wl.unreplayable
    fleet = build_scenario(scenario)
    if routing == "recorded":
        fleet.pick = pinned_pick(extract_assignment(trace))
    requests = make_requests(specs)
    replay_collector = Trace()
    t0 = _time.perf_counter()
    fleet.serve(requests, trace=replay_collector, telemetry=telemetry)
    wall = _time.perf_counter() - t0
    recorded = StepMetrics.from_trace(trace)
    replayed = StepMetrics.from_trace(replay_collector)
    drift = fold_drift(recorded, replayed)
    if telemetry is not None:
        telemetry.replay_drift.set(float(len(drift)))
    return ReplayReport(
        recorded=recorded,
        replayed=replayed,
        drift=drift,
        routing=routing,
        n_requests=len(requests),
        events_recorded=len(trace),
        events_replayed=len(replay_collector),
        wall_seconds=wall,
        partial=bool(trace.dropped_events),
        unreplayable=unreplayable,
        trace=replay_collector,
    )
