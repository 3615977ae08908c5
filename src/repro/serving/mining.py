"""Anomaly mining over recorded serving traces.

A recorded trace is a haystack of scheduling pathologies the headline
metrics average away: a 2-second SLO-miss pileup disappears into a
0.97 attainment, a preemption storm into a mean queue delay.  This
module scans traces with pluggable **detectors**, clusters their hits
into scored **incidents**, and (via :func:`emit_regression_tests`)
distills each incident into a minimal self-contained scenario written
as a pytest case under ``tests/mined/`` — recorded pathologies become
executable regression tests.

Detector contract
-----------------
A detector is any object with a ``name`` (stable registry key), a
``config`` dict (JSON-able constructor kwargs — embedded verbatim in
emitted tests so the mined case re-runs the *same* detector), and a
``scan(trace) -> List[Anomaly]`` method.  Detectors are pure readers:
they may use the columnar fast paths (``rows_of`` / ``payload``) or
the object views, must tolerate partial traces (missing payload keys
are skipped, never ``KeyError``), and must not mutate the trace.
Register new ones in :data:`DETECTORS`.

Built-in detectors (five distinct anomaly classes):

- ``slo_miss_cluster`` — bursts of FINISH events flagging
  ``ttft_miss``/``tbot_miss``, clustered by inter-miss gap.
- ``preemption_storm`` — bursts of PREEMPTs: KV pressure forcing
  recompute-evictions faster than the pool drains.
- ``prefix_thrash`` — a request whose admission hit the prefix cache
  and was then preempted: the reused KV is evicted with everyone
  else's and the "saved" prefill is paid again on re-admission.
- ``kv_transfer_stall`` — disaggregated handoffs whose delivery->
  decode-admission wait is an outlier (decode pool backed up behind
  the interconnect), or whose link seconds dwarf the median.
- ``autoscaler_flap`` — a pool scaling opposite directions within a
  short window: the control loop oscillating instead of settling.

:func:`mine` runs a detector set, merges each detector's anomalies
into incidents (gap-clustered, scored by summed severity), flags
partial recordings via ``dropped_events``, and optionally publishes
``mining_anomalies_total`` / ``mining_incidents_total`` counters to a
telemetry registry.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pprint
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serving.trace import EventType

__all__ = [
    "Anomaly",
    "Incident",
    "MiningReport",
    "DETECTORS",
    "default_detectors",
    "make_detector",
    "mine",
    "run_mined_scenario",
    "minimize_specs",
    "emit_regression_tests",
    "SloMissCluster",
    "PreemptionStorm",
    "PrefixThrash",
    "KvTransferStall",
    "AutoscalerFlap",
]


@dataclass(frozen=True)
class Anomaly:
    """One detector hit: a time span of suspicious behaviour."""

    detector: str
    start: float
    end: float
    severity: float
    request_ids: Tuple[str, ...] = ()
    instance: str = ""
    evidence: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Incident:
    """Gap-clustered anomalies of one detector, scored for triage."""

    detector: str
    start: float
    end: float
    score: float
    anomalies: Tuple[Anomaly, ...]

    @property
    def request_ids(self) -> Tuple[str, ...]:
        """Distinct requests implicated, in first-appearance order."""
        seen: Dict[str, None] = {}
        for a in self.anomalies:
            for rid in a.request_ids:
                seen.setdefault(rid, None)
        return tuple(seen)

    def summary(self) -> str:
        return (
            f"{self.detector}: {len(self.anomalies)} hit(s) over "
            f"[{self.start:.2f}s, {self.end:.2f}s], "
            f"{len(self.request_ids)} request(s), score {self.score:.2f}"
        )


def _cluster(events: List[Tuple[float, object]], gap: float) -> List[List[object]]:
    """Group (time, item) pairs whose consecutive gap is <= ``gap``."""
    clusters: List[List[object]] = []
    last = None
    for t, item in sorted(events, key=lambda p: p[0]):
        if last is None or t - last > gap:
            clusters.append([])
        clusters[-1].append(item)
        last = t
    return clusters


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------
class SloMissCluster:
    """Bursts of SLO-missing FINISHes (>= ``min_misses`` within gaps of
    ``window`` seconds)."""

    name = "slo_miss_cluster"

    def __init__(self, window: float = 5.0, min_misses: int = 3) -> None:
        self.config = {"window": float(window), "min_misses": int(min_misses)}

    def scan(self, trace) -> List[Anomaly]:
        window = self.config["window"]
        min_misses = self.config["min_misses"]
        misses = [
            (e.time, e)
            for e in trace.of_kind(EventType.FINISH)
            if e.data.get("ttft_miss") or e.data.get("tbot_miss")
        ]
        out: List[Anomaly] = []
        for cluster in _cluster(misses, window):
            if len(cluster) < min_misses:
                continue
            slos = sorted(
                {
                    slo
                    for e in cluster
                    for slo in ("ttft", "tbot")
                    if e.data.get(f"{slo}_miss")
                }
            )
            out.append(
                Anomaly(
                    detector=self.name,
                    start=cluster[0].time,
                    end=cluster[-1].time,
                    severity=len(cluster) / min_misses,
                    request_ids=tuple(
                        dict.fromkeys(e.request_id for e in cluster)
                    ),
                    evidence={"misses": len(cluster), "slos": slos},
                )
            )
        return out


class PreemptionStorm:
    """Bursts of recompute-preemptions (>= ``min_preempts`` within gaps
    of ``window`` seconds)."""

    name = "preemption_storm"

    def __init__(self, window: float = 2.0, min_preempts: int = 3) -> None:
        self.config = {
            "window": float(window), "min_preempts": int(min_preempts),
        }

    def scan(self, trace) -> List[Anomaly]:
        window = self.config["window"]
        min_preempts = self.config["min_preempts"]
        hits = [(e.time, e) for e in trace.of_kind(EventType.PREEMPT)]
        out: List[Anomaly] = []
        for cluster in _cluster(hits, window):
            if len(cluster) < min_preempts:
                continue
            insts = sorted({e.instance for e in cluster if e.instance})
            out.append(
                Anomaly(
                    detector=self.name,
                    start=cluster[0].time,
                    end=cluster[-1].time,
                    severity=len(cluster) / min_preempts,
                    request_ids=tuple(
                        dict.fromkeys(e.request_id for e in cluster)
                    ),
                    instance=insts[0] if len(insts) == 1 else "",
                    evidence={"preempts": len(cluster), "instances": insts},
                )
            )
        return out


class PrefixThrash:
    """Prefix-cache reuse destroyed by preemption.

    An admission logged PREFIX_HIT (cached KV reused, prefill time
    "saved"), then the request was preempted: recompute drops the
    reused blocks with everything else, so the saving is paid back —
    and then some — on re-admission.  Fires per victim request when at
    least ``min_cached`` reused tokens were thrown away.
    """

    name = "prefix_thrash"

    def __init__(self, min_cached: int = 16) -> None:
        self.config = {"min_cached": int(min_cached)}

    def scan(self, trace) -> List[Anomaly]:
        min_cached = self.config["min_cached"]
        out: List[Anomaly] = []
        hit_rids: Dict[str, None] = dict.fromkeys(
            e.request_id for e in trace.of_kind(EventType.PREFIX_HIT)
        )
        for rid in hit_rids:
            events = trace.for_request(rid)
            last_hit = None
            for e in events:
                if e.kind is EventType.PREFIX_HIT:
                    last_hit = e
                elif e.kind is EventType.PREEMPT and last_hit is not None:
                    cached = int(last_hit.data.get("cached", 0))
                    if cached < min_cached:
                        continue
                    out.append(
                        Anomaly(
                            detector=self.name,
                            start=last_hit.time,
                            end=e.time,
                            severity=1.0 + cached / 256.0,
                            request_ids=(rid,),
                            instance=e.instance,
                            evidence={
                                "cached_tokens_lost": cached,
                                "saved_seconds_voided": float(
                                    last_hit.data.get("saved_seconds", 0.0)
                                ),
                            },
                        )
                    )
                    last_hit = None
        return out


class KvTransferStall:
    """Disaggregated KV handoffs stalling at the decode pool.

    For each KV_TRANSFER, the *stall* is the wait between the KV's
    delivery and the decode-stage admission of the same request: the
    migrated cache sits resident (holding budget) while the request
    queues.  Fires when the wait exceeds
    ``max(min_wait, min(stall_seconds, factor * median wait))`` — the
    relative bound catches outliers in a healthy run, and the absolute
    ``stall_seconds`` cap still fires when the *median itself* is
    pathological (a backlogged decode pool stalls every handoff, so no
    wait is an outlier relative to the rest).  Also flags transfers
    whose link seconds exceed ``factor`` times the median (an
    outlier-sized payload on a slow link).
    """

    name = "kv_transfer_stall"

    def __init__(
        self,
        factor: float = 4.0,
        min_wait: float = 0.25,
        stall_seconds: float = 2.0,
    ) -> None:
        self.config = {
            "factor": float(factor),
            "min_wait": float(min_wait),
            "stall_seconds": float(stall_seconds),
        }

    @staticmethod
    def _median(values: List[float]) -> float:
        if not values:
            return 0.0
        values = sorted(values)
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def scan(self, trace) -> List[Anomaly]:
        factor = self.config["factor"]
        min_wait = self.config["min_wait"]
        xfers = trace.of_kind(EventType.KV_TRANSFER)
        if not xfers:
            return []
        waits: List[Tuple[object, Optional[float]]] = []
        for x in xfers:
            admit = next(
                (
                    e
                    for e in trace.for_request(x.request_id)
                    if e.kind is EventType.ADMIT and e.time >= x.time
                    and not e.instance.startswith("pf")
                ),
                None,
            )
            waits.append((x, admit.time - x.time if admit else None))
        med_wait = self._median([w for _, w in waits if w is not None])
        med_secs = self._median(
            [float(x.data["seconds"]) for x in xfers if "seconds" in x.data]
        )
        threshold = max(
            min_wait, min(self.config["stall_seconds"], factor * med_wait)
        )
        out: List[Anomaly] = []
        for x, wait in waits:
            secs = float(x.data.get("seconds", 0.0))
            stalled = wait is not None and wait > threshold
            slow = med_secs > 0 and secs > factor * med_secs
            if not (stalled or slow):
                continue
            out.append(
                Anomaly(
                    detector=self.name,
                    start=x.time,
                    end=x.time + (wait or 0.0),
                    severity=(
                        (wait / threshold) if stalled and threshold > 0
                        else secs / med_secs if med_secs > 0 else 1.0
                    ),
                    request_ids=(x.request_id,),
                    instance=x.instance,
                    evidence={
                        "wait_seconds": wait,
                        "transfer_seconds": secs,
                        "median_wait": med_wait,
                        "stalled": stalled,
                        "slow_link": slow,
                    },
                )
            )
        return out


class AutoscalerFlap:
    """A pool reversing scaling direction within ``window`` seconds.

    SCALE_UP followed by SCALE_DOWN on the same pool (or the reverse)
    inside the window means the control loop paid an activation/drain
    it immediately undid — oscillation, not tracking.
    """

    name = "autoscaler_flap"

    def __init__(self, window: float = 3.0) -> None:
        self.config = {"window": float(window)}

    def scan(self, trace) -> List[Anomaly]:
        window = self.config["window"]
        actions: Dict[str, List[Tuple[float, str, str]]] = {}
        for kind, direction in (
            (EventType.SCALE_UP, "up"),
            (EventType.SCALE_DOWN, "down"),
        ):
            for e in trace.of_kind(kind):
                pool = str(e.data.get("pool", ""))
                actions.setdefault(pool, []).append(
                    (e.time, direction, e.instance)
                )
        out: List[Anomaly] = []
        for pool, acts in actions.items():
            acts.sort(key=lambda a: a[0])
            for (t0, d0, _), (t1, d1, inst) in zip(acts, acts[1:]):
                if d0 != d1 and t1 - t0 <= window:
                    out.append(
                        Anomaly(
                            detector=self.name,
                            start=t0,
                            end=t1,
                            severity=1.0 + (window - (t1 - t0)) / window,
                            instance=inst,
                            evidence={
                                "pool": pool,
                                "reversal": f"{d0}->{d1}",
                                "gap_seconds": t1 - t0,
                            },
                        )
                    )
        return out


DETECTORS: Dict[str, Callable] = {
    cls.name: cls
    for cls in (
        SloMissCluster,
        PreemptionStorm,
        PrefixThrash,
        KvTransferStall,
        AutoscalerFlap,
    )
}


def make_detector(name: str, **config):
    """Instantiate a registered detector by name."""
    try:
        cls = DETECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown detector {name!r}; known: {sorted(DETECTORS)}"
        ) from None
    return cls(**config)


def default_detectors() -> List[object]:
    """One instance of every registered detector, default thresholds."""
    return [cls() for cls in DETECTORS.values()]


# ----------------------------------------------------------------------
# mining
# ----------------------------------------------------------------------
@dataclass
class MiningReport:
    """Everything one :func:`mine` pass found."""

    incidents: List[Incident]
    anomalies: List[Anomaly]
    detectors: List[str]
    #: the recording shed ring-buffer events: detector counts are
    #: floors over the surviving window, not full-run totals
    partial: bool = False
    dropped_events: int = 0

    @property
    def anomaly_classes(self) -> List[str]:
        """Distinct detectors that fired, most severe incident first."""
        return list(dict.fromkeys(i.detector for i in self.incidents))

    def render(self, limit: Optional[int] = None) -> str:
        lines = [
            f"mined {len(self.anomalies)} anomalies -> "
            f"{len(self.incidents)} incidents across "
            f"{len(self.anomaly_classes)} class(es) "
            f"(detectors run: {', '.join(self.detectors)})"
        ]
        if self.partial:
            lines.append(
                f"recording is PARTIAL ({self.dropped_events} events "
                "shed by the ring buffer); counts are floors"
            )
        shown = self.incidents if limit is None else self.incidents[:limit]
        for inc in shown:
            lines.append(f"  {inc.summary()}")
            worst = max(inc.anomalies, key=lambda a: a.severity)
            if worst.evidence:
                ev = ", ".join(
                    f"{k}={v}" for k, v in sorted(worst.evidence.items())
                )
                lines.append(f"    worst hit: {ev}")
        if limit is not None and len(self.incidents) > limit:
            lines.append(f"  ... ({len(self.incidents) - limit} more)")
        return "\n".join(lines)


def mine(
    trace,
    detectors: Optional[Sequence[object]] = None,
    cluster_gap: float = 2.0,
    telemetry=None,
) -> MiningReport:
    """Scan ``trace`` with ``detectors`` and cluster hits into incidents.

    Each detector's anomalies are merged when their spans sit within
    ``cluster_gap`` seconds of each other; an incident's score is the
    summed severity of its hits.  Incidents come back sorted by score,
    descending.  ``telemetry``, when given, receives per-detector
    ``mining_anomalies_total`` / ``mining_incidents_total`` counters.
    """
    if detectors is None:
        detectors = default_detectors()
    anomalies: List[Anomaly] = []
    incidents: List[Incident] = []
    for det in detectors:
        hits = sorted(det.scan(trace), key=lambda a: (a.start, a.end))
        anomalies.extend(hits)
        if telemetry is not None and hasattr(telemetry, "mined_anomalies"):
            for _ in hits:
                telemetry.mined_anomalies.inc(detector=det.name)
        for group in _cluster([(a.start, a) for a in hits], cluster_gap):
            incidents.append(
                Incident(
                    detector=det.name,
                    start=min(a.start for a in group),
                    end=max(a.end for a in group),
                    score=sum(a.severity for a in group),
                    anomalies=tuple(group),
                )
            )
            if telemetry is not None and hasattr(
                telemetry, "mined_incidents"
            ):
                telemetry.mined_incidents.inc(detector=det.name)
    incidents.sort(key=lambda i: (-i.score, i.start))
    dropped = trace.dropped_events
    return MiningReport(
        incidents=incidents,
        anomalies=anomalies,
        detectors=[det.name for det in detectors],
        partial=bool(dropped),
        dropped_events=dropped,
    )


# ----------------------------------------------------------------------
# regression emission
# ----------------------------------------------------------------------
def run_mined_scenario(
    scenario: Dict[str, object],
    specs: Sequence[Dict[str, object]],
    detector: str,
    config: Optional[Dict[str, object]] = None,
) -> List[Anomaly]:
    """Re-run a mined scenario and re-scan it with one detector.

    This is the stable API every auto-emitted ``tests/mined/`` case
    calls: build the fleet from the embedded scenario config, serve the
    embedded workload specs, and return the detector's hits (a passing
    regression test asserts they are non-empty).
    """
    from repro.serving.replay import build_scenario, make_requests
    from repro.serving.trace import Trace

    fleet = build_scenario(scenario)
    trace = Trace()
    fleet.serve(make_requests(specs), trace=trace)
    return make_detector(detector, **dict(config or {})).scan(trace)


def minimize_specs(
    scenario: Dict[str, object],
    specs: Sequence[Dict[str, object]],
    detector: str,
    config: Optional[Dict[str, object]] = None,
    max_evals: int = 48,
) -> Optional[List[Dict[str, object]]]:
    """Smallest request subset that still triggers ``detector``.

    ddmin-lite: repeatedly try dropping the earliest/latest halves of
    the (arrival-sorted) spec list, then greedy single-request drops,
    re-running the scenario and re-scanning after every candidate cut —
    bounded by ``max_evals`` simulation runs.  Returns ``None`` when
    the detector does not fire even on the full workload (nothing to
    minimize: the incident was an artifact of state the scenario does
    not capture, e.g. a truncated recording).
    """
    specs = sorted(specs, key=lambda s: (s["arrival"], s["request_id"]))
    evals = 0

    def fires(subset: List[Dict[str, object]]) -> bool:
        nonlocal evals
        if not subset:
            return False
        evals += 1
        return bool(run_mined_scenario(scenario, subset, detector, config))

    if not fires(list(specs)):
        return None
    current = list(specs)
    # halve from either end while the detector still fires
    progress = True
    while progress and evals < max_evals:
        progress = False
        for cut in (len(current) // 2, len(current) // 4):
            if cut == 0 or evals >= max_evals:
                continue
            for candidate in (current[cut:], current[:-cut]):
                if len(candidate) < len(current) and fires(candidate):
                    current = candidate
                    progress = True
                    break
            if progress:
                break
    # greedy single drops, newest-first (late arrivals are usually
    # bystanders; early ones built the congestion)
    i = len(current) - 1
    while i >= 0 and evals < max_evals and len(current) > 1:
        candidate = current[:i] + current[i + 1:]
        if fires(candidate):
            current = candidate
        i -= 1
    return current


_TEST_TEMPLATE = '''\
"""Auto-mined regression test — generated by ``repro.serving.mining``.

{summary}

Do not edit by hand: re-run ``python -m repro.cli analyze --emit-tests``
on a newer trace to refresh.  The scenario and workload below are the
minimal subset of the recorded run that still triggers the detector;
if this test fails, the scheduling pathology it pins has changed shape
(or been fixed) — inspect with ``repro.serving.mining.run_mined_scenario``.
"""

from repro.serving.mining import run_mined_scenario

DETECTOR = {detector!r}
DETECTOR_CONFIG = {config}

SCENARIO = {scenario}

SPECS = {specs}


def test_{slug}():
    anomalies = run_mined_scenario(SCENARIO, SPECS, DETECTOR, DETECTOR_CONFIG)
    assert anomalies, (
        f"{{DETECTOR}} no longer fires on its mined scenario "
        f"({{len(SPECS)}} requests)"
    )
'''


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def emit_regression_tests(
    report: MiningReport,
    scenario: Dict[str, object],
    specs: Sequence[Dict[str, object]],
    out_dir,
    detectors: Optional[Sequence[object]] = None,
    min_score: float = 0.0,
    max_tests: int = 5,
    max_evals: int = 48,
) -> List[pathlib.Path]:
    """Distill incidents into pytest cases under ``out_dir``.

    Takes the highest-scoring incident per anomaly class (one test per
    detector keeps ``tests/mined/`` from accreting near-duplicates),
    minimizes its workload via :func:`minimize_specs`, and writes a
    self-contained test module named by detector and a content digest —
    re-emitting the same incident is idempotent, and distinct incidents
    never collide.  Incidents whose detector no longer fires on the
    re-built scenario (state the config cannot capture) are skipped.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = {
        det.name: dict(det.config) for det in (detectors or [])
    }
    written: List[pathlib.Path] = []
    done_detectors = set()
    for incident in report.incidents:
        if len(written) >= max_tests:
            break
        if incident.score < min_score or incident.detector in done_detectors:
            continue
        done_detectors.add(incident.detector)
        config = configs.get(incident.detector, {})
        minimal = minimize_specs(
            scenario, specs, incident.detector, config, max_evals=max_evals
        )
        if minimal is None:
            continue
        digest = _digest(
            [incident.detector, config, scenario, minimal]
        )
        slug = f"mined_{incident.detector}_{digest}"
        path = out_dir / f"test_{slug}.py"
        path.write_text(
            _TEST_TEMPLATE.format(
                summary=(
                    f"Detector ``{incident.detector}``, mined incident "
                    f"{incident.summary()}; minimized to {len(minimal)} "
                    f"of {len(specs)} recorded requests."
                ),
                detector=incident.detector,
                config=pprint.pformat(config, width=72),
                scenario=pprint.pformat(scenario, width=72),
                specs=pprint.pformat(list(minimal), width=72),
                slug=slug,
            )
        )
        written.append(path)
    return written
