"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q

The end-to-end test runs every workload once at ``--quick`` sizes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads(run.SPEC_FILE.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: per-layer metrics that read 0 on every quick workload: drift is 0
#: when replay is exact, and the quick streams reject nothing
MAY_BE_ZERO = {"serving.replay.drift_fields", "serving.simulator.rejects"}


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.2",
         *args],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_results():
    return {trace: _run("--trace", str(trace)) for trace in (0, 1)}


def test_spec_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(quick_results, trace, key):
    result = quick_results[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for wl in SPEC["workloads"]:
        for m in SPEC[key]:
            got = result["metrics"][f"{wl['name']}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)


def test_every_layer_metric_is_measured_somewhere(quick_results):
    metrics = quick_results[1]["metrics"]
    silent = [
        m["name"] for m in SPEC["per_layer"]
        if m["name"] not in MAY_BE_ZERO
        and all(metrics[f"{wl['name']}.{m['name']}"]["value"] == 0
                for wl in SPEC["workloads"])
    ]
    assert not silent, f"never measured (misnamed span?): {silent}"


def test_end_to_end_metrics_are_never_zero(quick_results):
    assert all(v["value"] > 0 for v in quick_results[0]["metrics"].values())


# ----------------------------------------------------------------------
# tracing arithmetic
# ----------------------------------------------------------------------
def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


class Toy:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.002)


def test_tracer_attributes_nested_calls():
    originals = dict(vars(Toy))
    tracer = tracing.Tracer()
    tracer.install(
        spans=[(n, f"{__name__}:Toy.{n}", None) for n in ("outer", "inner")],
        counts=[],
    )
    tracer.begin_rep(0)
    try:
        assert Toy().outer() == "done"
    finally:
        tracer.uninstall()
    summary = tracer.rep_summary(0)
    assert summary["outer.calls"] == 1 and summary["inner.calls"] == 2
    assert summary["inner.self_s"] >= 0.004
    assert 0 <= summary["outer.self_s"] < summary["inner.self_s"]
    assert dict(vars(Toy)) == originals


def test_plant_slows_the_planted_function_only():
    patches = tracing.plant(f"{__name__}:Toy.inner", 3.0)
    try:
        t0 = time.perf_counter()
        Toy().inner()
        slowed = time.perf_counter() - t0
    finally:
        patches.undo()
    t0 = time.perf_counter()
    Toy().inner()
    plain = time.perf_counter() - t0
    assert slowed >= 2.5 * 0.002 and plain < slowed


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def _trace(*events):
    from repro.serving import EventType, Trace

    trace = Trace()
    for time_, kind, rid, data in events:
        trace.record(time_, EventType[kind], rid, "inst0", **data)
    return trace


def _failures(trace, ids):
    chk = check.Checker()
    check.check_serving(chk, trace, ids)
    return chk.failed


GOOD = [
    (0.0, "ADMIT", "r0", {"arrival": 0.0, "queued_at": 0.0}),
    (0.5, "DECODE_STEP", "", {"batch": 1, "kv": 9, "seconds": 0.1,
                              "used_tokens": 90, "token_budget": 100,
                              "live": 1}),
    (1.0, "FINISH", "r0", {"arrival": 0.0, "first_token": 0.2,
                           "generated": 2}),
]


def test_checker_passes_a_valid_trace():
    assert _failures(_trace(*GOOD), ["r0"]) == 0


@pytest.mark.parametrize("bad", [
    # TTFT > E2E: the first token lands after the finish
    [(2.0, "FINISH", "r1", {"arrival": 0.0, "first_token": 3.0,
                            "generated": 1})],
    # a double finish
    [(2.0, "FINISH", "r0", {"arrival": 0.0, "first_token": 0.2,
                            "generated": 2})],
    # a budget overflow
    [(1.5, "DECODE_STEP", "", {"batch": 1, "kv": 9, "seconds": 0.1,
                               "used_tokens": 101, "token_budget": 100,
                               "live": 1})],
])
def test_checker_flags_fabricated_violations(bad):
    ids = ["r0"] + sorted({e[2] for e in bad if e[2] and e[2] != "r0"})
    assert _failures(_trace(*GOOD, *bad), ids) >= 1


def test_checker_flags_a_request_that_never_ended():
    assert _failures(_trace(*GOOD), ["r0", "r9"]) == 1


def test_token_match():
    ref = {"a": [[1, 2, 3], [4]]}
    assert check.token_match(ref, {"a": [[1, 2, 3], [4]]}) == 1.0
    assert check.token_match(ref, {"a": [[1, 9, 3], [4, 5]]}) == 3 / 5


# ----------------------------------------------------------------------
# the comparator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parent,change,want", [
    ([100, 101, 99, 100], [100, 100.5, 99.5, 101], "unchanged"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "worse"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "better"),
    ([100, 130, 70, 100], [100, 131, 69, 101], "unresolved"),
])
def test_comparator_verdicts(parent, change, want):
    seeds = range(len(parent))
    got = compare.verdict(
        {s: [v] for s, v in zip(seeds, parent)},
        {s: [v] for s, v in zip(seeds, change)},
        bound=0.1, lower_is_better=False,
    )
    assert got == want
