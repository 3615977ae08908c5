"""Benchmark harness configuration.

Each benchmark regenerates one paper table/figure and writes its
rendered output to ``results/<artifact>.txt`` so the numbers behind
EXPERIMENTS.md are reproducible artifacts.  Generation-heavy benches run
one round (``pedantic``); analytic benches benchmark normally.

Set ``REPRO_SCALE=full`` for paper-scale runs (slower).
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_result(results_dir):
    """Write an ExperimentResult's rendering to results/<slug>.txt."""

    def _record(result, slug: str) -> None:
        path = results_dir / f"{slug}.txt"
        path.write_text(result.render() + "\n")

    return _record


#: row-identifying keys used to name list elements in derived entries
_ID_KEYS = ("name", "policy", "config", "routing", "chunk", "admission", "algo")


def _unit(name: str) -> str:
    """Heuristic unit for a derived metric entry, from the leaf key of
    its dotted/bracketed name (section prefixes must not leak in)."""
    parts = name.lower().replace("]", ".").replace("[", ".").split(".")
    n = [p for p in parts if p][-1]
    # rates come first: "events_per_second" must not fall into the
    # wall-clock "s" bucket below
    if "_per_sec" in n:
        noun = n.split("_per_sec")[0].rsplit("_", 1)[-1]
        return {"requests": "req/s", "tokens": "tokens/s"}.get(
            noun, f"{noun}/s"
        )
    if n.startswith("speedup"):
        return "x"
    if n.endswith("_mb"):
        return "MB"
    if "throughput" in n or "goodput" in n:
        return "tokens/s"
    if any(
        t in n
        for t in ("attainment", "rate", "utilization", "fraction",
                  "overhead", "occupancy")
    ):
        return "fraction"
    if any(
        t in n
        for t in ("seconds", "ttft", "tbot", "delay", "gap", "latency",
                  "e2e", "makespan")
    ):
        return "s"
    return "count"


def _entries(payload, prefix: str = "") -> list:
    """Flatten every numeric leaf of ``payload`` into
    ``{name, value, unit}`` entries (the BENCH_*.json schema)."""
    out = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            name = f"{prefix}.{k}" if prefix else str(k)
            out.extend(_entries(payload[k], name))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            tag = str(i)
            if isinstance(v, dict):
                for idk in _ID_KEYS:
                    if isinstance(v.get(idk), (str, int)):
                        tag = str(v[idk])
                        break
            out.extend(_entries(v, f"{prefix}[{tag}]"))
    elif isinstance(payload, bool):
        pass  # bools are flags, not metrics
    elif isinstance(payload, (int, float)):
        out.append(
            {"name": prefix, "value": payload, "unit": _unit(prefix)}
        )
    return out


@pytest.fixture()
def record_bench_json(results_dir):
    """Merge one benchmark's metrics into results/BENCH_<bench>.json.

    Each benchmark contributes a section keyed by its slug, so the file
    accumulates a machine-readable view (throughput, TTFT, attainment,
    prefix hit-rate) across the whole benchmark run.  Every section also
    carries a flat ``entries`` list of ``{name, value, unit}`` records
    derived from the payload's numeric leaves — the schema
    ``tests/test_bench_schema.py`` checks for every BENCH file.
    """

    def _record(section: str, payload: dict, bench: str = "serving") -> None:
        path = results_dir / f"BENCH_{bench}.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        data[section] = {**payload, "entries": _entries(payload, section)}
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    return _record
