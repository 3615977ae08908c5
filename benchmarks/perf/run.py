#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer
metrics, correctness checks.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds N]
        [--trace 0|1 | --traced] [--out DIR] [--plant MODULE:QUALNAME=FACTOR]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, one
after another.  Each runs in its own fresh Python process with BLAS
pinned to one thread; with ``--trace 0`` four more fresh processes only
import and build, so ``setup_s`` is the median of five.  A run repeats
the workload for ``--seconds`` and reports medians over repetitions,
timed in reference seconds (``calibration.py``).
``--trace 1`` spends half the time untraced and half with every layer
wrapped in spans (``tracing.py``), and reports the per-layer metrics
plus the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out DIR`` also writes each run's full record (and, traced, a Chrome
trace of the first traced repetition) for ``compare.py``.

Metric definitions and the reasons for each workload are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: fresh processes whose set-up time is measured (the run's own included)
SETUP_PROCESSES = 5
#: one BLAS thread; a fixed string hash so runs repeat exactly; and peak
#: memory that follows the program's live data: glibc's mmap threshold
#: pinned at its default (left adaptive, it rises as large arrays are
#: freed, so freed memory stays in the heap and peak memory grew with
#: run length, moving model_eval's by 10%), and no transparent huge
#: pages for NumPy arrays, whose availability depends on the host
CHILD_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
#: wall-clock allowance on top of ``--seconds`` for one workload: set-up
#: processes, inputs, the last repetition's overrun and the checks
WORKLOAD_SLACK = 150.0


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``values``."""
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# the workload process
# ----------------------------------------------------------------------
def child(args) -> int:
    """Set up, then (``--child run``) measure one workload; prints one
    JSON line."""
    sys.path.insert(0, str(SRC))
    import gc
    import resource

    import calibration

    # set-up is interpreter-bound: scale it by the Python kernel, run on
    # both sides of the imports and the build; its own runs do not count
    t_kernel = time.monotonic()
    setup_host = calibration.Calibration("python")
    t0 = args.t0 + (time.monotonic() - t_kernel)

    import check
    import tracing
    import workloads

    wl = workloads.make(args.workload, quick=args.quick)
    wl.load()
    t_import = time.monotonic()
    wl.build()
    t_build = time.monotonic()
    scale = setup_host.scale()
    setup = {
        "setup_s": (t_build - t0) * scale,
        "import_s": (t_import - t0) * scale,
        "build_s": (t_build - t_import) * scale,
        "host_scale": scale,
    }
    if args.child == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    t0 = time.monotonic()
    inputs = wl.inputs(args.seed)
    setup["inputs_s"] = (time.monotonic() - t0) * scale
    for text in args.plant:
        tracing.plant(*tracing.parse_plant(text))
    reference = None if args.quick else check.load_reference(args.seed)

    chk = check.Checker()
    reps: List[dict] = []
    first = match = tracer = None
    phases = [(False, args.seconds)]
    if args.trace:
        phases = [(False, args.seconds / 2), (True, args.seconds / 2)]
    host = calibration.Calibration(wl.calibration)
    for traced, budget in phases:
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            first_traced = len(reps)
        start = time.perf_counter()
        while True:
            i = len(reps)
            gc.collect()
            if traced:
                tracer.begin_rep(i)
            host.start()
            raw = wl.run(inputs, args.workdir, host.lap)
            host.lap()
            seconds, scale = host.wall, host.ref / host.wall
            rep = wl.summarize(raw, inputs)
            layer = dict(rep.layer)
            if "serving.replay.events_per_s" in layer:
                layer["serving.replay.events_per_s"] /= scale
            if traced:
                for key, value in tracer.rep_summary(i).items():
                    layer[key] = value * scale if key.endswith(".self_s") else value
                if i != first_traced:
                    tracer.drop_rep(i)  # only the first is written out
            wl.check(raw, inputs, chk)
            del raw  # two repetitions' outputs never coexist
            if first is None:
                first = rep
                match = check.check_reference(chk, reference, wl.name, rep)
            chk.expect(
                rep.digest == first.digest,
                f"repetition {i} output digest {rep.digest} differs "
                f"from repetition 0's {first.digest}",
            )
            reps.append({
                "seconds": seconds,
                "host_scale": scale,
                "traced": traced,
                "req_per_s": rep.requests / (seconds * scale),
                "tokens_per_s": rep.tokens / (seconds * scale),
                "layer": layer,
            })
            if time.perf_counter() - start >= budget:
                break
        if traced:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = 0
    if tracer is not None and args.out:
        spans = tracer.write_chrome_trace(
            os.path.join(args.out, f"{args.tag}.trace.json")
        )

    quality = dict(first.quality)
    if match is not None:
        quality["eval_token_match"] = match
    print(json.dumps({
        "setup": setup,
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
        "digest": first.digest,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "messages": chk.messages,
        "chrome_spans": spans,
    }))
    return 0


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one fresh workload process; returns its JSON line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--tag", args.tag,
    ]
    if args.quick:
        cmd.append("--quick")
    if args.out:
        cmd += ["--out", args.out]
    if mode == "run":
        cmd += ["--workdir", args.workdir]
    for text in args.plant:
        cmd += ["--plant", text]
    env = dict(os.environ, **CHILD_ENV)
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()  # set-up time counts from here
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{args.workload} {mode} process exited with {proc.returncode}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} {mode} process printed nothing")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(result: dict, setups: List[float]) -> Dict[str, dict]:
    """The untraced run's end-to-end metrics, each with its spread."""
    reps = [r for r in result["reps"] if not r["traced"]]
    return {
        "setup_s": quartiles(setups),
        "req_per_s": quartiles([r["req_per_s"] for r in reps]),
        "tokens_per_s": quartiles([r["tokens_per_s"] for r in reps]),
        "peak_rss_mb": quartiles([result["peak_rss_mb"]]),
    }


def per_layer(result: dict, names: List[str]) -> Dict[str, dict]:
    """Medians over the traced repetitions of every declared per-layer
    metric (0 where the workload never reaches that layer)."""
    reps = result["reps"]
    traced = [r["layer"] for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values: Dict[str, List[float]] = {}
    for layer in traced:
        derived = dict(layer)
        get = lambda k: layer.get(k, 0.0)  # noqa: E731
        derived["serving.simulator.self_s"] = (
            get("serving.simulator.run.self_s")
            + get("serving.simulator.loop.self_s")
        )
        calls = get("serving.trace.record_decode_steps.calls")
        derived["serving.simulator.steps_per_burst"] = (
            get("serving.trace.decode_rows") / calls if calls else 0.0
        )
        calls = get("serving.scheduler.select.calls")
        derived["serving.scheduler.select.queue_len_mean"] = (
            get("serving.scheduler.select.queue_len") / calls if calls else 0.0
        )
        steps = get("serving.simulator.decode_steps")
        derived["engines.step_price_reuse"] = (
            1.0 - get("engines.decode_step.calls") / steps if steps else 0.0
        )
        for name in names:
            values.setdefault(name, []).append(float(derived.get(name, 0.0)))
    # replay speed is read from the untraced repetitions
    if plain and "serving.replay.events_per_s" in names:
        values["serving.replay.events_per_s"] = [
            r["layer"].get("serving.replay.events_per_s", 0.0) for r in plain
        ]
    for key in ("import_s", "build_s", "inputs_s"):
        values[f"setup.{key}"] = [result["setup"][key]]
    rate = lambda rs: statistics.median(r["req_per_s"] for r in rs)  # noqa: E731
    values["tracing.overhead_frac"] = [
        1.0 - rate([r for r in reps if r["traced"]]) / rate(plain)
    ]
    return {name: quartiles(values[name]) for name in names}


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + args.seconds + WORKLOAD_SLACK
    setups = []
    if not args.trace and not args.quick:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(spawn(args, "setup", deadline)["setup"]["setup_s"])
    # the fleet recording's scratch directory, under the repository root
    # and removed even when the workload process is killed
    args.workdir = tempfile.mkdtemp(prefix=".perf-work-", dir=ROOT)
    try:
        result = spawn(args, "run", deadline)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    setups.append(result["setup"]["setup_s"])
    if args.trace:
        declared = spec["per_layer"]
        stats = per_layer(result, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        stats = end_to_end(result, setups)
    units = {m["name"]: m["unit"] for m in declared}
    result["metrics"] = {
        name: dict(s, unit=units[name]) for name, s in stats.items()
    }
    result["setup_samples"] = setups
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md)."
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", help="directory for run records")
    parser.add_argument("--plant", action="append", default=[],
                        metavar="MODULE:QUALNAME=FACTOR",
                        help="slow one function down by FACTOR")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one set-up process "
                        "(harness self-tests)")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--tag", default="", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    spec = json.loads(SPEC_FILE.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        args.out = os.path.abspath(args.out)
    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            args.workload = name
            args.tag = (
                f"{name}-seed{args.seed}-trace{args.trace}"
                f"{'-planted' if args.plant else ''}-{time.time_ns()}"
            )
            results[name] = dict(run_workload(args, spec), tag=args.tag)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in results.items():
        if args.out:
            record = {
                "workload": name, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "plant": args.plant, **res,
            }
            with open(os.path.join(args.out, f"{res['tag']}.json"), "w") as fp:
                json.dump(record, fp, indent=1)
        print(f"== {name} (seed {args.seed}, trace {args.trace}) ==")
        for metric, s in res["metrics"].items():
            print(f"{metric:48s} {s['median']:.6g} {s['unit']}"
                  f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        for key, value in sorted(res["quality"].items()):
            print(f"{'quality.' + key:48s} {value:.6g}")
        for message in res["messages"]:
            print(f"CHECK FAILED: {message}")
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, s in res["metrics"].items():
            summary["metrics"][prefix + metric] = {
                "value": s["median"], "unit": s["unit"],
            }
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
