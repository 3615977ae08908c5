"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig1 table3
    python -m repro.cli run all            # every main-paper artifact
    REPRO_SCALE=full python -m repro.cli run table5
    python -m repro.cli trace --algo kivi-4 --n 16 --policy shortest

Each experiment prints its rendered tables; ``--out DIR`` also writes
them to ``DIR/<name>.txt``.  ``trace`` runs a synthetic request stream
through the event-driven serving simulator and dumps the step-level
timeline (ADMIT / PREFILL / DECODE_STEP / PREEMPT / FINISH / REJECT)
plus the aggregated scheduler metrics; ``--export jsonl`` /
``--export chrome`` additionally write the raw event stream as JSONL
(reloadable via ``repro.serving.load_jsonl``) or as Chrome/Perfetto
``trace_event`` JSON (open in ``chrome://tracing`` or
https://ui.perfetto.dev).  ``dashboard`` serves the same stream with
telemetry enabled and renders an ASCII dashboard — sparkline gauge
series, latency histograms, SLO topline; ``--refresh S`` re-renders a
frame every S simulated seconds while the run progresses.

``replay`` rebuilds a recorded run from an exported JSONL trace
(scenario + workload headers, written by ``disagg --export-trace`` or
``trace --export jsonl``), re-serves it, and reports any drift in the
folded ``StepMetrics`` — a deterministic build replays bit-for-bit.
``analyze`` mines a recorded trace for anomalies (SLO-miss clusters,
preemption storms, prefix cache-thrash, KV-transfer stalls, autoscaler
flapping), clusters them into scored incidents, and with
``--emit-tests DIR`` distills the top incident per detector into a
standalone pytest regression case with a minimized workload.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable, Dict

from repro.core.config import current_scale
from repro.experiments import (
    chunked_prefill,
    prefix_caching,
    serving_disagg,
    serving_replay,
    serving_router,
    slo_admission,
    fig1_throughput,
    fig2_h800,
    fig3_attention_time,
    fig4_length_dist,
    fig5_latency_cdf,
    fig6_negative_threshold,
    fig7_negative_tasks,
    table3_tp,
    table4_semantic,
    table5_length_ratio,
    table6_predictors,
    table7_negative_bench,
    table8_router,
)

_ANALYTIC = {
    "fig1": lambda scale: fig1_throughput.run(),
    "fig2": lambda scale: fig2_h800.run(),
    "fig3": lambda scale: fig3_attention_time.run(),
    "table3": lambda scale: table3_tp.run(),
    "chunked": lambda scale: chunked_prefill.run(),
    "slo": lambda scale: slo_admission.run(),
    "prefix": lambda scale: prefix_caching.run(),
    "router": lambda scale: serving_router.run(),
    "disagg": lambda scale: serving_disagg.run(),
    "replay": lambda scale: serving_replay.run(),
}

_GENERATION = {
    "table4": table4_semantic.run,
    "table5": table5_length_ratio.run,
    "fig4": fig4_length_dist.run,
    "fig5": fig5_latency_cdf.run,
    "fig6": fig6_negative_threshold.run,
    "fig7": fig7_negative_tasks.run,
    "table6": table6_predictors.run,
    "table7": table7_negative_bench.run,
    "table8": table8_router.run,
}

EXPERIMENTS: Dict[str, Callable] = {**_ANALYTIC, **_GENERATION}


def _build_serving(args):
    """Shared ``trace`` / ``dashboard`` setup: one instance built from
    its instance config (the one ``--export jsonl`` writes), its
    synthetic request stream, and a one-line run description."""
    import numpy as np

    from repro.engines.presets import cost_model
    from repro.serving import ServingRequest, instance_config
    from repro.serving.replay import build_instance

    cfg = instance_config(
        algo=args.algo, arch=args.arch, gpu=args.gpu, engine=args.engine,
        max_batch=args.max_batch, policy=args.policy,
        admission=args.admission, chunk_size=args.chunk_size,
        prefix_caching=args.prefix_caching,
    )
    inst = build_instance(
        cfg, cost_model(cfg["arch"], cfg["gpu"], cfg["engine"], cfg["tp"])
    )
    rng = np.random.default_rng(args.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / args.rps, size=args.n))
    prompts = rng.integers(64, 1024, size=args.n)
    resps = rng.integers(8, 256, size=args.n)

    def token_ids(i: int, length: int):
        # every prompt opens with the same synthetic system prompt, so
        # later arrivals hit the prefix cache on its full blocks
        if not args.prefix_caching:
            return None
        shared = range(50_000, 50_000 + 256)
        unique = range(i * 10_000, i * 10_000 + length)
        return tuple([*shared, *unique][:length])

    reqs = [
        ServingRequest(
            request_id=f"r{i}",
            arrival=float(arrivals[i]),
            prompt_len=int(prompts[i]),
            response_len=int(resps[i]),
            ttft_deadline=args.ttft_slo,
            tbot_target=args.tbot_slo,
            token_ids=token_ids(i, int(prompts[i])),
        )
        for i in range(args.n)
    ]
    chunk = "off" if args.chunk_size is None else str(args.chunk_size)
    slo = ""
    if args.ttft_slo is not None or args.tbot_slo is not None:
        slo = (
            f", SLO ttft<={args.ttft_slo or 'off'}s"
            f" tbot<={args.tbot_slo or 'off'}s"
        )
    prefix = ", prefix caching on" if args.prefix_caching else ""
    header = (
        f"{args.n} requests @ {args.rps:.1f} req/s on {args.algo}/{args.engine} "
        f"({args.policy} scheduler, {args.admission} admission, "
        f"chunked prefill {chunk}, token budget {inst.token_budget}{slo}{prefix})"
    )
    return inst, reqs, header, cfg


def run_trace(args) -> int:
    """Serve a synthetic stream and dump the step-level timeline."""
    from repro.serving import (
        LatencySummary,
        StepMetrics,
        Trace,
        dump_jsonl,
        write_chrome_trace,
    )

    inst, reqs, header, cfg = _build_serving(args)
    trace = Trace()
    result = inst.run(reqs, trace=trace)
    lines = [
        header,
        "",
        trace.render_timeline(limit=args.limit),
        "",
        "== step metrics ==",
        StepMetrics.from_trace(trace).render(),
    ]
    stats = trace.memory_stats()
    lines += [
        "",
        "== trace buffer ==",
        (
            f"events={stats['events']:,} capacity={stats['capacity']:,} "
            f"payload_columns={stats['payload_columns']} "
            f"buffer_bytes={stats['buffer_bytes']:,} "
            f"dropped={stats['dropped_events']}"
        ),
    ]
    if result.completed:
        lines += [
            "",
            "== latency summary ==",
            "\n".join(
                f"{k:24s} {v:.4f}"
                for k, v in LatencySummary.from_requests(result.completed)
                .as_dict()
                .items()
            ),
        ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "trace.txt").write_text(text + "\n")
    for fmt in args.export or ():
        out_dir = args.out or pathlib.Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "jsonl":
            from repro.serving import fleet_scenario, workload_specs

            path = out_dir / "trace.jsonl"
            # embed scenario + workload headers so `repro.cli replay`
            # can rebuild this exact run from the file alone
            dump_jsonl(trace, path, scenario=fleet_scenario(decode=[cfg]),
                       workload=workload_specs(reqs))
        else:
            path = out_dir / "trace.chrome.json"
            write_chrome_trace(trace, path)
        print(f"[exported {fmt} -> {path}]")
    return 0


def run_dashboard(args) -> int:
    """Serve a synthetic stream with telemetry on; render the dashboard."""
    from repro.serving import EventLoop, Telemetry, Trace, render_dashboard

    inst, reqs, header, _ = _build_serving(args)
    telemetry = Telemetry(
        labels={"policy": args.policy, "compression": args.algo}
    )
    trace = Trace()
    loop = EventLoop(trace, telemetry)
    inst.attach(loop)
    for r in sorted(reqs, key=lambda r: r.arrival):
        inst.submit(r)
    print(header)
    if args.refresh:
        # live mode: advance the simulated clock in --refresh slices and
        # re-render the dashboard from the registry as it stands mid-run
        clear = "\x1b[H\x1b[2J" if sys.stdout.isatty() else ""
        horizon = 0.0
        while loop.pending:
            horizon = max(horizon + args.refresh, loop.now)
            loop.run(until=horizon)
            frame = render_dashboard(telemetry, trace)
            sep = "" if clear else f"\n--- frame @ {loop.now:.3f}s ---\n"
            print(f"{clear}{sep}{frame}")
    else:
        loop.run()
        print(render_dashboard(telemetry, trace))
    if args.prom_out:
        args.prom_out.parent.mkdir(parents=True, exist_ok=True)
        args.prom_out.write_text(telemetry.render_prometheus())
        print(f"[prometheus exposition -> {args.prom_out}]")
    return 0


def run_route(args) -> int:
    """One compression-aware routing run at a chosen risk threshold."""
    from repro.serving import RoutingPolicy

    requests, ratios = serving_router.build_workload(
        n=args.n, seed=args.seed
    )
    rows = []
    if args.baselines:
        for fleet, algo in (
            ("fp16-static", "fp16"),
            ("compressed-static", "kivi-4"),
        ):
            row = serving_router.run_fleet(
                (algo,) * len(serving_router.MIXED_ALGOS),
                requests, ratios, policy=RoutingPolicy.LOAD_BALANCE,
            )
            rows.append(dict(row, fleet=fleet))
    row = serving_router.run_fleet(
        serving_router.MIXED_ALGOS, requests, ratios,
        risk_threshold=args.risk_threshold, fallback=args.fallback,
    )
    rows.append(dict(row, fleet="mixed"))
    print(
        f"compression routing: {args.n} requests, "
        f"risk threshold {args.risk_threshold:g}, "
        f"fallback {'on' if args.fallback else 'off'}"
    )
    cols = ("fleet", "policy", "quality", "goodput", "ttft_attainment",
            "mean_e2e", "reroutes", "fallbacks")
    print("  ".join(f"{c:>15s}" for c in cols))
    for r in rows:
        cells = []
        for c in cols:
            v = r[c]
            cells.append(
                f"{v:>15.3f}" if isinstance(v, float) else f"{v!s:>15s}"
            )
        print("  ".join(cells))
    return 0


def run_disagg(args) -> int:
    """One disaggregated-fleet run, optionally against the static
    monolithic baselines, at a chosen arrival-rate multiplier."""
    specs = serving_disagg.build_workload(
        args.rate_scale, n=args.n, seed=args.seed
    )
    kinds = ["disagg"]
    if args.baselines:
        kinds = [
            f"static-{n}" for n in serving_disagg.STATIC_SIZES
        ] + kinds
    print(
        f"disaggregated serving: {args.n} requests at "
        f"{args.rate_scale:g}x the base rate "
        f"(diurnal +-{serving_disagg.DIURNAL_AMP:.0%}, "
        f"{serving_disagg.BURST_MULT:g}x burst storm, "
        f"{serving_disagg.TTFT_SLO:g}s TTFT SLO)"
    )
    cols = ("fleet", "ttft_attainment", "mean_ttft", "p95_e2e",
            "completed", "kv_transfers", "kv_transfer_mb",
            "scale_ups", "scale_downs")
    print("  ".join(f"{c:>15s}" for c in cols))
    for kind in kinds:
        export = args.export_trace if kind == "disagg" else None
        if export is not None:
            export.parent.mkdir(parents=True, exist_ok=True)
        r = serving_disagg.run_fleet(
            kind, args.rate_scale, specs, export_path=export
        )
        cells = []
        for c in cols:
            v = r[c]
            cells.append(
                f"{v:>15.3f}" if isinstance(v, float) else f"{v!s:>15s}"
            )
        print("  ".join(cells))
    if args.export_trace is not None:
        print(f"[exported replayable trace -> {args.export_trace}]")
    return 0


def run_replay(args) -> int:
    """Rebuild and re-serve a recorded run; report metric drift."""
    from repro.serving import Telemetry, load_jsonl, replay_trace

    trace = load_jsonl(args.path)
    telemetry = Telemetry(labels={"source": args.path.name})
    report = replay_trace(trace, routing=args.routing, telemetry=telemetry)
    print(report.render())
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "replay.txt").write_text(report.render() + "\n")
    if args.strict and not report.exact:
        print(f"[strict] replay drifted on {len(report.drift)} field(s)",
              file=sys.stderr)
        return 1
    return 0


def run_analyze(args) -> int:
    """Mine a recorded trace for anomalies; optionally emit regression
    tests distilled from the highest-scoring incidents."""
    from repro.serving import (
        emit_regression_tests,
        load_jsonl,
        make_detector,
        mine,
    )
    from repro.serving.replay import extract_workload

    trace = load_jsonl(args.path)
    detectors = None
    if args.detectors:
        detectors = [make_detector(n) for n in args.detectors]
    report = mine(trace, detectors=detectors, cluster_gap=args.cluster_gap)
    print(report.render(limit=args.limit))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "analyze.txt").write_text(
            report.render(limit=args.limit) + "\n"
        )
    if args.emit_tests is not None:
        scenario = trace.meta.get("scenario")
        if scenario is None:
            print("[emit-tests] trace has no scenario header; cannot "
                  "rebuild the run for minimization", file=sys.stderr)
            return 2
        # the header's workload carries what events cannot: token ids,
        # priorities, requests rejected before any admission
        specs = trace.meta.get("workload")
        if specs is None:
            specs = extract_workload(trace).specs
        written = emit_regression_tests(
            report, scenario, specs, args.emit_tests,
            min_score=args.min_score, max_tests=args.max_tests,
            max_evals=args.max_evals,
        )
        for path in written:
            print(f"[emitted regression test -> {path}]")
        if not written:
            print("[emit-tests] no incident survived minimization]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment names")
    runp = sub.add_parser("run", help="run experiments by name")
    runp.add_argument("names", nargs="+", help="experiment names or 'all'")
    runp.add_argument("--out", type=pathlib.Path, default=None,
                      help="also write rendered output to this directory")
    def add_serving_args(p):
        p.add_argument("--algo", default="fp16", help="compression algorithm")
        p.add_argument("--arch", default="llama-7b")
        p.add_argument("--gpu", default="a6000")
        p.add_argument("--engine", default="lmdeploy")
        p.add_argument("--n", type=int, default=16, help="request count")
        p.add_argument("--rps", type=float, default=4.0, help="arrival rate")
        p.add_argument("--max-batch", type=int, default=64)
        p.add_argument("--policy", default="fcfs",
                       choices=["fcfs", "shortest", "priority", "slo"])
        p.add_argument("--admission", default="reserve",
                       choices=["reserve", "dynamic"])
        p.add_argument("--chunk-size", type=int, default=None,
                       help="chunked-prefill chunk size in tokens "
                            "(default: single-shot prefill)")
        p.add_argument("--ttft-slo", type=float, default=None,
                       help="per-request TTFT deadline in seconds "
                            "(FINISH events flag ttft_miss=1 inline)")
        p.add_argument("--tbot-slo", type=float, default=None,
                       help="per-request TBOT target in seconds/token "
                            "(FINISH events flag tbot_miss=1 inline)")
        p.add_argument("--prefix-caching", action="store_true",
                       help="attach a prefix index; the synthetic "
                            "prompts share a 256-token system prompt "
                            "so warm arrivals log PREFIX_HIT events")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=pathlib.Path, default=None,
                       help="also write rendered output to this directory")

    tracep = sub.add_parser(
        "trace", help="dump a serving run's step-level event timeline"
    )
    add_serving_args(tracep)
    tracep.add_argument("--limit", type=int, default=None,
                        help="cap the number of timeline lines printed")
    tracep.add_argument("--export", action="append", default=None,
                        choices=["jsonl", "chrome"],
                        help="also export the raw event stream "
                             "(repeatable; jsonl reloads via "
                             "repro.serving.load_jsonl, chrome opens in "
                             "chrome://tracing / Perfetto)")
    dashp = sub.add_parser(
        "dashboard",
        help="serve a synthetic stream with telemetry; render an ASCII "
             "dashboard of gauges, histograms, and SLO attainment",
    )
    add_serving_args(dashp)
    dashp.add_argument("--refresh", type=float, default=None,
                       help="re-render a frame every REFRESH simulated "
                            "seconds while the run progresses "
                            "(default: one frame at the end)")
    dashp.add_argument("--prom-out", type=pathlib.Path, default=None,
                       help="write the Prometheus text exposition of the "
                            "final registry to this file")
    routep = sub.add_parser(
        "route",
        help="serve the mixed-compression fleet through the "
             "compression-aware router at one risk threshold",
    )
    routep.add_argument("--n", type=int, default=96, help="request count")
    routep.add_argument("--seed", type=int, default=11)
    routep.add_argument("--risk-threshold", type=float, default=0.5,
                        help="per-instance risk at or above this gates "
                             "(fallback off) or fails verification "
                             "(fallback on)")
    routep.add_argument("--fallback", action="store_true",
                        help="VeriCache-style optimistic mode: route "
                             "compressed, re-decode failed "
                             "verifications on FP16")
    routep.add_argument("--baselines", action="store_true",
                        help="also serve the static FP16 and static "
                             "compressed fleets for comparison")
    disaggp = sub.add_parser(
        "disagg",
        help="serve a bursty diurnal workload on the disaggregated "
             "prefill/decode fleet with telemetry-driven autoscaling",
    )
    disaggp.add_argument("--n", type=int,
                         default=serving_disagg.N_REQUESTS,
                         help="request count")
    disaggp.add_argument("--seed", type=int, default=serving_disagg.SEED)
    disaggp.add_argument("--rate-scale", type=float, default=10.0,
                         help="arrival-rate multiplier over the base "
                              "rate (the experiment sweeps 1x-10x)")
    disaggp.add_argument("--baselines", action="store_true",
                         help="also serve the static monolithic fleets "
                              "for comparison")
    disaggp.add_argument("--export-trace", type=pathlib.Path, default=None,
                         help="export the disagg run as replayable JSONL "
                              "(scenario + workload headers; feed to "
                              "`repro.cli replay` / `repro.cli analyze`)")
    replayp = sub.add_parser(
        "replay",
        help="rebuild a recorded run from an exported JSONL trace, "
             "re-serve it, and report StepMetrics drift",
    )
    replayp.add_argument("path", type=pathlib.Path,
                         help="JSONL trace with a scenario header "
                              "(see `disagg --export-trace` / "
                              "`trace --export jsonl`)")
    replayp.add_argument("--routing", default="recorded",
                         choices=["recorded", "live"],
                         help="'recorded' pins every request to the "
                              "instance it ran on; 'live' re-routes "
                              "through the fleet's picker")
    replayp.add_argument("--strict", action="store_true",
                         help="exit nonzero if the replayed metrics "
                              "drift from the recording")
    replayp.add_argument("--out", type=pathlib.Path, default=None,
                         help="also write the replay report to this "
                              "directory")
    analyzep = sub.add_parser(
        "analyze",
        help="mine a recorded trace for anomalies (SLO-miss clusters, "
             "preemption storms, KV-transfer stalls, prefix thrash, "
             "autoscaler flapping); optionally emit regression tests",
    )
    analyzep.add_argument("path", type=pathlib.Path,
                          help="JSONL trace to mine")
    from repro.serving.mining import DETECTORS

    analyzep.add_argument("--detectors", action="append", default=None,
                          choices=sorted(DETECTORS),
                          help="run only these detectors (repeatable; "
                               "default: all)")
    analyzep.add_argument("--cluster-gap", type=float, default=2.0,
                          help="max seconds between anomalies merged "
                               "into one incident")
    analyzep.add_argument("--limit", type=int, default=None,
                          help="cap the number of incidents printed")
    analyzep.add_argument("--emit-tests", type=pathlib.Path, default=None,
                          help="distill the top incident per detector "
                               "into a pytest file under this directory "
                               "(requires a scenario header)")
    analyzep.add_argument("--min-score", type=float, default=0.0,
                          help="skip incidents scoring below this")
    analyzep.add_argument("--max-tests", type=int, default=5,
                          help="cap on emitted test files")
    analyzep.add_argument("--max-evals", type=int, default=48,
                          help="re-simulation budget for workload "
                               "minimization per emitted test")
    analyzep.add_argument("--out", type=pathlib.Path, default=None,
                          help="also write the mining report to this "
                               "directory")
    args = parser.parse_args(argv)

    if args.command == "trace":
        return run_trace(args)
    if args.command == "dashboard":
        return run_dashboard(args)
    if args.command == "route":
        return run_route(args)
    if args.command == "disagg":
        return run_disagg(args)
    if args.command == "replay":
        return run_replay(args)
    if args.command == "analyze":
        return run_analyze(args)

    if args.command == "list":
        scale = current_scale()
        print(f"scale: {scale.name} (set REPRO_SCALE=full for paper scale)")
        for name in EXPERIMENTS:
            kind = "analytic" if name in _ANALYTIC else "generation"
            print(f"  {name:8s} [{kind}]")
        return 0

    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2

    scale = current_scale()
    for name in names:
        t0 = time.time()
        result = EXPERIMENTS[name](scale)
        text = result.render()
        print(text)
        print(f"[{name} done in {time.time() - t0:.1f}s]\n")
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
