"""The four benchmark workloads.

Each workload hands its whole input to the program offline.  Inputs are
made once per process from the seed (:meth:`Workload.inputs`); every
repetition (:meth:`Workload.run`, the timed part) then builds fresh
program objects from them, serves or generates, and folds its metrics.
:meth:`Workload.summarize` and :meth:`Workload.check` read the
repetition's public outputs afterwards, outside the timed region.

Simulated arrivals are open-loop schedules in *simulated* time (Poisson,
or non-homogeneous Poisson for the fleet), so the wall-clock speed of
the benchmark never shapes the load the simulator sees.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import check


def digest(obj) -> str:
    """Short content hash of a JSON-able value (floats by exact repr)."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _p99(values: Sequence[float]) -> float:
    return float(np.percentile(values, 99)) if len(values) else 0.0


@dataclass
class Rep:
    """What one repetition produced, read after the timed region."""

    #: requests ended (finished or rejected), the unit of ``req_per_s``
    requests: int
    #: prompt plus generated tokens of served requests (simulated or
    #: real), the unit of ``tokens_per_s``
    tokens: int
    #: hash of the repetition's deterministic outputs (folds or tokens)
    digest: str
    #: deterministic quality figures (simulated latency, SLO, scores)
    quality: Dict[str, float]
    #: per-layer values read from outputs (trace sizes, event counts)
    layer: Dict[str, float] = field(default_factory=dict)
    #: generated token streams (model_eval only), for the references
    tokens_by_run: Dict[str, List[List[int]]] = field(default_factory=dict)


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: the host-speed kernel (``calibration.py``) resembling the work
    calibration = "python"

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick

    def load(self) -> None:
        """Import the program modules the workload calls."""

    def build(self) -> None:
        """Build the program objects every repetition shares."""

    def inputs(self, seed: int):
        """Inputs for ``seed``; the same seed gives the same inputs."""
        raise NotImplementedError

    def run(self, inputs, workdir: str, lap: Callable[[], None]):
        """One timed repetition; returns its raw public outputs.  ``lap()``
        marks a phase boundary for the host-speed calibration."""
        raise NotImplementedError

    def summarize(self, raw, inputs) -> Rep:
        raise NotImplementedError

    def check(self, raw, inputs, chk: "check.Checker") -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# single-instance simulation
# ----------------------------------------------------------------------
def poisson_stream(
    n: int, seed: int, rate: float = 8.0
) -> List[Tuple[str, float, int, int, int]]:
    """The ``serving_scale`` stream shape -- Poisson arrivals at ``rate``
    req/s, prompts U[512, 3072), responses U[128, 1024), priorities
    U[0, 4) -- drawn stratified: every seed gets the same ``n`` quantiles
    of the gap and length distributions, each in its own random order.
    A seed then changes the order of the work, not its amount (plain
    draws move preemptions and prefill chunks by up to 10% between
    seeds, and the benchmark's speed with them)."""
    rng = np.random.default_rng(seed)
    u = (np.arange(n) + 0.5) / n
    gaps = rng.permutation(-np.log1p(-u) / rate)
    prompts = rng.permutation((512 + u * (3072 - 512)).astype(int))
    resps = rng.permutation((128 + u * (1024 - 128)).astype(int))
    prios = rng.integers(0, 4, size=n)
    arr = np.cumsum(gaps)
    return [
        (f"r{i}", float(arr[i]), int(prompts[i]), int(resps[i]), int(prios[i]))
        for i in range(n)
    ]


def _trace_layer(traces) -> Dict[str, float]:
    """Per-layer values every serving trace carries."""
    counts: Dict[str, int] = {}
    events = nbytes = 0
    for trace in traces:
        for kind, n in trace.counts().items():
            counts[kind] = counts.get(kind, 0) + n
        stats = trace.memory_stats()
        events += stats["events"]
        nbytes += stats["buffer_bytes"]
    return {
        "serving.trace.events": float(events),
        "serving.trace.bytes": float(nbytes),
        "serving.simulator.decode_steps": float(counts.get("DECODE_STEP", 0)),
        "serving.simulator.preemptions": float(counts.get("PREEMPT", 0)),
        "serving.simulator.rejects": float(counts.get("REJECT", 0)),
    }


def _served_tokens(requests) -> int:
    return sum(
        r.prompt_len + r.generated
        for r in requests
        if not r.rejected and r.finish is not None
    )


def _latency_quality(requests) -> Dict[str, float]:
    """Simulated-time latency figures from the request fields.  A
    rejected request misses every SLO."""
    served = [r for r in requests if not r.rejected and r.finish is not None]
    quality = {
        "sim_ttft_p99_s": _p99([r.ttft for r in served]),
        "sim_tbot_p99_s": _p99([r.tbot for r in served if r.generated > 1]),
    }
    if served:
        span = max(r.finish for r in served) - min(r.arrival for r in requests)
        good = sum(r.generated for r in served if r.slo_met)
        quality["sim_goodput_tok_per_s"] = good / span if span > 0 else 0.0
    if any(r.ttft_deadline is not None or r.tbot_target is not None
           for r in requests):
        met = sum(1 for r in served if r.slo_met)
        quality["sim_slo_attainment"] = met / len(requests)
    return quality


class SimDecode(Workload):
    """One FP16 LLaMA-7B/A6000/LMDeploy instance, reserve admission,
    FCFS, ``max_batch`` 64, serving the ``serving_scale`` stream."""

    name = "sim_decode"
    n_requests = 3072
    quick_requests = 256
    seed_base = 7

    def load(self) -> None:
        from repro import serving
        from repro.compression import NoCompression
        from repro.engines import LMDEPLOY, ServingCostModel
        from repro.hardware import A6000
        from repro.model.arch import LLAMA_7B

        self.S = serving
        self._cost_model = lambda: ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
        self._fp16 = NoCompression

    def build(self) -> None:
        self.fp16 = self._fp16().cost_spec()
        self.instance()

    def instance(self):
        return self.S.ServerInstance(self._cost_model(), self.fp16)

    def request(self, spec):
        rid, arrival, prompt, resp, prio = spec
        return self.S.ServingRequest(rid, arrival, prompt, resp, priority=prio)

    def inputs(self, seed: int):
        n = self.quick_requests if self.quick else self.n_requests
        return poisson_stream(n, self.seed_base + seed)

    def run(self, inputs, workdir, lap):
        S = self.S
        inst = self.instance()
        trace = S.Trace()
        result = inst.run([self.request(s) for s in inputs], trace=trace)
        fold = S.StepMetrics.from_trace(trace)
        latencies = S.request_latencies(trace)
        delays = S.queue_delays(trace)
        return result.requests, trace, fold, latencies, delays

    def summarize(self, raw, inputs) -> Rep:
        requests, trace, fold, latencies, delays = raw
        layer = _trace_layer([trace])
        layer["serving.scheduler.queue_delay_mean_s"] = (
            float(np.mean(list(delays.values()))) if delays else 0.0
        )
        return Rep(
            requests=len(requests),
            tokens=_served_tokens(requests),
            digest=digest([fold.as_dict(), latencies, delays]),
            quality=_latency_quality(requests),
            layer=layer,
        )

    def check(self, raw, inputs, chk) -> None:
        check.check_serving(chk, raw[1], [s[0] for s in inputs])


class SimAdmission(SimDecode):
    """The same instance and stream shape under dynamic admission, the
    ``slo`` policy and chunked prefill."""

    name = "sim_admission"
    n_requests = 512
    quick_requests = 128
    ttft_deadline = 2.0
    tbot_target = 0.1
    chunk_size = 512

    def instance(self):
        return self.S.ServerInstance(
            self._cost_model(), self.fp16,
            scheduler=self.S.make_policy("slo"),
            admission="dynamic", chunk_size=self.chunk_size,
        )

    def request(self, spec):
        rid, arrival, prompt, resp, prio = spec
        return self.S.ServingRequest(
            rid, arrival, prompt, resp, priority=prio,
            ttft_deadline=self.ttft_deadline, tbot_target=self.tbot_target,
        )


# ----------------------------------------------------------------------
# fleet, export and replay, router
# ----------------------------------------------------------------------
class FleetReplay(Workload):
    """(a) The ``serving_disagg`` autoscaled KIVI-4 fleet at 10x rate,
    recorded with ``dump_jsonl``, reloaded and replayed; (b) the
    ``serving_router`` mixed fleet under compression-aware routing with
    prefix caching and the risk gate at theta = 0.25.

    Verify-and-fallback stays off: a fallback re-decode is handed to its
    lossless instance at the original's finish time while that
    instance's clock is still earlier, so it can be admitted before it
    arrives (first token before arrival; router seed 11 + 6 shows it).
    The checker flags that, and every workload must run clean."""

    name = "fleet_replay"
    rate_scale = 10.0
    fleet_requests, quick_fleet_requests = 600, 120
    router_requests, quick_router_requests = 192, 48
    risk_threshold = 0.25

    def load(self) -> None:
        from repro import serving
        from repro.experiments import serving_disagg, serving_router

        self.S = serving
        self.disagg = serving_disagg
        self.router = serving_router

    def build(self) -> None:
        self.scenario = self.disagg.scenario_config("disagg")
        self.disagg.build_fleet("disagg")

    def inputs(self, seed: int):
        n_fleet = self.quick_fleet_requests if self.quick else self.fleet_requests
        n_router = (
            self.quick_router_requests if self.quick else self.router_requests
        )
        specs = self.disagg.build_workload(
            self.rate_scale, n=n_fleet, seed=self.disagg.SEED + seed
        )
        routed, _ = self.router.build_workload(
            n=n_router, seed=self.router.SEED + seed
        )
        return specs, routed

    def run(self, inputs, workdir, lap):
        S, disagg, router = self.S, self.disagg, self.router
        specs, routed = inputs
        fleet = disagg.build_fleet("disagg")
        trace = S.Trace()
        requests = disagg.make_requests(specs)
        served = fleet.serve(requests, trace=trace)
        fold = S.StepMetrics.from_trace(trace)
        path = os.path.join(workdir, "fleet.jsonl")
        S.dump_jsonl(
            trace, path, scenario=self.scenario,
            workload=S.workload_specs(requests),
        )
        lap()
        t0 = time.perf_counter()
        report = S.replay_trace(S.load_jsonl(path))
        replay_seconds = time.perf_counter() - t0
        lap()

        algos = router.MIXED_ALGOS
        rt = S.Router(
            router.build_fleet(algos), list(algos), S.RoutingPolicy.COMPRESSION,
            throughput_fn=router.make_throughput_fn(algos),
            length_fn=router.length_fn,
            risk_threshold=self.risk_threshold,
        )
        rtrace = S.Trace()
        routed_result = rt.serve_online(routed, trace=rtrace)
        rfold = S.StepMetrics.from_trace(rtrace)
        return {
            "served": served, "trace": trace, "fold": fold,
            "report": report, "replay_seconds": replay_seconds,
            "dump_bytes": os.path.getsize(path),
            "router": rt, "routed": routed_result, "rtrace": rtrace,
            "rfold": rfold,
        }

    def summarize(self, raw, inputs) -> Rep:
        served, report, routed = raw["served"], raw["report"], raw["routed"]
        effective = routed.effective_requests()
        every = routed.all_requests()
        layer = _trace_layer([raw["trace"], report.trace, raw["rtrace"]])
        hits = sum(inst.prefix_cache.hits for inst in raw["router"].instances)
        looks = hits + sum(
            inst.prefix_cache.misses for inst in raw["router"].instances
        )
        layer.update({
            "serving.export.dump_jsonl.mb": raw["dump_bytes"] / 1e6,
            "serving.replay.drift_fields": float(len(report.drift)),
            "serving.replay.events_per_s": (
                report.events_recorded / raw["replay_seconds"]
            ),
            "serving.fleet.kv_transfers": float(raw["fold"].kv_transfers),
            "serving.fleet.scale_events": float(
                raw["fold"].scale_ups + raw["fold"].scale_downs
            ),
            "serving.router.routed": float(len(routed.assignment)),
            "serving.router.reroutes": float(routed.reroutes),
            "serving.prefix.hit_rate": hits / looks if looks else 0.0,
        })
        quality = {
            f"fleet.{k}": v for k, v in _latency_quality(served.requests).items()
        }
        quality.update({
            f"router.{k}": v for k, v in _latency_quality(effective).items()
        })
        quality["replay_exact"] = float(report.exact)
        return Rep(
            # the replay re-serves the fleet's requests: they count twice
            requests=2 * len(served.requests) + len(every),
            tokens=2 * _served_tokens(served.requests) + _served_tokens(every),
            digest=digest(
                [raw["fold"].as_dict(), report.replayed.as_dict(),
                 raw["rfold"].as_dict()]
            ),
            quality=quality,
            layer=layer,
        )

    def check(self, raw, inputs, chk) -> None:
        specs, routed = inputs
        ids = [s[0] for s in specs]
        check.check_serving(chk, raw["trace"], ids)
        check.check_serving(chk, raw["report"].trace, ids)
        check.check_serving(chk, raw["rtrace"], [r.request_id for r in routed])
        chk.expect(
            raw["report"].exact,
            f"replay drifted in {[d[0] for d in raw['report'].drift]}",
        )


# ----------------------------------------------------------------------
# the functional model
# ----------------------------------------------------------------------
SHORT = {"kivi-4": "kivi", "gear-4": "gear", "h2o-512": "h2o", "stream-512": "stream"}


class IgnoreEOS:
    """Sampler that never picks end-of-sequence, like ``ignore_eos`` in
    serving throughput benchmarks: a batch then decodes exactly
    ``max_new_tokens`` steps whatever the seed, so the seed changes the
    tokens but not the amount of work."""

    def __init__(self, sampler, eos: int) -> None:
        self.sampler = sampler
        self.eos = eos

    def sample(self, logits: np.ndarray) -> np.ndarray:
        logits = logits.copy()
        logits[:, self.eos] = -np.inf
        return self.sampler.sample(logits)


class ModelEval(Workload):
    """The functional LLaMA model: (a) greedy LongBench-sim evaluation
    under FP16 and the four paper compressors, prefill-heavy; (b) seeded
    nucleus sampling of ShareGPT-sim requests, decode-heavy.

    Prompt lengths are held fixed across seeds: from a pool of seeded
    candidates the benchmark takes, per task (LongBench-sim) or per
    request (ShareGPT-sim), the one closest to a target length, so the
    seed changes content but not the amount of work.
    """

    name = "model_eval"
    calibration = "numpy"
    eval_algos = ("fp16", "kivi-4", "gear-4", "h2o-512", "stream-512")
    sample_algos = ("fp16", "kivi-4", "h2o-512")
    # (a) one sample per task; contexts just past the sparse 512-token
    # budget so H2O and StreamingLLM evict.  Every summarization title
    # is at least 8 tokens, so each batch decodes exactly 8 steps.
    eval_context, quick_eval_context = 768, 560
    quick_eval_tasks = ("qa_multi", "synthetic")
    eval_candidates = 8
    eval_new_tokens, quick_eval_new_tokens = 8, 4
    # (b) short prompts, long sampled responses that ignore end-of-sequence
    sample_requests, quick_sample_requests = 16, 4
    sample_prompt = 256
    sample_candidates = 8
    sample_new_tokens, quick_sample_new_tokens = 64, 8
    batch_size = 8

    def load(self) -> None:
        from repro.compression import create
        from repro.datasets.longbench import TASK_TYPES, LongBenchSim
        from repro.datasets.metrics import score
        from repro.datasets.sharegpt import ShareGPTSim
        from repro.model.config import llama_sim_config
        from repro.model.generate import generate
        from repro.model.sampling import Sampler
        from repro.model.transformer import FunctionalTransformer

        self.create, self.score, self.generate = create, score, generate
        self.Sampler = Sampler
        self.LongBenchSim, self.ShareGPTSim = LongBenchSim, ShareGPTSim
        self.tasks = TASK_TYPES
        self._model = lambda: FunctionalTransformer(llama_sim_config())

    def build(self) -> None:
        self.model = self._model()

    def inputs(self, seed: int):
        q = self.quick
        context = self.quick_eval_context if q else self.eval_context
        tasks = self.quick_eval_tasks if q else self.tasks
        pool = self.LongBenchSim(
            seed=seed, min_context=context, max_context=context + 1
        ).build(self.eval_candidates, tasks=tasks)
        # min() keeps the first of equally close candidates
        samples = [
            min((s for s in pool if s.task == task),
                key=lambda s: abs(s.prompt_len - context))
            for task in tasks
        ]
        n = self.quick_sample_requests if q else self.sample_requests
        cands = self.ShareGPTSim(seed=3 + seed).build(n * self.sample_candidates)
        closest = sorted(
            range(len(cands)),
            key=lambda i: (abs(cands[i].prompt_len - self.sample_prompt), i),
        )
        requests = [cands[i] for i in sorted(closest[:n])]
        return samples, requests, 14 + seed

    def _batches(self, prompts: Sequence[Sequence[int]]) -> List[List[int]]:
        order = sorted(range(len(prompts)), key=lambda i: len(prompts[i]))
        b = self.batch_size
        return [order[i:i + b] for i in range(0, len(order), b)]

    def _generate(self, prompts, algo, sampler, max_new):
        """Sequences in input order, plus the retained-KV readings."""
        comp = None if algo == "fp16" else self.create(algo)
        seqs: List[List[int]] = [[] for _ in prompts]
        retained = []
        for idx in self._batches(prompts):
            out = self.generate(
                self.model, [prompts[i] for i in idx], compressor=comp,
                sampler=sampler, max_new_tokens=max_new,
            )
            retained.append(out.retained_kv_tokens)
            for k, i in enumerate(idx):
                seqs[i] = out.sequences[k]
        return seqs, retained

    def run(self, inputs, workdir, lap):
        samples, requests, sample_seed = inputs
        q = self.quick
        eval_new = self.quick_eval_new_tokens if q else self.eval_new_tokens
        sample_new = self.quick_sample_new_tokens if q else self.sample_new_tokens
        jobs = [
            (f"longbench/{algo}", [s.prompt for s in samples], algo,
             lambda: self.Sampler(greedy=True), eval_new)
            for algo in self.eval_algos
        ] + [
            (f"sharegpt/{algo}", [r.prompt for r in requests], algo,
             lambda: IgnoreEOS(
                 self.Sampler(temperature=1.0, top_p=0.95, seed=sample_seed),
                 self.model.tokenizer.special.eos,
             ), sample_new)
            for algo in self.sample_algos
        ]
        runs = {}
        for label, prompts, algo, sampler, max_new in jobs:
            if runs:
                lap()  # each generation call is its own calibrated segment
            runs[label] = self._generate(prompts, algo, sampler(), max_new)
        return runs

    def summarize(self, raw, inputs) -> Rep:
        samples, requests, _ = inputs
        tokens = {label: seqs for label, (seqs, _) in raw.items()}
        prompt_tokens = {
            "longbench": sum(s.prompt_len for s in samples),
            "sharegpt": sum(r.prompt_len for r in requests),
        }
        n_requests = 0
        n_tokens = 0
        for label, seqs in tokens.items():
            n_requests += len(seqs)
            n_tokens += prompt_tokens[label.split("/")[0]]
            n_tokens += sum(len(s) for s in seqs)
        quality = {}
        for algo in self.eval_algos:
            seqs = tokens[f"longbench/{algo}"]
            quality[f"eval_score.{algo}"] = float(np.mean([
                self.score(s.metric, seq, s.answer)
                for s, seq in zip(samples, seqs)
            ]))
        quality["eval_score"] = float(np.mean(list(quality.values())))
        fp16 = np.mean(raw["longbench/fp16"][1])
        layer = {
            f"compression.{SHORT[algo]}.retained_kv_frac": float(
                np.mean(raw[f"longbench/{algo}"][1]) / fp16
            )
            for algo in self.eval_algos if algo in SHORT
        }
        return Rep(
            requests=n_requests,
            tokens=n_tokens,
            digest=digest(tokens),
            quality=quality,
            layer=layer,
            tokens_by_run=tokens,
        )

    def check(self, raw, inputs, chk) -> None:
        samples, requests, _ = inputs
        for label, (seqs, _) in raw.items():
            chk.expect(
                len(seqs) == (len(samples) if label.startswith("longbench")
                              else len(requests)),
                f"{label}: a prompt got no output",
            )


WORKLOADS = {
    cls.name: cls for cls in (SimDecode, SimAdmission, FleetReplay, ModelEval)
}


def make(name: str, quick: bool = False) -> Workload:
    try:
        return WORKLOADS[name](quick=quick)
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
