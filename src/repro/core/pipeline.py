"""High-level public API: compressed generation + serving estimation.

``CompressedGenerationPipeline`` is the one-stop entry point downstream
users interact with: pick a model flavour and a compression algorithm by
name, generate, and ask systems questions (throughput, memory, OOM
boundaries) about deploying that same algorithm on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.compression.base import Compressor
from repro.compression.registry import create
from repro.engines.base import ServingCostModel, StageCost
from repro.engines.presets import get_engine
from repro.hardware.interconnect import InterconnectSpec, tp_interconnect
from repro.hardware.memory import MemoryBreakdown
from repro.hardware.specs import GPUSpec, get_gpu
from repro.model.arch import ArchSpec, get_arch
from repro.model.config import (
    FunctionalModelConfig,
    llama_sim_config,
    mistral_sim_config,
)
from repro.model.generate import GenerationOutput, generate
from repro.model.sampling import Sampler
from repro.model.transformer import FunctionalTransformer
from repro.serving.request import ServingRequest
from repro.serving.scheduler import make_policy
from repro.serving.simulator import ServerInstance, SimulationResult
from repro.serving.trace import Trace

_MODEL_FLAVOURS = {
    "llama-sim": llama_sim_config,
    "mistral-sim": mistral_sim_config,
}


@dataclass
class ServingEstimate:
    """Systems-level answers for one deployment configuration."""

    prefill: StageCost
    decode: StageCost
    memory: MemoryBreakdown

    @property
    def decode_throughput(self) -> float:
        """Decode tokens/second (0.0 on OOM)."""
        return 0.0 if self.decode.oom else 1.0 / self.decode.seconds


class CompressedGenerationPipeline:
    """Generate with a KV-compression algorithm and price its serving.

    Parameters
    ----------
    algorithm:
        Registry name: ``"fp16"``, ``"kivi-4"``, ``"gear-4"``,
        ``"h2o-512"``, ``"stream-512"``, ``"snapkv-512"``, or bit/budget
        variants (``"kivi-2"``, ``"stream-1024"``).
    model:
        Functional model flavour (``"llama-sim"`` or ``"mistral-sim"``)
        or an explicit :class:`FunctionalModelConfig`.
    arch / gpu / engine / tp:
        Deployment the serving estimates are priced for.
    """

    def __init__(
        self,
        algorithm: str = "fp16",
        model: str = "llama-sim",
        arch: str = "llama-7b",
        gpu: str = "a6000",
        engine: str = "lmdeploy",
        tp: int = 1,
        interconnect: Optional[InterconnectSpec] = None,
        model_config: Optional[FunctionalModelConfig] = None,
    ) -> None:
        if model_config is not None:
            cfg = model_config
        else:
            if model not in _MODEL_FLAVOURS:
                raise KeyError(
                    f"unknown model {model!r}; known: {sorted(_MODEL_FLAVOURS)}"
                )
            cfg = _MODEL_FLAVOURS[model]()
        self.config = cfg
        self.model = FunctionalTransformer(cfg)
        self.algorithm = algorithm
        self.compressor: Compressor = create(algorithm)
        self.arch: ArchSpec = get_arch(arch)
        self.gpu: GPUSpec = get_gpu(gpu)
        self.cost_model = ServingCostModel(
            self.arch,
            self.gpu,
            get_engine(engine),
            tp=tp,
            interconnect=interconnect or tp_interconnect(gpu, tp),
        )

    @property
    def tokenizer(self):
        """The synthetic tokenizer of the functional model."""
        return self.model.tokenizer

    # ------------------------------------------------------------------
    def generate(
        self,
        prompts: Sequence[Sequence[int]],
        sampler: Optional[Sampler] = None,
        max_new_tokens: int = 256,
    ) -> GenerationOutput:
        """Generate under this pipeline's compression algorithm."""
        comp = None if self.algorithm == "fp16" else self.compressor
        return generate(
            self.model,
            prompts,
            compressor=comp,
            sampler=sampler,
            max_new_tokens=max_new_tokens,
        )

    # ------------------------------------------------------------------
    def estimate_serving(
        self, batch: int, prompt_len: int, kv_len: Optional[int] = None
    ) -> ServingEstimate:
        """Price prefill + one decode step + memory for a configuration."""
        kv = prompt_len if kv_len is None else kv_len
        spec = self.compressor.cost_spec()
        mem = self.cost_model.memory.breakdown(
            self.compressor.memory_spec(self.arch), batch, kv, prompt_len
        )
        return ServingEstimate(
            prefill=self.cost_model.prefill(batch, prompt_len, spec),
            decode=self.cost_model.decode_step(batch, kv, spec),
            memory=mem,
        )

    def decode_throughput(self, batch: int, kv_len: int) -> float:
        """Decode tokens/second for this algorithm at a configuration."""
        return self.cost_model.decode_throughput(
            batch, kv_len, self.compressor.cost_spec()
        )

    def prefill_throughput(self, batch: int, prompt_len: int) -> float:
        """Prefill tokens/second for this algorithm at a configuration."""
        return self.cost_model.prefill_throughput(
            batch, prompt_len, self.compressor.cost_spec()
        )

    def max_batch(self, kv_len: int) -> int:
        """Largest batch fitting in GPU memory at ``kv_len``."""
        return self.cost_model.memory.max_batch(
            self.compressor.memory_spec(self.arch), kv_len
        )

    # ------------------------------------------------------------------
    def serving_instance(
        self,
        max_batch: int = 64,
        scheduler: str = "fcfs",
        admission: str = "reserve",
        chunk_size: Optional[int] = None,
    ) -> ServerInstance:
        """Build an event-driven serving instance for this deployment."""
        return ServerInstance(
            self.cost_model,
            self.compressor.cost_spec(),
            max_batch=max_batch,
            scheduler=make_policy(scheduler),
            admission=admission,
            chunk_size=chunk_size,
        )

    def simulate_serving(
        self,
        requests: Sequence[ServingRequest],
        max_batch: int = 64,
        scheduler: str = "fcfs",
        admission: str = "reserve",
        chunk_size: Optional[int] = None,
        with_trace: bool = False,
        ttft_slo: Optional[float] = None,
        tbot_slo: Optional[float] = None,
    ) -> SimulationResult:
        """Serve a request stream under this algorithm's cost profile.

        ``scheduler`` is one of ``fcfs`` / ``shortest`` / ``priority`` /
        ``slo`` (earliest-deadline-first by live slack);
        ``admission`` is ``reserve`` (peak footprint reserved up front)
        or ``dynamic`` (live footprint with recompute preemption);
        ``chunk_size`` enables Sarathi/vLLM-style chunked prefill on
        continuous-batching engines (``None`` = single-shot prefill).
        ``ttft_slo`` / ``tbot_slo`` stamp a fleet-wide TTFT deadline /
        TBOT target (seconds) onto every request that does not already
        carry its own; attainment then shows up in
        :class:`~repro.serving.metrics.LatencySummary` and
        :class:`~repro.serving.metrics.StepMetrics`.
        With ``with_trace=True`` the result carries a step-level
        :class:`~repro.serving.trace.Trace` for timeline inspection.
        """
        for r in requests:
            if ttft_slo is not None and r.ttft_deadline is None:
                r.ttft_deadline = ttft_slo
            if tbot_slo is not None and r.tbot_target is None:
                r.tbot_target = tbot_slo
        inst = self.serving_instance(max_batch, scheduler, admission, chunk_size)
        return inst.run(requests, trace=Trace() if with_trace else None)
