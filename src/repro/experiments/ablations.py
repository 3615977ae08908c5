"""Ablations of the design choices DESIGN.md calls out.

Not paper artifacts — these quantify the modelled mechanisms in
isolation so their contribution to the reproduced shapes is auditable:

- flash vs naive attention traffic (engine modelling),
- KIVI's full-precision residual window on/off,
- GEAR's rank/outlier sweep (fidelity vs cost),
- sparse budget split (sink vs recent) sweep,
- paged block size vs fragmentation/copies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.compression.quant.gear import GEARCompressor
from repro.compression.quant.kivi import KIVICompressor
from repro.compression.sparse.streaming import StreamingLLMCompressor
from repro.experiments.common import (
    ExperimentResult,
    comp_spec,
    cost_model,
    functional_model,
)
from repro.kvcache.paged import PagedStore


def flash_vs_naive() -> ExperimentResult:
    """Prefill time ratio of eager (multi-pass) vs flash attention."""
    res = ExperimentResult(
        name="Ablation — flash vs naive attention traffic",
        description="FP16 prefill seconds under TRL (eager) vs TRL+FA.",
    )
    spec = comp_spec("fp16")
    rows = []
    for L in (512, 1024, 2048, 4096):
        eager = cost_model(engine="trl").prefill(4, L, spec).seconds
        flash = cost_model(engine="trl+fa").prefill(4, L, spec).seconds
        rows.append([L, f"{eager * 1e3:.1f}", f"{flash * 1e3:.1f}",
                     f"{eager / flash:.2f}x"])
    res.tables.append(
        format_table(["len", "eager (ms)", "flash (ms)", "ratio"], rows)
    )
    res.data["rows"] = rows
    return res


def residual_window(
    prompts: Sequence[Sequence[int]], answers: Sequence[Sequence[int]]
) -> ExperimentResult:
    """KIVI accuracy with and without the FP16 residual window."""
    from repro.datasets.metrics import token_f1
    from repro.model.generate import generate
    from repro.model.sampling import Sampler

    model = functional_model("llama")
    res = ExperimentResult(
        name="Ablation — KIVI residual window",
        description="2-bit KIVI accuracy with residual R in {0, 32, 128}.",
    )
    rows = []
    for r in (0, 32, 128):
        comp = KIVICompressor(bits=2, residual=r)
        out = generate(model, prompts, compressor=comp,
                       sampler=Sampler(greedy=True), max_new_tokens=24)
        f1 = float(np.mean([
            token_f1(s, a) for s, a in zip(out.sequences, answers)
        ]))
        rows.append([r, f"{f1:.3f}"])
    res.tables.append(format_table(["residual R", "token F1"], rows))
    res.data["rows"] = rows
    return res


def gear_rank_sweep(
    prompts: Sequence[Sequence[int]], answers: Sequence[Sequence[int]]
) -> ExperimentResult:
    """GEAR fidelity as rank/outlier ratios grow (2-bit base codec)."""
    from repro.datasets.metrics import token_f1
    from repro.model.generate import generate
    from repro.model.sampling import Sampler

    model = functional_model("llama")
    res = ExperimentResult(
        name="Ablation — GEAR error-correction sweep",
        description="2-bit GEAR accuracy vs rank/outlier ratios.",
    )
    rows = []
    for rr, orat in ((0.0, 0.0), (0.02, 0.0), (0.0, 0.02), (0.02, 0.02), (0.08, 0.08)):
        comp = GEARCompressor(bits=2, rank_ratio=rr, outlier_ratio=orat)
        out = generate(model, prompts, compressor=comp,
                       sampler=Sampler(greedy=True), max_new_tokens=24)
        f1 = float(np.mean([
            token_f1(s, a) for s, a in zip(out.sequences, answers)
        ]))
        rows.append([rr, orat, f"{f1:.3f}"])
    res.tables.append(format_table(["rank ratio", "outlier ratio", "token F1"], rows))
    res.data["rows"] = rows
    return res


def budget_split(
    prompts: Sequence[Sequence[int]], answers: Sequence[Sequence[int]]
) -> ExperimentResult:
    """StreamingLLM sink/recent split at a fixed total budget of 512."""
    from repro.datasets.metrics import token_f1
    from repro.model.generate import generate
    from repro.model.sampling import Sampler

    model = functional_model("llama")
    res = ExperimentResult(
        name="Ablation — sparse budget split (sink vs recent)",
        description="StreamingLLM accuracy across sink sizes, budget 512.",
    )
    rows = []
    for sink in (0, 16, 64, 256):
        comp = StreamingLLMCompressor(sink_size=sink, recent_size=512 - sink)
        out = generate(model, prompts, compressor=comp,
                       sampler=Sampler(greedy=True), max_new_tokens=24)
        f1 = float(np.mean([
            token_f1(s, a) for s, a in zip(out.sequences, answers)
        ]))
        rows.append([sink, 512 - sink, f"{f1:.3f}"])
    res.tables.append(format_table(["sink", "recent", "token F1"], rows))
    res.data["rows"] = rows
    return res


def paged_block_size() -> ExperimentResult:
    """Fragmentation vs block size under an evicting workload."""
    res = ExperimentResult(
        name="Ablation — paged block size",
        description=(
            "Internal fragmentation after sparse eviction punches holes "
            "into blocks, across block sizes (capacity 64k tokens)."
        ),
    )
    rng = np.random.default_rng(0)
    rows = []
    for bs in (8, 16, 32, 64, 128):
        store = PagedStore(capacity_tokens=65536, block_size=bs)
        for i in range(24):
            store.add_sequence(f"s{i}", int(rng.integers(256, 1024)))
        # evict a random two-thirds of each sequence (H2O-style holes)
        for i in range(24):
            n = store.sequence_tokens(f"s{i}")
            drop = rng.choice(n, size=2 * n // 3, replace=False)
            store.evict(f"s{i}", [int(x) for x in drop])
        st = store.stats()
        rows.append(
            [bs, st.allocated_tokens, st.live_tokens,
             f"{100 * st.internal_fragmentation:.1f}%"]
        )
    res.tables.append(
        format_table(["block", "allocated", "live", "fragmentation"], rows)
    )
    res.data["rows"] = rows
    return res
