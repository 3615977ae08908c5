"""Batched evaluation of compression algorithms on the functional model.

Groups samples by prompt length (left-padding waste control), runs
batched generation under each algorithm, and scores outputs with the
task metrics.  This is the workhorse behind the accuracy, negative-
sample and length-distribution experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.compression.base import Compressor
from repro.compression.registry import create
from repro.datasets.longbench import Sample
from repro.datasets.metrics import score
from repro.model.generate import generate
from repro.model.sampling import Sampler
from repro.model.transformer import FunctionalTransformer


@dataclass
class EvalRecord:
    """Scored output of one sample under one algorithm."""

    sample_id: str
    task: str
    algo: str
    score: float
    response: List[int]
    response_len: int
    prompt_len: int
    hit_max: bool


def _batches(
    samples: Sequence[Sample], batch_size: int
) -> List[List[int]]:
    """Index batches grouped by similar prompt length."""
    order = sorted(range(len(samples)), key=lambda i: samples[i].prompt_len)
    return [
        order[i : i + batch_size] for i in range(0, len(order), batch_size)
    ]


def evaluate_algorithm(
    model: FunctionalTransformer,
    samples: Sequence[Sample],
    algo: str,
    sampler: Optional[Sampler] = None,
    batch_size: int = 16,
    max_new_tokens: int = 48,
) -> List[EvalRecord]:
    """Run and score all ``samples`` under algorithm ``algo``.

    ``algo`` is a registry name ("fp16", "kivi-4", ...).  Greedy decoding
    by default (accuracy studies); pass a stochastic sampler for length
    studies.
    """
    compressor: Optional[Compressor] = None
    if algo != "fp16":
        compressor = create(algo)
    records: List[EvalRecord] = [None] * len(samples)  # type: ignore
    for batch_idx in _batches(samples, batch_size):
        batch = [samples[i] for i in batch_idx]
        out = generate(
            model,
            [s.prompt for s in batch],
            compressor=compressor,
            sampler=sampler or Sampler(greedy=True),
            max_new_tokens=max_new_tokens,
        )
        for k, i in enumerate(batch_idx):
            s = batch[k]
            resp = out.sequences[k]
            records[i] = EvalRecord(
                sample_id=s.sample_id,
                task=s.task,
                algo=algo,
                score=score(s.metric, resp, s.answer),
                response=resp,
                response_len=len(resp),
                prompt_len=s.prompt_len,
                hit_max=bool(out.hit_max[k]),
            )
    return records


def evaluate_suite(
    model: FunctionalTransformer,
    samples: Sequence[Sample],
    algos: Sequence[str],
    sampler: Optional[Sampler] = None,
    batch_size: int = 16,
    max_new_tokens: int = 48,
) -> Dict[str, List[EvalRecord]]:
    """Evaluate several algorithms on the same samples."""
    return {
        algo: evaluate_algorithm(
            model, samples, algo, sampler, batch_size, max_new_tokens
        )
        for algo in algos
    }


def mean_score(records: Sequence[EvalRecord]) -> float:
    """Mean score over records (0-1)."""
    return float(np.mean([r.score for r in records]))


def mean_score_by_task(
    records: Sequence[EvalRecord],
) -> Dict[str, float]:
    """Mean score per task type."""
    by_task: Dict[str, List[float]] = {}
    for r in records:
        by_task.setdefault(r.task, []).append(r.score)
    return {t: float(np.mean(v)) for t, v in by_task.items()}
