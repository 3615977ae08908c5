"""Negative-sample collection (Algorithm 1) and benchmark construction.

A *negative sample* is a benign sample — one the uncompressed model
handles at least averagely well — on which **every** algorithm in the
evaluated set suffers a relative accuracy loss exceeding a threshold
``theta``.  Evaluating a set of one algorithm gives that algorithm's own
negatives; evaluating {KIVI, GEAR} gives the paper's "Quant (C)" curve,
{H2O, StreamingLLM} gives "Sparse (C)" (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Set

import numpy as np


@dataclass(frozen=True)
class ScoredSample:
    """Per-sample accuracy under one algorithm."""

    sample_id: str
    task: str
    score: float


class NegativeSampleAnalysis:
    """Implements Algorithm 1 over per-sample scores.

    Parameters
    ----------
    baseline:
        ``sample_id -> ScoredSample`` for the uncompressed model.
    by_algo:
        ``algo -> {sample_id -> ScoredSample}`` for each compression
        algorithm, over the same sample ids.
    """

    def __init__(
        self,
        baseline: Mapping[str, ScoredSample],
        by_algo: Mapping[str, Mapping[str, ScoredSample]],
    ) -> None:
        if not baseline:
            raise ValueError("baseline scores must be non-empty")
        for algo, scores in by_algo.items():
            missing = set(baseline) - set(scores)
            if missing:
                raise ValueError(
                    f"algorithm {algo!r} missing {len(missing)} sample scores"
                )
        self.baseline = dict(baseline)
        self.by_algo = {a: dict(s) for a, s in by_algo.items()}
        self._benign = self._benign_ids()

    def _benign_ids(self) -> Set[str]:
        """Benign = baseline score >= its task's mean baseline score."""
        by_task: Dict[str, List[float]] = {}
        for s in self.baseline.values():
            by_task.setdefault(s.task, []).append(s.score)
        means = {t: float(np.mean(v)) for t, v in by_task.items()}
        return {
            sid
            for sid, s in self.baseline.items()
            if s.score >= means[s.task]
        }

    @property
    def benign_ids(self) -> Set[str]:
        """Sample ids considered benign under the baseline."""
        return set(self._benign)

    # ------------------------------------------------------------------
    def negatives(self, algos: Sequence[str], theta: float) -> Set[str]:
        """Algorithm 1: benign samples failing under *all* of ``algos``."""
        if not 0 <= theta <= 1:
            raise ValueError("theta must be in [0, 1]")
        for a in algos:
            if a not in self.by_algo:
                raise KeyError(f"unknown algorithm {a!r}")
        out: Set[str] = set()
        for sid in self._benign:
            p_base = self.baseline[sid].score
            negative = True
            for a in algos:
                if self.by_algo[a][sid].score >= (1.0 - theta) * p_base:
                    negative = False
                    break
            if negative:
                out.add(sid)
        return out

    def risk_scores(
        self, algos: Sequence[str], theta: float
    ) -> Dict[str, float]:
        """Graded per-sample compression risk for online routing.

        For each benign sample, the fraction of ``algos`` under which
        its score drops below ``(1 - theta) x baseline`` — 1.0 means the
        sample fails under every evaluated algorithm (an Algorithm 1
        negative), 0.0 that it is safe everywhere.  Non-benign samples
        score 0.0: the baseline already handles them poorly, so
        compression has nothing left to lose.  The ``compression``
        routing policy consumes these as per-request risk scores.
        """
        if not 0 <= theta <= 1:
            raise ValueError("theta must be in [0, 1]")
        for a in algos:
            if a not in self.by_algo:
                raise KeyError(f"unknown algorithm {a!r}")
        out: Dict[str, float] = {}
        for sid in self.baseline:
            if sid not in self._benign or not algos:
                out[sid] = 0.0
                continue
            p_base = self.baseline[sid].score
            fails = sum(
                1
                for a in algos
                if self.by_algo[a][sid].score < (1.0 - theta) * p_base
            )
            out[sid] = fails / len(algos)
        return out

    def counts_by_threshold(
        self, algos_sets: Mapping[str, Sequence[str]], thetas: Sequence[float]
    ) -> Dict[str, List[int]]:
        """Fig. 6 data: negative counts per threshold per algorithm set."""
        return {
            label: [len(self.negatives(algos, t)) for t in thetas]
            for label, algos in algos_sets.items()
        }

    def counts_by_task(
        self, algos: Sequence[str], theta: float
    ) -> Dict[str, int]:
        """Fig. 7 data: negatives broken down by task type."""
        out: Dict[str, int] = {}
        for sid in self.negatives(algos, theta):
            task = self.baseline[sid].task
            out[task] = out.get(task, 0) + 1
        return out

    # ------------------------------------------------------------------
    def benchmark_ids(
        self, algos: Iterable[str], theta: float = 0.10
    ) -> List[str]:
        """Section 5.3: the union of per-algorithm negatives at ``theta``."""
        ids: Set[str] = set()
        for a in algos:
            ids |= self.negatives([a], theta)
        return sorted(ids)

    def scores_on(
        self, sample_ids: Sequence[str], group_of: Mapping[str, str]
    ) -> Dict[str, Dict[str, float]]:
        """Table 7 data: mean scores on a benchmark subset.

        ``group_of`` maps task -> report group (e.g. "Summarization").
        Returns ``{group: {"baseline": x, algo: y, ...}}`` with scores
        scaled to 0-100.
        """
        groups: Dict[str, List[str]] = {}
        for sid in sample_ids:
            task = self.baseline[sid].task
            g = group_of.get(task, task)
            groups.setdefault(g, []).append(sid)
        out: Dict[str, Dict[str, float]] = {}
        for g, sids in groups.items():
            row = {
                "baseline": 100 * float(
                    np.mean([self.baseline[s].score for s in sids])
                )
            }
            for a, scores in self.by_algo.items():
                row[a] = 100 * float(np.mean([scores[s].score for s in sids]))
            out[g] = row
        return out
