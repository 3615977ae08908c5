"""LongBench-like synthetic long-context task suite.

Six task families mirror LongBench's categories, each mapping to a
distinct *retrieval structure* so the paper's task-type fragility
(Observation 6) emerges mechanistically:

- ``qa_single``   — answer record at a random depth of one document,
  with a same-key distractor record earlier (conflicting information);
  eviction of the true record or quantization noise on the small
  recency margin produces wrong answers.
- ``qa_multi``    — several documents, each with its own record; the
  queried record sits in a random document, the distractor in another.
- ``summarization`` — "title" record near the document head (past the
  attention-sink region but far from the recent window): the position
  sparse methods are most likely to evict.
- ``fewshot``     — demonstration pairs followed by a query over one of
  the demonstrated keys; short answers, shallow context.
- ``code``        — repetitive function definitions; the completion
  pattern is mostly local (recent-window friendly) but argument values
  are bound to names defined earlier in the file.
- ``synthetic``   — passkey retrieval: one record, no distractor, at a
  controlled depth of pure filler.

All prompts are built from the functional model's closed vocabulary and
end with a query ``[Q, key]``; answers are the value spans the circuit
can genuinely retrieve.  Filler and record tokens come from disjoint
alphabets so difficulty is controlled by construction (depth, distractor
gap, answer length), not token collisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.model.tokenizer import SyntheticTokenizer

TASK_TYPES = (
    "qa_single",
    "qa_multi",
    "summarization",
    "fewshot",
    "code",
    "synthetic",
)

#: LongBench-style task -> metric mapping
TASK_METRICS: Dict[str, str] = {
    "qa_single": "token_f1",
    "qa_multi": "token_f1",
    "summarization": "rouge_like",
    "fewshot": "exact_match",
    "code": "edit_similarity",
    "synthetic": "exact_match",
}

#: coarse grouping used by the paper's Table 7
TASK_GROUPS: Dict[str, str] = {
    "qa_single": "Question Answering",
    "qa_multi": "Question Answering",
    "summarization": "Summarization",
    "fewshot": "Few-shot",
    "code": "Code",
    "synthetic": "Synthetic",
}


@dataclass
class Sample:
    """One evaluation sample."""

    sample_id: str
    task: str
    prompt: List[int]
    answer: List[int]
    metric: str
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def prompt_len(self) -> int:
        """Prompt length in tokens."""
        return len(self.prompt)


class LongBenchSim:
    """Seeded generator of the synthetic long-context suite."""

    def __init__(
        self,
        tokenizer: Optional[SyntheticTokenizer] = None,
        seed: int = 0,
        min_context: int = 600,
        max_context: int = 2200,
    ) -> None:
        self.tok = tokenizer or SyntheticTokenizer()
        self.rng = np.random.default_rng(seed)
        self.min_context = min_context
        self.max_context = max_context
        content = self.tok.content_ids
        half = len(content) // 2
        self.filler_alpha = content[:half]
        self.record_alpha = content[half:]

    # ------------------------------------------------------------------
    def _filler(self, n: int) -> List[int]:
        if n <= 0:
            return []
        return [int(x) for x in self.rng.choice(self.filler_alpha, size=n)]

    def _key(self) -> int:
        return int(self.rng.choice(self.record_alpha))

    def _pool(self, exclude: Sequence[int], size: int) -> List[int]:
        avail = [c for c in self.record_alpha if c not in exclude]
        return [int(x) for x in self.rng.choice(avail, size=size, replace=False)]

    def _record(self, key: int, values: Sequence[int]) -> List[int]:
        sp = self.tok.special
        return [sp.q, key] + list(values) + [sp.sep]

    def _question(self, key: int) -> List[int]:
        sp = self.tok.special
        return [sp.q, key]

    def _context_len(self) -> int:
        return int(self.rng.integers(self.min_context, self.max_context))

    # ------------------------------------------------------------------
    def qa_single(self, idx: int) -> Sample:
        sp = self.tok.special
        total = self._context_len()
        ans_len = int(self.rng.integers(6, 12))
        key = self._key()
        pool = self._pool([key], ans_len + 2)
        vals = [int(x) for x in self.rng.permutation(pool)[:ans_len]]
        decoys = [int(x) for x in self.rng.permutation(pool)[:ans_len]]
        gap = int(self.rng.integers(192, max(256, total // 2)))
        # tails straddle the sparse recent-window boundary (512) so a
        # fraction of answer records are *partially* evicted, yielding
        # graded (not binary) degradation for the threshold sweeps
        tail = int(self.rng.integers(160, 900))
        head = max(16, total - gap - tail - 2 * (ans_len + 3) - 3)
        prompt = (
            [sp.bos]
            + self._filler(head)
            + self._record(key, decoys)
            + self._filler(gap)
            + self._record(key, vals)
            + self._filler(tail)
            + self._question(key)
        )
        return Sample(
            sample_id=f"qa_single-{idx}",
            task="qa_single",
            prompt=prompt,
            answer=vals,
            metric=TASK_METRICS["qa_single"],
            meta={"gap": gap, "tail": tail, "answer_depth": tail + ans_len + 3},
        )

    def qa_multi(self, idx: int) -> Sample:
        sp = self.tok.special
        total = self._context_len()
        n_docs = int(self.rng.integers(3, 6))
        ans_len = int(self.rng.integers(5, 10))
        keys = self._pool([], n_docs)
        pool = self._pool(keys, ans_len + 2)
        per_doc = max(40, total // n_docs - ans_len - 4)
        target = int(self.rng.integers(0, n_docs))
        decoy_doc = int(self.rng.integers(0, n_docs))
        vals = [int(x) for x in self.rng.permutation(pool)[:ans_len]]
        prompt = [sp.bos]
        answer_depth = 0
        for d in range(n_docs):
            body = self._filler(per_doc)
            insert = int(self.rng.integers(0, max(1, len(body) - 1)))
            if d == target:
                rec = self._record(keys[d], vals)
            elif d == decoy_doc:
                decoys = [int(x) for x in self.rng.permutation(pool)[:ans_len]]
                rec = self._record(keys[target], decoys)
            else:
                other_vals = self._pool(keys + pool, ans_len)
                rec = self._record(keys[d], other_vals)
            prompt += body[:insert] + rec + body[insert:] + [sp.nl]
        prompt += self._question(keys[target])
        return Sample(
            sample_id=f"qa_multi-{idx}",
            task="qa_multi",
            prompt=prompt,
            answer=vals,
            metric=TASK_METRICS["qa_multi"],
            meta={"n_docs": n_docs, "target_doc": target},
        )

    def summarization(self, idx: int) -> Sample:
        sp = self.tok.special
        total = self._context_len()
        title_len = int(self.rng.integers(8, 14))
        key = self._key()
        title = self._pool([key], title_len)
        depth = int(self.rng.integers(80, 260))  # past the sink region
        body_len = max(64, total - depth - title_len - 6)
        intro = self._filler(depth)
        # the intro references title tokens sporadically (raising their
        # accumulated-attention scores a little, as real salience would);
        # references precede the record so the recency-biased chain still
        # resolves to the record itself
        for _ in range(max(2, depth // 120)):
            j = int(self.rng.integers(0, len(intro)))
            intro[j] = int(self.rng.choice(title))
        prompt = (
            [sp.bos]
            + intro
            + self._record(key, title)
            + self._filler(body_len)
            + self._question(key)
        )
        return Sample(
            sample_id=f"summarization-{idx}",
            task="summarization",
            prompt=prompt,
            answer=title,
            metric=TASK_METRICS["summarization"],
            meta={"depth": depth, "body_len": body_len},
        )

    def fewshot(self, idx: int) -> Sample:
        sp = self.tok.special
        n_demos = int(self.rng.integers(3, 6))
        ans_len = int(self.rng.integers(2, 5))
        keys = self._pool([], n_demos)
        # demo answers are disjoint token sets: retrieval chains never
        # cross demonstrations for the uncompressed model
        avail = [c for c in self.record_alpha if c not in keys]
        avail = [int(x) for x in self.rng.permutation(avail)]
        demos = []
        answers = {}
        for i, k in enumerate(keys):
            vals = avail[i * ans_len : (i + 1) * ans_len]
            answers[k] = vals
            demos += self._record(k, vals) + [sp.nl]
        target = int(self.rng.choice(keys))
        pad = self._filler(int(self.rng.integers(32, 160)))
        prompt = [sp.bos] + demos + pad + self._question(target)
        return Sample(
            sample_id=f"fewshot-{idx}",
            task="fewshot",
            prompt=prompt,
            answer=answers[target],
            metric=TASK_METRICS["fewshot"],
            meta={"n_demos": n_demos},
        )

    def code(self, idx: int) -> Sample:
        sp = self.tok.special
        total = self._context_len()
        n_defs = int(self.rng.integers(3, 5))
        names = self._pool([], n_defs)
        # bodies draw disjoint token sets so call-site completion is
        # unambiguous for the uncompressed model
        avail = [c for c in self.record_alpha if c not in names]
        avail = [int(x) for x in self.rng.permutation(avail)]
        bodies = {}
        cursor = 0
        for n in names:
            size = int(self.rng.integers(4, 6))
            bodies[n] = avail[cursor : cursor + size]
            cursor += size
        lines: List[int] = []
        # definitions near the top of the "file"
        for n in names:
            lines += [sp.fn] + self._record(n, bodies[n]) + [sp.nl]
        # call sites interleaved with filler, repeating the pattern
        body_budget = max(64, total - len(lines) - 8)
        while body_budget > 0:
            chunk = self._filler(int(self.rng.integers(12, 48)))
            n = int(self.rng.choice(names))
            call = [sp.fn] + self._record(n, bodies[n]) + [sp.nl]
            lines += chunk + call
            body_budget -= len(chunk) + len(call)
        target = int(self.rng.choice(names))
        prompt = [sp.bos] + lines + [sp.fn] + self._question(target)
        return Sample(
            sample_id=f"code-{idx}",
            task="code",
            prompt=prompt,
            answer=bodies[target],
            metric=TASK_METRICS["code"],
            meta={"n_defs": n_defs},
        )

    def synthetic(self, idx: int) -> Sample:
        sp = self.tok.special
        total = self._context_len()
        ans_len = 5
        key = self._key()
        vals = self._pool([key], ans_len)
        depth_frac = float(self.rng.uniform(0.1, 0.9))
        depth = int(depth_frac * (total - ans_len - 8))
        tail = max(16, total - depth - ans_len - 5)
        prompt = (
            [sp.bos]
            + self._filler(depth)
            + self._record(key, vals)
            + self._filler(tail)
            + self._question(key)
        )
        return Sample(
            sample_id=f"synthetic-{idx}",
            task="synthetic",
            prompt=prompt,
            answer=vals,
            metric=TASK_METRICS["synthetic"],
            meta={"depth_frac": depth_frac},
        )

    # ------------------------------------------------------------------
    def build(self, n_per_task: int, tasks: Sequence[str] = TASK_TYPES) -> List[Sample]:
        """Generate ``n_per_task`` samples for each requested task."""
        for t in tasks:
            if t not in TASK_TYPES:
                raise KeyError(f"unknown task {t!r}; known: {TASK_TYPES}")
        out: List[Sample] = []
        for t in tasks:
            maker = getattr(self, t)
            out.extend(maker(i) for i in range(n_per_task))
        return out
