"""Task metrics for the LongBench-like evaluation suite.

These mirror LongBench's task-specific scoring: token-level F1 for QA,
an overlap score for summarization, exact match for few-shot/synthetic
retrieval, and edit similarity for code completion.  All scores are in
[0, 1] (reports scale by 100 where the paper does).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Sequence


def exact_match(pred: Sequence[int], ref: Sequence[int]) -> float:
    """1.0 iff the sequences are identical."""
    return 1.0 if list(pred) == list(ref) else 0.0


def token_f1(pred: Sequence[int], ref: Sequence[int]) -> float:
    """Bag-of-tokens F1 (QA scoring)."""
    if not pred or not ref:
        return 1.0 if not pred and not ref else 0.0
    cp, cr = Counter(pred), Counter(ref)
    overlap = sum((cp & cr).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def rouge_like(pred: Sequence[int], ref: Sequence[int]) -> float:
    """Unigram+bigram overlap F1 (summarization scoring)."""
    uni = token_f1(pred, ref)
    bi_p = list(zip(pred, pred[1:]))
    bi_r = list(zip(ref, ref[1:]))
    bi = token_f1(bi_p, bi_r) if bi_r else uni
    return 0.5 * (uni + bi)


def sequence_accuracy(pred: Sequence[int], ref: Sequence[int]) -> float:
    """Fraction of reference positions predicted correctly in order."""
    if not ref:
        return 1.0 if not pred else 0.0
    hits = sum(1 for p, r in zip(pred, ref) if p == r)
    return hits / len(ref)


def edit_similarity(pred: Sequence[int], ref: Sequence[int]) -> float:
    """1 - normalized Levenshtein distance (code scoring)."""
    a, b = list(pred), list(ref)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (x != y),
            )
        prev = cur
    return 1.0 - prev[-1] / max(len(a), len(b))


METRICS: Dict[str, Callable[[Sequence[int], Sequence[int]], float]] = {
    "exact_match": exact_match,
    "token_f1": token_f1,
    "rouge_like": rouge_like,
    "sequence_accuracy": sequence_accuracy,
    "edit_similarity": edit_similarity,
}


def score(metric: str, pred: Sequence[int], ref: Sequence[int]) -> float:
    """Apply a named metric."""
    if metric not in METRICS:
        raise KeyError(f"unknown metric {metric!r}; known: {sorted(METRICS)}")
    return METRICS[metric](pred, ref)
