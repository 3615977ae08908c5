"""Response-length predictor (the paper's Section 5.2 tool).

One multinomial-logistic classifier per compression algorithm maps
prompt features to a log-spaced response-length bucket; the predicted
length is the bucket's geometric midpoint.  Matches the structure of the
paper's BERT-based classifier (predict a length bucket, then inform the
router), with accuracy defined exactly as in Appendix F:
``(1 - |L_pred - L_gt| / L_gt)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.model.layers import softmax
from repro.model.tokenizer import SyntheticTokenizer
from repro.tools.features import N_FEATURES, batch_features


def make_buckets(max_len: int = 512, n_buckets: int = 12) -> np.ndarray:
    """Log-spaced bucket edges over [1, max_len]."""
    return np.unique(
        np.round(np.geomspace(1, max_len, n_buckets + 1)).astype(int)
    )


def quantile_buckets(lengths: Sequence[int], n_buckets: int = 10) -> np.ndarray:
    """Bucket edges at the empirical quantiles of observed lengths.

    Quantile edges keep per-bucket relative error roughly uniform, which
    the paper's ``1 - |L_pred - L_gt| / L_gt`` accuracy rewards.
    """
    arr = np.asarray(lengths, dtype=float)
    qs = np.quantile(arr, np.linspace(0, 1, n_buckets + 1))
    edges = np.unique(np.round(qs).astype(int))
    edges[0] = min(edges[0], 1)
    edges[-1] = edges[-1] + 1
    return edges


@dataclass
class LengthPredictor:
    """Bucketed length classifier for one compression algorithm."""

    buckets: np.ndarray = field(default_factory=make_buckets)
    l2: float = 1e-4
    lr: float = 0.5
    epochs: int = 2000
    seed: int = 0
    _weights: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_classes(self) -> int:
        """Number of length buckets."""
        return len(self.buckets) - 1

    def _bucketize(self, lengths: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.buckets, lengths, side="right") - 1
        return np.clip(idx, 0, self.n_classes - 1)

    def _midpoints(self) -> np.ndarray:
        if getattr(self, "_representatives", None) is not None:
            return self._representatives
        lo = self.buckets[:-1].astype(float)
        hi = self.buckets[1:].astype(float)
        return np.sqrt(lo * np.maximum(hi, 1.0))

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, lengths: Sequence[int]) -> "LengthPredictor":
        """Train on (features, observed response lengths)."""
        x = np.asarray(features, dtype=float)
        arr = np.asarray(lengths)
        y = self._bucketize(arr)
        n, d = x.shape
        if d != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} features, got {d}")
        # bucket representative = geometric mean of its training lengths
        reps = self._midpoints().copy()
        for c in range(self.n_classes):
            members = arr[y == c]
            if members.size:
                reps[c] = float(np.exp(np.mean(np.log(np.maximum(members, 1)))))
        self._representatives = reps
        self._center = x.mean(axis=0)
        self._center[0] = 0.0  # keep the bias feature
        self._scale = np.maximum(x.std(axis=0), 1e-6)
        self._scale[0] = 1.0
        xs = (x - self._center) / self._scale
        rng = np.random.default_rng(self.seed)
        w = rng.normal(0, 0.01, size=(d, self.n_classes))
        onehot = np.eye(self.n_classes)[y]
        for _ in range(self.epochs):
            p = softmax(xs @ w, axis=-1)
            grad = xs.T @ (p - onehot) / n + self.l2 * w
            w -= self.lr * grad
        self._weights = w
        return self

    def predict_bucket(self, features: np.ndarray) -> np.ndarray:
        """Most likely bucket index per row."""
        if self._weights is None:
            raise RuntimeError("predictor not fitted")
        xs = (np.asarray(features, dtype=float) - self._center) / self._scale
        return np.argmax(xs @ self._weights, axis=-1)

    def predict_length(self, features: np.ndarray) -> np.ndarray:
        """Predicted response length per row (bucket midpoint)."""
        return self._midpoints()[self.predict_bucket(features)]

    def accuracy(self, features: np.ndarray, lengths: Sequence[int]) -> float:
        """Paper's accuracy: mean of ``1 - |pred - gt| / gt``, floored at 0."""
        pred = self.predict_length(features)
        gt = np.maximum(np.asarray(lengths, dtype=float), 1.0)
        return float(np.mean(np.maximum(0.0, 1.0 - np.abs(pred - gt) / gt)))


def train_per_algorithm(
    prompts: Sequence[Sequence[int]],
    lengths_by_algo: Dict[str, Sequence[int]],
    tokenizer: Optional[SyntheticTokenizer] = None,
    holdout: float = 0.25,
    seed: int = 0,
    token_stats=None,
    **predictor_kwargs,
) -> Dict[str, Dict[str, object]]:
    """Train one predictor per algorithm; returns predictors + accuracies.

    Returns ``{algo: {"predictor": LengthPredictor, "accuracy": float}}``
    where accuracy is measured on a held-out split.
    """
    tok = tokenizer or SyntheticTokenizer()
    feats = batch_features(prompts, tok, token_stats)
    n = feats.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(holdout * n))
    test_idx, train_idx = order[:n_test], order[n_test:]
    out: Dict[str, Dict[str, object]] = {}
    for algo, lengths in lengths_by_algo.items():
        arr = np.asarray(lengths)
        if "buckets" not in predictor_kwargs:
            kwargs = dict(
                predictor_kwargs,
                buckets=quantile_buckets(arr[train_idx]),
            )
        else:
            kwargs = predictor_kwargs
        pred = LengthPredictor(seed=seed, **kwargs)
        pred.fit(feats[train_idx], arr[train_idx])
        out[algo] = {
            "predictor": pred,
            "accuracy": pred.accuracy(feats[test_idx], arr[test_idx]),
        }
    return out
