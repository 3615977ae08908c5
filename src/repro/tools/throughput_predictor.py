"""Throughput predictor (the paper's Section 5.1 tool, Vidur-style).

Following Vidur's decomposition, only the attention operator depends on
the compression algorithm; all other operators (projections, MLP,
dispatch) are profiled once and shared.  Profiles are taken on a grid of
(batch, length) points per stage — with multiplicative measurement
noise, as real profiling has — and queried by bilinear interpolation in
(log batch, log length, log time) space.  Accuracy is the paper's
``(1 - |T_pred - T_gt| / T_gt)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from repro.compression.base import CompressionCostSpec
from repro.engines.base import ServingCostModel

STAGES = ("prefill", "decode")


def _stage_seconds(
    model: ServingCostModel,
    comp: CompressionCostSpec,
    stage: str,
    batch: int,
    length: int,
) -> Tuple[float, float]:
    """(attention seconds, other seconds) for one stage point."""
    cost = (
        model.prefill(batch, length, comp)
        if stage == "prefill"
        else model.decode_step(batch, length, comp)
    )
    if cost.oom:
        return float("nan"), float("nan")
    attn = cost.attention_seconds
    return attn, cost.seconds - attn


@dataclass
class ThroughputPredictor:
    """Profile-and-interpolate runtime predictor."""

    model: ServingCostModel
    comp_specs: Dict[str, CompressionCostSpec]
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32)
    lengths: Sequence[int] = (128, 256, 512, 1024, 2048, 4096)
    profile_noise: float = 0.04
    seed: int = 0
    _attn: Dict[Tuple[str, str], RegularGridInterpolator] = field(
        default_factory=dict, repr=False
    )
    _other: Dict[str, RegularGridInterpolator] = field(
        default_factory=dict, repr=False
    )

    def profile(self) -> "ThroughputPredictor":
        """Measure the profile grids (call once before predicting)."""
        rng = np.random.default_rng(self.seed)
        b_ax = np.log2(np.asarray(self.batches, dtype=float))
        l_ax = np.log2(np.asarray(self.lengths, dtype=float))
        base = next(iter(self.comp_specs.values()))
        for stage in STAGES:
            other = np.zeros((len(self.batches), len(self.lengths)))
            for i, b in enumerate(self.batches):
                for j, L in enumerate(self.lengths):
                    _, o = _stage_seconds(self.model, base, stage, b, L)
                    noise = 1.0 + self.profile_noise * rng.standard_normal()
                    other[i, j] = o * max(noise, 0.5)
            self._other[stage] = RegularGridInterpolator(
                (b_ax, l_ax), np.log(np.maximum(other, 1e-9)),
                bounds_error=False, fill_value=None,
            )
            for name, comp in self.comp_specs.items():
                attn = np.zeros_like(other)
                for i, b in enumerate(self.batches):
                    for j, L in enumerate(self.lengths):
                        a, _ = _stage_seconds(self.model, comp, stage, b, L)
                        noise = 1.0 + self.profile_noise * rng.standard_normal()
                        attn[i, j] = a * max(noise, 0.5)
                self._attn[(name, stage)] = RegularGridInterpolator(
                    (b_ax, l_ax), np.log(np.maximum(attn, 1e-9)),
                    bounds_error=False, fill_value=None,
                )
        return self

    # ------------------------------------------------------------------
    def _query(self, interp, batch: int, length: int) -> float:
        pt = np.array([[np.log2(batch), np.log2(length)]])
        return float(np.exp(interp(pt)[0]))

    def predict_seconds(
        self, algo: str, stage: str, batch: int, length: int
    ) -> float:
        """Predicted stage seconds for one configuration."""
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}")
        if (algo, stage) not in self._attn:
            raise KeyError(f"algorithm {algo!r} was not profiled")
        attn = self._query(self._attn[(algo, stage)], batch, length)
        other = self._query(self._other[stage], batch, length)
        return attn + other

    def predict_decode_throughput(self, algo: str, batch: int, kv_len: int) -> float:
        """Predicted decode tokens/second."""
        return batch / self.predict_seconds(algo, "decode", batch, kv_len)

    def predict_prefill_throughput(self, algo: str, batch: int, length: int) -> float:
        """Predicted prefill tokens/second."""
        return batch * length / self.predict_seconds(algo, "prefill", batch, length)

    # ------------------------------------------------------------------
    def accuracy(
        self,
        eval_points: Sequence[Tuple[str, int, int]],
    ) -> Dict[str, float]:
        """Paper-style per-algorithm accuracy on off-grid points.

        ``eval_points`` is a list of (stage, batch, length) tuples.
        """
        out: Dict[str, float] = {}
        for algo, comp in self.comp_specs.items():
            accs: List[float] = []
            for stage, b, L in eval_points:
                attn_gt, other_gt = _stage_seconds(self.model, comp, stage, b, L)
                gt = attn_gt + other_gt
                if not np.isfinite(gt) or gt <= 0:
                    continue
                pred = self.predict_seconds(algo, stage, b, L)
                accs.append(max(0.0, 1.0 - abs(pred - gt) / gt))
            out[algo] = float(np.mean(accs)) if accs else float("nan")
        return out
