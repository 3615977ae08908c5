"""GEAR: quantization with low-rank + sparse-outlier error correction.

Reimplementation of Kang et al., 2024 with the paper's configuration
(outlier ratio ``s=2%``, low-rank ratio ``r=2%``).  On top of the KIVI
codec schedule, each aged token group's quantization error ``E = X - X̂``
is approximated by a rank-``r`` SVD plus exact storage of the largest-
magnitude ``s`` fraction of entries; the stored cache entry becomes
``X̂ + lowrank(E) + outliers(E)``.  Fidelity is therefore strictly better
than plain quantization — at the cost of the extra prefill/decode work
the paper's throughput analysis charges it for (Fig. 1 e-h, Fig. 3).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionCostSpec, Compressor
from repro.compression.quant.codec import (
    payload_bytes_ratio,
    quant_dequant_per_channel,
    quant_dequant_per_token,
)
from repro.hardware.roofline import AccessPattern
from repro.model.cache import LayerCache


def lowrank_approx(err: np.ndarray, rank: int) -> np.ndarray:
    """Batched rank-``rank`` SVD approximation of (..., t, dh) errors."""
    if rank <= 0:
        return np.zeros_like(err)
    u, s, vt = np.linalg.svd(err, full_matrices=False)
    r = min(rank, s.shape[-1])
    return (u[..., :r] * s[..., None, :r]) @ vt[..., :r, :]


def outlier_correction(err: np.ndarray, ratio: float) -> np.ndarray:
    """Exact correction for the largest-magnitude ``ratio`` of entries of
    each (sequence, head): zeroes every other entry of ``err`` in place
    and returns it."""
    if ratio <= 0:
        err[...] = 0
        return err
    mag = np.abs(err)
    flat = mag.reshape(err.shape[0], err.shape[1], -1)
    k = max(1, int(round(ratio * flat.shape[-1])))
    flat.partition(-k, axis=-1)
    threshold = flat[..., -k].copy()[..., None, None]
    below = np.greater_equal(np.abs(err, out=mag), threshold)
    np.logical_not(below, out=below)  # NaN magnitudes count as below
    np.copyto(err, 0, where=below)
    return err


class GEARCompressor(Compressor):
    """GEAR quantizer with error correction."""

    needs_probs = False

    def __init__(
        self,
        bits: int = 4,
        group_size: int = 32,
        residual: int = 128,
        rank_ratio: float = 0.02,
        outlier_ratio: float = 0.02,
    ) -> None:
        if not 0 <= rank_ratio <= 1 or not 0 <= outlier_ratio <= 1:
            raise ValueError("rank_ratio and outlier_ratio must be in [0, 1]")
        self.bits = bits
        self.group_size = group_size
        self.residual = residual
        self.rank_ratio = rank_ratio
        self.outlier_ratio = outlier_ratio

    @property
    def name(self) -> str:
        return f"gear-{self.bits}"

    def _rank(self, t: int, dh: int) -> int:
        return max(1, int(round(self.rank_ratio * min(t, dh))))

    def _roundtrip(self, x: np.ndarray, per_channel: bool, g: int) -> np.ndarray:
        b, kvh, t, dh = x.shape
        if per_channel:
            xg = x.reshape(b, kvh, t // g, g, dh)
            x_hat = quant_dequant_per_channel(xg, self.bits).reshape(x.shape)
        else:
            x_hat = quant_dequant_per_token(x, self.bits, min(g, dh))
        err = x - x_hat
        corrected = lowrank_approx(err, self._rank(t, dh))
        residual = np.subtract(err, corrected, out=err)
        corrected += outlier_correction(residual, self.outlier_ratio)
        x_hat += corrected
        return x_hat

    def compress(self, layer: int, cache: LayerCache, phase: str) -> None:
        g = self.group_size
        boundary = cache.length - self.residual
        target = (boundary // g) * g if boundary > 0 else 0
        start = cache.quantized_until
        if target <= start:
            return
        sl = slice(start, target)
        k_hat = self._roundtrip(cache.k[:, :, sl], per_channel=True, g=g)
        v_hat = self._roundtrip(cache.v[:, :, sl], per_channel=False, g=g)
        cache.overwrite(sl, k_hat, v_hat)
        cache.quantized_until = target

    def cost_spec(self) -> CompressionCostSpec:
        base_ratio = payload_bytes_ratio(self.bits, 128, self.group_size)
        # low-rank factors + outlier (value, index) pairs add storage
        extra = self.rank_ratio + self.outlier_ratio * 2.0
        return CompressionCostSpec(
            name=self.name,
            kv_bytes_ratio=base_ratio + extra,
            residual_fp16_tokens=self.residual,
            kv_access=AccessPattern.GROUP_QUANT,
            extra_kv_segments=2,  # quantized body + residual + corrections
            dequant_flops_per_element=2.0 + 4.0 * self.rank_ratio * 128,
            prefill_quant_flops_per_element=8.0,
            prefill_kv_passes_fp32=6.0,  # error, sort, outlier materialization
            lowrank_ratio=self.rank_ratio,
            outlier_ratio=self.outlier_ratio,
        )
