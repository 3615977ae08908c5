"""Uniform affine group quantization (Eqn. 3 of the paper).

``quantize``/``dequantize`` implement the round-to-nearest affine codec;
the ``*_per_channel`` / ``*_per_token`` helpers realize the two
granularities mainstream KV quantizers use: keys are quantized
per-channel with scales shared across a group of tokens (KIVI/KVQuant
observed channel-wise key outliers) while values are quantized per-token
with scales shared across a group of channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantStats:
    """Round-trip error statistics of one codec application."""

    mean_abs_error: float
    max_abs_error: float
    bits: int
    n_elements: int


def _affine_roundtrip(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int
) -> np.ndarray:
    """Quantize-dequantize ``x`` given per-group [lo, hi] ranges.

    Degenerate groups — zero span, or a span so small that the step
    underflows to zero (denormals) — round-trip to ``lo`` exactly.
    """
    levels = (1 << bits) - 1
    span = hi - lo
    step = span / levels
    valid = step > 0  # guards both span == 0 and denormal underflow
    delta = np.where(valid, step, 1.0)
    # clip(rint((x - lo) / delta), 0, levels) * delta + lo, in one buffer
    out = np.subtract(x, lo)
    out /= delta
    np.rint(out, out=out)
    np.clip(out, 0, levels, out=out)
    out *= delta
    out += lo
    np.copyto(out, lo, where=~valid)
    return out


def quant_dequant_per_channel(x: np.ndarray, bits: int) -> np.ndarray:
    """Key-style codec: per-channel ranges over the token axis.

    ``x`` is (..., tokens, channels); the caller passes one token group
    (KIVI group size G) at a time, so the range reduction spans the
    whole token axis.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    lo = x.min(axis=-2, keepdims=True)
    hi = x.max(axis=-2, keepdims=True)
    return _affine_roundtrip(x, lo, hi, bits)


def quant_dequant_per_token(
    x: np.ndarray, bits: int, group_channels: int
) -> np.ndarray:
    """Value-style codec: per-token ranges over channel groups.

    ``x`` is (..., tokens, channels) with ``channels`` divisible by
    ``group_channels``.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    *lead, t, c = x.shape
    if c % group_channels:
        raise ValueError(
            f"channels ({c}) not divisible by group ({group_channels})"
        )
    g = c // group_channels
    xg = x.reshape(*lead, t, g, group_channels)
    lo = xg.min(axis=-1, keepdims=True)
    hi = xg.max(axis=-1, keepdims=True)
    out = _affine_roundtrip(xg, lo, hi, bits)
    return out.reshape(*lead, t, c)


def roundtrip_stats(x: np.ndarray, x_hat: np.ndarray, bits: int) -> QuantStats:
    """Error statistics between original and round-tripped tensors."""
    err = np.abs(x - x_hat)
    return QuantStats(
        mean_abs_error=float(err.mean()),
        max_abs_error=float(err.max()),
        bits=bits,
        n_elements=int(x.size),
    )


def payload_bytes_ratio(
    bits: int, head_dim: int, group: int, dtype_bytes: int = 2
) -> float:
    """Bytes per element (payload + scale/zero metadata) vs FP16.

    Keys store two FP16 constants per (channel, token-group); values two
    per (token, channel-group).  Both work out to ``2*dtype_bytes/group``
    extra bytes per element.
    """
    payload = bits / 8.0
    metadata = 2.0 * dtype_bytes / group
    return (payload + metadata) / dtype_bytes
