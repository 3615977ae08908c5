"""Primitive layers of the functional transformer (pure NumPy)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square LayerNorm (LLaMA-style, no mean subtraction)."""
    rms = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / rms * weight


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_inplace(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax that reuses ``x``'s buffer (hot path; destroys input)."""
    m = np.max(x, axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


@dataclass
class MLPWeights:
    """SwiGLU MLP weights: ``down(silu(gate(x)) * up(x))``."""

    w_gate: np.ndarray  # (d_model, d_ff)
    w_up: np.ndarray    # (d_model, d_ff)
    w_down: np.ndarray  # (d_ff, d_model)

    def forward(
        self, x: np.ndarray, workspace: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Apply the MLP to ``x`` of shape (..., d_model).

        The gate, up and SiLU intermediates occupy three disjoint slices
        of ``workspace``, a vector of at least ``3 * rows * d_ff``
        elements of the result dtype (allocated when None).  SiLU is
        ``g / (1 + exp(-g))``, evaluated with the same ufuncs in the same
        order as the expression ``silu(x @ w_gate) * (x @ w_up)``.
        """
        shape = x.shape[:-1] + self.w_gate.shape[1:]
        size = math.prod(shape)
        if workspace is None:
            workspace = np.empty(3 * size, np.result_type(x, self.w_gate))
        gate, up, act = (
            workspace[i * size:(i + 1) * size].reshape(shape) for i in range(3)
        )
        np.matmul(x, self.w_gate, out=gate)
        np.matmul(x, self.w_up, out=up)
        np.negative(gate, out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(gate, act, out=gate)
        gate *= up
        return gate @ self.w_down


@dataclass
class AttentionWeights:
    """Projection weights of one attention layer.

    Shapes follow the GQA convention: ``w_q`` produces ``n_heads``
    head-slices while ``w_k``/``w_v`` produce ``n_kv_heads`` slices.
    """

    w_q: np.ndarray  # (d_model, n_heads * head_dim)
    w_k: np.ndarray  # (d_model, n_kv_heads * head_dim)
    w_v: np.ndarray  # (d_model, n_kv_heads * head_dim)
    w_o: np.ndarray  # (n_heads * head_dim, d_model)

    def project_qkv(
        self, x: np.ndarray, n_heads: int, n_kv_heads: int, head_dim: int
    ):
        """Project hidden states to per-head Q, K, V.

        ``x`` is (batch, seq, d_model); returns Q (b, h, s, dh) and
        K, V (b, kvh, s, dh).
        """
        b, s, _ = x.shape
        q = (x @ self.w_q).reshape(b, s, n_heads, head_dim)
        k = (x @ self.w_k).reshape(b, s, n_kv_heads, head_dim)
        v = (x @ self.w_v).reshape(b, s, n_kv_heads, head_dim)
        return (
            np.transpose(q, (0, 2, 1, 3)),
            np.transpose(k, (0, 2, 1, 3)),
            np.transpose(v, (0, 2, 1, 3)),
        )

    def project_out(self, per_head: np.ndarray) -> np.ndarray:
        """Merge per-head outputs (b, h, s, dh) back to (b, s, d_model)."""
        b, h, s, dh = per_head.shape
        merged = np.transpose(per_head, (0, 2, 1, 3)).reshape(b, s, h * dh)
        return merged @ self.w_o


@dataclass
class LayerWeights:
    """All weights of one decoder layer."""

    attn: AttentionWeights
    mlp: MLPWeights
    norm_attn: Optional[np.ndarray] = None  # None => norm-free circuit model
    norm_mlp: Optional[np.ndarray] = None


@dataclass
class ModelWeights:
    """All weights of the functional model."""

    embedding: np.ndarray   # (vocab, d_model)
    layers: list            # List[LayerWeights]
    unembedding: np.ndarray  # (d_model, vocab)
    logit_bias: np.ndarray   # (vocab,)
