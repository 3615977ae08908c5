"""Configuration of the functional (NumPy) transformer.

The functional model is a small decoder-only transformer whose attention
heads are constructed analytically (see :mod:`repro.model.builder`) so
that it *performs* retrieval tasks rather than emitting noise.  Its
residual stream is partitioned into four subspaces:

- ``cur``  — one-hot identity of the current token (written by embedding),
- ``prev`` — one-hot identity of the previous token (written by the
  previous-token head in layer 0),
- ``out``  — prediction accumulator read by the unembedding,
- ``scratch`` — headroom for noise heads and the MLP.

Head roles per layer are declared via :class:`HeadRole` so the builder,
tests and documentation share one vocabulary for the circuit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple


class HeadRole(enum.Enum):
    """Functional role of one attention head in the hand-built circuit."""

    PREV_TOKEN = "prev_token"   # positional head attending to i-1
    INDUCTION = "induction"     # content head matching cur_i against prev_j
    SINK = "sink"               # attends to position 0 (attention sink)
    SALIENCE = "salience"       # near-uniform attention (frequency prior)
    NOISE = "noise"             # small random head (model imperfection)


@dataclass(frozen=True)
class FunctionalModelConfig:
    """Shape + circuit parameters of the functional model.

    The defaults build a 2-layer, 4-head model over a 64-token vocabulary
    whose behaviour is a faithful miniature of the retrieval circuits in
    LLaMA-class models; ``gqa_group > 1`` yields the Mistral-style
    grouped-query variant.
    """

    vocab_size: int = 64
    n_layers: int = 2
    n_heads: int = 4
    head_dim: int = 64
    gqa_group: int = 1
    max_seq_len: int = 4096

    # circuit strengths
    induction_scale: float = 160.0  # beta: QK match logit ~ beta/sqrt(dh)
    induction_out: float = 10.0     # gamma: logit of retrieved token
    salience_out: float = 0.6       # delta: frequency-prior logit weight
    prev_bias: float = 40.0         # ALiBi-style strength of prev-token head
    sink_bias: float = 5.0          # additive score bonus at position 0
    induction_recency: float = 0.004  # slope of the induction recency bias
    noise_scale: float = 0.02       # sigma of random-head / MLP weights
    eos_bias: float = 0.0           # additive bias on the EOS logit
    mlp_ratio: int = 2              # d_ff = mlp_ratio * d_model
    embed_noise: float = 0.015      # dense noise on embedding rows
    magnitude_sigma: float = 0.2    # lognormal sigma of per-token magnitudes
    magnitude_clip: Tuple[float, float] = (0.7, 1.5)
    seed: int = 0

    @property
    def d_model(self) -> int:
        """Residual stream width: four vocab-sized subspaces."""
        return 4 * self.vocab_size

    @property
    def n_kv_heads(self) -> int:
        """Number of KV heads (``n_heads / gqa_group``)."""
        if self.n_heads % self.gqa_group:
            raise ValueError("n_heads must be divisible by gqa_group")
        return self.n_heads // self.gqa_group

    @property
    def d_ff(self) -> int:
        """MLP intermediate width."""
        return self.mlp_ratio * self.d_model

    def subspace(self, name: str) -> Tuple[int, int]:
        """(start, stop) slice bounds of a residual-stream subspace."""
        v = self.vocab_size
        spans = {
            "cur": (0, v),
            "prev": (v, 2 * v),
            "out": (2 * v, 3 * v),
            "scratch": (3 * v, 4 * v),
        }
        if name not in spans:
            raise KeyError(f"unknown subspace {name!r}")
        return spans[name]

    def head_roles(self) -> List[List[HeadRole]]:
        """Role of each head, ``[layer][head]``.

        Layer 0 hosts the previous-token head; layer 1 hosts the
        induction, salience and sink heads.  Any additional layers or
        heads are noise.  For ``n_layers > 2`` the circuit layers are the
        first and last layers with pass-through noise layers between,
        mimicking deeper models.
        """
        roles = [
            [HeadRole.NOISE] * self.n_heads for _ in range(self.n_layers)
        ]
        if self.n_layers < 2 or self.n_heads < 1:
            raise ValueError("circuit needs >= 2 layers and >= 1 head")
        roles[0][0] = HeadRole.PREV_TOKEN
        last = self.n_layers - 1
        roles[last][0] = HeadRole.SALIENCE
        if self.n_heads >= 2:
            roles[last][1] = HeadRole.INDUCTION
        if self.n_heads >= 3:
            roles[last][2] = HeadRole.SINK
        return roles


def llama_sim_config(**overrides) -> FunctionalModelConfig:
    """LLaMA-style functional model (MHA)."""
    return FunctionalModelConfig(**overrides)


def mistral_sim_config(**overrides) -> FunctionalModelConfig:
    """Mistral-style functional model (grouped-query attention)."""
    overrides.setdefault("gqa_group", 2)
    overrides.setdefault("n_heads", 4)
    return FunctionalModelConfig(**overrides)
