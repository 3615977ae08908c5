"""Batched autoregressive generation with pluggable KV compression."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.model.cache import PrefixCache, SessionCache
from repro.model.sampling import Sampler
from repro.model.transformer import FunctionalTransformer


@dataclass
class GenerationOutput:
    """Result of one batched generation call.

    ``sequences`` holds generated token ids per prompt (EOS excluded);
    ``prompt_lengths`` / ``response_lengths`` are per-sequence counts;
    ``hit_max`` flags sequences truncated by ``max_new_tokens``.
    """

    sequences: List[List[int]]
    prompt_lengths: np.ndarray
    response_lengths: np.ndarray
    hit_max: np.ndarray
    retained_kv_tokens: float
    reused_prefix_tokens: int = 0

    def __len__(self) -> int:
        return len(self.sequences)


def left_pad(
    prompts: Sequence[Sequence[int]], pad_id: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Left-pad prompts to a rectangle; returns (tokens, seq_start)."""
    if not prompts:
        raise ValueError("prompts must be non-empty")
    lengths = np.array([len(p) for p in prompts], dtype=np.int64)
    if (lengths == 0).any():
        raise ValueError("empty prompt")
    max_len = int(lengths.max())
    tokens = np.full((len(prompts), max_len), pad_id, dtype=np.int64)
    for i, p in enumerate(prompts):
        tokens[i, max_len - len(p):] = p
    seq_start = max_len - lengths
    return tokens, seq_start


def generate(
    model: FunctionalTransformer,
    prompts: Sequence[Sequence[int]],
    compressor=None,
    sampler: Optional[Sampler] = None,
    max_new_tokens: int = 256,
    prefix_cache: Optional[PrefixCache] = None,
) -> GenerationOutput:
    """Generate continuations for ``prompts`` under ``compressor``.

    The compressor (or ``None`` for the FP16 baseline) observes and
    mutates the KV cache during both prefill and decode, exactly as the
    paper's evaluated algorithms hook into serving engines.

    With a ``prefix_cache``, a single uncompressed prompt whose prefix
    was prefilled before reuses the stored K/V and only computes the
    uncached suffix (warm prefill).  Compressed runs never reuse or
    populate the cache — mutated K/V is unshareable (paper §3.1.2) —
    and batched runs skip it because left padding misaligns positions.
    """
    tok = model.tokenizer
    tokens, seq_start = left_pad(prompts, tok.special.pad)
    batch = tokens.shape[0]
    cache = model.new_cache(batch, seq_start, tokens.shape[1] + max_new_tokens)
    if compressor is not None:
        compressor.begin(batch, model.config, seq_start)
    if sampler is None:
        sampler = Sampler(greedy=True)

    reused = 0
    use_prefix = prefix_cache is not None and compressor is None and batch == 1
    if use_prefix:
        match = prefix_cache.longest_match(
            prompts[0], align=model.prefill_block
        )
        if match is not None:
            reused, layer_kv = match
            for li, (k, v) in enumerate(layer_kv):
                cache[li].append(k[None], v[None])
    logits = model.prefill(tokens[:, reused:], cache, compressor)
    if use_prefix:
        # store only whole prefill blocks: a trailing partial block's
        # K/V is not bit-reproducible in a longer prompt's computation
        full = len(prompts[0]) // model.prefill_block * model.prefill_block
        if full:
            prefix_cache.put(
                prompts[0][:full],
                [(lc.k[0, :, :full], lc.v[0, :, :full]) for lc in cache.layers],
            )
    sequences: List[List[int]] = [[] for _ in range(batch)]
    done = np.zeros(batch, dtype=bool)
    hit_max = np.zeros(batch, dtype=bool)
    eos = tok.special.eos

    for step in range(max_new_tokens):
        next_ids = sampler.sample(logits)
        next_ids = np.where(done, tok.special.pad, next_ids)
        newly_done = (next_ids == eos) & ~done
        for i in np.nonzero(~done & ~newly_done)[0]:
            sequences[i].append(int(next_ids[i]))
        done |= newly_done
        if done.all():
            break
        if step == max_new_tokens - 1:
            hit_max = ~done
            break
        logits = model.decode_step(next_ids, cache, compressor)

    prompt_lengths = np.array([len(p) for p in prompts], dtype=np.int64)
    response_lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    return GenerationOutput(
        sequences=sequences,
        prompt_lengths=prompt_lengths,
        response_lengths=response_lengths,
        hit_max=hit_max,
        retained_kv_tokens=cache.retained_tokens(),
        reused_prefix_tokens=reused,
    )
