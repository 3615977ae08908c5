"""Micro-benchmarks of the NumPy kernels (pytest-benchmark timings)."""

import numpy as np

from repro.compression.quant.codec import (
    quant_dequant_per_channel,
    quant_dequant_per_token,
)
from repro.model.attention import HeadBias, flash_attention, naive_attention


def _qkv(n=1024, b=8, h=4, dh=64, seed=0, sq=1):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(b, h, sq, dh)).astype(np.float32)
    k = rng.normal(size=(b, h, n, dh)).astype(np.float32)
    v = rng.normal(size=(b, h, n, dh)).astype(np.float32)
    return q, k, v


def test_bench_naive_attention_decode(benchmark):
    q, k, v = _qkv()
    q_pos, k_pos = np.array([1023]), np.arange(1024)
    biases = [HeadBias("none", 0)] * 4
    benchmark(lambda: naive_attention(q, k, v, q_pos, k_pos, biases))


def test_bench_naive_attention_prefill(benchmark):
    """Prefill-shaped attention as the model runs it: six left-padded
    prompts of up to 434 tokens, all 434 queries over 434 keys, the
    LLaMA-sim layer-1 head biases, scores in a reused workspace."""
    from repro.model.builder import head_biases
    from repro.model.config import llama_sim_config

    b, h, n = 6, 4, 434
    q, k, v = _qkv(n=n, b=b, h=h, seed=2, sq=n)
    seq_start = np.linspace(0, n // 2, b).astype(np.int64)
    keep = np.arange(n)[None, None, :] >= seq_start[:, None, None]
    keep = np.broadcast_to(keep, (b, h, n)).copy()
    biases = head_biases(llama_sim_config())[1]
    pos = np.arange(n)
    scores = np.empty((b, h, n, n), dtype=np.float32)
    benchmark(lambda: naive_attention(
        q, k, v, pos, pos, biases, keep=keep, out=scores
    ))


def test_bench_mlp_prefill(benchmark):
    """LLaMA-sim SwiGLU MLP over 6 x 768 prompt rows, intermediates in a
    reused workspace."""
    from repro.experiments.common import functional_model

    model = functional_model("llama")
    c = model.config
    mlp = model.weights.layers[0].mlp
    x = np.random.default_rng(4).normal(size=(6, 768, c.d_model))
    x = x.astype(np.float32)
    workspace = np.empty(3 * 6 * 768 * c.d_ff, dtype=np.float32)
    benchmark(lambda: mlp.forward(x, workspace))


def test_bench_flash_attention_decode(benchmark):
    q, k, v = _qkv()
    q_pos, k_pos = np.array([1023]), np.arange(1024)
    biases = [HeadBias("none", 0)] * 4
    benchmark(lambda: flash_attention(q, k, v, q_pos, k_pos, biases))


def test_bench_key_codec(benchmark):
    x = np.random.default_rng(0).normal(size=(8, 4, 12, 32, 64))
    benchmark(lambda: quant_dequant_per_channel(x, 4))


def test_bench_value_codec(benchmark):
    x = np.random.default_rng(0).normal(size=(8, 4, 384, 64))
    benchmark(lambda: quant_dequant_per_token(x, 4, 32))


def test_bench_decode_step(benchmark):
    """Wall-clock of one functional-model decode step, batch 16."""
    from repro.experiments.common import functional_model
    from repro.model.generate import left_pad

    model = functional_model("llama")
    tok = model.tokenizer
    rng = np.random.default_rng(1)
    prompts = [
        [tok.special.bos]
        + [int(x) for x in rng.choice(tok.content_ids, size=512)]
        for _ in range(16)
    ]
    tokens, starts = left_pad(prompts, tok.special.pad)
    cache = model.new_cache(16, starts)
    model.prefill(tokens, cache, None)
    ids = np.full(16, tok.content_ids[0])
    benchmark(lambda: model.decode_step(ids, cache, None))
