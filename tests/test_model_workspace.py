"""The model-owned workspace.

Every large intermediate of a prefill or decode step lives in one
float32 buffer that the model keeps for its life
(``FunctionalTransformer.workspace``).  That is only sound because no
value in it is read across model calls: sessions on one model may
interleave, and garbage left between calls changes nothing.  And it
pays only if a warm model allocates nothing activation-sized.
"""

import tracemalloc

import numpy as np
import pytest

from repro.compression import create
from repro.model.generate import left_pad
from repro.model.transformer import FunctionalTransformer

#: decode steps per session
STEPS = 5


class Session:
    """A greedy session driven one model call at a time."""

    def __init__(self, model, prompts, algo):
        tokens, seq_start = left_pad(prompts, model.tokenizer.special.pad)
        b = tokens.shape[0]
        self.comp = None if algo == "fp16" else create(algo)
        if self.comp is not None:
            self.comp.begin(b, model.config, seq_start)
        self.cache = model.new_cache(b, seq_start)
        self.logits = [model.prefill(tokens, self.cache, self.comp)]
        self.tokens = []

    def step(self, model):
        ids = self.logits[-1].argmax(-1)
        self.tokens.append(ids)
        self.logits.append(model.decode_step(ids, self.cache, self.comp))


def _batches(factory):
    """Two left-padded batches of different shapes, the longer past the
    512-token sparse budget so H2O evicts."""
    a = [factory.make(depth=d, tail=40)[0] for d in (560, 480, 420)]
    b = [factory.make(depth=d, tail=20)[0] for d in (150, 310)]
    return a, b


def _assert_same(run, ref):
    assert len(run.logits) == len(ref.logits)
    for x, y in zip(run.logits, ref.logits):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    for x, y in zip(run.tokens, ref.tokens):
        assert np.array_equal(x, y)
    for lc, ref_lc in zip(run.cache.layers, ref.cache.layers):
        assert lc.length == ref_lc.length
        assert np.array_equal(lc.k, ref_lc.k) and np.array_equal(lc.v, ref_lc.v)
        assert np.array_equal(lc.keep, ref_lc.keep)


@pytest.mark.parametrize("poison", [False, True])
@pytest.mark.parametrize("algo", ["fp16", "gear-4", "h2o-512"])
def test_interleaved_sessions_match_sessions_alone(
    algo, poison, llama_model, prompt_factory
):
    """Prefill A, prefill B, then alternate their decode steps on one
    model; with ``poison`` the workspace is filled with NaN between
    calls.  Each session equals itself run alone on a fresh model."""
    base = llama_model
    prompts_a, prompts_b = _batches(prompt_factory)

    def fresh():
        return FunctionalTransformer(base.config, weights=base.weights)

    alone = []
    for prompts in (prompts_a, prompts_b):
        model = fresh()
        session = Session(model, prompts, algo)
        for _ in range(STEPS):
            session.step(model)
        alone.append(session)

    model = fresh()

    def between_calls():
        if poison:
            model._workspace.fill(np.nan)

    a = Session(model, prompts_a, algo)
    between_calls()
    b = Session(model, prompts_b, algo)
    for _ in range(STEPS):
        between_calls()
        a.step(model)
        between_calls()
        b.step(model)

    _assert_same(a, alone[0])
    _assert_same(b, alone[1])


#: allowance for everything that is not activation-sized: positions,
#: per-chunk eviction masks, row maxima and sums, logits, Python objects
SLACK = 256 * 1024


@pytest.mark.parametrize("model_fixture", ["llama_model", "mistral_model"])
def test_warm_prefill_allocates_nothing_activation_sized(
    model_fixture, request, prompt_factory
):
    """NumPy reports its buffers to ``tracemalloc``: a second prefill of
    the same shape on one model peaks below its session's K/V and keep
    arrays, the embedding gather and a slack smaller than any one
    (batch, prompt, d_model) float32 activation."""
    base = request.getfixturevalue(model_fixture)
    model = FunctionalTransformer(base.config, weights=base.weights)
    prompts = [prompt_factory.make(depth=d, tail=30)[0] for d in (380, 300)]
    tokens, seq_start = left_pad(prompts, model.tokenizer.special.pad)
    b, s = tokens.shape
    model.prefill(tokens, model.new_cache(b, seq_start, s))

    tracemalloc.start()
    try:
        cache = model.new_cache(b, seq_start, s)
        model.prefill(tokens, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    kv = sum(
        lc._k.nbytes + lc._v.nbytes + lc._keep.nbytes for lc in cache.layers
    )
    gather = b * s * model.config.d_model * 4
    assert SLACK < gather
    assert peak < kv + gather + SLACK, (peak, kv, gather)
