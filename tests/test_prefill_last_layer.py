"""The last layer of a prefill computes only the row prefill returns.

A prefill reads one hidden state, the final position's (its logits),
and caches the last layer's K/V before any of that layer's attention,
output projection or MLP runs.  So the model runs that work for the
final row alone: every cached K/V, keep mask, compressor state,
``observe`` chunk and decode logit equals the every-row layer's bit for
bit, and only the prefill logits may move, by the rounding of one-row
BLAS calls instead of whole-prompt GEMMs.  The reference below is the
every-row last layer, kept verbatim; both sides run in one process on
the same BLAS.
"""

import numpy as np
import pytest

from repro.compression import create
from repro.model import transformer as transformer_mod
from repro.model.generate import left_pad
from repro.model.layers import AttentionWeights, MLPWeights
from repro.model.transformer import FunctionalTransformer

ALGOS = (
    "fp16", "kivi-4", "gear-4", "h2o-512", "stream-512",
    "snapkv-512", "tova-512", "pyramidkv-512",
)
#: flash attention serves only compressors that need no probabilities
CASES = [(algo, "naive") for algo in ALGOS] + [
    (algo, "flash") for algo in ALGOS
    if algo == "fp16" or not create(algo).needs_probs
]
#: the longest prompt of a batch: past the 512-token sparse budget
#: (twice), below it, and a single token
LONGEST = (576, 577, 40, 1)
#: fixed before measuring: float32 accumulation over the 512-wide MLP
#: (the largest change seen over 528 cases was 2.2e-5)
RTOL = ATOL = 1e-4


def every_row_last_layer(self, x, cache, q_pos, compressor):
    """The last prefill layer over every row (Q/K/V in fresh arrays, so
    the scores may start at the workspace's first element)."""
    c = self.config
    li = c.n_layers - 1
    w = self.weights.layers[li]
    q, k, v = w.attn.project_qkv(x, c.n_heads, c.n_kv_heads, c.head_dim)
    cache[li].append(k, v)
    attn = self._attend(li, q, cache, q_pos, compressor, 0)
    x += w.attn.project_out(attn)
    x += w.mlp.forward(x)
    if compressor is not None:
        compressor.compress(li, cache[li], "prefill")
    return x


def _batch(factory, longest):
    """Retrieval prompts of unequal lengths, left-padded in one batch."""
    prompts = [
        factory.make(depth=n, tail=20)[0][-n:]
        for n in (longest, max(1, longest // 2))
    ]
    return left_pad(prompts, factory.tok.special.pad)


def _state(obj):
    """A compressor's state as comparable leaves (arrays stay arrays)."""
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_state(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _state(v) for k, v in obj.items()}
    if hasattr(obj, "__dict__"):
        return {
            k: _state(v) for k, v in vars(obj).items()
            if k != "_config" and not callable(v)  # the observe recorder
        }
    return obj


def _assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same(a[key], b[key])
    else:
        assert a == b


def _cache(cache):
    return [(lc.k.copy(), lc.v.copy(), lc.keep.copy()) for lc in cache.layers]


def _run(model, tokens, seq_start, algo, forced):
    """Prefill, then three decode steps on ``forced`` token ids."""
    b = tokens.shape[0]
    comp = None if algo == "fp16" else create(algo)
    observed = []
    if comp is not None:
        comp.begin(b, model.config, seq_start)
        observe = comp.observe

        def recording(layer, probs, q_pos, k_pos, cache):
            observed.append([layer, probs.copy(), q_pos.copy(), k_pos.copy()])
            observe(layer, probs, q_pos, k_pos, cache)

        comp.observe = recording
    cache = model.new_cache(b, seq_start)
    logits = model.prefill(tokens, cache, comp)
    run = {"prefill": _cache(cache), "state": _state(comp), "decode": []}
    for ids in forced:
        run["decode"].append(model.decode_step(ids, cache, comp))
    run["after_decode"] = _cache(cache)
    run["final_state"] = _state(comp)
    run["observed"] = observed
    return logits, run


@pytest.mark.parametrize("longest", LONGEST)
@pytest.mark.parametrize(
    "model_fixture, chunk_elements",
    [("llama_model", None), ("mistral_model", 100_000)],
)
@pytest.mark.parametrize("algo, attention", CASES)
def test_last_layer_matches_every_row_layer(
    algo, model_fixture, chunk_elements, attention, longest,
    request, prompt_factory, monkeypatch,
):
    """Bitwise K/V, keep masks, compressor state, ``observe`` chunks and
    decode logits; prefill logits agree in argmax and within RTOL."""
    base = request.getfixturevalue(model_fixture)
    if chunk_elements is not None:
        monkeypatch.setattr(transformer_mod, "_CHUNK_ELEMENTS", chunk_elements)
    model = FunctionalTransformer(
        base.config, weights=base.weights, attention_impl=attention
    )
    tokens, seq_start = _batch(prompt_factory, longest)
    rng = np.random.default_rng(longest)
    content = model.tokenizer.content_ids
    forced = [rng.choice(content, size=tokens.shape[0]) for _ in range(3)]

    logits, run = _run(model, tokens, seq_start, algo, forced)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            FunctionalTransformer, "_last_layer_forward", every_row_last_layer
        )
        ref_logits, ref = _run(model, tokens, seq_start, algo, forced)

    _assert_same(run, ref)
    if algo != "fp16" and create(algo).needs_probs:
        assert run["observed"]
    assert logits.dtype == ref_logits.dtype
    assert np.array_equal(logits.argmax(-1), ref_logits.argmax(-1))
    np.testing.assert_allclose(logits, ref_logits, rtol=RTOL, atol=ATOL)


# ----------------------------------------------------------------------
# the work that is no longer done
# ----------------------------------------------------------------------
def _last_layer_calls(model, monkeypatch):
    """Record the last layer's attention, output-projection and MLP
    calls: ``(kind, rows per sequence, query positions or None)``."""
    calls = []
    last = model.weights.layers[-1]
    naive = transformer_mod.naive_attention
    project_out = AttentionWeights.project_out
    forward = MLPWeights.forward

    def attention_spy(q, k, v, q_pos, k_pos, biases, **kw):
        if biases is model.biases[-1]:
            calls.append(("attention", q.shape[2], q_pos.copy()))
        return naive(q, k, v, q_pos, k_pos, biases, **kw)

    def project_out_spy(self, per_head, *args):
        if self is last.attn:
            calls.append(("project_out", per_head.shape[2], None))
        return project_out(self, per_head, *args)

    def forward_spy(self, x, workspace=None):
        if self is last.mlp:
            calls.append(("mlp", x.shape[1], None))
        return forward(self, x, workspace)

    monkeypatch.setattr(transformer_mod, "naive_attention", attention_spy)
    monkeypatch.setattr(AttentionWeights, "project_out", project_out_spy)
    monkeypatch.setattr(MLPWeights, "forward", forward_spy)
    return calls


@pytest.mark.parametrize("algo", ["fp16", "kivi-4", "stream-512", "h2o-512"])
def test_last_layer_runs_only_the_final_row(
    algo, llama_model, prompt_factory, monkeypatch
):
    """The last layer runs the output projection and the MLP on one row
    per sequence, and attends from one query row unless the compressor
    needs every row's probabilities, which it still receives chunk by
    chunk."""
    monkeypatch.setattr(transformer_mod, "_CHUNK_ELEMENTS", 100_000)
    tokens, seq_start = _batch(prompt_factory, 197)
    comp = None if algo == "fp16" else create(algo)
    if comp is not None:
        comp.begin(tokens.shape[0], llama_model.config, seq_start)
    calls = _last_layer_calls(llama_model, monkeypatch)
    cache = llama_model.new_cache(tokens.shape[0], seq_start)
    llama_model.prefill(tokens, cache, comp)

    L = tokens.shape[1]
    assert cache.layers[-1].length == L
    attends = [c for c in calls if c[0] == "attention"]
    rest = [c[:2] for c in calls if c[0] != "attention"]
    assert rest == [("project_out", 1), ("mlp", 1)]
    if comp is not None and comp.needs_probs:
        assert len(attends) > 1
        assert np.array_equal(np.concatenate([c[2] for c in attends]),
                              np.arange(L))
    else:
        assert [c[1] for c in attends] == [1]
        assert attends[0][2].tolist() == [L - 1]


def test_fp16_prefill_is_one_span(llama_model, prompt_factory, monkeypatch):
    """FP16 prefill runs the same single span as every compressor: one
    Q/K/V projection per layer over every row of the batch."""
    shapes = []
    project_qkv = AttentionWeights.project_qkv

    def project_qkv_spy(self, x, *args):
        shapes.append(x.shape[:2])
        return project_qkv(self, x, *args)

    monkeypatch.setattr(AttentionWeights, "project_qkv", project_qkv_spy)
    tokens, seq_start = _batch(prompt_factory, 197)
    cache = llama_model.new_cache(tokens.shape[0], seq_start)
    llama_model.prefill(tokens, cache)
    assert shapes == [tokens.shape] * llama_model.config.n_layers
