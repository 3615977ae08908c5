"""Bitwise oracle for the model's allocation-free hot path.

The attention kernel, the SwiGLU MLP and the affine codec compute in
caller-owned buffers and add the causal and eviction masks as two
separate addends.  The references below are the straightforward
versions those kernels replaced, kept here verbatim: every output must
equal theirs bit for bit, kernel by kernel and for whole generation
runs.  Both sides run in one process on the same BLAS, so the
comparison holds on any CPU.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import create
from repro.compression.quant import codec
from repro.compression.quant.codec import _affine_roundtrip
from repro.model import transformer as transformer_mod
from repro.model.attention import HeadBias, expand_kv, naive_attention
from repro.model.generate import generate
from repro.model.layers import MLPWeights
from repro.model.sampling import Sampler
from repro.model.transformer import FunctionalTransformer

NEG_INF = np.float32(-1e9)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def ref_softmax_inplace(x, axis=-1):
    m = np.max(x, axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def ref_build_score_mask(q_pos, k_pos, keep):
    causal = k_pos[None, :] <= q_pos[:, None]
    mask = np.where(causal, np.float32(0.0), NEG_INF)[None, None]
    if keep is not None:
        evict = np.where(keep[:, :, None, :], np.float32(0.0), NEG_INF)
        mask = mask + evict
    return mask


def ref_naive_attention(q, k, v, q_pos, k_pos, biases, keep=None, gqa_group=1):
    b, h, sq, dh = q.shape
    kx = expand_kv(k, gqa_group)
    vx = expand_kv(v, gqa_group)
    scores = q @ np.transpose(kx, (0, 1, 3, 2))
    scores *= 1.0 / float(np.sqrt(dh))
    for hi, bias in enumerate(biases):
        bm = bias.matrix(q_pos, k_pos)
        if bm.any():
            scores[:, hi] += bm
    mask = ref_build_score_mask(q_pos, k_pos, keep)
    if mask.shape[1] not in (1, h):
        mask = np.repeat(mask, gqa_group, axis=1)
    scores += mask
    probs = ref_softmax_inplace(scores, axis=-1)
    out = probs @ vx
    return out, probs


def ref_silu(x):
    return x / (1.0 + np.exp(-x))


def ref_mlp_forward(mlp, x):
    return (ref_silu(x @ mlp.w_gate) * (x @ mlp.w_up)) @ mlp.w_down


def ref_affine_roundtrip(x, lo, hi, bits):
    levels = (1 << bits) - 1
    span = hi - lo
    step = span / levels
    valid = step > 0
    delta = np.where(valid, step, 1.0)
    q = np.rint((x - lo) / delta)
    q = np.clip(q, 0, levels)
    out = q * delta + lo
    return np.where(valid, out, lo)


def ref_layer_forward(self, li, x, cache, q_pos, compressor, phase):
    """The residual updates as fresh arrays, not in place."""
    c = self.config
    w = self.weights.layers[li]
    q, k, v = w.attn.project_qkv(x, c.n_heads, c.n_kv_heads, c.head_dim)
    cache[li].append(k, v)
    attn = self._attend(li, q, cache, q_pos, compressor)
    x = x + w.attn.project_out(attn)
    x = x + w.mlp.forward(x)
    if compressor is not None:
        compressor.compress(li, cache[li], phase)
    return x


def ref_last_layer_forward(self, x, cache, q_pos, compressor):
    """A prefill's last layer as ``ref_layer_forward``: every row."""
    li = self.config.n_layers - 1
    return ref_layer_forward(self, li, x, cache, q_pos, compressor, "prefill")


def _equal(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
BIASES = (
    HeadBias("none", 0.0),
    HeadBias("prev_token", 40.0),
    HeadBias("sink", 5.0),
    HeadBias("recency", 0.004),
    HeadBias("recency", 0.0),  # a kind with zero strength adds nothing
)


@st.composite
def attention_cases(draw):
    b = draw(st.integers(1, 3))
    kvh = draw(st.integers(1, 2))
    group = draw(st.integers(1, 2))
    dh = draw(st.sampled_from([8, 64]))
    n = draw(st.integers(1, 80))
    q_end = draw(st.integers(1, n))  # last query position + 1
    sq = draw(st.integers(1, q_end))
    biases = draw(st.lists(
        st.sampled_from(BIASES), min_size=kvh * group, max_size=kvh * group
    ))
    masking = draw(st.sampled_from(["none", "padding", "padding+evict"]))
    scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    seed = draw(st.integers(0, 2**32 - 1))

    rng = np.random.default_rng(seed)
    h = kvh * group
    q = (scale * rng.normal(size=(b, h, sq, dh))).astype(np.float32)
    k = rng.normal(size=(b, kvh, n, dh)).astype(np.float32)
    v = rng.normal(size=(b, kvh, n, dh)).astype(np.float32)
    keep = None
    if masking != "none":
        # left padding as LayerCache.append marks it, per sequence
        seq_start = rng.integers(0, n, size=b)
        keep = np.arange(n)[None, None, :] >= seq_start[:, None, None]
        keep = np.broadcast_to(keep, (b, kvh, n)).copy()
        if masking == "padding+evict":
            keep &= rng.random((b, kvh, n)) > rng.uniform(0.1, 0.9)
    args = (q, k, v, np.arange(q_end - sq, q_end), np.arange(n), biases)
    return args, keep, group


class TestAttentionOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=attention_cases())
    def test_bit_identical_to_reference(self, case):
        args, keep, group = case
        out_ref, probs_ref = ref_naive_attention(
            *args, keep=keep, gqa_group=group
        )
        out, probs = naive_attention(*args, keep=keep, gqa_group=group)
        assert _equal(out, out_ref) and _equal(probs, probs_ref)

        # into a stale, oversized workspace, as the model calls it
        q, k = args[0], args[1]
        shape = q.shape[:3] + (k.shape[2],)
        buf = np.full(int(np.prod(shape)) + 5, np.nan, dtype=np.float32)
        scores = buf[: int(np.prod(shape))].reshape(shape)
        out_ws, probs_ws = naive_attention(
            *args, keep=keep, gqa_group=group, out=scores
        )
        assert probs_ws is scores
        assert _equal(out_ws, out_ref) and _equal(probs_ws, probs_ref)


class TestMLPOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 3),
        s=st.integers(1, 40),
        d=st.sampled_from([8, 256]),
        scale=st.sampled_from([1.0, 10.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_reference(self, b, s, d, scale, seed):
        rng = np.random.default_rng(seed)
        d_ff = 2 * d
        mlp = MLPWeights(
            w_gate=(rng.normal(size=(d, d_ff)) / np.sqrt(d)).astype(np.float32),
            w_up=(rng.normal(size=(d, d_ff)) / np.sqrt(d)).astype(np.float32),
            w_down=(rng.normal(size=(d_ff, d)) / np.sqrt(d_ff)).astype(np.float32),
        )
        x = (scale * rng.normal(size=(b, s, d))).astype(np.float32)
        stale = np.full(3 * b * s * d_ff + 11, np.nan, dtype=np.float32)
        with np.errstate(over="ignore"):  # exp(-g) may overflow at x100
            ref = ref_mlp_forward(mlp, x)
            assert _equal(mlp.forward(x), ref)
            assert _equal(mlp.forward(x, stale), ref)


class TestCodecOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        groups=st.integers(1, 4),
        t=st.integers(1, 8),
        c=st.integers(1, 8),
        bits=st.sampled_from([1, 2, 4, 8]),
        dtype=st.sampled_from([np.float32, np.float64]),
        degenerate=st.sampled_from(
            ["none", "constant", "denormal", "reversed"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_reference(
        self, groups, t, c, bits, dtype, degenerate, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(groups, t, c)).astype(dtype)
        if degenerate == "constant":
            x[0] = x[0, 0, 0]  # zero span
        elif degenerate == "denormal":
            x[0] *= np.finfo(dtype).tiny / 4  # the step underflows
        lo = x.min(axis=-2, keepdims=True)
        hi = x.max(axis=-2, keepdims=True)
        if degenerate == "reversed":  # hi < lo: the group maps to lo
            hi[0] = lo[0] - 1
        ref = ref_affine_roundtrip(x, lo, hi, bits)
        assert _equal(_affine_roundtrip(x, lo, hi, bits), ref)


# ----------------------------------------------------------------------
# whole generation runs
# ----------------------------------------------------------------------
def _generate(model, prompts, algo):
    """Greedy generation; returns the output and the session cache."""
    comp = None if algo == "fp16" else create(algo)
    caches = []
    new_cache = FunctionalTransformer.new_cache

    def recording(self, *args, **kwargs):
        caches.append(new_cache(self, *args, **kwargs))
        return caches[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FunctionalTransformer, "new_cache", recording)
        out = generate(
            model, prompts, compressor=comp,
            sampler=Sampler(greedy=True), max_new_tokens=6,
        )
    return out, caches[0]


@pytest.mark.parametrize(
    "model_fixture, chunk_elements",
    [("llama_model", None), ("mistral_model", 100_000)],
)
@pytest.mark.parametrize(
    "algo", ["fp16", "kivi-4", "gear-4", "h2o-512", "stream-512"]
)
def test_generation_bit_identical_to_reference(
    algo, model_fixture, chunk_elements, request, prompt_factory, monkeypatch
):
    """Unequal prompts past the 512-token sparse budget, left-padded in
    one batch; the mistral case adds GQA and several query chunks."""
    model = request.getfixturevalue(model_fixture)
    if chunk_elements is not None:
        monkeypatch.setattr(transformer_mod, "_CHUNK_ELEMENTS", chunk_elements)
    prompts = [
        prompt_factory.make(depth=depth, tail=60, ans_len=3)[0]
        for depth in (470, 530, 610)
    ]
    out, cache = _generate(model, prompts, algo)

    new_cache = FunctionalTransformer.new_cache
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transformer_mod, "naive_attention",
                   lambda *a, out=None, **kw: ref_naive_attention(*a, **kw))
        mp.setattr(MLPWeights, "forward",
                   lambda self, x, workspace=None: ref_mlp_forward(self, x))
        mp.setattr(codec, "_affine_roundtrip", ref_affine_roundtrip)
        mp.setattr(FunctionalTransformer, "_layer_forward", ref_layer_forward)
        mp.setattr(FunctionalTransformer, "_last_layer_forward",
                   ref_last_layer_forward)
        # the default capacity: the cache grows by doubling copies
        mp.setattr(FunctionalTransformer, "new_cache",
                   lambda self, batch, seq_start, capacity=64:
                   new_cache(self, batch, seq_start))
        ref, ref_cache = _generate(model, prompts, algo)

    assert out.sequences == ref.sequences
    assert out.retained_kv_tokens == ref.retained_kv_tokens
    for lc, ref_lc in zip(cache.layers, ref_cache.layers):
        assert lc.length == ref_lc.length
        assert _equal(lc.k, ref_lc.k) and _equal(lc.v, ref_lc.v)
        assert np.array_equal(lc.keep, ref_lc.keep)
