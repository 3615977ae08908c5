"""Bitwise oracle for the model's allocation-free hot path.

The attention kernel, the SwiGLU MLP and the affine codec compute in
caller-owned buffers and add the causal and eviction masks as two
separate addends; the model computes every large intermediate of a
layer in its own workspace (Q/K/V, scores, each chunk's output over
its own query rows, both projections), the bias and causal addends are
views of one vector each, and GEAR's error correction reuses its error
buffer.  The references below are the versions those kernels replaced,
kept here verbatim (only the session's scratch buffer, which no longer
exists, is replaced by fresh arrays): every output must equal theirs
bit for bit, kernel by kernel and for whole generation runs.  Both
sides run in one process on the same BLAS, so the comparison holds on
any CPU.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import create
from repro.compression.quant import codec
from repro.compression.quant.codec import (
    _affine_roundtrip,
    quant_dequant_per_channel,
    quant_dequant_per_token,
)
from repro.compression.quant.gear import (
    GEARCompressor,
    lowrank_approx,
    outlier_correction,
)
from repro.model import attention as attention_mod
from repro.model import transformer as transformer_mod
from repro.model.attention import (
    HeadBias,
    build_score_mask,
    expand_kv,
    flash_attention,
    naive_attention,
)
from repro.model.generate import generate
from repro.model.layers import AttentionWeights, MLPWeights, softmax_inplace
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


def ref_expand_kv_attention(
    q, k, v, q_pos, k_pos, biases, keep=None, gqa_group=1, out=None
):
    """``naive_attention`` with K/V repeated per query head."""
    b, h, sq, dh = q.shape
    kx = expand_kv(k, gqa_group)
    vx = expand_kv(v, gqa_group)
    scores = np.matmul(q, np.transpose(kx, (0, 1, 3, 2)), out=out)
    scores *= 1.0 / float(np.sqrt(dh))
    attention_mod._bias_and_mask(scores, q_pos, k_pos, biases, keep, gqa_group)
    probs = softmax_inplace(scores, axis=-1)
    return probs @ vx, probs


def ref_head_bias_matrix(self, q_pos, k_pos):
    """``HeadBias.matrix`` as a dense (sq, n) array."""
    if not self.active:
        return np.zeros((q_pos.size, k_pos.size), dtype=np.float32)
    if self.kind == "prev_token":
        dist = np.abs((q_pos[:, None] - 1) - k_pos[None, :])
        return (-self.strength * dist).astype(np.float32)
    if self.kind == "sink":
        bias = np.zeros((q_pos.size, k_pos.size), dtype=np.float32)
        bias[:, k_pos == 0] = self.strength
        return bias
    if self.kind == "recency":
        dist = np.maximum(q_pos[:, None] - k_pos[None, :], 0)
        return (-self.strength * dist).astype(np.float32)
    raise ValueError(f"unknown bias kind {self.kind!r}")


def ref_split_score_mask(q_pos, k_pos, keep):
    """``build_score_mask`` with a dense (sq, n) causal addend."""
    causal = evict = None
    future = k_pos[None, :] > q_pos[:, None]
    if future.any():
        causal = np.where(future, NEG_INF, np.float32(0.0))
    if keep is not None and not keep.all():
        evict = np.where(keep, np.float32(0.0), NEG_INF)[:, :, None, :]
    return causal, evict


def ref_project_qkv(self, x, n_heads, n_kv_heads, head_dim):
    b, s, _ = x.shape
    q = (x @ self.w_q).reshape(b, s, n_heads, head_dim)
    k = (x @ self.w_k).reshape(b, s, n_kv_heads, head_dim)
    v = (x @ self.w_v).reshape(b, s, n_kv_heads, head_dim)
    return (
        np.transpose(q, (0, 2, 1, 3)),
        np.transpose(k, (0, 2, 1, 3)),
        np.transpose(v, (0, 2, 1, 3)),
    )


def ref_project_out(self, per_head):
    b, h, s, dh = per_head.shape
    merged = np.transpose(per_head, (0, 2, 1, 3)).reshape(b, s, h * dh)
    return merged @ self.w_o


def ref_attend(self, li, q, cache, q_pos, compressor):
    """Chunk outputs in fresh arrays, joined by one concatenate."""
    lc = cache[li]
    c = self.config
    wants_probs = self._wants_probs(compressor)
    b, h, sq, _ = q.shape
    n = lc.length
    chunk = max(1, transformer_mod._CHUNK_ELEMENTS // max(1, b * h * n))
    outs = []
    k_pos = lc.positions
    k_full = lc.k
    v_full = lc.v
    keep_full = lc.keep
    for start in range(0, sq, chunk):
        stop = min(start + chunk, sq)
        qc = q[:, :, start:stop]
        kmax = min(n, int(q_pos[stop - 1]) + 1)
        kk, vv = k_full[:, :, :kmax], v_full[:, :, :kmax]
        keep = keep_full[:, :, :kmax]
        kp = k_pos[:kmax]
        if self.attention_impl == "flash" and not wants_probs:
            out_c = flash_attention(
                qc, kk, vv, q_pos[start:stop], kp,
                self.biases[li], keep=keep, gqa_group=c.gqa_group,
            )
        else:
            shape = (b, h, stop - start, kmax)
            scores = np.empty(shape, np.float32)
            out_c, probs = transformer_mod.naive_attention(
                qc, kk, vv, q_pos[start:stop], kp,
                self.biases[li], keep=keep, gqa_group=c.gqa_group,
                out=scores,
            )
            if wants_probs:
                compressor.observe(li, probs, q_pos[start:stop], kp, lc)
        outs.append(out_c)
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)


def ref_layer_forward(self, li, x, cache, q_pos, compressor, phase):
    c = self.config
    w = self.weights.layers[li]
    q, k, v = w.attn.project_qkv(x, c.n_heads, c.n_kv_heads, c.head_dim)
    cache[li].append(k, v)
    attn = self._attend(li, q, cache, q_pos, compressor)
    x += w.attn.project_out(attn)
    x += w.mlp.forward(x)
    if compressor is not None:
        compressor.compress(li, cache[li], phase)
    return x


def ref_last_layer_forward(self, x, cache, q_pos, compressor):
    """A prefill's last layer: the rest of the layer for the final row."""
    c = self.config
    li = c.n_layers - 1
    w = self.weights.layers[li]
    q, k, v = w.attn.project_qkv(x, c.n_heads, c.n_kv_heads, c.head_dim)
    cache[li].append(k, v)
    if not self._wants_probs(compressor):
        q, q_pos = q[:, :, -1:], q_pos[-1:]
    attn = self._attend(li, q, cache, q_pos, compressor)[:, :, -1:]
    x = x[:, -1:] + w.attn.project_out(attn)
    x += w.mlp.forward(x)
    if compressor is not None:
        compressor.compress(li, cache[li], "prefill")
    return x


def ref_outlier_correction(err, ratio):
    if ratio <= 0:
        return np.zeros_like(err)
    flat = np.abs(err).reshape(err.shape[0], err.shape[1], -1)
    k = max(1, int(round(ratio * flat.shape[-1])))
    threshold = np.partition(flat, -k, axis=-1)[..., -k][..., None, None]
    return np.where(np.abs(err) >= threshold, err, 0.0)


def ref_gear_roundtrip(self, x, per_channel, g):
    """GEAR's round trip with a fresh array for every step."""
    b, kvh, t, dh = x.shape
    if per_channel:
        xg = x.reshape(b, kvh, t // g, g, dh)
        x_hat = quant_dequant_per_channel(xg, self.bits).reshape(x.shape)
    else:
        x_hat = quant_dequant_per_token(x, self.bits, min(g, dh))
    err = x - x_hat
    corrected = lowrank_approx(err, self._rank(t, dh))
    corrected += ref_outlier_correction(err - corrected, self.outlier_ratio)
    return x_hat + corrected


#: the whole hot path as it was, patched in for the reference runs
REFERENCES = (
    (FunctionalTransformer, "_layer_forward", ref_layer_forward),
    (FunctionalTransformer, "_last_layer_forward", ref_last_layer_forward),
    (FunctionalTransformer, "_attend", ref_attend),
    (transformer_mod, "naive_attention", ref_expand_kv_attention),
    (attention_mod, "build_score_mask", ref_split_score_mask),
    (HeadBias, "matrix", ref_head_bias_matrix),
    (AttentionWeights, "project_qkv", ref_project_qkv),
    (AttentionWeights, "project_out", ref_project_out),
    (MLPWeights, "forward",
     lambda self, x, workspace=None: ref_mlp_forward(self, x)),
    (codec, "_affine_roundtrip", ref_affine_roundtrip),
    (GEARCompressor, "_roundtrip", ref_gear_roundtrip),
)


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

        # the output over the query rows, as the model writes it: the
        # (b, h, sq, dh) view of a (b, sq, h, dh) buffer
        b, h, sq, dh = q.shape
        rows = np.full((b, sq, h, dh), np.nan, dtype=np.float32)
        into = np.transpose(rows, (0, 2, 1, 3))
        out_rows, _ = naive_attention(
            *args, keep=keep, gqa_group=group, out=scores, attn_out=into
        )
        assert out_rows is into and _equal(into, out_ref)


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


@st.composite
def position_runs(draw):
    """Consecutive query and key positions: a prefill chunk, a decode
    step, or a flash tile of keys starting past 0."""
    k0 = draw(st.sampled_from([0, 0, 1, 37]))
    n = draw(st.integers(1, 60))
    q0 = draw(st.integers(0, k0 + n + 5))
    sq = draw(st.integers(1, 40))
    return np.arange(q0, q0 + sq), np.arange(k0, k0 + n)


class TestBiasAndMaskOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        pos=position_runs(),
        kind=st.sampled_from(["none", "prev_token", "sink", "recency"]),
        strength=st.sampled_from([0.0, 0.004, 5.0, 40.0, 1e9]),
    )
    def test_bias_views_match_dense(self, pos, kind, strength):
        q_pos, k_pos = pos
        bias = HeadBias(kind, strength)
        view = bias.matrix(q_pos, k_pos)
        assert _equal(view, ref_head_bias_matrix(bias, q_pos, k_pos))
        assert not view.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        pos=position_runs(),
        masking=st.sampled_from(["none", "all kept", "evict"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_score_mask_matches_dense(self, pos, masking, seed):
        q_pos, k_pos = pos
        keep = None
        if masking != "none":
            keep = np.ones((2, 2, k_pos.size), dtype=bool)
            if masking == "evict":
                keep &= np.random.default_rng(seed).random(keep.shape) > 0.3
        masks = build_score_mask(q_pos, k_pos, keep)
        for got, ref in zip(masks, ref_split_score_mask(q_pos, k_pos, keep)):
            assert (got is None) == (ref is None)
            if ref is not None:
                assert _equal(got, ref)


class TestGEAROracle:
    @settings(max_examples=150, deadline=None)
    @given(
        b=st.integers(1, 2),
        kvh=st.integers(1, 2),
        groups=st.integers(1, 3),
        g=st.sampled_from([4, 8]),
        dh=st.sampled_from([4, 8, 16]),
        per_channel=st.booleans(),
        rank_ratio=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
        outlier_ratio=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
        degenerate=st.sampled_from(["none", "constant", "zeros", "spiky"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_bit_identical_to_reference(
        self, b, kvh, groups, g, dh, per_channel, rank_ratio, outlier_ratio,
        degenerate, seed,
    ):
        rng = np.random.default_rng(seed)
        t = groups * g
        # a slice of a larger cache along the position axis, as compress
        # passes it
        store = rng.normal(size=(b, kvh, t + 3, dh)).astype(np.float32)
        if degenerate == "constant":
            store[0] = store[0, 0, 0, 0]  # zero spans: x_hat == x
        elif degenerate == "zeros":
            store[..., :2] = -0.0
        elif degenerate == "spiky":
            store[rng.random(store.shape) < 0.05] *= 100.0
        x = store[:, :, 1:t + 1]
        before = x.copy()
        comp = GEARCompressor(
            bits=4, group_size=g, rank_ratio=rank_ratio,
            outlier_ratio=outlier_ratio,
        )
        ref = ref_gear_roundtrip(comp, x, per_channel, g)
        assert _equal(comp._roundtrip(x, per_channel, g), ref)
        assert _equal(x, before)  # the cache itself is not written

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1, 4, 4), (2, 3, 5, 8), (2, 1, 16, 2)]),
        ratio=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
        special=st.sampled_from(["none", "nan", "ties", "signed zeros"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outlier_correction_bit_identical(self, shape, ratio, special, seed):
        rng = np.random.default_rng(seed)
        err = rng.normal(size=shape).astype(np.float32)
        if special == "nan":
            err[rng.random(shape) < 0.2] = np.nan
        elif special == "ties":
            err = np.round(err)
        elif special == "signed zeros":
            err[rng.random(shape) < 0.5] = -0.0
        ref = ref_outlier_correction(err, ratio)
        assert outlier_correction(err, ratio) is err  # in place
        assert _equal(err, ref)


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
    """Greedy generation; returns the output, the session cache and
    every logits array the model produced (prefill, then each decode)."""
    comp = None if algo == "fp16" else create(algo)
    caches, logits = [], []
    new_cache = FunctionalTransformer.new_cache
    unembed = FunctionalTransformer.logits

    def recording_cache(self, *args, **kwargs):
        caches.append(new_cache(self, *args, **kwargs))
        return caches[-1]

    def recording_logits(self, hidden):
        logits.append(unembed(self, hidden))
        return logits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FunctionalTransformer, "new_cache", recording_cache)
        mp.setattr(FunctionalTransformer, "logits", recording_logits)
        out = generate(
            model, prompts, compressor=comp,
            sampler=Sampler(greedy=True), max_new_tokens=6,
        )
    return out, caches[0], logits


@pytest.mark.parametrize(
    "model_fixture, chunk_elements",
    [("llama_model", None), ("mistral_model", 100_000),
     ("llama_model", 100_000)],
)
@pytest.mark.parametrize(
    "algo",
    ["fp16", "kivi-4", "gear-4", "h2o-512", "stream-512", "snapkv-512"],
)
def test_generation_bit_identical_to_reference(
    algo, model_fixture, chunk_elements, request, prompt_factory, monkeypatch
):
    """Unequal prompts past the 512-token sparse budget, left-padded in
    one batch; a small chunk cap spreads each prefill over several query
    chunks, and the mistral case adds GQA.  Every prefill and decode
    logit, generated token and cached K/V bit equals the reference's."""
    model = request.getfixturevalue(model_fixture)
    if chunk_elements is not None:
        monkeypatch.setattr(transformer_mod, "_CHUNK_ELEMENTS", chunk_elements)
    prompts = [
        prompt_factory.make(depth=depth, tail=60, ans_len=3)[0]
        for depth in (470, 530, 610)
    ]
    out, cache, logits = _generate(model, prompts, algo)

    new_cache = FunctionalTransformer.new_cache
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, ref in REFERENCES:
            mp.setattr(owner, name, ref)
        # the default capacity: the cache grows by doubling copies
        mp.setattr(FunctionalTransformer, "new_cache",
                   lambda self, batch, seq_start, capacity=64:
                   new_cache(self, batch, seq_start))
        ref, ref_cache, ref_logits = _generate(model, prompts, algo)

    assert out.sequences == ref.sequences
    assert out.retained_kv_tokens == ref.retained_kv_tokens
    assert len(logits) == len(ref_logits)
    for a, b in zip(logits, ref_logits):
        assert _equal(a, b)
    for lc, ref_lc in zip(cache.layers, ref_cache.layers):
        assert lc.length == ref_lc.length
        assert _equal(lc.k, ref_lc.k) and _equal(lc.v, ref_lc.v)
        assert np.array_equal(lc.keep, ref_lc.keep)
