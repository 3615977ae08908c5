"""Tests for attention kernels: naive vs flash equivalence, biases, masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attention import (
    HeadBias,
    build_score_mask,
    expand_kv,
    flash_attention,
    naive_attention,
)
from repro.model.config import HeadRole
from repro.model.generate import left_pad
from repro.model.transformer import FunctionalTransformer


def _random_qkv(rng, b, h, kvh, sq, n, dh):
    q = rng.normal(size=(b, h, sq, dh)).astype(np.float32)
    k = rng.normal(size=(b, kvh, n, dh)).astype(np.float32)
    v = rng.normal(size=(b, kvh, n, dh)).astype(np.float32)
    return q, k, v


class TestHeadBias:
    def test_none_is_zero(self):
        bias = HeadBias("none", 0.0)
        m = bias.matrix(np.arange(3), np.arange(5))
        assert not m.any()

    def test_prev_token_peaks_at_i_minus_1(self):
        bias = HeadBias("prev_token", 10.0)
        m = bias.matrix(np.array([4]), np.arange(5))
        assert np.argmax(m[0]) == 3

    def test_sink_bonus_at_zero(self):
        bias = HeadBias("sink", 3.0)
        m = bias.matrix(np.array([2]), np.arange(4))
        assert m[0, 0] == 3.0 and m[0, 1:].sum() == 0

    def test_recency_monotone(self):
        bias = HeadBias("recency", 0.01)
        m = bias.matrix(np.array([10]), np.arange(10))
        assert (np.diff(m[0]) > 0).all()  # later keys less penalized

    def test_for_role_mapping(self):
        assert HeadBias.for_role(HeadRole.PREV_TOKEN, 40, 5).kind == "prev_token"
        assert HeadBias.for_role(HeadRole.SINK, 40, 5).kind == "sink"
        assert HeadBias.for_role(HeadRole.INDUCTION, 40, 5, 0.01).kind == "recency"
        assert HeadBias.for_role(HeadRole.INDUCTION, 40, 5, 0.0).kind == "none"
        assert HeadBias.for_role(HeadRole.NOISE, 40, 5).kind == "none"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            HeadBias("weird", 1.0).matrix(np.arange(2), np.arange(2))


class TestExpandKV:
    def test_identity_for_mha(self):
        x = np.ones((1, 4, 3, 2))
        assert expand_kv(x, 1) is x

    def test_gqa_repeat(self):
        x = np.arange(4).reshape(1, 2, 2, 1).astype(float)
        y = expand_kv(x, 2)
        assert y.shape == (1, 4, 2, 1)
        assert (y[0, 0] == y[0, 1]).all()
        assert (y[0, 2] == y[0, 3]).all()


class TestMask:
    def test_causal(self):
        causal, evict = build_score_mask(np.arange(3), np.arange(3), None)
        assert causal.shape == (3, 3) and evict is None
        assert causal[0, 1] < -1e8  # future masked
        assert causal[2, 0] == 0.0

    def test_eviction_mask(self):
        keep = np.ones((1, 1, 3), dtype=bool)
        keep[0, 0, 1] = False
        causal, evict = build_score_mask(np.array([2]), np.arange(3), keep)
        assert causal is None  # no key lies in the query's future
        assert evict.shape == (1, 1, 1, 3)
        assert evict[0, 0, 0, 1] < -1e8
        assert evict[0, 0, 0, 0] == 0.0

    def test_nothing_masked_gives_none(self):
        """A decode query over a fully retained cache needs no mask."""
        keep = np.ones((2, 1, 5), dtype=bool)
        masks = build_score_mask(np.array([4]), np.arange(5), keep)
        assert masks == (None, None)


class TestEquivalence:
    @pytest.mark.parametrize("gqa", [1, 2])
    @pytest.mark.parametrize("tile", [4, 16, 128])
    def test_flash_matches_naive(self, gqa, tile):
        rng = np.random.default_rng(0)
        h, kvh = 4, 4 // gqa
        q, k, v = _random_qkv(rng, 2, h, kvh, 5, 37, 8)
        q_pos = np.arange(32, 37)
        k_pos = np.arange(37)
        biases = [HeadBias("none", 0)] * h
        out_n, _ = naive_attention(q, k, v, q_pos, k_pos, biases, gqa_group=gqa)
        out_f = flash_attention(
            q, k, v, q_pos, k_pos, biases, gqa_group=gqa, tile=tile
        )
        np.testing.assert_allclose(out_n, out_f, rtol=1e-4, atol=1e-5)

    def test_flash_matches_naive_with_biases_and_eviction(self):
        rng = np.random.default_rng(1)
        q, k, v = _random_qkv(rng, 2, 4, 4, 3, 29, 8)
        q_pos = np.arange(26, 29)
        k_pos = np.arange(29)
        biases = [
            HeadBias("prev_token", 20.0),
            HeadBias("recency", 0.01),
            HeadBias("sink", 4.0),
            HeadBias("none", 0.0),
        ]
        keep = rng.random((2, 4, 29)) > 0.3
        keep[:, :, -3:] = True  # keep recent
        out_n, _ = naive_attention(q, k, v, q_pos, k_pos, biases, keep=keep)
        out_f = flash_attention(q, k, v, q_pos, k_pos, biases, keep=keep, tile=7)
        np.testing.assert_allclose(out_n, out_f, rtol=1e-4, atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 48),
        sq=st.integers(1, 6),
        tile=st.integers(2, 64),
    )
    def test_flash_naive_property(self, seed, n, sq, tile):
        """Property: streaming softmax == materialized softmax."""
        rng = np.random.default_rng(seed)
        q, k, v = _random_qkv(rng, 1, 2, 2, sq, n, 4)
        q_pos = np.arange(n - sq, n)
        k_pos = np.arange(n)
        biases = [HeadBias("none", 0)] * 2
        out_n, _ = naive_attention(q, k, v, q_pos, k_pos, biases)
        out_f = flash_attention(q, k, v, q_pos, k_pos, biases, tile=tile)
        np.testing.assert_allclose(out_n, out_f, rtol=1e-3, atol=1e-4)


class TestFlashDtype:
    """Flash attention accumulates in float64 but returns the input dtype,
    so a flash-mode model keeps its float32 residual stream."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_dtype_follows_input(self, dtype):
        rng = np.random.default_rng(5)
        q, k, v = (a.astype(dtype) for a in _random_qkv(rng, 1, 2, 2, 3, 9, 8))
        out = flash_attention(
            q, k, v, np.arange(6, 9), np.arange(9), [HeadBias("none", 0)] * 2
        )
        assert out.dtype == dtype

    @pytest.mark.parametrize("impl", ["naive", "flash"])
    def test_model_logits_float32(self, impl, llama_model):
        model = FunctionalTransformer(
            llama_model.config, llama_model.weights, attention_impl=impl
        )
        tokens, starts = left_pad(
            [[1, 5, 6, 7], [1, 8, 9]], model.tokenizer.special.pad
        )
        cache = model.new_cache(2, starts)
        assert model.prefill(tokens, cache, None).dtype == np.float32
        assert model.decode_step(np.array([5, 6]), cache, None).dtype == np.float32


class TestProbabilities:
    def test_probs_normalized(self):
        rng = np.random.default_rng(2)
        q, k, v = _random_qkv(rng, 2, 4, 4, 3, 20, 8)
        _, probs = naive_attention(
            q, k, v, np.arange(17, 20), np.arange(20),
            [HeadBias("none", 0)] * 4,
        )
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)

    def test_causality_in_probs(self):
        rng = np.random.default_rng(3)
        q, k, v = _random_qkv(rng, 1, 2, 2, 4, 10, 8)
        q_pos = np.arange(4)  # early queries
        _, probs = naive_attention(
            q, k, v, q_pos, np.arange(10), [HeadBias("none", 0)] * 2
        )
        # query at position 0 can only attend key 0
        assert probs[0, 0, 0, 0] == pytest.approx(1.0)
        assert probs[0, 0, 0, 1:].sum() == pytest.approx(0.0, abs=1e-6)

    def test_evicted_get_zero_mass(self):
        rng = np.random.default_rng(4)
        q, k, v = _random_qkv(rng, 1, 2, 2, 1, 10, 8)
        keep = np.ones((1, 2, 10), dtype=bool)
        keep[0, :, 3] = False
        _, probs = naive_attention(
            q, k, v, np.array([9]), np.arange(10),
            [HeadBias("none", 0)] * 2, keep=keep,
        )
        assert probs[0, :, 0, 3].max() < 1e-6
