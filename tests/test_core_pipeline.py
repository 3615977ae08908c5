"""Tests for the public pipeline API and experiment scales."""

import numpy as np
import pytest

from repro import CompressedGenerationPipeline, create, current_scale
from repro.core.config import FULL, SMALL
from repro.model.sampling import Sampler


class TestPipeline:
    def test_default_construction(self):
        p = CompressedGenerationPipeline()
        assert p.algorithm == "fp16"
        assert p.arch.name == "llama-7b"

    def test_unknown_model_flavour(self):
        with pytest.raises(KeyError):
            CompressedGenerationPipeline(model="gpt-sim")

    def test_generate_roundtrip(self):
        p = CompressedGenerationPipeline("stream-512")
        tok = p.tokenizer
        sp = tok.special
        rng = np.random.default_rng(0)
        filler = [int(x) for x in rng.choice(tok.content_ids[:28], size=64)]
        key, v = 40, [50, 51, 52]
        prompt = [sp.bos] + filler + [sp.q, key] + v + [sp.sep, sp.q, key]
        out = p.generate([prompt], sampler=Sampler(greedy=True), max_new_tokens=8)
        assert out.sequences[0] == v

    def test_estimate_serving(self):
        p = CompressedGenerationPipeline("kivi-4")
        est = p.estimate_serving(batch=8, prompt_len=1024)
        assert est.prefill.seconds > 0
        assert est.decode.seconds > 0
        assert est.decode_throughput > 0
        assert est.memory.peak_bytes > est.memory.weights

    def test_estimate_detects_oom(self):
        p = CompressedGenerationPipeline("fp16")
        est = p.estimate_serving(batch=64, prompt_len=8192)
        assert est.decode.oom
        assert est.decode_throughput == 0.0

    def test_throughput_helpers_consistent(self):
        p = CompressedGenerationPipeline("stream-512")
        d = p.decode_throughput(8, 2048)
        assert d == pytest.approx(
            p.cost_model.decode_throughput(
                8, 2048, p.compressor.cost_spec()
            )
        )

    def test_max_batch_positive(self):
        p = CompressedGenerationPipeline("h2o-512")
        assert p.max_batch(2048) >= 1

    def test_sparse_pipeline_admits_larger_batches(self):
        fp = CompressedGenerationPipeline("fp16")
        sp = CompressedGenerationPipeline("stream-512")
        assert sp.max_batch(4096) > fp.max_batch(4096)

    def test_mistral_flavour(self):
        p = CompressedGenerationPipeline(model="mistral-sim", arch="mistral-7b")
        assert p.config.gqa_group == 2

    def test_tp_pipeline(self):
        p = CompressedGenerationPipeline("fp16", arch="llama-70b",
                                         gpu="h800", tp=4)
        est = p.estimate_serving(batch=4, prompt_len=2048)
        assert not est.decode.oom

    @pytest.mark.parametrize("gpu", ["a6000", "h800", "a100-80g"])
    def test_tp_link_matches_experiments(self, gpu):
        # the pipeline prices a TP group on the link the experiments use
        from repro.experiments.common import comp_spec, cost_model

        p = CompressedGenerationPipeline("kivi-4", gpu=gpu, tp=2)
        ref = cost_model("llama-7b", gpu, tp=2)
        assert p.cost_model.interconnect == ref.interconnect
        assert p.decode_throughput(16, 2048) == ref.decode_throughput(
            16, 2048, comp_spec("kivi-4")
        )


class TestScales:
    def test_scale_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() is SMALL
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert current_scale() is FULL

    def test_full_is_larger(self):
        assert FULL.sharegpt_requests > SMALL.sharegpt_requests
        assert FULL.longbench_per_task > SMALL.longbench_per_task
        assert FULL.is_full and not SMALL.is_full
