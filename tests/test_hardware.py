"""Tests for GPU specs, roofline timing, memory model and interconnect."""

import math

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.engines import LMDEPLOY, ServingCostModel
from repro.hardware import (
    A6000,
    H800,
    A100_80G,
    AccessPattern,
    InterconnectSpec,
    MemoryModel,
    NVLINK_A6000,
    NVLINK_H800,
    OpCost,
    OutOfMemoryError,
    PCIE_GEN4,
    Roofline,
    allreduce_time,
    transfer_time,
    get_gpu,
    list_gpus,
)
from repro.hardware.memory import KVMemorySpec
from repro.hardware.roofline import BANDWIDTH_EFFICIENCY
from repro.model.arch import LLAMA_7B, LLAMA_13B, LLAMA_70B


class TestSpecs:
    def test_registry_lookup(self):
        assert get_gpu("a6000") is A6000
        assert get_gpu("H800") is H800

    def test_unknown_gpu_raises(self):
        with pytest.raises(KeyError):
            get_gpu("tpu-v5")

    def test_list_gpus_contains_all(self):
        names = list_gpus()
        assert {"a6000", "h800", "a100-80g"} <= set(names)

    def test_h800_faster_than_a6000(self):
        assert H800.mem_bandwidth > A6000.mem_bandwidth
        assert H800.tensor_flops > A6000.tensor_flops

    def test_memory_capacity(self):
        assert A6000.memory_gb == pytest.approx(48.0)
        assert H800.memory_gb == pytest.approx(80.0)

    def test_ridge_intensity_positive(self):
        for gpu in (A6000, H800, A100_80G):
            assert gpu.ridge_intensity() > 0


class TestRoofline:
    def test_memory_bound_op(self):
        r = Roofline(A6000)
        op = OpCost("x", flops=1e6, bytes=1e9)
        t = r.time_op(op)
        assert t.bound == "memory"
        assert t.seconds >= t.memory_seconds

    def test_compute_bound_op(self):
        r = Roofline(A6000)
        op = OpCost("x", flops=1e13, bytes=1e6)
        assert r.time_op(op).bound == "compute"

    def test_overhead_bound_op(self):
        r = Roofline(A6000)
        op = OpCost("x", flops=0, bytes=0, launches=100)
        t = r.time_op(op)
        assert t.bound == "overhead"
        assert t.seconds == pytest.approx(100 * A6000.kernel_launch_overhead)

    def test_access_pattern_ordering(self):
        """Worse access patterns must never be faster."""
        r = Roofline(A6000)
        base = OpCost("x", bytes=1e9, pattern=AccessPattern.STREAM)
        times = {
            p: r.time_op(OpCost("x", bytes=1e9, pattern=p)).seconds
            for p in AccessPattern
        }
        assert times[AccessPattern.SPARSE_GATHER] > times[AccessPattern.STREAM]
        assert times[AccessPattern.GROUP_QUANT] > times[AccessPattern.PAGED_KV]

    def test_bandwidth_efficiencies_within_unit(self):
        for eff in BANDWIDTH_EFFICIENCY.values():
            assert 0 < eff <= 1

    def test_total_and_breakdown_consistent(self):
        r = Roofline(A6000)
        ops = [
            OpCost("a", flops=1e9),
            OpCost("b", bytes=1e8),
            OpCost("a", bytes=5e7),
        ]
        total = r.total_seconds(ops)
        breakdown = r.breakdown(ops)
        assert set(breakdown) == {"a", "b"}
        assert sum(breakdown.values()) == pytest.approx(total)

    @pytest.mark.parametrize("algo,batch,kv", [
        ("fp16", 1, 900), ("kivi-4", 1, 803), ("gear-4", 1, 609),
        ("h2o-512", 8, 512), ("stream-512", 1, 512),
    ])
    def test_total_seconds_adds_left_to_right(self, algo, batch, kv):
        """Prices must not depend on the interpreter: builtin ``sum()``
        of floats is compensated from Python 3.12 on, and rounds these
        real decode-step op lists differently from left-to-right
        addition (the order every recorded price was made in)."""
        cm = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
        comp = (NoCompression() if algo == "fp16" else create(algo)).cost_spec()
        ops = cm._decode_ops(batch, kv, comp)
        times = [cm.roofline.time_op(op).seconds for op in ops]
        left_to_right = 0.0
        for t in times:
            left_to_right += t
        assert math.fsum(times) != left_to_right  # a rounding-sensitive list
        assert cm.roofline.total_seconds(ops) == left_to_right

    def test_scaled_op(self):
        op = OpCost("x", flops=10.0, bytes=20.0, launches=3)
        s = op.scaled(2.0)
        assert s.flops == 20.0 and s.bytes == 40.0 and s.launches == 3

    def test_compute_efficiency_override(self):
        fast = Roofline(A6000, compute_efficiency={"tensor": 0.9})
        slow = Roofline(A6000, compute_efficiency={"tensor": 0.3})
        op = OpCost("x", flops=1e13)
        assert fast.time_op(op).seconds < slow.time_op(op).seconds


class TestMemoryModel:
    def test_weights_fit_7b(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        bd = mm.breakdown(KVMemorySpec.fp16(LLAMA_7B), batch=1, kv_len=128)
        assert bd.fits
        assert 12e9 < bd.weights < 15e9  # ~13.5 GB of FP16 weights

    def test_70b_needs_tp(self):
        mm1 = MemoryModel(LLAMA_70B, A6000, tp=1)
        assert not mm1.breakdown(
            KVMemorySpec.fp16(LLAMA_70B), 1, 128
        ).fits
        mm4 = MemoryModel(LLAMA_70B, H800, tp=4)
        assert mm4.breakdown(KVMemorySpec.fp16(LLAMA_70B), 1, 128).fits

    def test_kv_grows_with_batch_and_len(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        spec = KVMemorySpec.fp16(LLAMA_7B)
        small = mm.breakdown(spec, 1, 512).kv_quantized
        big = mm.breakdown(spec, 4, 2048).kv_quantized
        assert big == pytest.approx(small * 16)

    def test_quant_transient_exceeds_fp16_peak(self):
        """Quantize-after-prefill peaks above the FP16 baseline."""
        mm = MemoryModel(LLAMA_7B, A6000)
        fp16 = KVMemorySpec.fp16(LLAMA_7B)
        quant = KVMemorySpec(
            bytes_per_token_per_layer=fp16.bytes_per_token_per_layer * 0.31,
            residual_fp16_tokens=128,
            transient_fp16_copy=True,
        )
        b, n = 8, 4096
        assert (
            mm.breakdown(quant, b, n).peak_bytes
            > mm.breakdown(fp16, b, n).peak_bytes
        )

    def test_quant_steady_state_below_fp16(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        fp16 = KVMemorySpec.fp16(LLAMA_7B)
        quant = KVMemorySpec(
            bytes_per_token_per_layer=fp16.bytes_per_token_per_layer * 0.31,
            residual_fp16_tokens=128,
            transient_fp16_copy=True,
        )
        assert (
            mm.breakdown(quant, 4, 4096).steady_bytes
            < mm.breakdown(fp16, 4, 4096).steady_bytes
        )

    def test_sparse_budget_caps_kv(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        capped = KVMemorySpec(
            bytes_per_token_per_layer=LLAMA_7B.kv_bytes_per_token_per_layer(),
            max_tokens=512,
        )
        a = mm.breakdown(capped, 4, 1024).kv_quantized
        b = mm.breakdown(capped, 4, 8192).kv_quantized
        assert a == b  # capped at the budget

    def test_check_raises_oom(self):
        mm = MemoryModel(LLAMA_13B, A6000)
        with pytest.raises(OutOfMemoryError):
            mm.check(KVMemorySpec.fp16(LLAMA_13B), batch=64, kv_len=8192)

    def test_max_batch_monotone_in_len(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        spec = KVMemorySpec.fp16(LLAMA_7B)
        assert mm.max_batch(spec, 512) >= mm.max_batch(spec, 4096)

    def test_max_batch_boundary(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        spec = KVMemorySpec.fp16(LLAMA_7B)
        b = mm.max_batch(spec, 2048)
        assert mm.breakdown(spec, b, 2048).fits
        assert not mm.breakdown(spec, b + 1, 2048).fits

    def test_invalid_args(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        with pytest.raises(ValueError):
            mm.breakdown(KVMemorySpec.fp16(LLAMA_7B), 0, 128)
        with pytest.raises(ValueError):
            MemoryModel(LLAMA_7B, A6000, tp=0)

    def test_breakdown_dict_keys(self):
        mm = MemoryModel(LLAMA_7B, A6000)
        d = mm.breakdown(KVMemorySpec.fp16(LLAMA_7B), 1, 128).as_dict()
        assert d["capacity_gib"] == pytest.approx(48.0)
        assert d["peak_gib"] > 0


class TestInterconnect:
    def test_single_gpu_free(self):
        assert allreduce_time(NVLINK_A6000, 1e6, 1) == 0.0

    def test_latency_floor(self):
        t = allreduce_time(NVLINK_A6000, 0, 4)
        assert t == pytest.approx(NVLINK_A6000.latency)

    def test_scales_with_bytes(self):
        t1 = allreduce_time(NVLINK_A6000, 1e6, 4)
        t2 = allreduce_time(NVLINK_A6000, 2e6, 4)
        assert t2 > t1

    def test_ring_factor(self):
        """2(g-1)/g volume factor: group of 2 moves half of group of inf."""
        spec = NVLINK_A6000
        b = 1e9
        t2 = allreduce_time(spec, b, 2) - spec.latency
        t8 = allreduce_time(spec, b, 8) - spec.latency
        assert t8 / t2 == pytest.approx((2 * 7 / 8) / (2 * 1 / 2))

    def test_h800_faster(self):
        assert allreduce_time(NVLINK_H800, 1e8, 4) < allreduce_time(
            NVLINK_A6000, 1e8, 4
        )

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            allreduce_time(NVLINK_A6000, -1, 2)

    def test_group_size_validated(self):
        with pytest.raises(ValueError):
            allreduce_time(NVLINK_A6000, 1e6, 0)
        with pytest.raises(ValueError):
            allreduce_time(NVLINK_A6000, 1e6, -2)

    def test_bad_bandwidth_rejected(self):
        broken = InterconnectSpec(name="broken", link_bandwidth=0.0)
        with pytest.raises(ValueError):
            allreduce_time(broken, 1e6, 4)
        with pytest.raises(ValueError):
            transfer_time(broken, 1e6)


class TestInterconnectSpecTable:
    """Pin the published link parameters the serving models price with."""

    def test_spec_values(self):
        assert NVLINK_A6000.link_bandwidth == pytest.approx(56.25e9)
        assert NVLINK_A6000.latency == pytest.approx(12e-6)
        assert NVLINK_H800.link_bandwidth == pytest.approx(200e9)
        assert NVLINK_H800.latency == pytest.approx(9e-6)
        assert PCIE_GEN4.link_bandwidth == pytest.approx(24e9)
        assert PCIE_GEN4.latency == pytest.approx(25e-6)

    def test_transfer_time_arithmetic(self):
        nbytes = 1e9
        for spec in (NVLINK_A6000, NVLINK_H800, PCIE_GEN4):
            assert transfer_time(spec, nbytes) == pytest.approx(
                spec.latency + nbytes / spec.link_bandwidth
            )

    def test_zero_bytes_pays_latency(self):
        assert transfer_time(PCIE_GEN4, 0) == pytest.approx(PCIE_GEN4.latency)

    def test_link_ordering(self):
        # faster links move the same KV payload sooner
        b = 1e8
        assert transfer_time(NVLINK_H800, b) < transfer_time(NVLINK_A6000, b)
        assert transfer_time(NVLINK_A6000, b) < transfer_time(PCIE_GEN4, b)

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            transfer_time(NVLINK_A6000, -1)
