"""GPU device specifications used by the roofline cost model.

Numbers are taken from vendor datasheets.  ``tensor_flops`` is the dense
FP16 tensor-core peak; ``vector_flops`` is the FP32/FP16 CUDA-core peak
used for non-GEMM elementwise work (softmax, quant/dequant, top-k).
Efficiency factors (fraction of peak achievable by well-tuned kernels)
live in :mod:`repro.hardware.roofline`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU device.

    Attributes
    ----------
    name:
        Human-readable device name (``"A6000"``).
    memory_bytes:
        HBM/GDDR capacity in bytes.
    mem_bandwidth:
        Peak DRAM bandwidth in bytes/second.
    tensor_flops:
        Peak dense FP16 tensor-core throughput in FLOP/s.
    vector_flops:
        Peak CUDA-core throughput (FLOP/s) for elementwise/softmax work.
    sram_bytes:
        Total usable on-chip SRAM (shared memory + L1) in bytes.  Used by
        the FlashAttention tiling model.
    kernel_launch_overhead:
        Fixed host-side cost of launching one kernel, in seconds.
    nvlink_bandwidth:
        Per-direction NVLink bandwidth in bytes/second (0 if absent).
    """

    name: str
    memory_bytes: float
    mem_bandwidth: float
    tensor_flops: float
    vector_flops: float
    sram_bytes: float = 20 * 2**20
    kernel_launch_overhead: float = 5e-6
    nvlink_bandwidth: float = 0.0

    @property
    def memory_gb(self) -> float:
        """Device memory in GiB."""
        return self.memory_bytes / 2**30

    def ridge_intensity(self) -> float:
        """Arithmetic intensity (FLOP/byte) at the roofline ridge point."""
        return self.tensor_flops / self.mem_bandwidth


A6000 = GPUSpec(
    name="A6000",
    memory_bytes=48 * 2**30,
    mem_bandwidth=768e9,
    tensor_flops=154.8e12,
    vector_flops=38.7e12,
    sram_bytes=10.5 * 2**20,
    kernel_launch_overhead=6e-6,
    nvlink_bandwidth=56.25e9,  # NVLink bridge, per direction
)

H800 = GPUSpec(
    name="H800",
    memory_bytes=80 * 2**30,
    mem_bandwidth=3.35e12,
    tensor_flops=989e12,
    vector_flops=67e12,
    sram_bytes=33 * 2**20,
    kernel_launch_overhead=4e-6,
    nvlink_bandwidth=200e9,  # H800 has export-reduced NVLink
)

A100_80G = GPUSpec(
    name="A100-80G",
    memory_bytes=80 * 2**30,
    mem_bandwidth=2.039e12,
    tensor_flops=312e12,
    vector_flops=78e12,
    sram_bytes=27 * 2**20,
    kernel_launch_overhead=5e-6,
    nvlink_bandwidth=300e9,
)

_REGISTRY = {g.name.lower(): g for g in (A6000, H800, A100_80G)}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by (case-insensitive) name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown GPU {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def list_gpus() -> list:
    """Names of all registered GPUs."""
    return sorted(_REGISTRY)
