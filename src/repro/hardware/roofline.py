"""Roofline operator timing.

Every operator executed by an engine model is reduced to a tuple of
(FLOPs, bytes moved, kernel launches, access pattern).  Its execution
time is::

    t = max(flops / (peak_flops * eff_compute),
            bytes / (bandwidth * eff_pattern)) + launches * launch_overhead

Access-pattern efficiency captures how much of peak DRAM bandwidth an
access shape can realize: contiguous streaming reads reach ~80-90%,
paged-block gathers slightly less, group-quantized layouts with
interleaved scale/zero metadata less again, and irregular sparse gathers
(e.g. GEAR outlier reads, H2O post-eviction holes) the least.  These
factors are the mechanism behind the paper's Observation 2: fine-grained
compression designs forfeit GPU efficiency even when they move fewer
bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.hardware.specs import GPUSpec


class AccessPattern(enum.Enum):
    """DRAM access shape of an operator, mapped to bandwidth efficiency."""

    STREAM = "stream"            # long contiguous reads/writes (GEMM weights)
    CONTIGUOUS_KV = "contig_kv"  # per-sequence contiguous KV cache
    PAGED_KV = "paged_kv"        # block-table indirection (PagedAttention)
    GROUP_QUANT = "group_quant"  # quantized payload + interleaved scales
    SPARSE_GATHER = "sparse"     # irregular gathers (outliers, evicted holes)


#: Fraction of peak DRAM bandwidth achievable for each access pattern.
BANDWIDTH_EFFICIENCY: Dict[AccessPattern, float] = {
    AccessPattern.STREAM: 0.85,
    AccessPattern.CONTIGUOUS_KV: 0.80,
    AccessPattern.PAGED_KV: 0.76,
    AccessPattern.GROUP_QUANT: 0.62,
    AccessPattern.SPARSE_GATHER: 0.45,
}

#: Fraction of peak compute achievable, by unit.
COMPUTE_EFFICIENCY = {
    "tensor": 0.58,   # large GEMMs (prefill projections / MLP)
    "tensor_small": 0.30,  # skinny decode GEMMs before becoming BW-bound
    "vector": 0.50,   # softmax, quant/dequant, top-k, elementwise
}


@dataclass
class OpCost:
    """Cost description of a single logical operator.

    ``flops``/``bytes`` are totals for the operator; ``launches`` counts
    kernel launches it needs (fused implementations need fewer).
    """

    name: str
    flops: float = 0.0
    bytes: float = 0.0
    launches: int = 1
    pattern: AccessPattern = AccessPattern.STREAM
    compute_unit: str = "tensor"

    def scaled(self, factor: float) -> "OpCost":
        """Return a copy with flops/bytes scaled (launches unchanged)."""
        return OpCost(
            name=self.name,
            flops=self.flops * factor,
            bytes=self.bytes * factor,
            launches=self.launches,
            pattern=self.pattern,
            compute_unit=self.compute_unit,
        )


@dataclass
class OpTiming:
    """Resolved execution time of one operator on a device."""

    name: str
    seconds: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float

    @property
    def bound(self) -> str:
        """Whether the op is compute-, memory-, or overhead-bound."""
        parts = {
            "compute": self.compute_seconds,
            "memory": self.memory_seconds,
            "overhead": self.overhead_seconds,
        }
        return max(parts, key=parts.get)


class Roofline:
    """Maps :class:`OpCost` descriptions to times on a :class:`GPUSpec`."""

    def __init__(
        self,
        gpu: GPUSpec,
        bandwidth_efficiency: Optional[Dict[AccessPattern, float]] = None,
        compute_efficiency: Optional[Dict[str, float]] = None,
    ) -> None:
        self.gpu = gpu
        self.bw_eff = dict(BANDWIDTH_EFFICIENCY)
        if bandwidth_efficiency:
            self.bw_eff.update(bandwidth_efficiency)
        self.comp_eff = dict(COMPUTE_EFFICIENCY)
        if compute_efficiency:
            self.comp_eff.update(compute_efficiency)
        # the products time_op divides by, computed once (same floats)
        self._tensor_peak = {
            unit: gpu.tensor_flops * self.comp_eff[unit]
            for unit in ("tensor", "tensor_small")
        }
        self._vector_peak = gpu.vector_flops * self.comp_eff["vector"]
        self._bandwidth = {
            pattern: gpu.mem_bandwidth * eff
            for pattern, eff in self.bw_eff.items()
        }

    def _parts(self, op: OpCost) -> Tuple[float, float, float]:
        """``(compute, memory, overhead)`` seconds of one operator."""
        compute_s = (
            op.flops / self._tensor_peak.get(op.compute_unit, self._vector_peak)
            if op.flops else 0.0
        )
        memory_s = op.bytes / self._bandwidth[op.pattern] if op.bytes else 0.0
        overhead_s = op.launches * self.gpu.kernel_launch_overhead
        return compute_s, memory_s, overhead_s

    def _seconds(self, op: OpCost) -> float:
        compute_s, memory_s, overhead_s = self._parts(op)
        return max(compute_s, memory_s) + overhead_s

    def time_op(self, op: OpCost) -> OpTiming:
        """Time one operator."""
        compute_s, memory_s, overhead_s = self._parts(op)
        return OpTiming(
            name=op.name,
            seconds=max(compute_s, memory_s) + overhead_s,
            compute_seconds=compute_s,
            memory_seconds=memory_s,
            overhead_seconds=overhead_s,
        )

    def total_seconds(self, ops: Iterable[OpCost]) -> float:
        """Sum of operator times (sequential execution model).

        Added strictly left to right: builtin ``sum()`` of floats is
        compensated (Neumaier) from Python 3.12 on, which would make
        every price depend on the interpreter version.
        """
        total = 0.0
        for op in ops:
            total += self._seconds(op)
        return total

    def breakdown(self, ops: Iterable[OpCost]) -> Dict[str, float]:
        """Per-operator-name total seconds, for Fig. 3-style analysis."""
        out: Dict[str, float] = {}
        for op in ops:
            out[op.name] = out.get(op.name, 0.0) + self._seconds(op)
        return out
