"""Multi-GPU interconnect model for tensor parallelism.

Tensor parallelism shards attention heads and MLP columns across GPUs and
inserts two all-reduces per decoder layer (after attention output
projection and after the MLP down projection).  The all-reduce time model
is the standard ring formulation: ``2 (g-1)/g * bytes / link_bw`` plus a
fixed per-collective latency.  Table 3 of the paper shows that TP shrinks
the relative speedup of KV-cache compression; in this model that emerges
because per-GPU KV traffic falls with TP while fixed overheads do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point link description for one GPU group.

    Attributes
    ----------
    name: label, e.g. ``"nvlink-a6000"``.
    link_bandwidth: per-direction bandwidth per GPU pair, bytes/s.
    latency: fixed per-collective latency in seconds (launch + sync).
    """

    name: str
    link_bandwidth: float
    latency: float = 12e-6


NVLINK_A6000 = InterconnectSpec(name="nvlink-a6000", link_bandwidth=56.25e9)
NVLINK_H800 = InterconnectSpec(name="nvlink-h800", link_bandwidth=200e9, latency=9e-6)
PCIE_GEN4 = InterconnectSpec(name="pcie-gen4", link_bandwidth=24e9, latency=25e-6)


def tp_interconnect(gpu: str, tp: int) -> Optional[InterconnectSpec]:
    """The link a ``tp``-way group of ``gpu`` all-reduces over.

    ``None`` for a single GPU; H800 groups use H800 NVLink and every
    other GPU the A6000 NVLink bridge.
    """
    if tp <= 1:
        return None
    return NVLINK_H800 if gpu.lower() == "h800" else NVLINK_A6000


def _check_bandwidth(spec: InterconnectSpec) -> None:
    if spec.link_bandwidth <= 0:
        raise ValueError(
            f"link_bandwidth must be positive, got {spec.link_bandwidth!r} "
            f"on {spec.name!r}"
        )


def allreduce_time(
    spec: InterconnectSpec, bytes_per_gpu: float, group_size: int
) -> float:
    """Ring all-reduce time for ``bytes_per_gpu`` across ``group_size`` GPUs.

    Returns 0 for a group of one (no communication).  A group of zero or
    a negative group is a caller bug, not "no communication", and a
    non-positive bandwidth would silently price every collective at
    ``inf`` (or a negative time) — both raise instead.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if group_size == 1:
        return 0.0
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    _check_bandwidth(spec)
    volume = 2.0 * (group_size - 1) / group_size * bytes_per_gpu
    return spec.latency + volume / spec.link_bandwidth


def transfer_time(spec: InterconnectSpec, nbytes: float) -> float:
    """Point-to-point transfer time for ``nbytes`` over one link.

    Prices the disaggregated prefill->decode KV handoff: one fixed
    launch/sync latency plus the payload at the link's per-direction
    bandwidth (no ring factor — a migration is a single sender/receiver
    pair, unlike the all-reduce above).  Zero bytes still pay the
    latency: the handoff is a real message.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    _check_bandwidth(spec)
    return spec.latency + nbytes / spec.link_bandwidth
