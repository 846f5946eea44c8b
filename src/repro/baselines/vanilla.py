"""Vanilla (un-batched) sparsity-aware communication — the Table 2 study.

The motivation experiment runs the SOTA distributed SpMM in SA-only
mode between two nodes and measures transfer rate, line utilization and
goodput for K=32.  Vanilla SA issues one RDMA read per remote nonzero
through per-PR MMIO, so execution time is the serial scan of the
nonzeros plus the per-PR software/MMIO cost; the achieved "transfer
rate" divides the payload moved by that time.  Matrices whose nonzeros
are mostly local (europe) therefore show *lower* transfer rates: the
scan time is paid for every nonzero but few bytes move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import NetSparseConfig
from repro.core.protocol import sa_pair_header_bytes
from repro.partition import cached_partition

__all__ = ["VanillaSaResult", "vanilla_sa_transfer"]

#: Per-nonzero scan cost (read idx, bounds check) on one core.
SCAN_COST_S = 5e-9
#: Vanilla per-PR cost: MMIO doorbell + descriptor + completion poll.
#: Roughly 2x the batched (Conveyors) cost the config carries.
VANILLA_PR_COST_MULT = 2.0


@dataclass
class VanillaSaResult:
    """Table 2 metrics for one matrix."""

    matrix_name: str
    transfer_rate_bytes: float    # payload bytes per second
    line_utilization: float       # wire rate / line rate
    goodput: float                # payload rate / line rate

    @property
    def transfer_rate_gbps(self) -> float:
        return self.transfer_rate_bytes * 8 / 1e9


def vanilla_sa_transfer(
    matrix,
    k: int = 32,
    n_nodes: int = 2,
    cores: int = 1,
    config: Optional[NetSparseConfig] = None,
) -> VanillaSaResult:
    """Model the 2-node vanilla-SA measurement of Table 2."""
    config = config or NetSparseConfig()
    payload = config.property_bytes(k)
    part = cached_partition(matrix, n_nodes)
    traces = part.node_traces()

    total_nnz = sum(t.n_nonzeros for t in traces)
    total_remote = sum(t.remote_count() for t in traces)
    pr_cost = config.sw_pr_cost(payload) * VANILLA_PR_COST_MULT

    time = (total_nnz * SCAN_COST_S + total_remote * pr_cost) / cores
    payload_bytes = total_remote * payload
    wire_bytes = total_remote * (payload + sa_pair_header_bytes(config))
    if time <= 0:
        raise ValueError("degenerate matrix: no scan work")
    return VanillaSaResult(
        matrix_name=matrix.name,
        transfer_rate_bytes=payload_bytes / time,
        line_utilization=wire_bytes / time / config.link_bandwidth,
        goodput=payload_bytes / time / config.link_bandwidth,
    )
