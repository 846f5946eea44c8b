"""End-to-end strong-scaling model (Figures 13, 14, 21).

Combines a communication scheme's :class:`CommResult` with the per-node
compute model.  The paper notes communication and computation
"(partially) overlap"; ``overlap`` interpolates between fully serial
phases (0.0, the default — which lands NetSparse at roughly half of
the no-communication ideal, as the paper reports) and perfect overlap
(1.0, where the longer phase hides the shorter).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.accel.spade import SpadeConfig, spmm_compute_time
from repro.results import CommResult
from repro.partition import cached_partition

__all__ = ["EndToEndResult", "end_to_end_time", "single_node_time",
           "per_node_compute_times"]


@dataclass
class EndToEndResult:
    """One (matrix, K, scheme) end-to-end execution."""

    comm: CommResult
    compute_time: float        # max per-node compute time
    total_time: float
    single_node_time: float

    @property
    def speedup_over_single_node(self) -> float:
        return self.single_node_time / self.total_time

    @property
    def ideal_speedup(self) -> float:
        """Speedup of a hypothetical system with zero communication."""
        return self.single_node_time / self.compute_time

    @property
    def comm_to_comp_ratio(self) -> float:
        """Figure 14's communication / computation ratio."""
        if self.compute_time == 0:
            return float("inf")
        return self.comm.total_time / self.compute_time


def per_node_compute_times(
    matrix, k: int, n_nodes: int, accel: SpadeConfig = SpadeConfig()
) -> np.ndarray:
    """Compute time of each node's partition on the accelerator model.

    Each node's distinct-column count is computed once and cached on
    its trace, which the :class:`~repro.partition.TraceCache` keeps
    across schemes and K.
    """
    part = cached_partition(matrix, n_nodes)
    times = np.zeros(n_nodes)
    for node, tr in enumerate(part.node_traces()):
        times[node] = spmm_compute_time(
            tr.n_nonzeros, len(part.rows_of(node)),
            tr.unique_count(matrix.n_cols), k, accel,
        )
    return times


def single_node_time(
    matrix, k: int, accel: SpadeConfig = SpadeConfig()
) -> float:
    """The whole kernel on one node (no communication)."""
    return spmm_compute_time(matrix.nnz, matrix.n_rows,
                             matrix.unique_col_count(), k, accel)


def end_to_end_time(
    matrix,
    k: int,
    comm: CommResult,
    accel: SpadeConfig = SpadeConfig(),
    overlap: float = 0.0,
) -> EndToEndResult:
    """End-to-end time of one iteration: compute + (1-overlap) * comm."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    compute = float(per_node_compute_times(matrix, k, comm.n_nodes,
                                           accel).max())
    serial = compute + comm.total_time
    overlapped = max(compute, comm.total_time)
    total = overlap * overlapped + (1.0 - overlap) * serial
    return EndToEndResult(
        comm=comm,
        compute_time=compute,
        total_time=total,
        single_node_time=single_node_time(matrix, k, accel),
    )
