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

__all__ = ["ComputeInputs", "EndToEndResult", "compute_inputs",
           "end_to_end_time", "single_node_time", "per_node_compute_times"]


@dataclass(frozen=True, eq=False)
class ComputeInputs:
    """Everything the compute model reads from a matrix on ``n_nodes``.

    The roofline needs three counts per partition: nonzeros, rows and
    distinct columns.  This record holds them for the whole matrix and
    for each node, so an end-to-end figure whose communication results
    are cached needs no matrix at all (the engine caches this record as
    a ``compute`` job).
    """

    nnz: int
    n_rows: int
    unique_cols: int
    node_nnz: np.ndarray           # int64 per node
    node_rows: np.ndarray          # int64 per node
    node_unique_cols: np.ndarray   # int64 per node

    @property
    def n_nodes(self) -> int:
        return int(self.node_nnz.size)


def compute_inputs(matrix, n_nodes: int) -> ComputeInputs:
    """The compute model's inputs for ``matrix`` on ``n_nodes`` nodes.

    Each node's distinct-column count is computed once and cached on
    its trace, which the :class:`~repro.partition.TraceCache` keeps
    across schemes and K.
    """
    from repro.partition.tracecache import cached_partition

    part = cached_partition(matrix, n_nodes)
    nnz, rows, cols = np.array(
        [(tr.n_nonzeros, len(part.rows_of(node)),
          tr.unique_count())
         for node, tr in enumerate(part.node_traces())],
        dtype=np.int64,
    ).T.copy()
    return ComputeInputs(
        nnz=int(matrix.nnz), n_rows=int(matrix.n_rows),
        unique_cols=int(matrix.unique_col_count()),
        node_nnz=nnz, node_rows=rows, node_unique_cols=cols,
    )


def _inputs(source, n_nodes: int) -> ComputeInputs:
    if not isinstance(source, ComputeInputs):
        return compute_inputs(source, n_nodes)
    if source.n_nodes != n_nodes:
        raise ValueError(f"compute inputs cover {source.n_nodes} nodes, "
                         f"not {n_nodes}")
    return source


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
    source, k: int, n_nodes: int, accel: SpadeConfig = SpadeConfig()
) -> np.ndarray:
    """Compute time of each node's partition on the accelerator model.

    ``source`` is a matrix or its :class:`ComputeInputs`."""
    inp = _inputs(source, n_nodes)
    times = np.zeros(n_nodes)
    for node, (nnz, rows, cols) in enumerate(zip(
            inp.node_nnz.tolist(), inp.node_rows.tolist(),
            inp.node_unique_cols.tolist())):
        times[node] = spmm_compute_time(nnz, rows, cols, k, accel)
    return times


def single_node_time(
    source, k: int, accel: SpadeConfig = SpadeConfig()
) -> float:
    """The whole kernel on one node (no communication).

    ``source`` is a matrix or its :class:`ComputeInputs`."""
    if isinstance(source, ComputeInputs):
        nnz, rows, cols = source.nnz, source.n_rows, source.unique_cols
    else:
        nnz, rows, cols = (source.nnz, source.n_rows,
                           source.unique_col_count())
    return spmm_compute_time(nnz, rows, cols, k, accel)


def end_to_end_time(
    source,
    k: int,
    comm: CommResult,
    accel: SpadeConfig = SpadeConfig(),
    overlap: float = 0.0,
) -> EndToEndResult:
    """End-to-end time of one iteration: compute + (1-overlap) * comm.

    ``source`` is a matrix or its :class:`ComputeInputs`; a matrix is
    turned into its inputs first, so both give the same bits."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    inp = _inputs(source, comm.n_nodes)
    compute = float(per_node_compute_times(inp, k, comm.n_nodes,
                                           accel).max())
    serial = compute + comm.total_time
    overlapped = max(compute, comm.total_time)
    total = overlap * overlapped + (1.0 - overlap) * serial
    return EndToEndResult(
        comm=comm,
        compute_time=compute,
        total_time=total,
        single_node_time=single_node_time(inp, k, accel),
    )
