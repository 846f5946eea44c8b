"""Numerically real distributed kernel execution.

This is the functional counterpart of the timing models: it actually
*runs* SpMM / SpMV / SDDMM the way the distributed system would — every
node computes on its 1D partition using only its own property shard
plus the remote properties delivered by the (filtered, coalesced)
NetSparse gather — and returns the numeric result together with the
communication statistics.  The output is bit-identical to the
single-node reference kernels by construction, which is the
reproduction's core correctness invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import NetSparseConfig
from repro.core.filtering import FilterResult, filter_and_coalesce
from repro.partition import BlockPartition, cached_partition
from repro.sparse.matrix import COOMatrix, coord_keys
from repro.sparse.shards import as_coo

__all__ = ["DistributedRun", "distributed_spmm", "distributed_spmv",
           "distributed_sddmm"]


@dataclass
class DistributedRun:
    """Numeric output plus gather accounting of a distributed kernel."""

    output: np.ndarray
    n_nodes: int
    pr_candidates: int            # remote nonzero references scanned
    prs_issued: int               # after filtering/coalescing
    properties_moved: int         # distinct remote properties delivered

    @property
    def fc_rate(self) -> float:
        if self.pr_candidates == 0:
            return 0.0
        return 1.0 - self.prs_issued / self.pr_candidates


def _gather_node_properties(
    trace,
    source: np.ndarray,
    config: NetSparseConfig,
    part: BlockPartition,
    node: int,
) -> tuple:
    """Fetch one node's remote properties through the filter pipeline.

    Returns the node's property table (zeros outside what it owns or
    fetched — touching those would be a correctness bug the tests would
    catch) and the gather counters.
    """
    remote_idx = trace.remote_idxs
    fr: FilterResult = filter_and_coalesce(
        remote_idx,
        n_units=config.n_client_units,
        batch_size=max(remote_idx.size // (config.n_client_units * 2), 1),
        inflight_window=max(remote_idx.size // 32, 1),
    )
    fetched = np.unique(remote_idx[fr.issued_mask])
    needed = np.unique(remote_idx)
    if not np.array_equal(fetched, needed):
        raise AssertionError(
            "filter/coalesce dropped a first request — invariant broken"
        )
    table = np.zeros_like(source)
    lo, hi = part.col_starts[node], part.col_starts[node + 1]
    table[lo:hi] = source[lo:hi]
    table[fetched] = source[fetched]
    return table, remote_idx.size, fr.n_issued, fetched.size


def _run_distributed(matrix: COOMatrix, source: np.ndarray, n_nodes: int,
                     config: Optional[NetSparseConfig], output: np.ndarray,
                     compute) -> DistributedRun:
    """Gather each node's remote ``source`` rows through the filter
    pipeline, then ``compute(sel, rows, cols, vals, table)`` its share
    of the nonzeros in canonical (row, col) order (``sel`` masks them)
    into ``output``."""
    config = config or NetSparseConfig(n_nodes=n_nodes)
    part = cached_partition(matrix, n_nodes)
    vals = (
        matrix.vals
        if matrix.vals is not None
        else np.ones(matrix.nnz, dtype=np.float64)
    )
    order = np.argsort(coord_keys(matrix.n_cols, matrix.rows, matrix.cols),
                       kind="stable")
    rows_s, cols_s, vals_s = (matrix.rows[order], matrix.cols[order],
                              vals[order])
    candidates = issued = moved = 0
    for node, trace in enumerate(part.node_traces()):
        table, n_cand, n_iss, n_moved = _gather_node_properties(
            trace, source, config, part, node
        )
        candidates += n_cand
        issued += n_iss
        moved += n_moved
        row_lo, row_hi = part.row_starts[node], part.row_starts[node + 1]
        sel = (rows_s >= row_lo) & (rows_s < row_hi)
        compute(sel, rows_s[sel], cols_s[sel], vals_s[sel], table)
    return DistributedRun(
        output=output,
        n_nodes=n_nodes,
        pr_candidates=candidates,
        prs_issued=issued,
        properties_moved=moved,
    )


def distributed_spmm(
    matrix: COOMatrix,
    b: np.ndarray,
    n_nodes: int,
    config: Optional[NetSparseConfig] = None,
) -> DistributedRun:
    """Distributed ``C = A @ B`` over ``n_nodes`` 1D partitions."""
    matrix = as_coo(matrix)   # numeric execution indexes the full arrays
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        b = b[:, None]
    if b.shape[0] != matrix.n_cols:
        raise ValueError(f"b must have {matrix.n_cols} rows")
    out = np.zeros((matrix.n_rows, b.shape[1]))

    def compute(sel, rows, cols, vals, table):
        np.add.at(out, rows, vals[:, None] * table[cols])

    return _run_distributed(matrix, b, n_nodes, config, out, compute)


def distributed_spmv(
    matrix: COOMatrix,
    x: np.ndarray,
    n_nodes: int,
    config: Optional[NetSparseConfig] = None,
) -> DistributedRun:
    """Distributed ``y = A @ x`` (K=1 SpMM)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != matrix.n_cols:
        raise ValueError(f"x must have shape ({matrix.n_cols},)")
    run = distributed_spmm(matrix, x[:, None], n_nodes, config)
    run.output = run.output[:, 0]
    return run


def distributed_sddmm(
    matrix: COOMatrix,
    u: np.ndarray,
    v: np.ndarray,
    n_nodes: int,
    config: Optional[NetSparseConfig] = None,
) -> DistributedRun:
    """Distributed SDDMM: ``out[i,j] = A[i,j] * (u[i] . v[j])``.

    Row factors ``u`` are local under 1D partitioning (like outputs);
    column factors ``v`` are the remote properties, gathered exactly
    like SpMM inputs.  Returns nonzero values in the matrix's
    canonical (row, col) order.
    """
    matrix = as_coo(matrix)   # numeric execution indexes the full arrays
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape[0] != matrix.n_rows or v.shape[0] != matrix.n_cols:
        raise ValueError("u/v row counts must match the matrix")
    if u.shape[1:] != v.shape[1:]:
        raise ValueError("u and v must share K")
    out_vals = np.zeros(matrix.nnz)

    def compute(sel, rows, cols, vals, table):
        out_vals[sel] = vals * np.einsum("ij,ij->i", u[rows], table[cols])

    return _run_distributed(matrix, v, n_nodes, config, out_vals, compute)
