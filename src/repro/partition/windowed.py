"""Windowed node traces over out-of-core (sharded) matrices.

A :class:`~repro.partition.oned.NodeTrace` pins the node's full idx
scan in RAM.  At sharded scales the scan lives on disk already — the
shard store keeps nonzeros in canonical (row-major) order, which is
exactly trace order — so a node's trace is just a *window*
``[k0, k1)`` of the global nonzero stream.  :class:`WindowedNodeTrace`
materializes that window (and its derived selections) lazily and can
``release()`` it afterwards, keeping the resident set bounded by the
largest single node window instead of the whole matrix.

Both trace types share :class:`~repro.partition.oned.TraceSelections`:
the remote nonzeros are the idxs outside the node's own column block,
only those get an owner (a ``searchsorted`` over ``col_starts``, no
O(n_cols) owner array), and the remote, distinct-remote and distinct
counts are made by a trace's first read of its window and survive
:meth:`release`.

:func:`build_partition` picks the partition class by storage tier;
:func:`balanced_by_nnz` places the blocks of either class from the
matrix's per-row nnz histogram.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.partition.oned import (
    BlockPartition,
    OneDPartition,
    TraceSelections,
    _balanced_row_starts,
    _check_partition,
    span_distinct_count,
)
from repro.sparse.shards import ShardedCOOMatrix, is_sharded

__all__ = [
    "ShardedOneDPartition",
    "WindowedNodeTrace",
    "balanced_by_nnz",
    "build_partition",
    "col_owner_array",
]


class WindowedNodeTrace(TraceSelections):
    """Drop-in :class:`NodeTrace` twin backed by an on-disk window.

    Exposes the same attributes and counts through the shared
    :class:`~repro.partition.oned.TraceSelections`; ``idxs`` and every
    derived selection are materialized on first touch and dropped by
    :meth:`release`.  ``source`` is the
    :class:`~repro.sparse.shards.ShardedCOOMatrix` whose
    ``cols_slice(start, stop)`` reads the window.
    """

    __slots__ = ("_source", "_k0", "_k1")

    def __init__(self, node: int, source, k0: int, k1: int,
                 col_starts: np.ndarray):
        super().__init__(node, col_starts)
        self._source = source
        self._k0 = int(k0)
        self._k1 = int(k1)

    @property
    def n_nonzeros(self) -> int:
        return self._k1 - self._k0

    @property
    def idxs(self) -> np.ndarray:
        return self._selected("idxs", self._read)

    def _read(self) -> np.ndarray:
        """Read the window; the trace's first read also makes its three
        counts, so no count ever reads it again."""
        idxs = self._source.cols_slice(self._k0, self._k1)
        if self._n_distinct is None:
            remote_idxs = idxs[self._remote_mask(idxs)]
            self._n_remote = int(remote_idxs.size)
            self._n_remote_distinct = span_distinct_count(remote_idxs)
            self._n_distinct = span_distinct_count(idxs)
        return idxs

    # A window was counted when it was first read, so a missing count
    # means a window never read: one transient read makes all three.
    _count_remote = _count_distinct = _read

    def scan_remote_idxs(self) -> np.ndarray:
        """The remote idxs of the resident window, else of a transient
        read that pins nothing."""
        if "idxs" in self._cache:
            return self.remote_idxs
        idxs = self._read()
        return idxs[self._remote_mask(idxs)]

    def resident_idxs(self) -> int:
        """Idx elements held in RAM: the window once read, else 0."""
        idxs = self._cache.get("idxs")
        return 0 if idxs is None else int(idxs.size)

    def release(self) -> None:
        """Drop every materialized window (reloadable on next touch);
        the counts are kept."""
        self._cache.clear()


class ShardedOneDPartition(BlockPartition):
    """1D row-block partition of a sharded matrix.

    Same geometry and API as :class:`~repro.partition.oned.OneDPartition`
    (``row_starts`` / ``col_starts`` / ``node_traces()`` /
    ``node_nnz()`` / property scatter-gather), but never materializes
    the matrix: traces are :class:`WindowedNodeTrace` windows.
    """

    def __init__(self, matrix: ShardedCOOMatrix, n_nodes: int,
                 row_starts: Optional[np.ndarray] = None):
        super().__init__(matrix, n_nodes, row_starts)
        self._trace_offsets: Optional[np.ndarray] = None

    def trace_offsets(self) -> np.ndarray:
        """Node boundaries in the global canonical nonzero stream."""
        if self._trace_offsets is None:
            offsets = np.empty(self.n_nodes + 1, dtype=np.int64)
            offsets[0] = 0
            offsets[-1] = self.matrix.nnz
            for p in range(1, self.n_nodes):
                offsets[p] = self.matrix.nnz_before_row(
                    int(self.row_starts[p])
                )
            self._trace_offsets = offsets
        return self._trace_offsets

    def node_nnz(self) -> np.ndarray:
        return np.diff(self.trace_offsets())

    def node_traces(self) -> List[WindowedNodeTrace]:
        """Windowed per-node scan traces (lazy, bounded-resident).

        Shards hold nonzeros in canonical row-major order — the same
        ``(row, col)`` sort :meth:`OneDPartition.node_traces` applies —
        so node ``p``'s idx stream is exactly the column window between
        its row-boundary offsets.
        """
        if self._traces is None:
            offsets = self.trace_offsets()
            self._traces = [
                WindowedNodeTrace(p, self.matrix, offsets[p], offsets[p + 1],
                                  self.col_starts)
                for p in range(self.n_nodes)
            ]
        return self._traces


def build_partition(matrix, n_nodes: int, kind: str = "rows",
                    row_starts: Optional[np.ndarray] = None):
    """Partition ``matrix`` in the class of its storage tier.

    Dense matrices get a :class:`OneDPartition`, sharded ones a
    :class:`ShardedOneDPartition`.  Blocks are equal row counts, the
    nnz quantiles of :func:`balanced_by_nnz` for ``kind="nnz"``, or
    ``row_starts``, which overrides ``kind``.
    """
    cls = ShardedOneDPartition if is_sharded(matrix) else OneDPartition
    if row_starts is None and kind == "nnz":
        _check_partition(matrix, n_nodes)
        row_starts = _balanced_row_starts(matrix.row_degrees(),
                                          matrix.n_rows, n_nodes)
    return cls(matrix, n_nodes, row_starts=row_starts)


def balanced_by_nnz(matrix, n_nodes: int):
    """Nonzero-balanced contiguous 1D partition (§9.4 future work).

    Equal-row blocks leave the nodes owning dense row ranges with far
    more nonzeros (and communication) than the rest — the inter-node
    imbalance of Figure 19.  This partitioner instead places the block
    boundaries at equal quantiles of the row-nnz prefix sum, equalizing
    per-node work while keeping the contiguity 1D partitioning needs.
    The histogram is ``matrix.row_degrees()``, which a sharded matrix
    accumulates one shard at a time.
    """
    return build_partition(matrix, n_nodes, kind="nnz")


def col_owner_array(part) -> np.ndarray:
    """Full column→owner array (int64) for consumers that index it
    densely (the packet-level DES Destination Solver)."""
    starts = part.col_starts
    return np.repeat(np.arange(starts.size - 1, dtype=np.int64),
                     np.diff(starts))
