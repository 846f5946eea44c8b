"""1D block partitioning (§2.1 of the paper).

The sparse matrix, the input property array and the output property
array are all split into contiguous row blocks, one per node.  Node
``p`` owns matrix rows (and therefore output rows) in
``[row_starts[p], row_starts[p+1])`` and input properties for the same
index range.  With this scheme output writes are always local and only
*input property reads* (the nonzeros' column ids) may be remote — these
are the Property Requests the entire paper is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from repro.sparse.matrix import COOMatrix, distinct_count

__all__ = ["OneDPartition", "NodeTrace"]


def _block_starts(n: int, parts: int) -> np.ndarray:
    """Equal-row block boundaries (first ``n % parts`` blocks +1)."""
    base, extra = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    starts = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts


def _balanced_row_starts(row_nnz: np.ndarray, n_rows: int,
                         n_nodes: int) -> np.ndarray:
    """Block boundaries at equal quantiles of the row-nnz prefix sum."""
    prefix = np.concatenate([[0], np.cumsum(row_nnz)])
    targets = np.linspace(0, prefix[-1], n_nodes + 1)
    starts = np.searchsorted(prefix, targets[1:-1], side="left")
    row_starts = np.concatenate([[0], starts, [n_rows]])
    # Boundaries must be strictly increasing even for empty stretches.
    for i in range(1, n_nodes + 1):
        if row_starts[i] <= row_starts[i - 1]:
            row_starts[i] = row_starts[i - 1] + 1
    overflow = row_starts[-1] - n_rows
    if overflow > 0:
        # Push the excess back from the tail.
        for i in range(n_nodes - 1, 0, -1):
            if row_starts[i] > row_starts[i - 1] + 1:
                shift = min(overflow, row_starts[i] - row_starts[i - 1] - 1)
                row_starts[i:] = row_starts[i:] - shift  # noqa: B909
                overflow -= shift
            if overflow == 0:
                break
    row_starts[-1] = n_rows
    return row_starts


@dataclass
class NodeTrace:
    """The per-node nonzero scan, in processing (row-major) order.

    ``idxs``   — column index (= property index) of each local nonzero.
    ``owner``  — owning node of each idx.
    ``remote`` — boolean mask: the idx is owned by another node.

    The derived views (``remote_idxs`` etc.) are cached: a trace is
    immutable once built, and every scheme walking a shared
    :class:`~repro.partition.tracecache.TraceCache` entry re-reads the
    same selections.
    """

    node: int
    idxs: np.ndarray
    owner: np.ndarray
    remote: np.ndarray
    _unique_count: Optional[int] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_nonzeros(self) -> int:
        return int(self.idxs.size)

    @cached_property
    def remote_idxs(self) -> np.ndarray:
        return self.idxs[self.remote]

    @cached_property
    def remote_owners(self) -> np.ndarray:
        return self.owner[self.remote]

    @cached_property
    def remote_pos(self) -> np.ndarray:
        """Scan positions (within ``idxs``) of the remote nonzeros."""
        return np.nonzero(self.remote)[0]

    @cached_property
    def remote_unique(self) -> np.ndarray:
        """Sorted distinct remote idxs (the node's true working set)."""
        return np.unique(self.remote_idxs)

    def unique_remote_count(self) -> int:
        if not self.remote.any():
            return 0
        return int(self.remote_unique.size)

    def unique_count(self, n_cols: int) -> int:
        """Distinct idxs in the scan (the node's compute working set),
        counted once with a presence bitmap over ``[0, n_cols)``."""
        if self._unique_count is None:
            self._unique_count = distinct_count((self.idxs,), n_cols)
        return self._unique_count


class OneDPartition:
    """Contiguous 1D row-block partition of a square-ish sparse matrix.

    Rows are distributed as evenly as possible (the first
    ``n_rows % n_nodes`` nodes get one extra row).  Input properties are
    partitioned by the same boundaries over the *column* space, which
    requires n_cols == n_rows (true for all benchmark matrices); a
    rectangular matrix partitions columns independently.
    """

    def __init__(self, matrix: COOMatrix, n_nodes: int,
                 row_starts: Optional[np.ndarray] = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if n_nodes > matrix.n_rows:
            raise ValueError(
                f"more nodes ({n_nodes}) than matrix rows ({matrix.n_rows})"
            )
        self.matrix = matrix
        self.n_nodes = n_nodes
        if row_starts is not None:
            row_starts = np.asarray(row_starts, dtype=np.int64)
            if (row_starts.size != n_nodes + 1
                    or row_starts[0] != 0
                    or row_starts[-1] != matrix.n_rows
                    or (np.diff(row_starts) < 1).any()):
                raise ValueError("row_starts must be strictly increasing "
                                 "from 0 to n_rows with one block per node")
            self.row_starts = row_starts
        else:
            self.row_starts = self._block_starts(matrix.n_rows, n_nodes)
        self.col_starts = (
            self.row_starts
            if matrix.n_cols == matrix.n_rows
            else self._block_starts(matrix.n_cols, n_nodes)
        )
        # Owner lookup for every column id (int16 is plenty for <=32k nodes).
        self.col_owner = np.empty(matrix.n_cols, dtype=np.int32)
        for p in range(n_nodes):
            self.col_owner[self.col_starts[p] : self.col_starts[p + 1]] = p
        self.row_owner_of = np.searchsorted(
            self.row_starts, np.arange(matrix.n_rows), side="right"
        ) - 1
        self._traces: Optional[List] = None
        self._spill: Optional[tuple] = None
        self._on_reload = None

    _block_starts = staticmethod(_block_starts)

    def rows_of(self, node: int) -> range:
        return range(int(self.row_starts[node]), int(self.row_starts[node + 1]))

    def owner_of_col(self, col: int) -> int:
        return int(self.col_owner[col])

    def node_nnz(self) -> np.ndarray:
        """Number of nonzeros assigned to each node."""
        row_owner = self.row_owner_of[self.matrix.rows]
        return np.bincount(row_owner, minlength=self.n_nodes)

    def node_traces(self) -> List[NodeTrace]:
        """Every node's nonzero scan trace in row-major order.

        This is the idx stream a node's cores (software SA) or RIG Units
        (NetSparse) walk through; all communication analyses start here.
        Built once per partition instance and memoized — traces are
        immutable, and sweeps revisit them for every scheme/knob point.
        """
        if self._traces is not None:
            return self._traces
        if self._spill is not None:
            return self._reload_spilled()
        mat = self.matrix
        order = np.argsort(mat.rows * mat.n_cols + mat.cols, kind="stable")
        rows_sorted = mat.rows[order]
        cols_sorted = mat.cols[order]
        # Split points between nodes in the sorted nonzero stream.
        split = np.searchsorted(rows_sorted, self.row_starts[1:-1], side="left")
        idx_chunks = np.split(cols_sorted, split)
        traces = []
        for node, idxs in enumerate(idx_chunks):
            owner = self.col_owner[idxs]
            remote = owner != node
            traces.append(NodeTrace(node, idxs, owner, remote))
        self._traces = traces
        return traces

    # -- spill tier ----------------------------------------------------

    @property
    def is_spilled(self) -> bool:
        return self._spill is not None

    def spill(self, path: str, on_reload=None) -> int:
        """Write the built traces' idx streams to ``path`` and drop
        them from RAM.

        The spill file is the concatenated per-node idx stream (one
        ``.npy``); owners and remote masks are recomputed per window on
        reload, so nothing else needs persisting.  Returns the number
        of idx elements spilled (0 when traces were never built —
        they'd be rebuilt from the matrix anyway).
        """
        if self._traces is None:
            return 0
        if self._spill is None:
            traces = self._traces
            offsets = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum([tr.idxs.size for tr in traces], out=offsets[1:])
            out = np.lib.format.open_memmap(
                path, mode="w+", dtype=np.int64, shape=(int(offsets[-1]),)
            )
            for tr, k0 in zip(traces, offsets[:-1]):
                out[k0:k0 + tr.idxs.size] = tr.idxs
            out.flush()
            del out
            self._spill = (path, offsets)
        spilled = int(self._spill[1][-1])
        self._traces = None
        self._on_reload = on_reload if on_reload is not None else self._on_reload
        return spilled

    def _reload_spilled(self) -> List:
        from repro.partition.windowed import WindowedNodeTrace, _SpillSource

        path, offsets = self._spill
        source = _SpillSource(path)
        self._traces = [
            WindowedNodeTrace(p, source, offsets[p], offsets[p + 1],
                              self.col_starts)
            for p in range(self.n_nodes)
        ]
        if self._on_reload is not None:
            self._on_reload(self)
        return self._traces

    def resident_trace_nnz(self) -> int:
        """Idx elements currently held in RAM by this partition."""
        if self._traces is None:
            return 0
        total = 0
        for tr in self._traces:
            if isinstance(tr, NodeTrace):
                total += tr.idxs.size
            else:
                total += tr.resident_nnz()
        return total

    # -- distributed property array helpers ---------------------------

    def scatter_properties(self, b: np.ndarray) -> List[np.ndarray]:
        """Split the global input property array into per-node shards."""
        return [
            b[self.col_starts[p] : self.col_starts[p + 1]]
            for p in range(self.n_nodes)
        ]

    def gather_outputs(self, shards: List[np.ndarray]) -> np.ndarray:
        """Concatenate per-node output shards back into the global array."""
        if len(shards) != self.n_nodes:
            raise ValueError("one shard per node required")
        return np.concatenate(shards, axis=0)


def balanced_by_nnz(matrix: COOMatrix, n_nodes: int) -> OneDPartition:
    """Nonzero-balanced contiguous 1D partition (§9.4 future work).

    Equal-row blocks leave the nodes owning dense row ranges with far
    more nonzeros (and communication) than the rest — the inter-node
    imbalance of Figure 19.  This partitioner instead places the block
    boundaries at equal quantiles of the row-nnz prefix sum, equalizing
    per-node work while keeping the contiguity 1D partitioning needs.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if n_nodes > matrix.n_rows:
        raise ValueError("more nodes than matrix rows")
    row_nnz = np.bincount(matrix.rows, minlength=matrix.n_rows)
    row_starts = _balanced_row_starts(row_nnz, matrix.n_rows, n_nodes)
    return OneDPartition(matrix, n_nodes, row_starts=row_starts)
