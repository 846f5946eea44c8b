"""1D block partitioning (§2.1 of the paper).

The sparse matrix, the input property array and the output property
array are all split into contiguous row blocks, one per node.  Node
``p`` owns matrix rows (and therefore output rows) in
``[row_starts[p], row_starts[p+1])`` and input properties for the same
index range.  With this scheme output writes are always local and only
*input property reads* (the nonzeros' column ids) may be remote — these
are the Property Requests the entire paper is about.

A node's nonzeros in row-major order are one contiguous slice of a
canonical matrix, so its trace is a read-only view of that slice of the
column array, not a re-sorted copy: a stored set's traces map its
column file and hold no idx in process memory of their own.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sparse.matrix import COOMatrix, distinct_count

__all__ = ["BlockPartition", "NodeTrace", "OneDPartition",
           "TraceSelections", "span_distinct_count"]


#: Partition tokens: one per partition built, never reused.
_TOKENS = itertools.count(1)


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


def span_distinct_count(values: np.ndarray) -> int:
    """Distinct values in ``values``, counted by :func:`distinct_count`
    over their span: the minimum is subtracted, so the bitmap is as long
    as ``max - min + 1``, not the whole column space."""
    if values.size == 0:
        return distinct_count((values,), 0)
    lo = int(values.min())
    return distinct_count((values - lo,), int(values.max()) - lo + 1)


def _owners(col_starts: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """Owning node (int32) of each idx: the ``p`` with
    ``col_starts[p] <= idx < col_starts[p+1]``."""
    return (np.searchsorted(col_starts, idxs, side="right") - 1).astype(
        np.int32)


class TraceSelections:
    """The selections a node trace derives from its idx scan.

    Shared by :class:`NodeTrace` and
    :class:`~repro.partition.windowed.WindowedNodeTrace`, which supply
    ``idxs``.  ``col_starts`` are the partition's column block bounds.

    An idx is remote exactly when it falls outside the node's own
    column block ``[col_starts[node], col_starts[node+1])`` (§2.1), so
    no owner is looked up to find the remote nonzeros; only the remote
    idxs get one (``remote_owners``).  The remote count, the
    distinct-remote count (both from one scan of the remote idxs) and
    the distinct count are each computed once and kept outside
    ``_cache``; a windowed trace makes all three on its first read.
    """

    __slots__ = ("node", "_col_starts", "_cache", "_n_remote",
                 "_n_remote_distinct", "_n_distinct")

    def __init__(self, node: int, col_starts: np.ndarray):
        self.node = node
        self._col_starts = col_starts
        self._cache: dict = {}
        self._n_remote: Optional[int] = None
        self._n_remote_distinct: Optional[int] = None
        self._n_distinct: Optional[int] = None

    def _selected(self, name: str, build):
        out = self._cache.get(name)
        if out is None:
            out = build()
            self._cache[name] = out
        return out

    def _remote_mask(self, idxs: np.ndarray) -> np.ndarray:
        lo = self._col_starts[self.node]
        hi = self._col_starts[self.node + 1]
        return (idxs < lo) | (idxs >= hi)

    @property
    def n_nonzeros(self) -> int:
        return int(self.idxs.size)

    @property
    def owner(self) -> np.ndarray:
        """Owning node of every idx, built on each access and never
        held: no scheme reads it, only ``remote_owners``."""
        return _owners(self._col_starts, self.idxs)

    @property
    def remote(self) -> np.ndarray:
        """Boolean mask: the idx is owned by another node."""
        return self._selected("remote", lambda: self._remote_mask(self.idxs))

    @property
    def remote_pos(self) -> np.ndarray:
        """Scan positions (within ``idxs``) of the remote nonzeros."""
        return self._selected("remote_pos",
                              lambda: np.flatnonzero(self.remote))

    @property
    def remote_idxs(self) -> np.ndarray:
        return self._selected("remote_idxs",
                              lambda: self.idxs[self.remote])

    @property
    def remote_owners(self) -> np.ndarray:
        return self._selected(
            "remote_owners",
            lambda: _owners(self._col_starts, self.remote_idxs))

    @property
    def remote_unique(self) -> np.ndarray:
        """Sorted distinct remote idxs (the node's true working set)."""
        return self._selected("remote_unique",
                              lambda: np.unique(self.remote_idxs))

    @property
    def counted(self) -> bool:
        """Whether the remote counts are made, so that
        ``remote_count()`` reads nothing (a windowed trace makes them
        on its first read)."""
        return self._n_remote is not None

    def scan_remote_idxs(self) -> np.ndarray:
        """The remote idxs, read without pinning a window that is not
        resident (see the windowed override)."""
        return self.remote_idxs

    def _count_remote(self) -> None:
        remote_idxs = self.remote_idxs
        self._n_remote = int(remote_idxs.size)
        self._n_remote_distinct = span_distinct_count(remote_idxs)

    def _count_distinct(self) -> None:
        self._n_distinct = span_distinct_count(self.idxs)

    def remote_count(self) -> int:
        """Remote nonzeros in the scan (the node's PR candidates)."""
        if self._n_remote is None:
            self._count_remote()
        return self._n_remote

    def unique_remote_count(self) -> int:
        """Distinct remote idxs (the node's useful property transfers)."""
        if self._n_remote_distinct is None:
            self._count_remote()
        return self._n_remote_distinct

    def unique_count(self) -> int:
        """Distinct idxs in the scan (the node's compute working set)."""
        if self._n_distinct is None:
            self._count_distinct()
        return self._n_distinct


class NodeTrace(TraceSelections):
    """The per-node nonzero scan, in processing (row-major) order.

    ``idxs`` is the column index (= property index) of each local
    nonzero, a read-only array.  The derived selections (``remote``,
    ``remote_idxs`` etc.) are cached: a trace is immutable once built,
    and every scheme walking a shared
    :class:`~repro.partition.tracecache.TraceCache` entry re-reads the
    same selections.
    """

    __slots__ = ("idxs",)

    def __init__(self, node: int, idxs: np.ndarray, col_starts: np.ndarray):
        super().__init__(node, col_starts)
        self.idxs = idxs

    def resident_idxs(self) -> int:
        """Idx elements the trace holds: the whole scan, always.  For a
        view of a stored set's memmap these are mapped, and counted
        whether or not the page cache holds them."""
        return int(self.idxs.size)


#: Nonzeros per block of :func:`_row_major`'s scan (1 MiB of int64).
_ORDER_BLOCK = 1 << 17


def _row_major(matrix: COOMatrix) -> bool:
    """Whether the nonzeros are in (row, col) order, ties allowed, so
    a stable sort would leave them in place.  Scanned a block at a
    time (each block overlaps the next by one nonzero), so the check
    holds no nnz-length temporary."""
    rows, cols, n_cols = matrix.rows, matrix.cols, matrix.n_cols
    for a in range(0, max(matrix.nnz - 1, 0), _ORDER_BLOCK):
        b = min(a + _ORDER_BLOCK + 1, matrix.nnz)
        keys = rows[a:b] * n_cols + cols[a:b]
        if (keys[1:] < keys[:-1]).any():
            return False
    return True


def _read_only(idxs: np.ndarray) -> np.ndarray:
    """A plain read-only ndarray view of ``idxs`` (no copy)."""
    view = idxs.view(np.ndarray)
    view.flags.writeable = False
    return view


def _check_partition(matrix, n_nodes: int) -> None:
    """Reject idxs or scan positions past int32 (the cluster model's
    memos), before any row is read, and a node with no row block."""
    if max(matrix.n_cols, matrix.nnz) >= 2**31:
        raise ValueError("partitions need n_cols and nnz below 2**31")
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if n_nodes > matrix.n_rows:
        raise ValueError(
            f"more nodes ({n_nodes}) than matrix rows ({matrix.n_rows})"
        )


class BlockPartition:
    """Geometry of a contiguous 1D row-block partition.

    Rows are distributed as evenly as possible (the first
    ``n_rows % n_nodes`` nodes get one extra row) unless ``row_starts``
    gives the blocks.  Input properties are partitioned by the same
    boundaries over the *column* space, which requires n_cols == n_rows
    (true for all benchmark matrices); a rectangular matrix partitions
    columns independently.

    Subclasses differ only in where a node's idx stream comes from:
    :class:`OneDPartition` slices an in-memory matrix,
    :class:`~repro.partition.windowed.ShardedOneDPartition` reads
    windows of the shard store.
    """

    def __init__(self, matrix, n_nodes: int,
                 row_starts: Optional[np.ndarray] = None):
        _check_partition(matrix, n_nodes)
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
            self.row_starts = _block_starts(matrix.n_rows, n_nodes)
        self.col_starts = (
            self.row_starts
            if matrix.n_cols == matrix.n_rows
            else _block_starts(matrix.n_cols, n_nodes)
        )
        self._traces: Optional[List] = None
        #: Identity in the cluster model's memo keys, never reused.
        self.token = next(_TOKENS)
        #: SAOpt's per-rank ``(sent, served)`` counts by ``host_cores``
        #: (:func:`repro.baselines.saopt.saopt_pr_counts`).
        self.saopt_counts: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: The hybrid baseline's per-node fan-out histogram
        #: (:func:`repro.baselines.hybrid.fanout_histogram`).
        self.fanout_hist: Optional[np.ndarray] = None

    def rows_of(self, node: int) -> range:
        return range(int(self.row_starts[node]), int(self.row_starts[node + 1]))

    def owner_of_col(self, col: int) -> int:
        return int(np.searchsorted(self.col_starts, col, side="right") - 1)

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

    def resident_trace_nnz(self) -> int:
        """Idx elements its node traces hold, in RAM or mapped, counted
        alike on both storage tiers: the unit
        ``TraceCache(max_resident_nnz=)`` budgets.  Derived selections
        (``remote_idxs``, ``remote_owners``, ...) are not counted."""
        if self._traces is None:
            return 0
        return sum(tr.resident_idxs() for tr in self._traces)


class OneDPartition(BlockPartition):
    """1D row-block partition of an in-memory :class:`COOMatrix`.

    Node traces are the row-major column stream split at the row-block
    boundaries: read-only views of ``matrix.cols`` when the matrix is
    in row-major order (a stored set's view maps them from its column
    file), else of one stable sort's copy.
    """

    def __init__(self, matrix: COOMatrix, n_nodes: int,
                 row_starts: Optional[np.ndarray] = None):
        super().__init__(matrix, n_nodes, row_starts)
        self.row_owner_of = np.searchsorted(
            self.row_starts, np.arange(matrix.n_rows), side="right"
        ) - 1

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

        A matrix already in row-major order (every stored set) is not
        sorted or copied: each trace is a read-only view of its slice
        of ``matrix.cols``.  Only other input is stably sorted first.
        """
        if self._traces is not None:
            return self._traces
        mat = self.matrix
        rows, cols = mat.rows, mat.cols
        if not _row_major(mat):
            order = np.argsort(rows * mat.n_cols + cols, kind="stable")
            rows, cols = rows[order], cols[order]
        # Split points between nodes in the row-major nonzero stream.
        split = np.searchsorted(rows, self.row_starts[1:-1], side="left")
        self._traces = [
            NodeTrace(node, _read_only(idxs), self.col_starts)
            for node, idxs in enumerate(np.split(cols, split))
        ]
        return self._traces
