"""Windowed node traces over out-of-core (sharded) matrices.

A :class:`~repro.partition.oned.NodeTrace` pins the node's full idx
scan in RAM.  At sharded scales the scan lives on disk already — the
shard store keeps nonzeros in canonical (row-major) order, which is
exactly trace order — so a node's trace is just a *window*
``[k0, k1)`` of the global nonzero stream.  :class:`WindowedNodeTrace`
materializes that window (and its derived selections) lazily and can
``release()`` it afterwards, keeping the resident set bounded by the
largest single node window instead of the whole matrix.

The same window mechanism backs the trace cache's spill tier: a dense
:class:`~repro.partition.oned.OneDPartition` whose traces were spilled
to disk (:meth:`~repro.partition.oned.OneDPartition.spill`) reloads
them as windows over the spill file rather than re-sorting the matrix.

Owners are recomputed per window as
``searchsorted(col_starts, idxs, side="right") - 1`` — identical to the
dense path's ``col_owner[idxs]`` lookup (both map ``c`` to the unique
``p`` with ``col_starts[p] <= c < col_starts[p+1]``) without the
O(n_cols) owner array.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.partition.oned import (
    OneDPartition,
    _balanced_row_starts,
    _block_starts,
)
from repro.sparse.matrix import distinct_count
from repro.sparse.shards import ShardedCOOMatrix, is_sharded

__all__ = [
    "ShardedOneDPartition",
    "WindowedNodeTrace",
    "sharded_balanced_by_nnz",
]


class _SpillSource:
    """Window reads over one spilled idx stream (``.npy`` memmap)."""

    def __init__(self, path: str):
        self.path = path
        self._mm: Optional[np.ndarray] = None

    def cols_slice(self, start: int, stop: int) -> np.ndarray:
        if self._mm is None:
            self._mm = np.load(self.path, mmap_mode="r")
        return np.array(self._mm[start:stop])


class WindowedNodeTrace:
    """Drop-in :class:`NodeTrace` twin backed by an on-disk window.

    Exposes the same attributes (``idxs`` / ``owner`` / ``remote`` and
    the ``remote_*`` selections), each materialized on first touch and
    dropped by :meth:`release`.  ``source`` is anything with a
    ``cols_slice(start, stop)`` method — a
    :class:`~repro.sparse.shards.ShardedCOOMatrix` or a spill file.
    """

    __slots__ = ("node", "_source", "_k0", "_k1", "_col_starts", "_cache",
                 "_unique_count")

    def __init__(self, node: int, source, k0: int, k1: int,
                 col_starts: np.ndarray):
        self.node = node
        self._source = source
        self._k0 = int(k0)
        self._k1 = int(k1)
        self._col_starts = col_starts
        self._cache: dict = {}
        self._unique_count: Optional[int] = None

    @property
    def n_nonzeros(self) -> int:
        return self._k1 - self._k0

    @property
    def idxs(self) -> np.ndarray:
        out = self._cache.get("idxs")
        if out is None:
            out = self._source.cols_slice(self._k0, self._k1)
            self._cache["idxs"] = out
        return out

    @property
    def owner(self) -> np.ndarray:
        out = self._cache.get("owner")
        if out is None:
            out = (
                np.searchsorted(self._col_starts, self.idxs, side="right") - 1
            ).astype(np.int32)
            self._cache["owner"] = out
        return out

    @property
    def remote(self) -> np.ndarray:
        out = self._cache.get("remote")
        if out is None:
            out = self.owner != self.node
            self._cache["remote"] = out
        return out

    @property
    def remote_idxs(self) -> np.ndarray:
        out = self._cache.get("remote_idxs")
        if out is None:
            out = self.idxs[self.remote]
            self._cache["remote_idxs"] = out
        return out

    @property
    def remote_owners(self) -> np.ndarray:
        out = self._cache.get("remote_owners")
        if out is None:
            out = self.owner[self.remote]
            self._cache["remote_owners"] = out
        return out

    @property
    def remote_pos(self) -> np.ndarray:
        out = self._cache.get("remote_pos")
        if out is None:
            out = np.nonzero(self.remote)[0]
            self._cache["remote_pos"] = out
        return out

    @property
    def remote_unique(self) -> np.ndarray:
        out = self._cache.get("remote_unique")
        if out is None:
            out = np.unique(self.remote_idxs)
            self._cache["remote_unique"] = out
        return out

    def unique_remote_count(self) -> int:
        if not self.remote.any():
            return 0
        return int(self.remote_unique.size)

    def unique_count(self, n_cols: int) -> int:
        """Distinct idxs in the window, counted once.

        The count lives outside ``_cache`` so :meth:`release` keeps it.
        A window that is not resident is read transiently and not
        pinned, keeping the partition's resident set unchanged.
        """
        if self._unique_count is None:
            idxs = self._cache.get("idxs")
            if idxs is None:
                idxs = self._source.cols_slice(self._k0, self._k1)
            self._unique_count = distinct_count((idxs,), n_cols)
        return self._unique_count

    def resident_nnz(self) -> int:
        """Total elements currently materialized for this trace."""
        return sum(int(a.size) for a in self._cache.values())

    def release(self) -> None:
        """Drop every materialized window (reloadable on next touch)."""
        self._cache.clear()


class ShardedOneDPartition:
    """Contiguous 1D row-block partition of a sharded matrix.

    Mirrors the :class:`~repro.partition.oned.OneDPartition` API the
    cluster model and baselines consume (``row_starts`` /
    ``col_starts`` / ``node_traces()`` / ``node_nnz()`` / property
    scatter-gather), but never materializes the matrix: traces are
    :class:`WindowedNodeTrace` windows and there is no O(n_cols)
    ``col_owner`` array (the DES front-end, which needs one, stays
    in-memory only).
    """

    def __init__(self, matrix: ShardedCOOMatrix, n_nodes: int,
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
            self.row_starts = _block_starts(matrix.n_rows, n_nodes)
        self.col_starts = (
            self.row_starts
            if matrix.n_cols == matrix.n_rows
            else _block_starts(matrix.n_cols, n_nodes)
        )
        self._trace_offsets: Optional[np.ndarray] = None
        self._traces: Optional[List[WindowedNodeTrace]] = None

    def rows_of(self, node: int) -> range:
        return range(int(self.row_starts[node]),
                     int(self.row_starts[node + 1]))

    def owner_of_col(self, col: int) -> int:
        return int(
            np.searchsorted(self.col_starts, col, side="right") - 1
        )

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

    def resident_trace_nnz(self) -> int:
        if self._traces is None:
            return 0
        return sum(tr.resident_nnz() for tr in self._traces)

    def release_traces(self) -> int:
        """Drop every materialized window; returns elements released."""
        released = self.resident_trace_nnz()
        if self._traces is not None:
            for tr in self._traces:
                tr.release()
        return released

    # -- distributed property array helpers ---------------------------

    def scatter_properties(self, b: np.ndarray) -> List[np.ndarray]:
        return [
            b[self.col_starts[p] : self.col_starts[p + 1]]
            for p in range(self.n_nodes)
        ]

    def gather_outputs(self, shards: List[np.ndarray]) -> np.ndarray:
        if len(shards) != self.n_nodes:
            raise ValueError("one shard per node required")
        return np.concatenate(shards, axis=0)


def sharded_balanced_by_nnz(matrix: ShardedCOOMatrix,
                            n_nodes: int) -> ShardedOneDPartition:
    """Nonzero-balanced partition of a sharded matrix.

    Same quantile rule as :func:`repro.partition.oned.balanced_by_nnz`,
    with the row-nnz histogram computed by streaming the shards.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if n_nodes > matrix.n_rows:
        raise ValueError("more nodes than matrix rows")
    row_starts = _balanced_row_starts(matrix.row_nnz(), matrix.n_rows,
                                      n_nodes)
    return ShardedOneDPartition(matrix, n_nodes, row_starts=row_starts)


def build_partition(matrix, n_nodes: int, kind: str = "rows",
                    row_starts: Optional[np.ndarray] = None):
    """Storage-tier-dispatching partition factory.

    Dense matrices get :class:`OneDPartition` /
    :func:`~repro.partition.oned.balanced_by_nnz`; sharded ones the
    windowed twins.  ``row_starts`` overrides ``kind``.
    """
    from repro.partition.oned import balanced_by_nnz

    if is_sharded(matrix):
        if row_starts is not None:
            return ShardedOneDPartition(matrix, n_nodes,
                                        row_starts=row_starts)
        if kind == "nnz":
            return sharded_balanced_by_nnz(matrix, n_nodes)
        return ShardedOneDPartition(matrix, n_nodes)
    if row_starts is not None:
        return OneDPartition(matrix, n_nodes, row_starts=row_starts)
    if kind == "nnz":
        return balanced_by_nnz(matrix, n_nodes)
    return OneDPartition(matrix, n_nodes)


def col_owner_array(part) -> np.ndarray:
    """Full column→owner array for consumers that index it densely
    (the packet-level DES Destination Solver).

    Dense partitions already hold one; windowed partitions answer
    ownership by searchsorted and don't pin the O(n_cols) array, so it
    is rebuilt here from ``col_starts``.
    """
    owner = getattr(part, "col_owner", None)
    if owner is None:
        owner = np.repeat(np.arange(part.n_nodes),
                          np.diff(part.col_starts))
    return owner.astype(np.int64)
