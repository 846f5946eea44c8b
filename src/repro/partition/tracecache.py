"""Process-level memoization of partitions and their scan traces.

Every scheme in a sweep — NetSparse, the software baselines, the
traffic analyses — starts from the same object: a 1D partition of a
matrix and its per-node idx scan traces.  Building one costs a scan
of the nonzeros (a sort too for input not in row-major order) plus
per-node selections, and a knob grid rebuilds it hundreds of times for
identical inputs.  The
:class:`TraceCache` shares one build per (matrix structure, node count,
partition rule) across the whole process.

Keying and invalidation rules (also documented in ``docs/api.md``):

- The matrix key is a stored set's directory (``matrix.path``, shared
  by its sharded reader and a one-shard set's view), else
  :meth:`repro.sparse.matrix.COOMatrix.structural_digest` — shape plus
  nonzero coordinates.  Values and the display name are excluded
  because traces depend only on structure, so two in-memory matrices
  with the same sparsity pattern share an entry by design.
- ``kind`` names the partition rule: ``"rows"`` (equal row blocks,
  the :class:`~repro.partition.oned.OneDPartition` default) or
  ``"nnz"`` (:func:`~repro.partition.windowed.balanced_by_nnz`).  Explicit
  ``row_starts`` are keyed by their own byte digest.
- Entries are never stale: a partition is a pure function of its key,
  and :class:`~repro.partition.oned.NodeTrace` objects are immutable.
  For a stored set that rests on the set being immutable: it is
  renamed into place whole, and
  :class:`~repro.sparse.shards.ShardWriter` refuses a directory that
  already holds a manifest, so no writer rewrites a set under a path
  the cache has keyed.
- The cache is an LRU bounded by entry count and, optionally, by
  resident trace elements (``max_resident_nnz``); evictions only cost
  a rebuild.

Workers forked by :class:`repro.parallel.engine.ExecutionEngine`
inherit whatever the parent already cached (fork start method shares
pages copy-on-write); each worker then fills its own copy for the
matrices it draws.

Counters are exported as ``perf.trace_cache.hits`` / ``.misses`` /
``.evictions`` through :mod:`repro.telemetry`.

The cache keeps no copy of its own on disk: sharded matrices' traces
are windows over the matrix store (:mod:`repro.sparse.shards`), which
is the one out-of-core tier.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.partition.oned import BlockPartition
from repro.partition.windowed import build_partition
from repro.sparse.matrix import COOMatrix

__all__ = [
    "TraceCache",
    "cached_partition",
    "get_trace_cache",
    "set_trace_cache",
]

#: Default number of (matrix, n_nodes, rule) entries kept alive.
DEFAULT_MAX_ENTRIES = 8


class TraceCache:
    """Bounded LRU of built partitions (:class:`BlockPartition` objects).

    ``get_partition`` returns a partition whose ``node_traces()`` are
    memoized on the instance, so a hit also reuses the trace arrays and
    every :class:`~repro.partition.oned.NodeTrace` selection and count.

    A new entry evicts least-recently-used ones while the cache holds
    more than ``max_entries`` entries or, with ``max_resident_nnz``
    set, more resident trace idx elements (:meth:`resident_nnz`) than
    that budget.  The newest entry is never evicted: its caller holds it
    anyway.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_resident_nnz: Optional[int] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: Resident trace budget (idx elements) across all entries;
        #: ``None`` bounds the entry count only.
        self.max_resident_nnz = (
            None if max_resident_nnz is None else int(max_resident_nnz)
        )
        self._entries: "OrderedDict[Tuple, BlockPartition]" = OrderedDict()
        self._lock = threading.Lock()
        #: Keys currently being built (misses whose construction is in
        #: flight); a second miss on one of these is a *contended*
        #: build — wasted duplicate work the engine's trace-ordered
        #: dispatch exists to avoid.
        self._building: set = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.contended_builds = 0

    @staticmethod
    def _rule_key(kind: str, row_starts: Optional[np.ndarray]) -> str:
        if row_starts is not None:
            digest = hashlib.blake2b(
                np.ascontiguousarray(row_starts, dtype=np.int64).tobytes(),
                digest_size=8,
            ).hexdigest()
            return f"explicit:{digest}"
        if kind not in ("rows", "nnz"):
            raise ValueError(
                f"unknown partition kind {kind!r}; use 'rows' or 'nnz'"
            )
        return kind

    def get_partition(
        self,
        matrix: COOMatrix,
        n_nodes: int,
        kind: str = "rows",
        row_starts: Optional[np.ndarray] = None,
    ) -> BlockPartition:
        """The cached partition for ``matrix`` under the given rule,
        building (and tracing) it on first use."""
        key = (matrix.path or matrix.structural_digest(), int(n_nodes),
               self._rule_key(kind, row_starts))
        with self._lock:
            part = self._entries.get(key)
            if part is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                telemetry.count("perf.trace_cache.hits", kind=key[2])
                return part
            self.misses += 1
            if key in self._building:
                self.contended_builds += 1
                telemetry.count("perf.trace_cache.contended_builds",
                                kind=key[2])
            self._building.add(key)
        telemetry.count("perf.trace_cache.misses", kind=key[2])
        # Build outside the lock: trace construction is the expensive
        # part, and a duplicate build on a race is merely wasted work —
        # counted above so dispatch-ordering regressions show up in
        # telemetry instead of only in wall time.  build_partition
        # picks the class by storage tier, so sharded matrices come back
        # with windowed (bounded) traces.
        try:
            part = build_partition(matrix, n_nodes, kind=kind,
                                   row_starts=row_starts)
            part.node_traces()
            with self._lock:
                self._entries[key] = part
                self._entries.move_to_end(key)
                while len(self._entries) > 1 and self._over_budget():
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    telemetry.count("perf.trace_cache.evictions")
        finally:
            with self._lock:
                self._building.discard(key)
        return part

    def resident_nnz(self) -> int:
        """Idx elements currently held in RAM across all entries."""
        return sum(p.resident_trace_nnz() for p in self._entries.values())

    def _over_budget(self) -> bool:
        return len(self._entries) > self.max_entries or (
            self.max_resident_nnz is not None
            and self.resident_nnz() > self.max_resident_nnz
        )

    def clear(self) -> int:
        """Drop every entry; returns how many were held."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
        return n

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot for CLI / engine reporting."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "contended_builds": self.contended_builds,
            "resident_nnz": self.resident_nnz(),
        }


_global_cache = TraceCache()


def get_trace_cache() -> TraceCache:
    """The process-wide cache used by the model, baselines and engine."""
    return _global_cache


def set_trace_cache(cache: TraceCache) -> TraceCache:
    """Swap the process-wide cache (tests, memory-constrained runs);
    returns the previous one."""
    global _global_cache
    previous, _global_cache = _global_cache, cache
    return previous


def cached_partition(
    matrix: COOMatrix,
    n_nodes: int,
    kind: str = "rows",
    row_starts: Optional[np.ndarray] = None,
) -> BlockPartition:
    """Convenience front door onto :func:`get_trace_cache`."""
    return _global_cache.get_partition(
        matrix, n_nodes, kind=kind, row_starts=row_starts
    )
