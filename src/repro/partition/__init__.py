"""1D partitioning of matrices and property arrays across cluster nodes."""

from repro.partition.oned import NodeTrace, OneDPartition
from repro.partition.tracecache import (
    TraceCache,
    cached_partition,
    get_trace_cache,
    set_trace_cache,
)
from repro.partition.windowed import (
    ShardedOneDPartition,
    WindowedNodeTrace,
    balanced_by_nnz,
    build_partition,
    col_owner_array,
)

__all__ = [
    "NodeTrace",
    "OneDPartition",
    "ShardedOneDPartition",
    "TraceCache",
    "WindowedNodeTrace",
    "balanced_by_nnz",
    "build_partition",
    "cached_partition",
    "col_owner_array",
    "get_trace_cache",
    "set_trace_cache",
]
