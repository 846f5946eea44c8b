"""1D partitioning of matrices and property arrays across cluster nodes."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.partition.oned": ("BlockPartition", "NodeTrace", "OneDPartition"),
    "repro.partition.tracecache": ("TraceCache", "cached_partition",
                                   "get_trace_cache", "set_trace_cache"),
    "repro.partition.windowed": ("ShardedOneDPartition", "WindowedNodeTrace",
                                 "balanced_by_nnz", "build_partition",
                                 "col_owner_array"),
})
