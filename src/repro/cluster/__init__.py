"""Cluster-level end-to-end models.

- :class:`~repro.results.CommResult` (re-exported) — the record every
  communication scheme produces (timing, traffic, per-mechanism stats).
- :mod:`repro.cluster.model`   — the NetSparse trace-level cluster
  model: partitions the matrix, applies RIG → filter/coalesce →
  concatenate → property-cache semantics exactly, and derives timing
  from the interacting rate limits.
- :mod:`repro.cluster.endtoend` — combines a communication scheme with
  the per-node compute models for the strong-scaling studies.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.results": ("CommResult",),
    "repro.cluster.model": ("batch_stats", "build_cluster_topology",
                            "reset_batch_state", "simulate_netsparse"),
    "repro.baselines.saopt": ("simulate_saopt",),
    "repro.baselines.su": ("simulate_suopt",),
    "repro.cluster.endtoend": ("ComputeInputs", "compute_inputs",
                               "end_to_end_time", "single_node_time"),
    "repro.cluster.execute": ("distributed_sddmm", "distributed_spmm",
                              "distributed_spmv"),
})
