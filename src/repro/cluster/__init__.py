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

from repro.results import CommResult
from repro.cluster.model import (
    batch_stats,
    build_cluster_topology,
    reset_batch_state,
    simulate_netsparse,
)
from repro.baselines.saopt import simulate_saopt
from repro.baselines.su import simulate_suopt
from repro.cluster.endtoend import (
    ComputeInputs,
    compute_inputs,
    end_to_end_time,
    single_node_time,
)
from repro.cluster.execute import (
    distributed_sddmm,
    distributed_spmm,
    distributed_spmv,
)

__all__ = [
    "CommResult",
    "ComputeInputs",
    "batch_stats",
    "build_cluster_topology",
    "compute_inputs",
    "reset_batch_state",
    "distributed_sddmm",
    "distributed_spmm",
    "distributed_spmv",
    "end_to_end_time",
    "simulate_netsparse",
    "simulate_saopt",
    "simulate_suopt",
    "single_node_time",
]
