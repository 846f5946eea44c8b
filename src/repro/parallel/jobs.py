"""Job decomposition: one deterministic simulation per job.

A :class:`SimJob` captures *everything* that determines a
communication-scheme simulation's output — scheme, benchmark matrix
(name / scale / seed), K, the full :class:`NetSparseConfig`, and the
optional overrides the experiment modules use (paper-scale RIG batch,
explicit scale factor, a reconstructible fabric topology, the
partitioning strategy).  Jobs are frozen, picklable (they cross the
process-pool boundary) and hashable into a stable content digest that
keys the on-disk result cache.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import NetSparseConfig
from repro.sources import code_salt

__all__ = ["SCHEMES", "SimJob", "execute_job", "timed_execute"]

#: Job kinds the engine knows how to dispatch: the communication
#: schemes, and ``compute`` — the end-to-end compute model's
#: :class:`~repro.cluster.endtoend.ComputeInputs` for the matrix on
#: ``config.n_nodes`` nodes (no communication; ``k`` is not read).
SCHEMES = ("netsparse", "saopt", "suopt", "hybrid", "compute")

#: Partitioning strategies representable in a job (see repro.partition).
PARTITIONS = ("rows", "nnz")


@dataclass(frozen=True)
class SimJob:
    """One independent ``(matrix, K, scheme, config)`` simulation.

    ``rig_batch`` is in paper-scale nonzeros (``None`` — use the
    config's default, exactly like :func:`simulate_netsparse`).
    ``scale`` of ``None`` means the benchmark's own
    :func:`~repro.sparse.suite.scale_factor`.  ``topology`` is either
    ``None`` (build the config's fabric) or a reconstructible spec
    tuple ``("leafspine", n_racks, nodes_per_rack, n_spines)``.
    """

    scheme: str
    matrix: str
    k: int
    config: NetSparseConfig
    scale_name: str = "small"
    seed: int = 7
    rig_batch: Optional[int] = None
    scale: Optional[float] = None
    topology: Optional[Tuple] = None
    partition: str = "rows"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.partition not in PARTITIONS:
            raise ValueError(
                f"unknown partition {self.partition!r}; "
                f"expected one of {PARTITIONS}"
            )
        if self.topology is not None and self.topology[0] != "leafspine":
            raise ValueError(
                f"unsupported topology spec {self.topology!r}; "
                "only ('leafspine', n_racks, nodes_per_rack, n_spines) "
                "is reconstructible"
            )
        if self.scheme == "compute" and self.partition != "rows":
            raise ValueError("a compute job takes the rows partition")

    # -- identity ------------------------------------------------------

    def key_dict(self) -> dict:
        """The canonical, JSON-stable identity of this job.  ``salt``
        hashes the package sources (:func:`repro.sources.code_salt`),
        so an edit to the code misses every result cached before it."""
        return {
            "salt": code_salt(),
            "scheme": self.scheme,
            "matrix": self.matrix,
            "k": self.k,
            "scale_name": self.scale_name,
            "seed": self.seed,
            "rig_batch": self.rig_batch,
            # repr() keeps full float precision and is stable in py3
            "scale": None if self.scale is None else repr(float(self.scale)),
            "topology": None if self.topology is None else list(self.topology),
            "partition": self.partition,
            "config": self.config.canonical_dict(),
        }

    def digest(self) -> str:
        """Stable content hash — the cache key for this job's result."""
        payload = json.dumps(self.key_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> dict:
        """Small human-readable metadata stored next to cached results."""
        return {
            "scheme": self.scheme,
            "matrix": self.matrix,
            "k": self.k,
            "scale_name": self.scale_name,
            "seed": self.seed,
        }


#: Process-level fabric memo.  A topology is immutable during
#: simulation (the model only reads routes/racks/link bandwidths), and
#: sharing one instance across a sweep also shares its route cache —
#: routes for a 128-node fabric are recomputed once per process instead
#: of once per job.
_topology_cache: dict = {}
_TOPOLOGY_CACHE_MAX = 16


def _build_topology(job: SimJob):
    from repro.cluster import build_cluster_topology
    from repro.network.topology import LeafSpine

    cfg = job.config
    key = (job.topology, cfg.topology, cfg.n_racks, cfg.nodes_per_rack,
           cfg.link_bandwidth)
    topo = _topology_cache.get(key)
    if topo is not None:
        return topo
    if job.topology is None:
        topo = build_cluster_topology(cfg)
    else:
        _, n_racks, nodes_per_rack, n_spines = job.topology
        topo = LeafSpine(n_racks=n_racks, nodes_per_rack=nodes_per_rack,
                         n_spines=n_spines,
                         link_bandwidth=cfg.link_bandwidth)
    if len(_topology_cache) >= _TOPOLOGY_CACHE_MAX:
        _topology_cache.clear()
    _topology_cache[key] = topo
    return topo


def import_simulator() -> None:
    """Import every module :func:`execute_job` runs.  A job imports
    them on first use; the engine calls this before a pool forks, so
    the workers inherit them."""
    for module in ("baselines.hybrid", "baselines.saopt", "baselines.su",
                   "cluster.endtoend", "cluster.model", "network.topology",
                   "sparse.suite"):
        importlib.import_module(f"repro.{module}")


def execute_job(job: SimJob):
    """Run one job to its :class:`~repro.results.CommResult` (a
    ``compute`` job to its :class:`~repro.cluster.endtoend.ComputeInputs`).

    Module-level (and import-light) so it is picklable as a process
    pool's task function; each worker memory-maps the stored matrices
    it needs (the first process in a shard directory generates and
    stores them) and keeps them in ``load_benchmark``'s ``MatrixMemo``.
    """
    from repro.baselines.hybrid import simulate_hybrid
    from repro.baselines.saopt import simulate_saopt
    from repro.baselines.su import simulate_suopt
    from repro.cluster import simulate_netsparse
    from repro.partition import cached_partition
    from repro.sparse.suite import load_benchmark, scale_factor

    mat = load_benchmark(job.matrix, job.scale_name, seed=job.seed)
    if job.scheme == "compute":
        from repro.cluster.endtoend import compute_inputs

        return compute_inputs(mat, job.config.n_nodes)
    sc = job.scale if job.scale is not None else scale_factor(job.matrix, mat)
    cfg = job.config
    if job.scheme == "suopt":
        return simulate_suopt(mat, job.k, cfg)
    if job.scheme == "saopt":
        return simulate_saopt(mat, job.k, cfg, scale=sc)
    if job.scheme == "hybrid":
        return simulate_hybrid(mat, job.k, cfg, scale=sc)
    part = (
        cached_partition(mat, cfg.n_nodes, kind="nnz")
        if job.partition == "nnz"
        else None
    )
    return simulate_netsparse(mat, job.k, cfg, _build_topology(job),
                              rig_batch=job.rig_batch, scale=sc,
                              partition=part)


def timed_execute(job: SimJob):
    """``(result, elapsed_seconds)`` — the pool task the engine maps."""
    t0 = time.perf_counter()
    result = execute_job(job)
    return result, time.perf_counter() - t0
