"""DES cluster assembly and the gather driver.

Builds a leaf-spine fabric of :class:`DesHostNic`, :class:`DesToR` and
:class:`DesSpine` components, runs every node's remote indexed gather
to completion, and reports delivered properties, per-stage traffic and
the simulated finish time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.config import NetSparseConfig
from repro.dessim.components import SerialLink
from repro.dessim.nic import DesHostNic
from repro.dessim.switch import DesSpine, DesToR
from repro.partition import cached_partition, col_owner_array
from repro.sim import Simulator

__all__ = ["DesCluster", "DesResult", "run_des_gather", "run_des_rounds"]


@dataclass
class DesResult:
    """Outcome of one DES gather run."""

    finish_time: float
    received: Dict[int, List[int]]        # node -> delivered idxs
    issued_prs: int
    dropped_prs: int
    cache_turnarounds: int
    host_up_bytes: np.ndarray
    host_down_bytes: np.ndarray
    fabric_bytes: int
    total_prs_on_fabric: int
    fabric_packets: int
    extras: Dict = field(default_factory=dict)

    @property
    def avg_prs_per_fabric_packet(self) -> float:
        if self.fabric_packets == 0:
            return 0.0
        return self.total_prs_on_fabric / self.fabric_packets


class DesCluster:
    """A small leaf-spine NetSparse cluster, fully event-driven."""

    def __init__(
        self,
        n_racks: int = 2,
        nodes_per_rack: int = 4,
        n_spines: int = 1,
        k: int = 16,
        n_cols: int = 1024,
        col_owner: Optional[np.ndarray] = None,
        config: Optional[NetSparseConfig] = None,
        n_client_units: int = 1,
        enable_cache: bool = True,
        enable_concat: bool = True,
        cache_bytes: Optional[int] = None,
        concat_delay: Optional[float] = None,
        probe_latency: bool = False,
        fault_injector=None,
    ):
        self.sim = Simulator()
        self.config = config or NetSparseConfig(
            n_nodes=n_racks * nodes_per_rack,
            n_racks=n_racks,
            nodes_per_rack=nodes_per_rack,
        )
        self.n_nodes = n_racks * nodes_per_rack
        self.nodes_per_rack = nodes_per_rack
        payload = self.config.property_bytes(k)
        if col_owner is None:
            per = n_cols // self.n_nodes
            col_owner = np.minimum(
                np.arange(n_cols) // max(per, 1), self.n_nodes - 1
            ).astype(np.int64)
        self.col_owner = col_owner

        rack_of = lambda node: node // nodes_per_rack  # noqa: E731

        self.nics = [
            DesHostNic(self.sim, node, col_owner, payload, self.config,
                       n_client_units=n_client_units,
                       concat_delay=concat_delay,
                       enable_concat=enable_concat)
            for node in range(self.n_nodes)
        ]
        self.latency_probe = None
        if probe_latency:
            from repro.dessim.monitoring import LatencyProbe

            self.latency_probe = LatencyProbe(self.sim)
            for nic in self.nics:
                for unit in nic.clients:
                    unit.latency_probe = self.latency_probe
        self.tors = [
            DesToR(self.sim, rack,
                   hosts=list(range(rack * nodes_per_rack,
                                    (rack + 1) * nodes_per_rack)),
                   payload_bytes=payload, config=self.config,
                   rack_of=rack_of, enable_cache=enable_cache,
                   enable_concat=enable_concat, concat_delay=concat_delay,
                   cache_bytes=cache_bytes)
            for rack in range(n_racks)
        ]
        self.spines = [
            DesSpine(self.sim, s, rack_of) for s in range(n_spines)
        ]

        # Wire the links.
        self.up_links: List[SerialLink] = []
        self.down_links: List[SerialLink] = []
        self.fabric_links: List[SerialLink] = []
        for node, nic in enumerate(self.nics):
            tor = self.tors[rack_of(node)]
            up = SerialLink(self.sim, f"h{node}->tor", tor.rx, self.config)
            down = SerialLink(self.sim, f"tor->h{node}", nic.rx, self.config)
            nic.uplink = up
            tor.host_links[node] = down
            self.up_links.append(up)
            self.down_links.append(down)
        for tor in self.tors:
            for spine in self.spines:
                t2s = SerialLink(self.sim, f"tor{tor.rack}->sp{spine.spine_id}",
                                 spine.rx, self.config)
                s2t = SerialLink(self.sim, f"sp{spine.spine_id}->tor{tor.rack}",
                                 tor.rx, self.config)
                tor.spine_links.append(t2s)
                spine.tor_links[tor.rack] = s2t
                self.fabric_links.extend([t2s, s2t])

        # Fault injection last: the injector reshapes the healthy cluster
        # (kills RIG units, arms link degradation/flush processes).
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.install(self)

    def run_gather(self, idxs_per_node: Dict[int, List[int]],
                   max_events: int = 5_000_000) -> DesResult:
        """Run every node's gather to completion and collect statistics."""
        events = []
        for node, idxs in idxs_per_node.items():
            events.extend(self.nics[node].execute_gather(idxs))
        sim_t0 = self.sim.now
        with telemetry.span("dessim.run_gather", nodes=self.n_nodes):
            self.sim.run(max_events=max_events)
        telemetry.add_span("dessim.gather", sim_t0, self.sim.now - sim_t0,
                           clock="sim", nodes=self.n_nodes)
        still_running = [ev for ev in events if not ev.processed]
        if still_running:
            raise RuntimeError(
                f"{len(still_running)} RIG commands never completed "
                "(deadlock or starvation in the DES fabric)"
            )

        up = np.array([ln.bytes_carried for ln in self.up_links], dtype=float)
        down = np.array([ln.bytes_carried for ln in self.down_links],
                        dtype=float)
        telemetry.count("dessim.prs.issued",
                        sum(nic.stats_issued for nic in self.nics))
        telemetry.count("dessim.prs.dropped",
                        sum(nic.stats_dropped for nic in self.nics))
        telemetry.count("dessim.cache.turnarounds",
                        sum(t.stats_turnaround for t in self.tors))
        telemetry.count("dessim.fabric.packets",
                        sum(ln.packets_carried for ln in self.fabric_links))
        telemetry.count("dessim.fabric.bytes",
                        sum(ln.bytes_carried for ln in self.fabric_links))
        return DesResult(
            finish_time=self.sim.now,
            received={
                node: sorted(self.nics[node].received_idxs)
                for node in idxs_per_node
            },
            issued_prs=sum(nic.stats_issued for nic in self.nics),
            dropped_prs=sum(nic.stats_dropped for nic in self.nics),
            cache_turnarounds=sum(t.stats_turnaround for t in self.tors),
            host_up_bytes=up,
            host_down_bytes=down,
            fabric_bytes=sum(ln.bytes_carried for ln in self.fabric_links),
            total_prs_on_fabric=sum(
                ln.prs_carried for ln in self.fabric_links
            ),
            fabric_packets=sum(
                ln.packets_carried for ln in self.fabric_links
            ),
            extras={
                "cache_stats": [
                    t.cache.stats if t.cache else None for t in self.tors
                ],
                "latency": (
                    self.latency_probe.stats()
                    if self.latency_probe is not None
                    else None
                ),
                "faults": (
                    self.fault_injector.summary()
                    if self.fault_injector is not None
                    else None
                ),
            },
        )


def run_des_gather(
    matrix,
    k: int,
    n_racks: int = 2,
    nodes_per_rack: int = 4,
    **cluster_kw,
) -> DesResult:
    """Partition ``matrix`` over a small DES cluster and gather all
    remote properties that its nonzeros reference."""
    n_nodes = n_racks * nodes_per_rack
    part = cached_partition(matrix, n_nodes)
    cluster = DesCluster(
        n_racks=n_racks,
        nodes_per_rack=nodes_per_rack,
        k=k,
        n_cols=matrix.n_cols,
        col_owner=col_owner_array(part),
        **cluster_kw,
    )
    idxs_per_node = {
        node: tr.remote_idxs.tolist()
        for node, tr in enumerate(part.node_traces())
        if tr.remote_count()
    }
    return cluster.run_gather(idxs_per_node)


def run_des_rounds(
    matrices,
    k: int,
    n_racks: int = 2,
    nodes_per_rack: int = 4,
    keep_cache: bool = False,
    **cluster_kw,
) -> List[DesResult]:
    """Run a multi-round workload sweep, one gather per round trace.

    Each round gets a *fresh* cluster (the NIC Idx Filters and received
    sets are per-gather state: a training step or SpMV iteration fetches
    its working set anew).  With ``keep_cache=True`` the ToR Property
    Cache objects are carried over between rounds — the switch-resident
    segment cache of §6 persists across collective operations, which is
    what makes cross-round reuse (persistent top-k hot sets, nested
    PageRank frontiers) visible at the middle pipe.  ``keep_cache=False``
    models a switch whose cache is flushed between collectives; the
    difference between the two sweeps is the reuse a persistent cache
    recovers.

    Every per-round :class:`DesResult` gains ``extras["round_cache"]``
    with that round's cache lookups/hits (deltas, so carried-over stats
    do not double count).  All round matrices must share the same
    dimensions: one model/graph, evolving nonzero set.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one round matrix")
    dims = {(m.n_rows, m.n_cols) for m in matrices}
    if len(dims) > 1:
        raise ValueError(
            f"round traces must share dimensions, got {sorted(dims)}"
        )
    n_nodes = n_racks * nodes_per_rack
    results: List[DesResult] = []
    carried = None  # previous round's ToR PropertyCache objects
    for matrix in matrices:
        part = cached_partition(matrix, n_nodes)
        cluster = DesCluster(
            n_racks=n_racks,
            nodes_per_rack=nodes_per_rack,
            k=k,
            n_cols=matrix.n_cols,
            col_owner=col_owner_array(part),
            **cluster_kw,
        )
        if keep_cache and carried is not None:
            # Equal-row 1D partitioning of same-dims matrices yields the
            # same col_owner every round, so cached entries stay valid.
            for tor, cache in zip(cluster.tors, carried):
                if tor.cache is not None and cache is not None:
                    tor.cache = cache
        base = [
            (t.cache.stats.lookups, t.cache.stats.hits)
            if t.cache is not None else (0, 0)
            for t in cluster.tors
        ]
        idxs_per_node = {
            node: tr.remote_idxs.tolist()
            for node, tr in enumerate(part.node_traces())
            if tr.remote_count()
        }
        result = cluster.run_gather(idxs_per_node)
        lookups = hits = 0
        for t, (l0, h0) in zip(cluster.tors, base):
            if t.cache is not None:
                lookups += t.cache.stats.lookups - l0
                hits += t.cache.stats.hits - h0
        result.extras["round_cache"] = {
            "lookups": lookups,
            "hits": hits,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
        results.append(result)
        carried = [t.cache for t in cluster.tors]
    return results
