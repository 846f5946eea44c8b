"""Event-time fault injection for the packet-level DES (:mod:`repro.dessim`).

:class:`FaultInjector` compiles a :class:`~repro.faults.plan.FaultPlan`
into concrete injections.  :meth:`FaultInjector.install` wires a
:class:`repro.dessim.cluster.DesCluster`: per-link drop functions
(seeded, order-independent decisions), bandwidth-degradation windows,
scheduled property-cache flushes, permanently failed client RIG units
and straggler slowdowns.

The plan's fractional windows scale by ``horizon`` (seconds of
simulated time representing "the whole run").  Every drop decision is
drawn with :func:`~repro.faults.plan.hash_uniform` keyed by the link
name and that link's local packet ordinal — independent of global
event interleaving — so the same plan + seed always produces the same
fault event log.  An empty plan installs nothing: the simulation is
bit-identical to an uninstrumented run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import telemetry
from repro.faults.plan import FaultPlan, hash_uniform, select_nodes

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One realized injection, on the simulated clock."""

    t: float
    kind: str
    target: str
    detail: Dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"t": self.t, "kind": self.kind, "target": self.target,
                **self.detail}


class FaultInjector:
    """Realizes one plan inside a DES simulation."""

    def __init__(self, plan: FaultPlan, horizon: float = 1.0):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.plan = plan
        self.horizon = horizon
        self.events: List[FaultEvent] = []
        self.stats_dropped = 0
        self.stats_flushes = 0
        self.stats_dead_units = 0

    # -- shared helpers ------------------------------------------------

    def _log(self, t: float, kind: str, target: str, **detail) -> None:
        self.events.append(FaultEvent(float(t), kind, target, detail))

    def summary(self) -> dict:
        """Event log + counters for result ``extras``."""
        return {
            "plan": self.plan.canonical_dict(),
            "events": [e.as_dict() for e in
                       sorted(self.events,
                              key=lambda e: (e.t, e.kind, e.target))],
            "dropped": self.stats_dropped,
            "flushes": self.stats_flushes,
            "dead_units": self.stats_dead_units,
        }

    def _window(self, start_frac: float, end_frac: float):
        return start_frac * self.horizon, end_frac * self.horizon

    def _make_drop(self, sim, name: str, fault, prev=None):
        """A ``drop_fn(packet) -> bool`` for one SerialLink."""
        t0, t1 = self._window(fault.start, fault.end)
        rate = fault.loss_rate
        seed = self.plan.seed
        state = {"n": 0}

        def drop(packet) -> bool:
            if prev is not None and prev(packet):
                return True
            ordinal = state["n"]
            state["n"] += 1
            if rate <= 0.0 or not t0 <= sim.now < t1:
                return False
            if hash_uniform(seed, f"drop.{name}", ordinal) < rate:
                self.stats_dropped += 1
                telemetry.count("faults.des.drops")
                self._log(sim.now, "link.drop", name, ordinal=ordinal)
                return True
            return False

        return drop

    def _degrade_proc(self, sim, link, start: float, end: float,
                      factor: float):
        yield sim.timeout(start)
        healthy = link.bandwidth
        link.bandwidth = healthy * factor
        telemetry.count("faults.des.degrades")
        self._log(sim.now, "link.degrade", link.name, factor=factor)
        yield sim.timeout(max(end - start, 0.0))
        link.bandwidth = healthy
        self._log(sim.now, "link.restore", link.name)

    # -- DES NetSparse cluster -----------------------------------------

    def _cluster_links(self, cluster, scope: str):
        if scope == "host":
            return cluster.up_links + cluster.down_links
        if scope == "fabric":
            return list(cluster.fabric_links)
        if scope == "all":
            return cluster.up_links + cluster.down_links + list(
                cluster.fabric_links
            )
        nodes = select_nodes(scope, cluster.n_nodes, cluster.nodes_per_rack)
        return [cluster.up_links[node] for node in nodes] + [
            cluster.down_links[node] for node in nodes
        ]

    def install(self, cluster) -> "FaultInjector":
        """Arm every fault of the plan inside a ``DesCluster``.

        Must run before :meth:`~repro.dessim.cluster.DesCluster.run_gather`
        (RIG-unit failures and straggler slowdowns take effect at
        command launch).
        """
        sim = cluster.sim
        for lf in self.plan.links:
            for link in self._cluster_links(cluster, lf.scope):
                if lf.loss_rate > 0.0:
                    link.drop_fn = self._make_drop(sim, link.name, lf,
                                                   prev=link.drop_fn)
                if lf.degrade < 1.0:
                    t0, t1 = self._window(lf.start, lf.end)
                    sim.process(
                        self._degrade_proc(sim, link, t0, t1, lf.degrade),
                        name=f"fault-degrade-{link.name}",
                    )

        for cf in self.plan.caches:
            tors = (cluster.tors if cf.rack < 0
                    else [t for t in cluster.tors if t.rack == cf.rack])
            for tor in tors:
                sim.process(self._flush_proc(sim, tor, cf),
                            name=f"fault-flush-tor{tor.rack}")

        for sf in self.plan.switches:
            # A down ToR in the DES is modelled as its rack's links
            # losing every packet for the window (the analytic model
            # adds the reroute detour the DES fabric cannot take).
            for tor in cluster.tors:
                if tor.rack != sf.rack:
                    continue
                self._log(self._window(sf.start, sf.end)[0], "switch.fail",
                          f"tor{tor.rack}", until=self._window(sf.start,
                                                               sf.end)[1])
                telemetry.count("faults.des.switch_failures")

        for nf in self.plan.nics:
            scope = "all" if nf.node < 0 else f"node:{nf.node}"
            for node in select_nodes(scope, cluster.n_nodes,
                                     cluster.nodes_per_rack):
                nic = cluster.nics[node]
                want = int(round(nf.dead_frac * len(nic.clients)))
                dead = nic.fail_units(want)
                if dead:
                    self.stats_dead_units += dead
                    telemetry.count("faults.des.dead_units", dead)
                    self._log(0.0, "nic.rig_units_fail", f"node{node}",
                              dead=dead)

        for st in self.plan.stragglers:
            scope = "all" if st.node < 0 else f"node:{st.node}"
            for node in select_nodes(scope, cluster.n_nodes,
                                     cluster.nodes_per_rack):
                nic = cluster.nics[node]
                for unit in nic.clients:
                    unit.cycle *= st.slowdown
                nic.server.cycle *= st.slowdown
                telemetry.count("faults.des.stragglers")
                self._log(0.0, "node.straggle", f"node{node}",
                          slowdown=st.slowdown)
        return self

    def _flush_proc(self, sim, tor, cf):
        yield sim.timeout(cf.at * self.horizon)
        flushed = tor.flush_cache()
        self.stats_flushes += 1
        telemetry.count("faults.cache.flushes")
        kind = "cache.corrupt" if cf.corrupt else "cache.flush"
        self._log(sim.now, kind, f"tor{tor.rack}", entries=flushed)
