"""Tests for event-time fault injection in the packet-level DES."""

import pytest

from repro.config import NetSparseConfig
from repro.dessim import run_des_gather
from repro.dessim.components import NetPacket, SerialLink
from repro.faults import (
    CacheFault,
    FaultInjector,
    FaultPlan,
    LinkFault,
    NicFault,
    StragglerFault,
)
from repro.sim import Simulator, Store
from repro.sparse.suite import load_benchmark

MAT = "queen"
K = 16

# A DES gather finishes in microseconds; the horizon maps the plan's
# fractional windows onto that timescale so mid-run faults land mid-run.
HORIZON = 2e-5

# Non-lossy faults only: the bare DES gather has no watchdog loop, so a
# dropped PR would deadlock completion.  Packet drops are exercised at
# the link level below.
SAFE_PLAN = FaultPlan(
    name="safe",
    seed=11,
    nics=(NicFault(node=-1, dead_frac=0.5),),
    caches=(CacheFault(rack=-1, at=0.4),),
    stragglers=(StragglerFault(node=-1, slowdown=2.0),),
)


def des_run(plan=None, **kw):
    mat = load_benchmark(MAT, "tiny")
    injector = (FaultInjector(plan, horizon=HORIZON)
                if plan is not None else None)
    res = run_des_gather(mat, K, n_racks=2, nodes_per_rack=4,
                         fault_injector=injector, **kw)
    return res, injector


class TestDesInjection:
    def test_empty_plan_bit_identical(self):
        clean, _ = des_run()
        empty, inj = des_run(FaultPlan.empty())
        assert empty.finish_time == clean.finish_time  # bitwise
        assert empty.received == clean.received
        assert empty.issued_prs == clean.issued_prs
        assert inj.events == []
        assert empty.extras["faults"]["events"] == []

    def test_same_plan_same_event_log_and_timing(self):
        a, inj_a = des_run(SAFE_PLAN, n_client_units=2)
        b, inj_b = des_run(SAFE_PLAN, n_client_units=2)
        assert a.finish_time == b.finish_time
        assert a.received == b.received
        assert inj_a.summary() == inj_b.summary()
        assert a.extras["faults"] == b.extras["faults"]

    def test_faults_slow_the_gather_but_complete_it(self):
        # No NIC fault here: killing a client unit changes how work is
        # chunked (and can even *help* by deduplicating), so the pure
        # slowdown claim is made on stragglers + cache flushes only.
        plan = FaultPlan(
            name="slow", seed=11,
            caches=(CacheFault(rack=-1, at=0.4),),
            stragglers=(StragglerFault(node=-1, slowdown=2.0),),
        )
        clean, _ = des_run()
        hurt, inj = des_run(plan)
        assert hurt.finish_time > clean.finish_time
        assert hurt.received == clean.received  # same delivered sets
        assert inj.stats_flushes > 0
        kinds = {e.kind for e in inj.events}
        assert {"cache.flush", "node.straggle"} <= kinds

    def test_dead_units_complete_with_the_same_property_set(self):
        clean, _ = des_run(n_client_units=2)
        hurt, inj = des_run(SAFE_PLAN, n_client_units=2)
        assert inj.stats_dead_units > 0
        # Survivors re-cover the dead units' work: same unique
        # properties everywhere (duplicate *deliveries* may differ —
        # fewer units share one Idx Filter more effectively).
        for node, got in clean.received.items():
            assert sorted(set(hurt.received[node])) == sorted(set(got))

    def test_single_client_unit_survives_nic_fault(self):
        plan = FaultPlan(name="nic", nics=(NicFault(dead_frac=0.9),))
        res, inj = des_run(plan)  # default 1 client unit: nothing to kill
        assert inj.stats_dead_units == 0
        assert res.finish_time > 0

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan.empty(), horizon=0.0)


class TestLinkDrops:
    def link_run(self, plan, n_packets=40):
        sim = Simulator()
        sink = Store(sim)
        link = SerialLink(sim, "dut", sink, NetSparseConfig())
        inj = FaultInjector(plan, horizon=1e9)  # window covers the run
        link.drop_fn = inj._make_drop(sim, link.name, plan.links[0])
        pkts = [NetPacket("read", 0, 1, [object()], 0)
                for _ in range(n_packets)]

        def feed():
            for p in pkts:
                yield link.send(p)

        sim.process(feed())
        sim.run()
        return link, inj

    def test_drops_are_deterministic_by_ordinal(self):
        plan = FaultPlan(name="lossy", seed=5,
                         links=(LinkFault(drop_rate=0.5),))
        link_a, inj_a = self.link_run(plan)
        link_b, inj_b = self.link_run(plan)
        assert link_a.packets_dropped == link_b.packets_dropped
        assert link_a.packets_dropped > 0
        assert inj_a.summary()["events"] == inj_b.summary()["events"]

    def test_seed_changes_the_drop_pattern(self):
        mk = lambda s: FaultPlan(name="lossy", seed=s,  # noqa: E731
                                 links=(LinkFault(drop_rate=0.5),))
        _, inj_a = self.link_run(mk(1), n_packets=64)
        _, inj_b = self.link_run(mk(2), n_packets=64)
        ords_a = [e.detail["ordinal"] for e in inj_a.events]
        ords_b = [e.detail["ordinal"] for e in inj_b.events]
        assert ords_a != ords_b
