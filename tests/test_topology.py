"""Unit tests for the three topologies, routing, and latency model."""

import numpy as np
import pytest

from repro.network import Dragonfly, HyperX, LeafSpine
from repro.network.topology import LINK_LATENCY_S, SWITCH_LATENCY_S


@pytest.fixture(scope="module")
def leafspine():
    return LeafSpine(n_racks=8, nodes_per_rack=16, n_spines=8)


@pytest.fixture(scope="module")
def hyperx():
    return HyperX(shape=(4, 4, 2), hosts_per_switch=4, width=4)


@pytest.fixture(scope="module")
def dragonfly():
    return Dragonfly(n_groups=4, switches_per_group=8, hosts_per_switch=4,
                     global_link_count=4)


def test_all_have_128_nodes(leafspine, hyperx, dragonfly):
    for topo in (leafspine, hyperx, dragonfly):
        assert topo.n_nodes == 128


def test_leafspine_intra_rack_rtt_matches_table5(leafspine):
    # Same rack: 2 links, 1 switch each way -> 2.4us RTT (Table 5).
    assert leafspine.rtt(0, 1) == pytest.approx(2.4e-6, rel=1e-9)


def test_leafspine_inter_rack_rtt_matches_table5(leafspine):
    # Cross rack: 4 links, 3 switches each way -> 5.4us RTT (Table 5).
    assert leafspine.rtt(0, 127) == pytest.approx(5.4e-6, rel=1e-9)


def test_leafspine_rack_of(leafspine):
    assert leafspine.rack_of(0) == 0
    assert leafspine.rack_of(15) == 0
    assert leafspine.rack_of(16) == 1
    assert leafspine.rack_of(127) == 7


def test_route_same_node_is_empty(leafspine):
    assert leafspine.route(5, 5) == []
    assert leafspine.one_way_latency(5, 5) == 0.0


def test_route_out_of_range(leafspine):
    with pytest.raises(ValueError):
        leafspine.route(0, 500)


def test_routes_are_deterministic(leafspine):
    assert leafspine.route(3, 77) == leafspine.route(3, 77)


def test_leafspine_route_shape(leafspine):
    # intra-rack: host->tor->host = 2 links
    assert len(leafspine.route(0, 1)) == 2
    # inter-rack: host->tor->spine->tor->host = 4 links
    assert len(leafspine.route(0, 127)) == 4


def test_routes_start_and_end_at_hosts(leafspine, hyperx, dragonfly):
    for topo in (leafspine, hyperx, dragonfly):
        route = topo.route(1, topo.n_nodes - 2)
        first, last = topo.links[route[0]], topo.links[route[-1]]
        assert first.src == "h1"
        assert last.dst == f"h{topo.n_nodes - 2}"
        # Consecutive links share endpoints.
        for a, b in zip(route, route[1:]):
            assert topo.links[a].dst == topo.links[b].src


def test_hyperx_dimension_order_hops(hyperx):
    # Hosts on the same switch: 2 links.
    assert len(hyperx.route(0, 1)) == 2
    # All three coordinates differ: 3 switch hops + 2 host links = 5.
    # Node 0 is on switch (0,0,0); the last switch is (3,3,1).
    last_host = hyperx.n_nodes - 1
    assert len(hyperx.route(0, last_host)) == 5


def test_hyperx_diameter_exceeds_leafspine(hyperx, leafspine):
    # The paper explains stokes' HyperX slowdown by the higher hop count.
    assert hyperx.diameter_hops() > leafspine.diameter_hops()


def test_dragonfly_group_of(dragonfly):
    assert dragonfly.group_of(0) == 0
    assert dragonfly.group_of(127) == 3
    assert dragonfly.rack_of(33) == dragonfly.group_of(33)


def test_dragonfly_minimal_route_hops(dragonfly):
    # Same switch: 2. Same group: <=3. Cross group: <=5.
    assert len(dragonfly.route(0, 1)) == 2
    assert len(dragonfly.route(0, 30)) <= 3
    assert len(dragonfly.route(0, 127)) <= 5


def test_one_way_latency_formula(leafspine):
    lat = leafspine.one_way_latency(0, 127)
    assert lat == pytest.approx(4 * LINK_LATENCY_S + 3 * SWITCH_LATENCY_S)


def test_link_loads_conservation(leafspine):
    n = leafspine.n_nodes
    tm = np.zeros((n, n))
    tm[0, 17] = 1000.0
    tm[1, 2] = 500.0
    src, dst = np.nonzero(tm)
    loads = leafspine.flow_loads(src * n + dst, tm[src, dst])
    # Each byte crosses hop_count links.
    expected = 1000.0 * leafspine.hop_count(0, 17) + 500.0 * leafspine.hop_count(1, 2)
    assert loads.sum() == pytest.approx(expected)


def test_all_topologies_connected(leafspine, hyperx, dragonfly):
    import networkx as nx

    for topo in (leafspine, hyperx, dragonfly):
        g = topo.to_networkx()
        assert nx.is_connected(g)
        # every host present
        hosts = [v for v in g if v.startswith("h")]
        assert len(hosts) == topo.n_nodes


def test_hyperx_trunked_bandwidth(hyperx):
    host_link = hyperx.links[hyperx.route(0, 1)[0]]
    cross = [ln for ln in hyperx.links if ln.kind == "local"][0]
    assert cross.bandwidth == pytest.approx(4 * host_link.bandwidth)


def test_dragonfly_global_links_exist(dragonfly):
    kinds = {ln.kind for ln in dragonfly.links}
    assert {"host", "local", "global"} <= kinds
    n_global = sum(1 for ln in dragonfly.links if ln.kind == "global")
    # 4 groups -> 6 unordered pairs x 4 links x 2 directions.
    assert n_global == 6 * 4 * 2
