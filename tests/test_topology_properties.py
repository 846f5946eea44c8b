"""Hypothesis property tests on topology routing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Dragonfly, HyperX, LeafSpine

TOPOLOGIES = {
    "leafspine": LeafSpine(n_racks=4, nodes_per_rack=4, n_spines=2),
    "hyperx": HyperX(shape=(2, 2, 2), hosts_per_switch=2, width=2),
    "dragonfly": Dragonfly(n_groups=2, switches_per_group=4,
                           hosts_per_switch=2, global_link_count=2),
}


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(TOPOLOGIES)),
    src=st.integers(0, 15),
    dst=st.integers(0, 15),
)
def test_property_route_wellformed(name, src, dst):
    """INVARIANT: every route is a connected chain from the source host
    to the destination host, visiting no host in between."""
    topo = TOPOLOGIES[name]
    route = topo.route(src, dst)
    if src == dst:
        assert route == []
        return
    links = [topo.links[lid] for lid in route]
    assert links[0].src == f"h{src}"
    assert links[-1].dst == f"h{dst}"
    for a, b in zip(links, links[1:]):
        assert a.dst == b.src
        assert not a.dst.startswith("h")   # no host mid-route


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(TOPOLOGIES)),
    src=st.integers(0, 15),
    dst=st.integers(0, 15),
)
def test_property_latency_symmetry(name, src, dst):
    """Minimal routes have symmetric hop counts in these fabrics."""
    topo = TOPOLOGIES[name]
    assert topo.hop_count(src, dst) == topo.hop_count(dst, src)
    assert topo.one_way_latency(src, dst) == pytest.approx(
        topo.one_way_latency(dst, src)
    )


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(TOPOLOGIES)),
    flows=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15),
                  st.floats(1.0, 1e6)),
        max_size=20,
    ),
)
def test_property_link_load_conservation(name, flows):
    """INVARIANT: total link-bytes equal sum over flows of
    bytes * hop_count — nothing lost, nothing double-counted."""
    topo = TOPOLOGIES[name]
    tm = np.zeros((16, 16))
    for s, d, b in flows:
        tm[s, d] += b
    src, dst = np.nonzero(tm)
    loads = topo.flow_loads(src * 16 + dst, tm[src, dst])
    expected = sum(
        tm[s, d] * topo.hop_count(s, d)
        for s in range(16)
        for d in range(16)
        if s != d
    )
    assert loads.sum() == pytest.approx(expected)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(TOPOLOGIES)), node=st.integers(0, 15))
def test_property_rack_is_stable(name, node):
    topo = TOPOLOGIES[name]
    assert 0 <= topo.rack_of(node) < 16
    assert topo.rack_of(node) == topo.rack_of(node)


def test_hop_count_bounds():
    for name, topo in TOPOLOGIES.items():
        diameter = topo.diameter_hops()
        assert 2 <= diameter <= 6, name
