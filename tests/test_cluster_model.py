"""Tests for the NetSparse cluster model."""

import numpy as np
import pytest

from repro.config import FeatureFlags, NetSparseConfig
from repro.cluster import build_cluster_topology, simulate_netsparse
from repro.core.pcache import PropertyCache
from repro.sparse.suite import load_benchmark
from tests.oracles import DelayedInsertCache


CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


def topo16():
    from repro.network import LeafSpine

    return LeafSpine(n_racks=4, nodes_per_rack=4, n_spines=2)


@pytest.fixture(scope="module")
def arabic_tiny():
    return load_benchmark("arabic", "tiny")


@pytest.fixture(scope="module")
def result(arabic_tiny):
    return simulate_netsparse(arabic_tiny, 16, CFG16, topo16())


def test_basic_sanity(result):
    assert result.total_time > 0
    assert result.n_prs_issued > 0
    assert result.n_prs_issued <= result.n_pr_candidates
    assert result.per_node_time.shape == (16,)
    assert (result.per_node_time >= 0).all()


def test_issued_plus_dropped_equals_candidates(result):
    assert (
        result.n_prs_issued + result.n_filtered + result.n_coalesced
        == result.n_pr_candidates
    )


def test_traffic_is_positive_and_bounded(result):
    assert result.recv_wire_bytes.sum() > 0
    assert result.sent_wire_bytes.sum() > 0
    # Useful payload cannot exceed received wire bytes in aggregate
    # (wire carries payload + headers; every useful byte crosses the wire
    # at most... exactly once plus escaped duplicates).
    assert result.useful_payload_bytes.sum() <= result.recv_wire_bytes.sum()


def test_deterministic(arabic_tiny):
    a = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    b = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    assert a.total_time == b.total_time
    np.testing.assert_array_equal(a.recv_wire_bytes, b.recv_wire_bytes)
    assert a.n_packets == b.n_packets


def test_scale_validation(arabic_tiny):
    with pytest.raises(ValueError):
        simulate_netsparse(arabic_tiny, 16, CFG16, topo16(), scale=0.0)


def test_filtering_reduces_traffic(arabic_tiny):
    on = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    cfg_off = CFG16.with_features(filtering=False, coalescing=False)
    off = simulate_netsparse(arabic_tiny, 16, cfg_off, topo16())
    assert on.n_prs_issued < off.n_prs_issued
    assert on.recv_wire_bytes.sum() < off.recv_wire_bytes.sum()
    assert off.n_filtered == 0 and off.n_coalesced == 0


def test_cache_disabled_means_no_lookups(arabic_tiny):
    cfg = CFG16.with_features(property_cache=False)
    res = simulate_netsparse(arabic_tiny, 16, cfg, topo16())
    assert res.cache_lookups == 0
    assert res.cache_hits == 0


def test_cache_reduces_fabric_traffic(arabic_tiny):
    with_cache = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    no_cache = simulate_netsparse(
        arabic_tiny, 16, CFG16.with_features(property_cache=False), topo16()
    )
    assert with_cache.cache_hits > 0
    assert with_cache.extras["fabric_time"] <= no_cache.extras["fabric_time"]


def test_concat_reduces_packet_count(arabic_tiny):
    full = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    solo = simulate_netsparse(
        arabic_tiny, 16,
        CFG16.with_features(concat_nic=False, concat_switch=False,
                            property_cache=False),
        topo16(),
    )
    # Without concatenation every PR is its own packet.
    assert solo.avg_prs_per_packet <= 1.01
    assert full.avg_prs_per_packet > 1.5


def test_ablation_monotone_traffic(arabic_tiny):
    """Adding mechanisms never increases tail traffic (Table 8 trend)."""
    levels = ["rig", "filter", "coalesce", "conc_nic", "switch"]
    traffic = []
    for level in levels:
        cfg = NetSparseConfig(
            n_nodes=16, n_racks=4, nodes_per_rack=4,
            features=FeatureFlags.ablation_level(level),
        )
        res = simulate_netsparse(arabic_tiny, 16, cfg, topo16())
        traffic.append(res.recv_wire_bytes.sum())
    for before, after in zip(traffic, traffic[1:]):
        assert after <= before * 1.05  # small slack for window effects


def test_larger_k_more_payload(arabic_tiny):
    from repro.sparse.suite import scale_factor

    sc = scale_factor("arabic", arabic_tiny)
    small = simulate_netsparse(arabic_tiny, 1, CFG16, topo16(), scale=sc)
    large = simulate_netsparse(arabic_tiny, 128, CFG16, topo16(), scale=sc)
    assert large.useful_payload_bytes.sum() == pytest.approx(
        128 * small.useful_payload_bytes.sum()
    )
    assert large.total_time > small.total_time


def test_active_nodes_curve(result):
    t, active = result.active_nodes_over_time(50)
    assert active[0] == 16
    assert active[-1] == 0
    assert (np.diff(active) <= 0).all()


def test_topology_builder_names():
    for name in ("leafspine", "hyperx", "dragonfly"):
        cfg = NetSparseConfig(topology=name)
        topo = build_cluster_topology(cfg)
        assert topo.n_nodes == 128
    with pytest.raises(ValueError):
        build_cluster_topology(NetSparseConfig(topology="torus"))


class TestDelayedInsertCache:
    def make(self, delay):
        pc = PropertyCache(capacity_bytes=1 << 16, ways=4)
        pc.configure(64)
        return DelayedInsertCache(pc, delay)

    def test_immediate_reuse_misses_within_delay(self):
        front = self.make(delay=5)
        hits = front.process(np.array([1, 1, 1]))
        # All three within the in-flight window: all miss.
        assert not hits.any()

    def test_reuse_after_delay_hits(self):
        front = self.make(delay=2)
        hits = front.process(np.array([1, 9, 9, 9, 1]))
        assert hits[4]  # idx 1 re-referenced after its insert landed

    def test_zero_delay_inserts_next_position(self):
        front = self.make(delay=0)
        hits = front.process(np.array([3, 3]))
        assert not hits[0] and hits[1]

    def test_no_hit_without_insert(self):
        front = self.make(delay=1)
        hits = front.process(np.array([1, 2, 3, 4]))
        assert not hits.any()


def test_memoized_streams_are_int32_and_match_int64(arabic_tiny):
    """The model memoizes node and merged streams as int32; each equals,
    value for value, its int64 recomputation from the traces."""
    from repro.cluster import model
    from repro.core.filtering import (
        filter_and_coalesce,
        first_occurrence_positions,
    )
    from repro.partition import cached_partition

    model.reset_batch_state()
    try:
        topo = topo16()
        simulate_netsparse(arabic_tiny, 16, CFG16, topo)
        traces = cached_partition(arabic_tiny, 16).node_traces()
        assert len(model._FBASE.data) == len(model._MASKS.data) == 16
        for key, ((fp, _), _) in model._FBASE.data.items():
            ref = first_occurrence_positions(traces[key[2]].remote_idxs)
            assert fp.dtype == np.int32 and ref.dtype == np.int64
            assert np.array_equal(fp, ref)
        streams = {}
        for key, (value, _) in model._MASKS.data.items():
            _, _, node, filtering, coalescing, frac, (batch, units) = key
            tr = traces[node]
            window = max(int(frac * tr.remote_count()), 1)
            issued = filter_and_coalesce(tr.remote_idxs, units, batch, window,
                                         filtering, coalescing).issued_mask
            ref = (tr.remote_pos[issued],
                   tr.remote_idxs[issued].astype(np.int64),
                   tr.remote_owners[issued].astype(np.int64))
            for got, want in zip(value[:3], ref):
                assert got.dtype == np.int32 and want.dtype == np.int64
                assert np.array_equal(got, want)
            streams[node] = ref
        assert len(model._MERGES.data) == CFG16.n_racks
        for key, (entry, _) in model._MERGES.data.items():
            members = list(key[2])
            assert members == [n for n in range(16)
                               if topo.rack_of(n) == topo.rack_of(members[0])]
            src = np.concatenate([np.full(streams[m][0].size, m, np.int64)
                                  for m in members])
            pos, idx, owner = (np.concatenate([streams[m][i]
                                               for m in members])
                               for i in range(3))
            order = np.lexsort((src, pos))
            want = {"src": src, "pos": pos, "idx": idx, "owner": owner}
            for name, got in entry.merged.items():
                assert got.dtype == np.int32
                assert np.array_equal(got, want[name][order])
    finally:
        model.reset_batch_state()


def test_binding_names_the_limit_that_sets_the_time():
    """``extras["binding"]`` names the per-node stage or the fabric
    whose time, plus the RTT and the concatenation drain, is the call's
    total, on a grid that lets either bind."""
    import dataclasses
    import itertools
    import math

    mat = load_benchmark("queen", "tiny")
    topo = topo16()
    limits = set()
    for cache, rig, rig_units, scale in itertools.product(
            (True, False), (True, False), (2, 16), (1.0, 1e-3)):
        cfg = dataclasses.replace(
            CFG16.with_features(property_cache=cache, rig_offload=rig),
            n_rig_units=rig_units,
        )
        assert cfg.n_client_units in (1, 8)
        res = simulate_netsparse(mat, 16, cfg, topo, scale=scale)
        binding, extras = res.extras["binding"], res.extras
        if binding["limit"] == "fabric":
            assert binding["node"] == -1
            value = extras["fabric_time"]
            assert value > res.per_node_time.max()
        else:
            node = binding["node"]
            value = extras["stage_times"][binding["limit"]][node]
            assert value == res.per_node_time[node] == res.per_node_time.max()
            assert value >= extras["fabric_time"]
        limits.add(binding["limit"])
        drain = cfg.concat_delay_cycles_nic / cfg.snic_freq
        rest = res.total_time - topo.rtt(0, 15) * scale - drain * scale
        # Undoing the two additions may round the last bit of the total.
        assert math.isclose(value, rest, rel_tol=0.0,
                            abs_tol=2 * math.ulp(res.total_time))
    assert "fabric" in limits and len(limits) >= 3


def test_calls_without_a_topology_share_rack_merges():
    """A rack merge is keyed on its members, not on the fabric object:
    a second call that builds its own topology hits every merge."""
    from repro.cluster import batch_stats, reset_batch_state

    mat = load_benchmark("queen", "tiny")
    reset_batch_state()
    try:
        first = simulate_netsparse(mat, 8, CFG16)
        assert batch_stats()["merges"]["misses"] == CFG16.n_racks
        second = simulate_netsparse(mat, 8, CFG16)
        merges = batch_stats()["merges"]
        assert merges["hits"] == CFG16.n_racks
        assert merges["misses"] == CFG16.n_racks
        assert second.total_time == first.total_time
        np.testing.assert_array_equal(second.recv_wire_bytes,
                                      first.recv_wire_bytes)
    finally:
        reset_batch_state()
