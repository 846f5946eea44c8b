"""Differential oracle for the cluster model's traffic accounting.

The read and response stages of :func:`repro.cluster.simulate_netsparse`
(``model._traffic``) and :meth:`Topology.flow_loads` make a fixed
handful of array calls and sum every float with one ``bincount``.  The
loop forms they replaced, kept in ``tests/oracles.py``, add the same
contributions one flow at a time.  Both must agree bit for bit.
"""

import dataclasses
import struct

import numpy as np
import pytest

from repro.cluster import build_cluster_topology, model, simulate_netsparse
from repro.config import NetSparseConfig
from repro.network.topology import Dragonfly, HyperX, LeafSpine
from repro.partition import TraceCache, set_trace_cache
from repro.sparse import suite
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import load_benchmark
from tests.oracles import _flow_loads_reference, _traffic_reference

FABRICS = ("leafspine", "hyperx", "dragonfly")
#: Each feature the traffic stages branch on, toggled off (None: all on).
TOGGLES = (None, "concat_nic", "concat_switch", "property_cache")


def assert_bitwise_equal(a, b, path="result"):
    """Exact equality down to the bits of every float."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name),
                                 f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            assert_bitwise_equal(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, float):
        assert isinstance(b, float), path
        assert struct.pack("<d", a) == struct.pack("<d", b), path
    else:
        assert type(a) is type(b) and a == b, path


# ---------------------------------------------------------------------
# Topology.flow_loads
# ---------------------------------------------------------------------


TOPOLOGIES = {
    "leafspine": lambda: LeafSpine(n_racks=4, nodes_per_rack=4, n_spines=2),
    "hyperx": lambda: HyperX(shape=(2, 2, 2), hosts_per_switch=2, width=2),
    "dragonfly": lambda: Dragonfly(n_groups=3, switches_per_group=2,
                                   hosts_per_switch=2, global_link_count=2),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fabric", FABRICS)
def test_link_loads_match_the_loop(fabric, seed):
    topo = TOPOLOGIES[fabric]()
    n = topo.n_nodes
    rng = np.random.default_rng(seed)
    # Float bytes with no common scale, so any reordering of a link's
    # additions would show in the low bits.
    traffic = rng.random((n, n)) * 10.0 ** rng.integers(0, 9, (n, n))
    traffic[rng.random((n, n)) < 0.4] = 0.0
    traffic[rng.integers(0, n, size=max(n // 4, 1))] = 0.0   # empty rows
    zero_diagonal = traffic.copy()
    np.fill_diagonal(zero_diagonal, 0.0)
    for tm in (traffic, zero_diagonal, np.zeros((n, n)),
               np.rint(traffic).astype(np.int64)):
        src, dst = np.nonzero(tm)
        pairs, nbytes = src * n + dst, tm[src, dst]
        assert_bitwise_equal(topo.flow_loads(pairs, nbytes),
                             _flow_loads_reference(topo, pairs, nbytes))


@pytest.mark.parametrize("fabric", FABRICS)
def test_cluster_fabric_link_loads_match_the_loop(fabric):
    topo = build_cluster_topology(NetSparseConfig(topology=fabric))
    n = topo.n_nodes
    rng = np.random.default_rng(7)
    traffic = rng.exponential(1e6, (n, n))
    traffic[rng.random((n, n)) < 0.7] = 0.0
    traffic[::5] = 0.0
    np.fill_diagonal(traffic, 0.0)
    src, dst = np.nonzero(traffic)
    pairs, nbytes = src * n + dst, traffic[src, dst]
    # The cluster model reads the fabric-only loads.
    for fabric_only in (False, True):
        assert_bitwise_equal(
            topo.flow_loads(pairs, nbytes, fabric_only),
            _flow_loads_reference(topo, pairs, nbytes, fabric_only))


def test_pair_links_rows_match_routes():
    topo = TOPOLOGIES["dragonfly"]()
    n = topo.n_nodes
    everything = np.arange(n * n)
    for fabric_only in (False, True):
        # Rows are filled in two batches, the second widening none.
        topo.pair_links(everything[::7], fabric_only)
        rows = topo.pair_links(everything, fabric_only)
        assert (topo.pair_links(everything[::-1], fabric_only)
                == rows[::-1]).all()
        for p, row in enumerate(rows.tolist()):
            route = topo.route(*divmod(p, n))
            want = route[1:-1] if fabric_only else route
            assert row == list(want) + [-1] * (len(row) - len(want))


# ---------------------------------------------------------------------
# simulate_netsparse's read and response stages
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    """Two small benchmark matrices at ``tiny``, each loaded dense and
    sharded (windowed traces read from the shard store)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SHARD_DIR", str(tmp_path_factory.mktemp("shards")))
        mp.delenv("REPRO_SHARDED_SCALES", raising=False)
        suite._memo.clear()
        try:
            yield {
                (name, storage): load(name, "tiny")
                for name in ("europe", "queen")
                for storage, load in (("dense", load_benchmark),
                                      ("sharded", suite.stored_set))
            }
        finally:
            suite._memo.clear()


@pytest.fixture(scope="module")
def fabrics():
    """One instance per fabric, so its pair-link table and route cache
    are built once for the module."""
    return {name: build_cluster_topology(NetSparseConfig(topology=name))
            for name in FABRICS}


@pytest.mark.parametrize("storage", ["dense", "sharded"])
@pytest.mark.parametrize("toggle", TOGGLES)
@pytest.mark.parametrize("fabric", FABRICS)
def test_traffic_stages_match_the_loops(fabric, toggle, storage, matrices,
                                        fabrics, cold_memos, monkeypatch):
    cfg = NetSparseConfig(topology=fabric)
    if toggle is not None:
        cfg = dataclasses.replace(
            cfg, features=dataclasses.replace(cfg.features, **{toggle: False})
        )
    sibling = dataclasses.replace(cfg, pcache_bytes=cfg.pcache_bytes // 4)
    topo = fabrics[fabric]
    mat = matrices["europe", storage]
    stages = model._traffic

    def run(traffic, config=cfg):
        monkeypatch.setattr(model, "_traffic", traffic)
        return simulate_netsparse(mat, 16, config, topo)

    # A fresh trace cache: the dense and sharded twins share a
    # structural digest, and each must build its own traces.
    prev = set_trace_cache(TraceCache())
    try:
        with cold_memos():
            cold = run(stages)
            assert_bitwise_equal(run(_traffic_reference), cold)
        # Warm memos: the sibling geometry fills them, the new stages
        # score the point from a reuse profile, the loops from the
        # point's held hit mask.
        run(stages, sibling)
        warm = run(stages)
        assert_bitwise_equal(run(_traffic_reference), warm)
        assert_bitwise_equal(warm, cold)
    finally:
        set_trace_cache(prev)
        model.reset_batch_state()


def test_no_remote_traffic_matches_the_loops(monkeypatch):
    """A block-diagonal matrix issues no PR: no flow reaches a link."""
    n_nodes, rows_per_node = 16, 4
    rows = np.arange(n_nodes * rows_per_node, dtype=np.int64)
    mat = COOMatrix(rows.size, rows.size, rows, rows.copy(), name="diag")
    cfg = NetSparseConfig(n_nodes=n_nodes, n_racks=4, nodes_per_rack=4)
    topo = build_cluster_topology(cfg)
    new = simulate_netsparse(mat, 8, cfg, topo)
    monkeypatch.setattr(model, "_traffic", _traffic_reference)
    assert_bitwise_equal(simulate_netsparse(mat, 8, cfg, topo), new)
    assert new.recv_wire_bytes.dtype == np.float64
    assert not new.recv_wire_bytes.any()
    assert new.extras["fabric_time"] == 0.0


@pytest.mark.parametrize("rig_batch", [16, 64])
@pytest.mark.parametrize("storage", ["dense", "sharded"])
def test_unit_count_sweep_matches_cold(storage, rig_batch, matrices,
                                       fabrics, cold_memos):
    """The filter and merge memos key each node's stream on its clamped
    unit count, so unit counts that drop the same PRs share entries.
    A warm sweep over unit counts, in either order, matches cold runs
    bit for bit.  queen's streams at these batches keep coalescing
    pairs one to four batches apart, right at the clamp."""
    cfgs = [NetSparseConfig(n_rig_units=2 * units)
            for units in (1, 2, 4, 16, 32, 64)]
    topo = fabrics["leafspine"]
    mat = matrices["queen", storage]

    def run(cfg):
        return simulate_netsparse(mat, 16, cfg, topo, rig_batch=rig_batch)

    prev = set_trace_cache(TraceCache())
    try:
        with cold_memos():
            cold = [run(cfg) for cfg in cfgs]
        for order in (range(len(cfgs)), reversed(range(len(cfgs)))):
            model.reset_batch_state()
            for i in order:
                assert_bitwise_equal(run(cfgs[i]), cold[i])
            # Clamping shared some node streams across unit counts.
            assert model._MASKS.hits > 0
    finally:
        set_trace_cache(prev)
        model.reset_batch_state()
