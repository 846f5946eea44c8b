"""Tests for the hybrid baseline, matrix I/O, DES monitoring, and the
communication energy model."""

import numpy as np
import pytest

from repro.baselines.hybrid import (
    choose_threshold,
    simulate_hybrid,
    split_columns,
)
from repro.baselines.saopt import simulate_saopt
from repro.baselines.su import simulate_suopt
from repro.config import NetSparseConfig
from repro.hw.energy import EnergyCoefficients, communication_energy
from repro.sparse.io import (
    load_npz,
    read_matrix_market,
    save_npz,
    write_matrix_market,
)
from repro.sparse.suite import load_benchmark
from repro.sparse.synthetic import web_crawl

CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


class TestHybridBaseline:
    @pytest.fixture(scope="class")
    def crawl(self):
        return load_benchmark("arabic", "tiny")

    def test_split_partitions_columns(self, crawl):
        split = split_columns(crawl, 16, threshold=2, k=16, config=CFG16)
        assert split.n_su_columns > 0
        assert split.n_sa_columns > 0
        assert (split.sa_prs_per_node >= 0).all()

    def test_threshold_monotone(self, crawl):
        lo = split_columns(crawl, 16, threshold=1, k=16, config=CFG16)
        hi = split_columns(crawl, 16, threshold=8, k=16, config=CFG16)
        assert lo.n_su_columns >= hi.n_su_columns
        assert lo.sa_prs_per_node.sum() <= hi.sa_prs_per_node.sum()

    def test_hybrid_never_loses_to_saopt(self, crawl):
        """The hybrid degenerates to SAOpt at threshold=inf, so the
        tuned hybrid is at least as fast."""
        sc = 0.01
        hy = simulate_hybrid(crawl, 16, CFG16, scale=sc)
        sa = simulate_saopt(crawl, 16, CFG16, scale=sc)
        assert hy.total_time <= sa.total_time * 1.001

    def test_hybrid_beats_su_on_reuse_heavy_matrix(self, crawl):
        hy = simulate_hybrid(crawl, 16, CFG16, scale=0.01)
        su = simulate_suopt(crawl, 16, CFG16)
        assert hy.total_time < su.total_time

    def test_choose_threshold_returns_candidate(self, crawl):
        t = choose_threshold(crawl, 16, CFG16, candidates=(1, 4, 15))
        assert t in (1, 4, 15)

    def test_extras_recorded(self, crawl):
        hy = simulate_hybrid(crawl, 16, CFG16, threshold=2, scale=0.01)
        assert hy.extras["threshold"] == 2
        assert hy.scheme == "hybrid"


class TestMatrixIO:
    def test_npz_roundtrip(self, tmp_path):
        mat = web_crawl(n=256, mean_degree=4, seed=1).with_random_values(2)
        path = tmp_path / "m.npz"
        save_npz(mat, path)
        back = load_npz(path)
        assert back.shape == mat.shape
        np.testing.assert_array_equal(back.rows, mat.rows)
        np.testing.assert_array_equal(back.cols, mat.cols)
        np.testing.assert_allclose(back.vals, mat.vals)
        assert back.name == mat.name

    def test_npz_structure_only(self, tmp_path):
        mat = web_crawl(n=128, mean_degree=4, seed=1)
        path = tmp_path / "p.npz"
        save_npz(mat, path)
        assert load_npz(path).vals is None

    def test_mtx_roundtrip_real(self, tmp_path):
        mat = web_crawl(n=128, mean_degree=4, seed=3).with_random_values(4)
        path = tmp_path / "m.mtx"
        write_matrix_market(mat, path)
        back = read_matrix_market(path)
        assert back.shape == mat.shape
        assert back.nnz == mat.nnz
        np.testing.assert_allclose(back.vals, mat.vals)

    def test_mtx_roundtrip_pattern(self, tmp_path):
        mat = web_crawl(n=128, mean_degree=4, seed=3)
        path = tmp_path / "p.mtx"
        write_matrix_market(mat, path)
        back = read_matrix_market(path)
        assert back.vals is None
        assert back.nnz == mat.nnz

    def test_mtx_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 5.0\n"
            "2 1 7.0\n"
            "3 2 9.0\n"
        )
        mat = read_matrix_market(path)
        dense = mat.to_scipy().toarray()
        expected = np.array([[5, 7, 0], [7, 0, 9], [0, 9, 0]], dtype=float)
        np.testing.assert_allclose(dense, expected)

    def test_mtx_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n1 2 3\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_mtx_rejects_array_format(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)


class TestMonitoring:
    def test_latency_probe_stats(self):
        from repro.dessim.monitoring import LatencyProbe
        from repro.sim import Simulator

        sim = Simulator()
        probe = LatencyProbe(sim)

        def proc():
            probe.issued(1)
            probe.issued(2)
            yield sim.timeout(3.0)
            probe.completed(1)
            yield sim.timeout(2.0)
            probe.completed(2)
            probe.completed(99)   # never issued

        sim.process(proc())
        sim.run()
        stats = probe.stats()
        assert stats.count == 2
        assert stats.max == pytest.approx(5.0)
        assert probe.unmatched_completions == 1
        assert probe.outstanding == 0

    def test_queue_monitor_samples(self):
        from repro.dessim.monitoring import QueueMonitor
        from repro.sim import Simulator, Store

        sim = Simulator()
        store = Store(sim)
        monitor = QueueMonitor(sim, {"q": store}, period=1.0)

        def filler():
            for i in range(5):
                store.try_put(i)
                yield sim.timeout(1.0)

        sim.process(filler())
        sim.run(until=6.0)
        stats = monitor.occupancy_stats()
        assert stats["q"]["max"] >= 4

    def test_queue_monitor_validation(self):
        from repro.dessim.monitoring import QueueMonitor
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            QueueMonitor(Simulator(), {}, period=0.0)

    def test_des_cluster_latency_probe(self):
        from repro.dessim import DesCluster
        from repro.partition import OneDPartition, col_owner_array

        mat = web_crawl(n=512, mean_degree=4, seed=2, block_size=64)
        part = OneDPartition(mat, 8)
        cluster = DesCluster(n_racks=2, nodes_per_rack=4, k=16,
                             n_cols=mat.n_cols,
                             col_owner=col_owner_array(part),
                             probe_latency=True)
        idxs = {n: t.remote_idxs.tolist()
                for n, t in enumerate(part.node_traces()) if t.remote.any()}
        res = cluster.run_gather(idxs)
        lat = res.extras["latency"]
        assert lat.count == res.issued_prs
        assert 0 < lat.p50 <= lat.p99 <= lat.max


class TestEnergyModel:
    def comm(self, scheme, prs=1000, cache_lookups=0):
        from repro.results import CommResult

        return CommResult(
            scheme=scheme, matrix_name="m", k=16, n_nodes=4,
            total_time=1.0,
            per_node_time=np.ones(4),
            recv_wire_bytes=np.full(4, 1e6),
            sent_wire_bytes=np.full(4, 1e6),
            useful_payload_bytes=np.full(4, 5e5),
            link_bandwidth=50e9,
            n_prs_issued=prs,
            cache_lookups=cache_lookups,
        )

    def test_network_term_proportional_to_bytes(self):
        small = communication_energy(self.comm("suopt"))
        assert small.network_j > 0
        assert small.host_software_j == 0
        assert small.nic_processing_j == 0

    def test_netsparse_pays_rig_energy(self):
        e = communication_energy(self.comm("netsparse", cache_lookups=500))
        assert e.nic_processing_j > 0
        assert e.host_software_j == 0

    def test_saopt_pays_cpu_energy(self):
        e = communication_energy(self.comm("saopt"))
        assert e.host_software_j > 0
        assert e.nic_processing_j == 0

    def test_totals_add_up(self):
        e = communication_energy(self.comm("netsparse"))
        assert e.total_j == pytest.approx(
            e.network_j + e.nic_processing_j + e.host_software_j
        )

    def test_custom_coefficients(self):
        double = EnergyCoefficients(link_j_per_byte=2 * 4e-12 * 8)
        base = communication_energy(self.comm("suopt"))
        up = communication_energy(self.comm("suopt"), coeffs=double)
        assert up.network_j > base.network_j
