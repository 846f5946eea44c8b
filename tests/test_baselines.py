"""Tests for the SUOpt / SAOpt / vanilla-SA baselines."""

import numpy as np
import pytest

from repro.baselines import (
    saopt_goodput_curve,
    simulate_saopt,
    simulate_suopt,
    vanilla_sa_transfer,
)
from repro.baselines.hybrid import _column_fanout
from repro.baselines.saopt import saopt_pr_counts
from repro.baselines.software import per_core_payload_rate
from repro.config import NetSparseConfig
from repro.partition import cached_partition
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import load_benchmark
from tests.oracles import _saopt_pr_counts_reference

CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


@pytest.fixture(scope="module")
def arabic():
    return load_benchmark("arabic", "tiny")


@pytest.fixture(scope="module")
def europe():
    return load_benchmark("europe", "tiny")


class TestSuopt:
    def test_receive_everything_not_owned(self, arabic):
        res = simulate_suopt(arabic, 16, CFG16)
        payload = 64
        # Every node receives all columns it does not own.
        n_cols = arabic.n_cols
        own = n_cols // 16
        assert res.recv_wire_bytes[0] == pytest.approx(
            (n_cols - own) * payload, rel=0.01
        )

    def test_time_is_line_rate_bound(self, arabic):
        res = simulate_suopt(arabic, 16, CFG16)
        expected = res.recv_wire_bytes.max() / CFG16.link_bandwidth
        assert res.total_time == pytest.approx(expected)

    def test_goodput_is_tiny(self, arabic):
        """SU moves the whole array; useful fraction is tiny (Table 1)."""
        res = simulate_suopt(arabic, 16, CFG16)
        assert res.useful_payload_bytes.sum() < 0.15 * res.recv_wire_bytes.sum()

    def test_k_scaling(self, arabic):
        r1 = simulate_suopt(arabic, 1, CFG16)
        r128 = simulate_suopt(arabic, 128, CFG16)
        assert r128.total_time == pytest.approx(128 * r1.total_time)


class TestSaopt:
    def test_pr_counts_shapes(self, arabic):
        sent, served, part = saopt_pr_counts(arabic, CFG16)
        assert sent.shape == (16, CFG16.host_cores)
        assert served.shape == (16, CFG16.host_cores)
        # Conservation: every sent PR is served somewhere.
        assert sent.sum() == served.sum()

    def test_per_rank_filtering_weaker_than_global(self, arabic):
        """Per-rank dedup keeps cross-rank duplicates: total sent PRs
        exceed the node-global unique count (the paper's -#PR gap)."""
        sent, _, part = saopt_pr_counts(arabic, CFG16)
        global_unique = sum(
            t.unique_remote_count() for t in part.node_traces()
        )
        assert sent.sum() >= global_unique

    def test_time_scales_with_software_cost(self, arabic):
        fast = simulate_saopt(arabic, 16, CFG16)
        slow_cfg = NetSparseConfig(
            n_nodes=16, n_racks=4, nodes_per_rack=4,
            sw_pr_cost_fixed=CFG16.sw_pr_cost_fixed * 10,
            sw_pr_cost_per_byte=CFG16.sw_pr_cost_per_byte * 10,
        )
        slow = simulate_saopt(arabic, 16, slow_cfg)
        assert slow.total_time > 5 * fast.total_time

    def test_scale_validation(self, arabic):
        with pytest.raises(ValueError):
            simulate_saopt(arabic, 16, CFG16, scale=-1.0)

    def test_europe_has_few_duplicates(self, europe):
        res = simulate_saopt(europe, 16, CFG16)
        # Nearly no reuse: sent PRs ~ candidates.
        assert res.n_prs_issued >= 0.9 * res.n_pr_candidates


class TestSaoptOracle:
    """``saopt_pr_counts`` (one sort per node) equals the per-rank
    ``np.unique`` loop it replaced, bit for bit."""

    @staticmethod
    def _assert_matches(mat, cfg, exclude_cols=None):
        sent, served, _ = saopt_pr_counts(mat, cfg, exclude_cols=exclude_cols)
        ref_sent, ref_served = _saopt_pr_counts_reference(
            mat, cfg, exclude_cols
        )
        np.testing.assert_array_equal(sent, ref_sent)
        np.testing.assert_array_equal(served, ref_served)
        return sent

    @pytest.mark.parametrize("name", ["arabic", "europe", "queen"])
    @pytest.mark.parametrize("cfg", [CFG16, NetSparseConfig()],
                             ids=["16n", "128n"])
    def test_matches_per_rank_loop(self, name, cfg):
        self._assert_matches(load_benchmark(name, "tiny"), cfg)

    @pytest.mark.parametrize("threshold", [2, 8])
    def test_matches_with_hybrid_broadcast_set(self, arabic, threshold):
        fanout = _column_fanout(cached_partition(arabic, CFG16.n_nodes))
        su_cols = fanout > threshold
        assert su_cols.any() and not su_cols.all()
        self._assert_matches(arabic, CFG16, exclude_cols=su_cols)

    def test_short_streams_leave_ranks_empty(self):
        """Nodes with fewer remote idxs than ``host_cores`` (and one
        with none) leave some ranks without a request."""
        rng = np.random.default_rng(4)
        n = 64
        rows = np.repeat(np.arange(n), 3)
        cols = rng.integers(0, n, size=rows.size)
        cols[rows < 4] = rows[rows < 4]     # node 0 stays all-local
        mat = COOMatrix(n, n, rows, cols).canonicalize()
        sent = self._assert_matches(mat, CFG16)
        assert sent[0].sum() == 0
        assert 0 < sent[1].sum() < CFG16.host_cores
        assert (sent[1] == 0).any()


class TestVanillaSa:
    def test_transfer_rate_positive(self, arabic):
        res = vanilla_sa_transfer(arabic, k=32, n_nodes=2)
        assert res.transfer_rate_gbps > 0
        assert 0 < res.goodput < res.line_utilization < 1

    def test_low_line_utilization(self, arabic):
        """The motivation claim: vanilla SA utilizes <5% of the line."""
        res = vanilla_sa_transfer(arabic, k=32, n_nodes=2)
        assert res.line_utilization < 0.05

    def test_europe_slower_than_webcrawl(self, arabic, europe):
        """Mostly-local matrices waste scan time per byte moved."""
        ra = vanilla_sa_transfer(arabic, k=32, n_nodes=2)
        re = vanilla_sa_transfer(europe, k=32, n_nodes=2)
        assert re.transfer_rate_bytes < ra.transfer_rate_bytes


class TestSoftwareModel:
    def test_per_core_rate_increases_with_k(self):
        assert per_core_payload_rate(128) > per_core_payload_rate(1)

    def test_goodput_curve_linear_then_saturates(self):
        curve = saopt_goodput_curve([1, 2, 4, 8, 16, 32, 64], k=16)
        goodputs = [g for _, g in curve]
        assert goodputs == sorted(goodputs)
        # Linear region: 2 cores = 2x of 1 core.
        assert goodputs[1] == pytest.approx(2 * goodputs[0], rel=1e-9)
        assert goodputs[-1] <= 1.0

    def test_calibration_lands_near_paper(self):
        """64 cores at K=16 should reach ~10% goodput, K=128 ~40%
        (§8.1 / Figure 10 / Table 7's SAOpt goodput column)."""
        (_, g16), = saopt_goodput_curve([64], k=16)
        (_, g128), = saopt_goodput_curve([64], k=128)
        assert 0.05 < g16 < 0.2
        assert 0.25 < g128 < 0.6

    def test_curve_validates_cores(self):
        with pytest.raises(ValueError):
            saopt_goodput_curve([0], k=16)
