"""Unit tests for 1D partitioning and node traces."""

import numpy as np
import pytest

from repro.partition import OneDPartition, col_owner_array
from repro.sparse import COOMatrix
from repro.sparse.synthetic import web_crawl


def toy():
    # The Figure 1 example: 8x8 matrix over 4 nodes (2 rows each).
    rows = np.array([0, 1, 1, 2, 2, 3, 4, 5, 6, 7])
    cols = np.array([4, 1, 6, 2, 6, 3, 3, 5, 0, 7])
    return COOMatrix(8, 8, rows, cols)


def test_block_starts_even_division():
    p = OneDPartition(toy(), 4)
    assert list(p.row_starts) == [0, 2, 4, 6, 8]


def test_block_starts_uneven_division():
    m = COOMatrix(10, 10, np.arange(10), np.arange(10))
    p = OneDPartition(m, 3)
    sizes = np.diff(p.row_starts)
    assert sizes.sum() == 10
    assert sizes.max() - sizes.min() <= 1
    assert list(sizes) == [4, 3, 3]


def test_col_owner_covers_all_columns():
    p = OneDPartition(toy(), 4)
    assert p.owner_of_col(0) == 0
    assert p.owner_of_col(7) == 3
    counts = np.bincount(col_owner_array(p), minlength=4)
    assert counts.sum() == 8


def test_too_many_nodes_rejected():
    with pytest.raises(ValueError):
        OneDPartition(toy(), 100)
    with pytest.raises(ValueError):
        OneDPartition(toy(), 0)


def test_node_traces_cover_all_nonzeros():
    p = OneDPartition(toy(), 4)
    traces = p.node_traces()
    assert sum(t.n_nonzeros for t in traces) == 10


def test_figure1_remote_pattern():
    """Check against the worked example in the paper's Figure 1."""
    p = OneDPartition(toy(), 4)
    traces = p.node_traces()
    # Node 0 owns rows/cols {0,1}: nonzero (0,4) is remote, (1,1) local.
    t0 = traces[0]
    assert set(t0.remote_idxs.tolist()) == {4, 6}
    # Node 1 owns {2,3}: nonzeros at cols 2,6,3 — col 6 remote.
    t1 = traces[1]
    assert set(t1.remote_idxs.tolist()) == {6}
    # Writes (rows) are always local by construction of 1D partitioning.
    for node, t in enumerate(traces):
        assert t.idxs.size == t.owner.size


def test_trace_row_major_order():
    m = web_crawl(n=1024, mean_degree=6, seed=1)
    p = OneDPartition(m, 8)
    csr = m.to_csr()
    t3 = p.node_traces()[3]
    expected = np.concatenate(
        [csr.row_slice(r) for r in p.rows_of(3)]
    )
    np.testing.assert_array_equal(t3.idxs, expected)


def test_remote_mask_consistent_with_owner():
    m = web_crawl(n=2048, mean_degree=8, seed=2)
    p = OneDPartition(m, 16)
    for t in p.node_traces():
        np.testing.assert_array_equal(t.remote, t.owner != t.node)


def test_unique_remote_count():
    p = OneDPartition(toy(), 4)
    t0 = p.node_traces()[0]
    assert t0.unique_remote_count() == 2
    # A node with no remotes:
    m = COOMatrix(4, 4, np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]))
    t = OneDPartition(m, 2).node_traces()[0]
    assert t.unique_remote_count() == 0


def test_scatter_gather_roundtrip():
    m = web_crawl(n=512, mean_degree=4, seed=3)
    p = OneDPartition(m, 8)
    b = np.random.default_rng(0).normal(size=(512, 3))
    shards = p.scatter_properties(b)
    assert len(shards) == 8
    np.testing.assert_array_equal(p.gather_outputs(shards), b)


def test_gather_wrong_shard_count():
    m = web_crawl(n=512, mean_degree=4, seed=3)
    p = OneDPartition(m, 8)
    with pytest.raises(ValueError):
        p.gather_outputs([np.zeros((1, 1))] * 7)


def test_node_nnz_sums_to_total():
    m = web_crawl(n=4096, mean_degree=8, seed=4)
    p = OneDPartition(m, 32)
    nnz = p.node_nnz()
    assert nnz.sum() == m.nnz
    traces = p.node_traces()
    np.testing.assert_array_equal(nnz, [t.n_nonzeros for t in traces])


class TestBalancedByNnz:
    def test_balances_skewed_matrix(self):
        from repro.partition import balanced_by_nnz
        from repro.sparse.suite import load_benchmark

        mat = load_benchmark("arabic", "tiny")
        balanced = balanced_by_nnz(mat, 16)
        equal = OneDPartition(mat, 16)
        bal_ratio = balanced.node_nnz().max() / balanced.node_nnz().mean()
        eq_ratio = equal.node_nnz().max() / equal.node_nnz().mean()
        assert bal_ratio < eq_ratio
        assert bal_ratio < 1.3

    def test_covers_all_rows_and_nonzeros(self):
        from repro.partition import balanced_by_nnz

        m = web_crawl(n=1024, mean_degree=6, seed=4)
        p = balanced_by_nnz(m, 8)
        assert p.row_starts[0] == 0 and p.row_starts[-1] == m.n_rows
        assert (np.diff(p.row_starts) >= 1).all()
        assert p.node_nnz().sum() == m.nnz

    def test_numerics_unchanged(self):
        """Distributed SpMM over a balanced partition still matches the
        reference (ownership moved, correctness did not)."""
        from repro.partition import balanced_by_nnz
        from repro.sparse import spmm

        m = web_crawl(n=512, mean_degree=6, seed=6).with_random_values(7)
        part = balanced_by_nnz(m, 8)
        b = np.random.default_rng(8).normal(size=(m.n_cols, 3))
        csr = m.to_csr()
        shards = []
        for node, tr in enumerate(part.node_traces()):
            local = np.zeros_like(b)
            lo, hi = part.col_starts[node], part.col_starts[node + 1]
            local[lo:hi] = b[lo:hi]
            remote = np.unique(tr.remote_idxs)
            local[remote] = b[remote]
            rows = list(part.rows_of(node))
            shard = np.zeros((len(rows), 3))
            for i, r in enumerate(rows):
                cols = csr.row_slice(r)
                vals = csr.data[csr.indptr[r]:csr.indptr[r + 1]]
                shard[i] = (vals[:, None] * local[cols]).sum(axis=0)
            shards.append(shard)
        np.testing.assert_allclose(
            part.gather_outputs(shards), spmm(m, b), rtol=1e-10
        )

    def test_validation(self):
        from repro.partition import balanced_by_nnz

        m = web_crawl(n=64, mean_degree=4, seed=1)
        with pytest.raises(ValueError):
            balanced_by_nnz(m, 0)
        with pytest.raises(ValueError):
            balanced_by_nnz(m, 100)

    def test_explicit_row_starts_validation(self):
        m = web_crawl(n=64, mean_degree=4, seed=1)
        with pytest.raises(ValueError):
            OneDPartition(m, 2, row_starts=np.array([0, 64]))
        with pytest.raises(ValueError):
            OneDPartition(m, 2, row_starts=np.array([0, 0, 64]))
        with pytest.raises(ValueError):
            OneDPartition(m, 2, row_starts=np.array([1, 32, 64]))
        # A valid custom split works.
        p = OneDPartition(m, 2, row_starts=np.array([0, 10, 64]))
        assert len(list(p.rows_of(0))) == 10


class _HugeStub:
    """A matrix shape past the int32 bound, with almost no nonzeros."""

    n_rows = n_cols = 2**31
    nnz = 1

    def row_degrees(self):
        raise AssertionError("row histogram read before the bound check")


@pytest.mark.parametrize("kind", ["rows", "nnz"])
def test_int32_bound_checked_before_any_row_array(monkeypatch, kind):
    """Partitions keep idxs and scan positions below 2**31 (the model
    memoizes them as int32); the check runs before any n_rows- or
    n_cols-sized array is allocated."""
    from repro.partition import ShardedOneDPartition, build_partition

    real_arange = np.arange

    def small_arange(*args, **kwargs):
        assert max(args) < 2**20, "n_rows-sized array allocated"
        return real_arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", small_arange)
    for build in (OneDPartition, ShardedOneDPartition,
                  lambda m, n: build_partition(m, n, kind=kind)):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            build(_HugeStub(), 4)
