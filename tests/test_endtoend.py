"""Tests for the end-to-end strong-scaling model and the correctness of
distributed execution (the communication layer must never change the
numerics)."""

import struct

import numpy as np
import pytest

from repro.accel import SPR_DDR, SPR_HBM, SpadeConfig
from repro.cluster import simulate_netsparse, simulate_saopt, simulate_suopt
from repro.cluster.endtoend import (
    ComputeInputs,
    compute_inputs,
    end_to_end_time,
    per_node_compute_times,
    single_node_time,
)
from repro.config import NetSparseConfig
from repro.core.filtering import filter_and_coalesce
from repro.partition import (
    OneDPartition,
    TraceCache,
    balanced_by_nnz,
    set_trace_cache,
)
from repro.sparse import spmm
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import load_benchmark

CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


@pytest.fixture(scope="module")
def matrix():
    return load_benchmark("arabic", "tiny")


@pytest.fixture(scope="module")
def comm(matrix):
    from repro.network import LeafSpine

    topo = LeafSpine(n_racks=4, nodes_per_rack=4, n_spines=2)
    return simulate_netsparse(matrix, 16, CFG16, topo)


def test_single_node_time_positive(matrix):
    assert single_node_time(matrix, 16) > 0


def test_per_node_compute_imbalance(matrix):
    times = per_node_compute_times(matrix, 16, 16)
    assert times.shape == (16,)
    # Power-law rows create compute imbalance: ideal speedup < n_nodes.
    ideal = single_node_time(matrix, 16) / times.max()
    assert 1 < ideal < 16


def _bits(x: float) -> bytes:
    assert isinstance(x, float)
    return struct.pack("<d", x)


@pytest.mark.parametrize("storage", ["dense", "sharded"])
def test_compute_inputs_give_the_matrix_bits(matrix, comm, storage,
                                             tmp_path):
    """``end_to_end_time`` on a matrix and on its ``ComputeInputs``
    agree field by field, floats by bit pattern."""
    from repro.sparse.shards import from_coo

    mat = (matrix if storage == "dense"
           else from_coo(matrix, str(tmp_path / "arabic"), shard_nnz=20000))
    # A private cache: the sharded twin shares the dense digest.
    prev = set_trace_cache(TraceCache())
    try:
        inp = compute_inputs(mat, comm.n_nodes)
        rooflines = (SpadeConfig(), SPR_DDR.as_roofline(),
                     SPR_HBM.as_roofline())
        for accel in rooflines:
            for k in (1, 16, 128):
                assert (per_node_compute_times(mat, k, comm.n_nodes, accel)
                        .tobytes() == per_node_compute_times(
                            inp, k, comm.n_nodes, accel).tobytes())
                assert (_bits(single_node_time(mat, k, accel))
                        == _bits(single_node_time(inp, k, accel)))
            for overlap in (0.0, 0.5, 1.0):
                a = end_to_end_time(mat, 16, comm, accel, overlap)
                b = end_to_end_time(inp, 16, comm, accel, overlap)
                assert a.comm is b.comm
                for name in ("compute_time", "total_time",
                             "single_node_time"):
                    assert _bits(getattr(a, name)) == _bits(getattr(b, name))
    finally:
        set_trace_cache(prev)
    assert isinstance(inp, ComputeInputs)
    assert (inp.nnz, inp.n_rows) == (matrix.nnz, matrix.n_rows)
    assert int(inp.node_nnz.sum()) == matrix.nnz
    assert int(inp.node_rows.sum()) == matrix.n_rows


def test_compute_inputs_node_count_must_match(matrix, comm):
    with pytest.raises(ValueError):
        end_to_end_time(compute_inputs(matrix, 8), 16, comm)


def test_end_to_end_combines_phases(matrix, comm):
    res = end_to_end_time(matrix, 16, comm, overlap=0.0)
    assert res.total_time == pytest.approx(res.compute_time + comm.total_time)
    assert res.speedup_over_single_node > 0
    assert res.ideal_speedup >= res.speedup_over_single_node


def test_overlap_interpolates(matrix, comm):
    serial = end_to_end_time(matrix, 16, comm, overlap=0.0)
    perfect = end_to_end_time(matrix, 16, comm, overlap=1.0)
    half = end_to_end_time(matrix, 16, comm, overlap=0.5)
    assert perfect.total_time <= half.total_time <= serial.total_time
    assert perfect.total_time == pytest.approx(
        max(serial.compute_time, comm.total_time)
    )


def test_overlap_validation(matrix, comm):
    with pytest.raises(ValueError):
        end_to_end_time(matrix, 16, comm, overlap=1.5)


def test_comm_to_comp_ratio(matrix, comm):
    res = end_to_end_time(matrix, 16, comm)
    assert res.comm_to_comp_ratio == pytest.approx(
        comm.total_time / res.compute_time
    )


def test_netsparse_scales_better_than_baselines(matrix):
    """The Figure 13 ordering: NetSparse > SAOpt > SUOpt end-to-end."""
    from repro.network import LeafSpine
    from repro.sparse.suite import scale_factor

    topo = LeafSpine(n_racks=4, nodes_per_rack=4, n_spines=2)
    k = 16
    sc = scale_factor("arabic", matrix)
    ns = end_to_end_time(
        matrix, k, simulate_netsparse(matrix, k, CFG16, topo, scale=sc)
    )
    sa = end_to_end_time(matrix, k, simulate_saopt(matrix, k, CFG16, scale=sc))
    su = end_to_end_time(matrix, k, simulate_suopt(matrix, k, CFG16))
    assert ns.speedup_over_single_node > sa.speedup_over_single_node
    assert ns.speedup_over_single_node > su.speedup_over_single_node


def _gappy_matrix():
    """8x8 matrix whose rows 4-7 are empty: nodes 2 and 3 of a 4-node
    equal-rows partition get empty traces."""
    rows = np.array([0, 0, 1, 2, 2, 3, 3])
    cols = np.array([0, 5, 5, 1, 7, 2, 7])
    return COOMatrix(8, 8, rows, cols).canonicalize()


def _reference_count(idxs):
    return int(np.unique(idxs).size)


class TestDistinctColumnCounts:
    """The bitmap counts behind the compute model equal the
    ``np.unique`` sizes they replace, on every partition flavour."""

    @pytest.mark.parametrize("build", [
        lambda m, n: OneDPartition(m, n),
        lambda m, n: balanced_by_nnz(m, n),
    ], ids=["rows", "nnz"])
    @pytest.mark.parametrize("which", ["arabic", "gappy"])
    def test_trace_counts_match_reference(self, matrix, build, which):
        mat = matrix if which == "arabic" else _gappy_matrix()
        n = 16 if which == "arabic" else 4
        part = build(mat, n)
        counts = [tr.unique_count() for tr in part.node_traces()]
        assert counts == [_reference_count(tr.idxs)
                          for tr in part.node_traces()]
        if which == "gappy":
            assert part.node_traces()[-1].n_nonzeros == 0
            assert counts[-1] == 0

    def test_matrix_count_matches_reference(self, matrix):
        assert matrix.unique_col_count() == _reference_count(matrix.cols)
        empty = COOMatrix(4, 4, np.zeros(0), np.zeros(0))
        assert empty.unique_col_count() == 0

    def test_cached_count_keeps_equality_and_digest(self, matrix):
        rows = matrix.rows      # expanded from the view's row pointer
        fresh = COOMatrix(matrix.n_rows, matrix.n_cols, rows,
                          matrix.cols, name=matrix.name)
        counted = COOMatrix(matrix.n_rows, matrix.n_cols, rows,
                            matrix.cols, name=matrix.name)
        digest = counted.structural_digest()
        counted.unique_col_count()
        assert counted._unique_col_count is not None
        assert counted == fresh
        assert counted.structural_digest() == digest
        assert fresh.structural_digest() == digest
        assert "_unique_col_count" not in repr(counted)

    def test_repeated_end_to_end_counts_once(self, matrix, comm,
                                             monkeypatch):
        from repro.partition import oned, windowed
        from repro.sparse import matrix as matrix_mod, shards

        real = matrix_mod.distinct_count
        calls = []

        def counting(chunks, n):
            calls.append(n)
            return real(chunks, n)

        for mod in (matrix_mod, oned, windowed, shards):
            if hasattr(mod, "distinct_count"):
                monkeypatch.setattr(mod, "distinct_count", counting)
        mat = COOMatrix(matrix.n_rows, matrix.n_cols, matrix.rows,
                        matrix.cols, name=matrix.name)
        prev = set_trace_cache(TraceCache())
        try:
            results = [end_to_end_time(mat, k, comm) for k in (16, 128, 16)]
        finally:
            set_trace_cache(prev)
        # One count per node trace plus one for the whole matrix.
        assert len(calls) == comm.n_nodes + 1
        assert results[0].compute_time == results[2].compute_time
        assert results[0].single_node_time == results[2].single_node_time


class TestDistributedCorrectness:
    """INVARIANT: however communication is filtered/coalesced/cached,
    the distributed SpMM output equals the single-node reference."""

    def test_distributed_spmm_with_filtering_matches_reference(self, matrix):
        k = 8
        m = matrix.with_random_values(seed=11)
        rng = np.random.default_rng(12)
        b = rng.normal(size=(m.n_cols, k))
        reference = spmm(m, b)

        n_nodes = 16
        part = OneDPartition(m, n_nodes)
        out_shards = []
        csr = m.to_csr()
        for node, tr in enumerate(part.node_traces()):
            # The node fetches remote properties through the filtered
            # PR pipeline: only issued PRs move data.
            remote_idx = tr.remote_idxs
            fr = filter_and_coalesce(remote_idx, n_units=4, batch_size=64,
                                     inflight_window=32)
            fetched = np.unique(remote_idx[fr.issued_mask])
            needed = np.unique(remote_idx)
            # Every needed property was fetched (the core invariant).
            np.testing.assert_array_equal(fetched, needed)
            # Local property table: own shard + fetched remotes.
            local_b = np.zeros_like(b)
            lo, hi = part.col_starts[node], part.col_starts[node + 1]
            local_b[lo:hi] = b[lo:hi]
            local_b[fetched] = b[fetched]
            rows = list(part.rows_of(node))
            shard = np.zeros((len(rows), k))
            for i, r in enumerate(rows):
                cols = csr.row_slice(r)
                vals = csr.data[csr.indptr[r]:csr.indptr[r + 1]]
                shard[i] = (vals[:, None] * local_b[cols]).sum(axis=0)
            out_shards.append(shard)
        result = part.gather_outputs(out_shards)
        np.testing.assert_allclose(result, reference, rtol=1e-10)
