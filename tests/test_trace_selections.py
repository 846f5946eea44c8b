"""Node-trace selections and counts on both storage tiers.

:class:`repro.partition.oned.TraceSelections` finds the remote idxs
from the node's column block and gives only those an owner.  These
tests pin it against the original owner-lookup definitions
(:func:`tests.oracles._trace_selections_reference`) and check that the
counts are made once and survive a window's ``release()``.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import simulate_saopt, simulate_suopt
from repro.baselines.saopt import saopt_pr_counts
from repro.cluster import (
    build_cluster_topology,
    compute_inputs,
    reset_batch_state,
    simulate_netsparse,
)
from repro.config import NetSparseConfig
from repro.partition import (
    ShardedOneDPartition,
    TraceCache,
    build_partition,
    cached_partition,
    set_trace_cache,
)
from repro.sparse.matrix import COOMatrix
from repro.sparse.shards import ShardedCOOMatrix, from_coo
from repro.sparse.suite import stored_set
from tests.oracles import (
    _saopt_pr_counts_reference,
    _trace_selections_reference,
)

ARRAYS = ("owner", "remote", "remote_pos", "remote_idxs", "remote_owners",
          "remote_unique")
COUNTS = ("remote_count", "unique_remote_count", "unique_count")


@st.composite
def partitioned(draw):
    """(n_rows, n_cols, rows, cols, n_nodes, kind): square or
    rectangular, any sparsity (empty rows and empty row blocks too)."""
    n_rows = draw(st.integers(1, 24))
    n_cols = draw(st.integers(1, 24))
    nnz = draw(st.integers(0, 60))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz,
                         max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz,
                         max_size=nnz))
    n_nodes = draw(st.integers(1, min(n_rows, 6)))
    kind = draw(st.sampled_from(["rows", "nnz"]))
    return n_rows, n_cols, rows, cols, n_nodes, kind


def _check_trace(trace, ref, counts_first):
    """Every selection and count of ``trace`` equals the reference, in
    value and dtype; ``counts_first`` asks the counts before any
    selection is materialized."""
    if counts_first:
        assert [getattr(trace, c)() for c in COUNTS] == [ref[c]
                                                         for c in COUNTS]
    for name in ARRAYS:
        got = getattr(trace, name)
        np.testing.assert_array_equal(got, ref[name], err_msg=name)
        assert got.dtype == ref[name].dtype, name
    assert [getattr(trace, c)() for c in COUNTS] == [ref[c] for c in COUNTS]


@settings(max_examples=60, deadline=None)
@given(case=partitioned(), counts_first=st.booleans())
# A rectangular matrix, nnz-balanced blocks.
@example(case=(6, 11, [0, 1, 2, 3, 4, 5, 5], [10, 0, 7, 3, 3, 9, 1], 3,
               "nnz"), counts_first=True)
# One node: no idx is remote.
@example(case=(4, 4, [0, 1, 2, 3], [3, 2, 1, 0], 1, "rows"),
         counts_first=False)
# Block diagonal: no node has a remote idx.
@example(case=(8, 8, [0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
               4, "rows"), counts_first=True)
# Rows 4-7 empty: nodes 2 and 3 get empty windows.
@example(case=(8, 8, [0, 0, 1, 2, 2, 3, 3], [0, 5, 5, 1, 7, 2, 7], 4,
               "rows"), counts_first=True)
def test_selections_match_owner_reference(case, counts_first):
    n_rows, n_cols, rows, cols, n_nodes, kind = case
    mat = COOMatrix(n_rows, n_cols, np.array(rows, dtype=np.int64),
                    np.array(cols, dtype=np.int64)).canonicalize()
    dense = build_partition(mat, n_nodes, kind=kind)
    for tr in dense.node_traces():
        ref = _trace_selections_reference(tr.idxs, tr.node,
                                          dense.col_starts, "gather")
        _check_trace(tr, ref, counts_first)
    with tempfile.TemporaryDirectory() as root:
        smat = from_coo(mat, f"{root}/m", shard_nnz=3)
        sharded = build_partition(smat, n_nodes, kind=kind)
        assert isinstance(sharded, ShardedOneDPartition)
        np.testing.assert_array_equal(sharded.col_starts, dense.col_starts)
        for tr in sharded.node_traces():
            ref = _trace_selections_reference(
                smat.cols_slice(*_window(sharded, tr.node)), tr.node,
                sharded.col_starts, "searchsorted")
            _check_trace(tr, ref, counts_first)
            tr.release()
            assert tr.resident_idxs() == 0
            assert [getattr(tr, c)() for c in COUNTS] == [ref[c]
                                                          for c in COUNTS]


def _window(part, node):
    offsets = part.trace_offsets()
    return int(offsets[node]), int(offsets[node + 1])


def _count_reads(monkeypatch):
    """Count ``ShardedCOOMatrix.cols_slice`` calls (window reads)."""
    reads = []
    real = ShardedCOOMatrix.cols_slice

    def counting(self, start, stop):
        reads.append((start, stop))
        return real(self, start, stop)

    monkeypatch.setattr(ShardedCOOMatrix, "cols_slice", counting)
    return reads


class TestCountsOncePerTrace:
    def test_counts_survive_release_without_a_read(self, monkeypatch):
        part = ShardedOneDPartition(stored_set("queen", "tiny"), 8)
        reads = _count_reads(monkeypatch)
        traces = part.node_traces()
        # Counts on a window that is not resident read it transiently,
        # once: the first read makes all three counts.
        first = [[getattr(tr, c)() for c in COUNTS] for tr in traces]
        assert len(reads) == len(traces)
        assert part.resident_trace_nnz() == 0
        for tr in traces:
            _ = (tr.remote_idxs, tr.remote_owners, tr.remote_unique)
        n_reads = len(reads)
        assert n_reads == 2 * len(traces)
        for tr in traces:
            tr.release()
        assert part.resident_trace_nnz() == 0
        again = [[getattr(tr, c)() for c in COUNTS] for tr in traces]
        assert again == first
        assert len(reads) == n_reads
        assert part.resident_trace_nnz() == 0

    def test_resident_window_counts_without_a_read(self, monkeypatch):
        part = ShardedOneDPartition(stored_set("queen", "tiny"), 8)
        reads = _count_reads(monkeypatch)
        traces = part.node_traces()
        for tr in traces:
            _ = tr.remote_idxs
        counts = [[getattr(tr, c)() for c in COUNTS] for tr in traces]
        assert len(reads) == len(traces)
        for tr, got in zip(traces, counts):
            ref = _trace_selections_reference(
                tr.idxs, tr.node, part.col_starts, "searchsorted")
            assert got == [ref[c] for c in COUNTS]

    def test_dense_counts_are_made_once(self, monkeypatch):
        from repro.partition import oned

        part = build_partition(stored_set("queen", "tiny").to_coo(), 8)
        calls = []
        real = oned.distinct_count

        def counting(chunks, n):
            calls.append(n)
            return real(chunks, n)

        monkeypatch.setattr(oned, "distinct_count", counting)
        for _ in range(3):
            for tr in part.node_traces():
                tr.unique_remote_count()
                tr.unique_count()
        assert len(calls) == 2 * part.n_nodes


def test_schemes_hold_no_full_window_owner():
    """While SUOpt, SAOpt and NetSparse walk a sharded matrix in turn,
    the only owner array a trace holds is the remote idxs' own."""
    cfg = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)
    topo = build_cluster_topology(cfg)
    smat = stored_set("queen", "tiny")
    schemes = [
        lambda: simulate_suopt(smat, 16, cfg),
        lambda: simulate_saopt(smat, 16, cfg),
        lambda: simulate_netsparse(smat, 16, cfg, topo),
    ]
    prev = set_trace_cache(TraceCache())
    try:
        for run in schemes:
            run()
            part = cached_partition(smat, cfg.n_nodes)
            assert isinstance(part, ShardedOneDPartition)
            for tr in part.node_traces():
                assert "owner" not in tr._cache
                held = [a for a in tr._cache.values()
                        if a.dtype == np.int32]
                assert all(a.size == tr.remote_count() for a in held)
    finally:
        set_trace_cache(prev)


@pytest.mark.parametrize("tier", ["dense", "windowed"])
def test_owner_is_built_on_access(tier):
    smat = stored_set("queen", "tiny")
    part = build_partition(smat.to_coo() if tier == "dense" else smat, 8)
    tr = part.node_traces()[1]
    owner = tr.owner
    assert owner.dtype == np.int32 and owner.size == tr.n_nonzeros
    assert tr.owner is not owner
    assert "owner" not in tr._cache


def test_sharded_grid_reads_each_window_three_times(monkeypatch):
    """The out-of-core grid's scheme order on a sharded matrix: SUOpt,
    SAOpt at two Ks, NetSparse at two Ks, then the compute inputs.
    SAOpt pins no window and counts once per partition; each window is
    read three times in all (the counts, SAOpt, NetSparse's first K)."""
    cfg = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)
    topo = build_cluster_topology(cfg)
    smat = stored_set("queen", "tiny")
    prev = set_trace_cache(TraceCache(max_resident_nnz=smat.nnz // 4))
    reset_batch_state()
    try:
        part = cached_partition(smat, cfg.n_nodes)
        reads = _count_reads(monkeypatch)
        simulate_suopt(smat, 16, cfg)
        held = []
        for k in (16, 128):
            simulate_saopt(smat, k, cfg)
            assert part.resident_trace_nnz() == 0
            held.append(part.saopt_counts[cfg.host_cores])
        assert held[0] is held[1]
        for k in (16, 128):
            simulate_netsparse(smat, k, cfg, topo)
        compute_inputs(smat, cfg.n_nodes)
        windows = [_window(part, node) for node in range(cfg.n_nodes)]
        assert Counter(reads) == {w: 3 for w in windows}

        # An exclude_cols call neither answers from nor replaces the
        # held counts.
        exclude = np.zeros(smat.n_cols, dtype=bool)
        exclude[::3] = True
        sent, served, _ = saopt_pr_counts(smat, cfg, exclude_cols=exclude)
        assert part.saopt_counts == {cfg.host_cores: held[0]}
        ref = _saopt_pr_counts_reference(smat, cfg, exclude_cols=exclude)
        assert np.array_equal(sent, ref[0])
        assert np.array_equal(served, ref[1])
        ref = _saopt_pr_counts_reference(smat, cfg)
        for got, want in zip(held[0], ref):
            assert np.array_equal(got, want) and not got.flags.writeable
    finally:
        set_trace_cache(prev)
        reset_batch_state()


def test_exclude_cols_call_holds_nothing():
    cfg = NetSparseConfig(n_nodes=8, n_racks=2, nodes_per_rack=4)
    smat = stored_set("europe", "tiny")
    prev = set_trace_cache(TraceCache())
    try:
        exclude = np.zeros(smat.n_cols, dtype=bool)
        sent, _, part = saopt_pr_counts(smat, cfg, exclude_cols=exclude)
        assert part.saopt_counts == {} and sent.flags.writeable
        held, _, _ = saopt_pr_counts(smat, cfg)
        assert np.array_equal(held, sent)
        assert part.saopt_counts[cfg.host_cores][0] is held
    finally:
        set_trace_cache(prev)


def test_netsparse_reads_each_cold_window_once(monkeypatch):
    """NetSparse on windows no scheme has counted yet pins each window
    with its first read, which makes the counts too; a second call is
    answered from the memos and reads nothing."""
    cfg = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)
    topo = build_cluster_topology(cfg)
    smat = stored_set("queen", "tiny")
    prev = set_trace_cache(TraceCache())
    reset_batch_state()
    try:
        part = cached_partition(smat, cfg.n_nodes)
        reads = _count_reads(monkeypatch)
        first = simulate_netsparse(smat, 16, cfg, topo)
        windows = [_window(part, node) for node in range(cfg.n_nodes)]
        assert Counter(reads) == {w: 1 for w in windows}
        assert part.resident_trace_nnz() == 0
        second = simulate_netsparse(smat, 16, cfg, topo)
        assert len(reads) == cfg.n_nodes
        assert second.total_time == first.total_time
    finally:
        set_trace_cache(prev)
        reset_batch_state()


def test_hybrid_pins_no_window(monkeypatch):
    """The hybrid baseline counts column fan-outs from transient reads
    and holds only their per-node histogram, so no window stays pinned,
    the threshold search reads nothing, and every count matches the
    dense tier's."""
    from repro.baselines.hybrid import choose_threshold, simulate_hybrid
    from tests.test_fast_kernels import assert_results_equal

    cfg = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)
    smat = stored_set("queen", "tiny")
    prev = set_trace_cache(TraceCache())
    try:
        sharded = simulate_hybrid(smat, 16, cfg, scale=0.01)
        part = cached_partition(smat, cfg.n_nodes)
        assert isinstance(part, ShardedOneDPartition)
        assert part.resident_trace_nnz() == 0
        hist = part.fanout_hist
        assert hist.shape == (16, 16) and not hist.flags.writeable
        reads = _count_reads(monkeypatch)
        choose_threshold(smat, 16, cfg, part)
        assert reads == []
        dense = simulate_hybrid(_in_memory(smat), 16, cfg, scale=0.01)
        assert_results_equal(sharded, dense)
    finally:
        set_trace_cache(prev)


def _in_memory(smat):
    """A stored set's nonzeros as an in-memory matrix: its own
    ``TraceCache`` entry, keyed by digest, with a dense partition."""
    view = smat.to_coo()
    return COOMatrix(view.n_rows, view.n_cols, view.rows, view.cols, None,
                     view.name)
