"""End-to-end determinism of the out-of-core pipeline.

Two claims, each enforced with exact equality:

1. A :class:`TraceCache` entry evicted over the resident-trace budget
   is rebuilt bit-for-bit, and the cache writes nothing to disk.
2. ``simulate_netsparse`` produces the same :class:`CommResult`
   regardless of storage tier (dense vs sharded) and memo state (a
   cold dense run is the reference), including under the parallel
   execution engine's process fan-out.
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest

from repro.cluster import build_cluster_topology, simulate_netsparse
from repro.config import NetSparseConfig
from repro.partition import TraceCache, set_trace_cache
from repro.parallel import ExecutionEngine, SimJob
from repro.parallel.jobs import execute_job
from repro.sparse.suite import (
    BENCHMARKS,
    MatrixMemo,
    load_benchmark,
    stored_set,
)


def _assert_equal(x, y, path):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        np.testing.assert_array_equal(x, y, err_msg=path)
    elif isinstance(x, dict):
        assert set(x) == set(y), path
        for key in x:
            _assert_equal(x[key], y[key], f"{path}[{key!r}]")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (xi, yi) in enumerate(zip(x, y)):
            _assert_equal(xi, yi, f"{path}[{i}]")
    else:
        assert x == y, path


def assert_results_equal(a, b):
    """Field-by-field exact equality of two CommResults."""
    assert type(a) is type(b)
    for f in dataclasses.fields(type(a)):
        _assert_equal(getattr(a, f.name), getattr(b, f.name), f.name)


CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


@pytest.fixture()
def shard_env(tmp_path, monkeypatch):
    """Isolated shard root whose tiny sets are read sharded."""
    from repro.sparse import suite

    monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path / "shards"))
    monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny")
    suite._memo.clear()
    yield tmp_path
    suite._memo.clear()


# ---------------------------------------------------------------------
# trace cache resident budget
# ---------------------------------------------------------------------


def _trace_arrays(part):
    return [(np.array(t.idxs), np.array(t.owner), np.array(t.remote_idxs))
            for t in part.node_traces()]


class TestTraceBudget:
    @pytest.mark.parametrize("tier", ["dense", "windowed"])
    def test_over_budget_entry_is_evicted(self, tier, tmp_path,
                                          monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        # Same structure either way: a COOMatrix view, or the sharded
        # reader whose node traces are windows.
        mat = (load_benchmark("queen", "tiny") if tier == "dense"
               else stored_set("queen", "tiny"))
        expect = _trace_arrays(TraceCache().get_partition(mat, 8))

        tc = TraceCache(max_resident_nnz=mat.nnz // 2)
        part = tc.get_partition(mat, 8)
        for tr in part.node_traces():
            _ = tr.idxs                     # make every trace resident
        assert part.resident_trace_nnz() == mat.nnz
        tc.get_partition(mat, 16)           # push the first entry out
        assert tc.stats()["evictions"] == 1
        assert len(tc) == 1

        rebuilt = tc.get_partition(mat, 8)
        assert rebuilt is not part
        assert tc.stats()["misses"] == 3
        for (idxs, owner, remote_idxs), want in zip(_trace_arrays(rebuilt),
                                                    expect):
            np.testing.assert_array_equal(idxs, want[0])
            np.testing.assert_array_equal(owner, want[1])
            assert owner.dtype == want[1].dtype
            np.testing.assert_array_equal(remote_idxs, want[2])
        assert not any(scratch.iterdir())

    def test_both_tiers_count_idx_elements(self):
        """The budget's unit is the idx element on either tier: derived
        selections (owners, remote views) are not counted."""
        dense = TraceCache().get_partition(load_benchmark("queen", "tiny"), 8)
        windowed = TraceCache().get_partition(stored_set("queen", "tiny"), 8)
        for part in (dense, windowed):
            for tr in part.node_traces():
                _ = (tr.remote_idxs, tr.remote_owners, tr.remote_pos,
                     tr.remote_unique)
        nnz = dense.matrix.nnz
        assert dense.resident_trace_nnz() == nnz
        assert windowed.resident_trace_nnz() == nnz
        for tr in windowed.node_traces():
            tr.release()
        assert windowed.resident_trace_nnz() == 0

    def test_no_budget_means_no_eviction(self):
        tc = TraceCache()
        assert tc.max_resident_nnz is None
        mat = load_benchmark("queen", "tiny")
        tc.get_partition(mat, 8)
        tc.get_partition(mat, 16)
        assert tc.stats()["evictions"] == 0
        assert len(tc) == 2


# ---------------------------------------------------------------------
# whole-model parity across storage tiers
# ---------------------------------------------------------------------


class TestModelTierParity:
    def _run(self, mat, topo):
        # Fresh trace cache per run: dense and sharded twins share a
        # structural digest (by design), so without this the second
        # tier would silently reuse the first tier's traces.
        prev = set_trace_cache(TraceCache())
        try:
            return simulate_netsparse(mat, 8, CFG16, topo)
        finally:
            set_trace_cache(prev)

    @pytest.mark.parametrize("name", ["arabic", "stokes"])
    def test_commresult_invariant(self, shard_env, name, cold_memos):
        topo = build_cluster_topology(CFG16)
        one_shot = BENCHMARKS[name].generate(scale="tiny", seed=7)
        dense = stored_set(name, "tiny").to_coo()
        sharded = load_benchmark(name, "tiny")
        with cold_memos():
            ref = self._run(one_shot, topo)
        for mat in (one_shot, dense, sharded):
            assert_results_equal(self._run(mat, topo), ref)


# ---------------------------------------------------------------------
# engine fan-out over sharded inputs
# ---------------------------------------------------------------------


class TestEngineShardedFanout:
    def test_jobs_fanout_matches_serial_dense(self, tmp_path, monkeypatch):
        from repro.sparse import suite

        jobs = [
            SimJob(scheme="netsparse", matrix=m, k=16,
                   config=NetSparseConfig(), scale_name="tiny", seed=7)
            for m in ("queen", "stokes")
        ]
        expect = [execute_job(j) for j in jobs]     # dense, in-process

        monkeypatch.setenv("REPRO_SHARD_DIR", str(tmp_path / "shards"))
        monkeypatch.setenv("REPRO_SHARDED_SCALES", "tiny")
        suite._memo.clear()
        prev = set_trace_cache(TraceCache())
        try:
            with ExecutionEngine(jobs=2) as eng:
                got = eng.run_jobs(jobs)
        finally:
            set_trace_cache(prev)
            suite._memo.clear()
        for g, e in zip(got, expect):
            assert_results_equal(g, e)


# ---------------------------------------------------------------------
# suite memo
# ---------------------------------------------------------------------


class TestMatrixMemo:
    def test_hits_and_misses(self):
        memo = MatrixMemo()
        first = memo.get_or_load(("a",), object)
        assert memo.get_or_load(("a",), object) is first
        memo.get_or_load(("b",), object)
        assert memo.stats() == {"entries": 2, "hits": 1, "misses": 2}
        memo.clear()
        assert memo.get_or_load(("a",), object) is not first
