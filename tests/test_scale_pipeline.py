"""End-to-end determinism of the out-of-core pipeline.

Two claims, each enforced with exact equality:

1. Trace spill-then-reload through :class:`TraceCache` reproduces the
   original traces bit-for-bit and reports its spill telemetry.
2. ``simulate_netsparse`` produces the same :class:`CommResult`
   regardless of storage tier (dense vs sharded) and memo state (a
   cold dense run is the reference), including under the parallel
   execution engine's process fan-out.
"""

from __future__ import annotations

import dataclasses

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
# trace spill tier
# ---------------------------------------------------------------------


class TestTraceSpill:
    def test_spill_then_reload_bit_identical(self, tmp_path):
        mat = load_benchmark("queen", "tiny")
        fresh = TraceCache().get_partition(mat, 8)
        expect = [
            (np.array(t.idxs), np.array(t.owner), np.array(t.remote_idxs))
            for t in fresh.node_traces()
        ]

        tc = TraceCache(max_resident_nnz=mat.nnz // 2,
                        spill_dir=str(tmp_path / "spill"))
        part = tc.get_partition(mat, 8)
        tc.get_partition(mat, 16)       # push the first entry over budget
        assert tc.stats()["spills"] >= 1
        assert part.is_spilled
        assert part.resident_trace_nnz() == 0

        reloaded = tc.get_partition(mat, 8)
        assert reloaded is part
        for tr, (idxs, owner, remote_idxs) in zip(part.node_traces(),
                                                  expect):
            np.testing.assert_array_equal(tr.idxs, idxs)
            np.testing.assert_array_equal(tr.owner, owner)
            assert tr.owner.dtype == owner.dtype
            np.testing.assert_array_equal(tr.remote_idxs, remote_idxs)
        assert tc.stats()["reloads"] >= 1

    def test_no_budget_means_no_spilling(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SPILL_NNZ", raising=False)
        tc = TraceCache()
        assert tc.max_resident_nnz is None
        mat = load_benchmark("queen", "tiny")
        tc.get_partition(mat, 8)
        tc.get_partition(mat, 16)
        assert tc.stats()["spills"] == 0

    def test_budget_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SPILL_NNZ", "12345")
        assert TraceCache().max_resident_nnz == 12345

    def test_sharded_entries_release_instead_of_spilling(self, shard_env):
        smat = load_benchmark("stokes", "tiny")
        tc = TraceCache(max_resident_nnz=1)
        part = tc.get_partition(smat, 8)
        _ = part.node_traces()[0].idxs      # materialize one window
        tc.get_partition(smat, 16)
        assert tc.stats()["spills"] >= 1
        assert part.resident_trace_nnz() == 0
        # Windowed traces rebuild from the shard store on demand.
        assert part.node_traces()[0].idxs.size > 0


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


class _FakeMatrix:
    def __init__(self, nnz):
        self.nnz = nnz


class TestMatrixMemo:
    def test_weight_aware_eviction(self):
        memo = MatrixMemo(max_resident_nnz=100)
        a = memo.get_or_load(("a",), lambda: _FakeMatrix(60))
        memo.get_or_load(("b",), lambda: _FakeMatrix(60))
        assert memo.stats()["evictions"] == 1       # a fell out
        assert memo.stats()["resident_nnz"] == 60
        a2 = memo.get_or_load(("a",), lambda: _FakeMatrix(60))
        assert a2 is not a                          # rebuilt after evict
        assert memo.stats()["misses"] == 3

    def test_oversized_newest_entry_is_kept(self):
        memo = MatrixMemo(max_resident_nnz=10)
        big = memo.get_or_load(("big",), lambda: _FakeMatrix(1000))
        assert memo.get_or_load(("big",), lambda: _FakeMatrix(1000)) is big
        assert memo.stats() == {
            "entries": 1, "resident_nnz": 1000, "max_resident_nnz": 10,
            "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_lru_order(self):
        memo = MatrixMemo(max_resident_nnz=100)
        memo.get_or_load(("a",), lambda: _FakeMatrix(40))
        memo.get_or_load(("b",), lambda: _FakeMatrix(40))
        memo.get_or_load(("a",), lambda: _FakeMatrix(40))   # touch a
        memo.get_or_load(("c",), lambda: _FakeMatrix(40))   # evicts b
        assert memo.get_or_load(("a",), lambda: _FakeMatrix(99)).nnz == 40

    def test_sharded_weight_uses_resident_nnz(self, shard_env):
        smat = load_benchmark("queen", "tiny")
        memo = MatrixMemo(max_resident_nnz=10)
        memo.get_or_load(("s",), lambda: smat)
        # mmap-backed matrices weigh ~nothing, so they never evict.
        memo.get_or_load(("t",), lambda: _FakeMatrix(5))
        assert memo.stats()["entries"] == 2
