"""Tests for the job-based execution engine (repro.parallel).

Covers job-digest stability/sensitivity, disk-cache correctness
(bit-identical replay, invalidation on any identity change, corrupt
entry tolerance), parallel == serial equivalence, and the CLI surface
(``--jobs`` / ``--cache-dir`` / ``netsparse cache``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.cli import main
from repro.config import NetSparseConfig
from repro.experiments.runner import run_schemes
from repro.parallel import (
    ExecutionEngine,
    ResultCache,
    SimJob,
    configure_engine,
    engine_scope,
    get_engine,
    set_engine,
    simulate,
    simulate_many,
)

MAT = "queen"  # smallest tiny-scale benchmark in the suite
K = 16


def _job(**overrides) -> SimJob:
    base = dict(scheme="netsparse", matrix=MAT, k=K,
                config=NetSparseConfig(), scale_name="tiny")
    base.update(overrides)
    return SimJob(**base)


def _assert_identical(a, b):
    assert a.scheme == b.scheme
    assert a.total_time == b.total_time  # bitwise, no tolerance
    np.testing.assert_array_equal(a.per_node_time, b.per_node_time)
    np.testing.assert_array_equal(a.recv_wire_bytes, b.recv_wire_bytes)
    np.testing.assert_array_equal(a.sent_wire_bytes, b.sent_wire_bytes)


class TestJobDigest:
    def test_digest_is_stable(self):
        assert _job().digest() == _job().digest()
        # Equal configs built separately hash equally too.
        assert (_job(config=NetSparseConfig()).digest()
                == _job(config=NetSparseConfig()).digest())

    @pytest.mark.parametrize("override", [
        {"scheme": "suopt"},
        {"k": 128},
        {"seed": 8},
        {"scale_name": "small"},
        {"rig_batch": 4096},
        {"scale": 0.25},
        {"partition": "nnz"},
        {"topology": ("leafspine", 2, 4, 1)},
        {"config": NetSparseConfig(n_nodes=64)},
        {"config": NetSparseConfig().with_features(property_cache=False)},
    ])
    def test_digest_changes_with_identity(self, override):
        assert _job(**override).digest() != _job().digest()

    def test_rejects_unknown_scheme_partition_topology(self):
        with pytest.raises(ValueError):
            _job(scheme="magic")
        with pytest.raises(ValueError):
            _job(partition="columns")
        with pytest.raises(ValueError):
            _job(topology=("fattree", 2, 4, 1))

    def test_compute_job_takes_no_nnz_partition(self):
        with pytest.raises(ValueError):
            _job(scheme="compute", partition="nnz")

    def test_job_is_frozen_and_picklable(self):
        import pickle

        job = _job()
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.k = 1
        assert pickle.loads(pickle.dumps(job)).digest() == job.digest()


class TestCacheCorrectness:
    def test_cache_hit_replays_bit_identical_result(self, tmp_path):
        job = _job()
        with ExecutionEngine(cache=ResultCache(tmp_path)) as eng:
            first = eng.run_job(job)
            assert eng.stats.executed == 1
        # Fresh engine, same disk cache: hit, nothing executed.
        with ExecutionEngine(cache=ResultCache(tmp_path)) as eng:
            second = eng.run_job(job)
            assert eng.stats.cache_hits == 1
            assert eng.stats.executed == 0
            assert eng.stats.hit_rate == 1.0
        _assert_identical(first, second)

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        with ExecutionEngine(cache=cache) as eng:
            eng.run_job(_job())
        with ExecutionEngine(cache=cache) as eng:
            eng.run_job(_job(config=NetSparseConfig(n_rig_units=16)))
            assert eng.stats.cache_hits == 0
            assert eng.stats.executed == 1

    def test_in_batch_duplicates_are_memo_hits(self):
        with ExecutionEngine() as eng:
            a, b = eng.run_jobs([_job(), _job()])
            assert eng.stats.executed == 1
            assert eng.stats.memo_hits == 1
        _assert_identical(a, b)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        with ExecutionEngine(cache=cache) as eng:
            eng.run_job(job)
        with cache.store.backend.transaction() as cur:
            cur.execute("UPDATE results SET payload = ? WHERE digest = ?",
                        (b"not a pickle", job.digest()))
        assert cache.get(job.digest()) is None
        # Dropped, so the re-run's put lands instead of being ignored.
        assert cache.info().n_entries == 0
        with ExecutionEngine(cache=cache) as eng:
            eng.run_job(job)
            assert eng.stats.executed == 1
        assert cache.get(job.digest()) is not None

    def test_compute_job_is_cached_and_ledgered(self, tmp_path):
        from repro.cluster.endtoend import compute_inputs
        from repro.sparse.suite import load_benchmark

        job = _job(scheme="compute", k=1)
        with ExecutionEngine(cache=ResultCache(tmp_path)) as eng:
            first = eng.run_job(job)
            assert eng.stats.executed == 1
        with ExecutionEngine(cache=ResultCache(tmp_path)) as eng:
            second = eng.run_job(job)
            assert eng.stats.cache_hits == 1
            store = eng.cache.store
            assert [r["source"] for r in store.history()] == \
                ["cache", "executed"]
        want = compute_inputs(load_benchmark(MAT, "tiny"),
                              NetSparseConfig().n_nodes)
        for got in (first, second):
            assert (got.nnz, got.n_rows, got.unique_cols) == \
                (want.nnz, want.n_rows, want.unique_cols)
            for name in ("node_nnz", "node_rows", "node_unique_cols"):
                assert getattr(got, name).dtype == np.int64
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
        assert ResultCache(tmp_path).info().by_scheme == {"compute": 1}

    def test_info_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        with ExecutionEngine(cache=cache) as eng:
            eng.run_jobs([_job(), _job(scheme="suopt")])
        info = cache.info()
        assert info.n_entries == 2
        assert info.total_bytes > 0
        assert info.by_scheme == {"netsparse": 1, "suopt": 1}
        assert "entries      : 2" in info.format()
        assert cache.clear() == 2
        assert cache.info().n_entries == 0


class TestParallelEqualsSerial:
    def test_jobs4_matches_serial_bitwise(self, tmp_path):
        jobs = [
            _job(scheme=s, k=k)
            for s in ("netsparse", "saopt", "suopt", "hybrid")
            for k in (1, 16)
        ]
        with ExecutionEngine(jobs=1) as eng:
            serial = eng.run_jobs(jobs)
        with ExecutionEngine(jobs=4, cache=ResultCache(tmp_path)) as eng:
            par = eng.run_jobs(jobs)
            assert eng.stats.executed == len(jobs)
        for a, b in zip(serial, par):
            _assert_identical(a, b)
        # And the parallel run populated the cache for all jobs.
        assert ResultCache(tmp_path).info().n_entries == len(jobs)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the killer is patched in before the fork")
class TestKilledWorker:
    def test_dead_worker_fails_loudly_then_engine_recovers(
            self, tmp_path, monkeypatch):
        import os
        from concurrent.futures.process import BrokenProcessPool

        from repro.parallel import batch

        real = batch.timed_execute

        def die_on_suopt(job):
            if job.scheme == "suopt":
                os._exit(1)
            return real(job)

        jobs = [_job(scheme="suopt", k=1), _job(scheme="saopt", k=1),
                _job(scheme="netsparse", k=1)]
        digests = [job.digest() for job in jobs]
        cache = ResultCache(tmp_path)
        with ExecutionEngine(jobs=2, cache=cache) as eng:
            monkeypatch.setattr(batch, "timed_execute", die_on_suopt)
            with pytest.raises(BrokenProcessPool):
                eng.run_jobs(jobs)
            # The killer's group comes first, so no group was noted.
            assert not set(digests) & set(eng._memo)
            assert all(cache.get(d) is None for d in digests)
            assert cache.store.history() == []
            monkeypatch.setattr(batch, "timed_execute", real)
            results = eng.run_jobs(jobs)
            assert eng.stats.executed == len(jobs)
        with ExecutionEngine(jobs=1) as serial:
            for a, b in zip(serial.run_jobs(jobs), results):
                _assert_identical(a, b)


class TestEngineGlobals:
    def test_engine_scope_restores_previous(self):
        outer = get_engine()
        inner = ExecutionEngine()
        with engine_scope(inner):
            assert get_engine() is inner
        assert get_engine() is outer

    def test_configure_engine_installs_default(self, tmp_path):
        previous = set_engine(None)
        try:
            eng = configure_engine(jobs=2, cache_dir=tmp_path)
            assert get_engine() is eng
            assert eng.jobs == 2
            assert eng.cache is not None
            uncached = configure_engine(jobs=1, use_cache=False)
            assert uncached.cache is None
        finally:
            get_engine().close()
            set_engine(previous)

    def test_simulate_front_door(self):
        with engine_scope(ExecutionEngine()):
            res = simulate("netsparse", MAT, K, scale_name="tiny")
            (again,) = simulate_many([_job()])
            assert get_engine().stats.memo_hits == 1
        _assert_identical(res, again)


class TestRunnerIntegration:
    def test_run_schemes_goes_through_engine(self):
        with engine_scope(ExecutionEngine()) as eng:
            out = run_schemes(MAT, K, scale_name="tiny",
                              schemes=("netsparse", "suopt"))
            assert eng.stats.jobs == 2
        direct = simulate("netsparse", MAT, K, scale_name="tiny")
        _assert_identical(out["netsparse"], direct)
        assert out["suopt"].scheme == "suopt"

    def test_run_schemes_explicit_topology_bypasses_engine(self):
        from repro.cluster import build_cluster_topology

        topo = build_cluster_topology(NetSparseConfig())
        with engine_scope(ExecutionEngine()) as eng:
            out = run_schemes(MAT, K, scale_name="tiny", topology=topo,
                              schemes=("netsparse",))
            # Arbitrary topology objects are not content-addressable.
            assert eng.stats.jobs == 0
        assert out["netsparse"].total_time > 0


class TestCli:
    def test_run_uses_cache_and_prints_stats(self, tmp_path, capsys):
        previous = set_engine(None)
        try:
            assert main(["run", "fig14", "--scale", "tiny",
                         "--cache-dir", str(tmp_path)]) == 0
            cold = capsys.readouterr().out
            assert "[engine]" in cold and "executed=" in cold
            assert main(["run", "fig14", "--scale", "tiny",
                         "--cache-dir", str(tmp_path), "--jobs", "2"]) == 0
            warm = capsys.readouterr().out
            assert "hit-rate=100%" in warm

            def tables(text):
                return [ln for ln in text.splitlines()
                        if ln.startswith("|")]

            assert tables(cold) == tables(warm)
        finally:
            get_engine().close()
            set_engine(previous)

    def test_warm_fig12_generates_no_matrix(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.sparse import suite

        args = ["--scale", "tiny", "--cache-dir", str(tmp_path / "cache")]
        exps = ("fig12", "fig13", "fig14", "fig21")
        previous = set_engine(None)
        try:
            for exp in exps:
                assert main(["run", exp, *args]) == 0
            capsys.readouterr()
            # Warm, in a fresh matrix store: every answer (the compute
            # model's inputs included) is cached, so no matrix is
            # loaded and no set is written.
            fresh = tmp_path / "shards"
            monkeypatch.setenv("REPRO_SHARD_DIR", str(fresh))
            monkeypatch.setattr(suite, "_memo", suite.MatrixMemo())
            for exp in exps:
                assert main(["run", exp, *args]) == 0
                assert "hit-rate=100%" in capsys.readouterr().out
                assert suite.suite_cache_stats()["misses"] == 0, exp
            assert not fresh.exists() or not any(fresh.iterdir())
        finally:
            get_engine().close()
            set_engine(previous)

    def test_no_cache_flag(self, tmp_path, capsys):
        previous = set_engine(None)
        try:
            assert main(["run", "fig14", "--scale", "tiny", "--no-cache",
                         "--cache-dir", str(tmp_path)]) == 0
            capsys.readouterr()
            assert ResultCache(tmp_path).info().n_entries == 0
        finally:
            get_engine().close()
            set_engine(previous)

    def test_cache_info_and_clear_subcommands(self, tmp_path, capsys):
        with ExecutionEngine(cache=ResultCache(tmp_path)) as eng:
            eng.run_job(_job())
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries      : 1" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cached results" in capsys.readouterr().out
        assert ResultCache(tmp_path).info().n_entries == 0

    def test_unknown_experiment_fails(self, tmp_path, capsys):
        previous = set_engine(None)
        try:
            assert main(["run", "nonesuch", "--no-cache"]) == 1
        finally:
            get_engine().close()
            set_engine(previous)
