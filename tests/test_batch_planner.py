"""Batch planner: grouping rules, engine integration, bit-identity.

The planner (:mod:`repro.parallel.batch`) may only ever change *how
fast* a sweep evaluates, never *what* it evaluates: grouping decisions
are pinned here, and the paper tables the ISSUE names (fig15-18,
autotune, table8) are asserted bit-identical between cold cluster-model memos (every
job evaluated from scratch, every stage recomputed) and warm ones
(planner groups folding their shared stages).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import reset_batch_state
from repro.config import NetSparseConfig
from repro.core.autotune import tune_rig_batch
from repro.experiments import run_experiment
from repro.parallel import (
    ExecutionEngine,
    SimJob,
    engine_scope,
    simulate_many,
)
from repro.parallel.batch import execute_group, group_key, plan_batches
from repro.parallel.jobs import execute_job, timed_execute

MAT = "queen"  # smallest tiny-scale benchmark in the suite
K = 16


def _job(**overrides) -> SimJob:
    base = dict(scheme="netsparse", matrix=MAT, k=K,
                config=NetSparseConfig(), scale_name="tiny")
    base.update(overrides)
    return SimJob(**base)


def _cfg(**overrides) -> NetSparseConfig:
    return dataclasses.replace(NetSparseConfig(), **overrides)


def _assert_identical(a, b):
    assert a.scheme == b.scheme
    assert a.total_time == b.total_time  # bitwise, no tolerance
    np.testing.assert_array_equal(a.per_node_time, b.per_node_time)
    np.testing.assert_array_equal(a.recv_wire_bytes, b.recv_wire_bytes)
    np.testing.assert_array_equal(a.sent_wire_bytes, b.sent_wire_bytes)


class TestGroupKey:
    """Which axes may vary inside one fused group."""

    @pytest.mark.parametrize("override", [
        {"k": 128},
        {"rig_batch": 4096},
        {"config": _cfg(pcache_bytes=1 << 20)},
        {"config": _cfg(pcache_ways=4)},
        {"config": _cfg(pcache_segments=16)},
        {"config": _cfg(pcache_min_line=32)},
        {"config": NetSparseConfig().with_features(property_cache=False)},
    ])
    def test_batchable_axes_share_a_group(self, override):
        assert group_key(_job(**override)) == group_key(_job())

    @pytest.mark.parametrize("override", [
        {"scheme": "suopt"},
        {"matrix": "arabic"},
        {"seed": 8},
        {"scale_name": "small"},
        {"scale": 0.25},
        {"partition": "nnz"},
        {"topology": ("leafspine", 2, 4, 1)},
        {"config": _cfg(n_nodes=64)},
        {"config": _cfg(concat_delay_cycles_nic=1000)},
        {"config": _cfg(mtu=9000)},
        {"config": NetSparseConfig().with_features(concat_nic=False)},
    ])
    def test_residual_axes_split_groups(self, override):
        assert group_key(_job(**override)) != group_key(_job())


class TestPlanBatches:
    def test_mixed_grid_splits_correctly(self):
        # Two matrices x three k values: matrix is residual, k folds.
        jobs = [_job(matrix=m, k=k)
                for m in ("queen", "arabic") for k in (16, 64, 128)]
        plan = plan_batches(jobs)
        assert plan.n_groups == 2
        assert plan.n_jobs == 6
        assert plan.n_folded == 4
        assert [len(g) for g in plan.groups] == [3, 3]
        # Groups appear in first-submission order, members in
        # submission order.
        assert [j.matrix for j in plan.groups[0]] == ["queen"] * 3
        assert [j.k for j in plan.groups[0]] == [16, 64, 128]
        assert [j.matrix for j in plan.groups[1]] == ["arabic"] * 3

    def test_inexpressible_axis_falls_back_to_singletons(self):
        # A concat-delay sweep cannot fold: every job its own group.
        jobs = [_job(config=_cfg(concat_delay_cycles_nic=d))
                for d in (125, 250, 500, 1000)]
        plan = plan_batches(jobs)
        assert plan.n_groups == 4
        assert plan.n_folded == 0
        assert all(len(g) == 1 for g in plan.groups)

    def test_every_job_exactly_once(self):
        jobs = [_job(k=k, seed=s) for k in (16, 64) for s in (7, 8)]
        plan = plan_batches(jobs)
        flat = [j for g in plan.groups for j in g]
        assert sorted(j.digest() for j in flat) == \
            sorted(j.digest() for j in jobs)

    def test_describe(self):
        plan = plan_batches([_job(k=16), _job(k=64), _job(seed=9)])
        assert plan.describe() == {
            "jobs": 3, "groups": 2, "folded": 1, "group_sizes": [2, 1],
        }

    def test_compute_jobs_are_groups_of_one(self):
        # Compute jobs differing only in a batchable axis do not fold,
        # and never join the comm jobs of their matrix.
        jobs = [_job(scheme="compute", k=1), _job(scheme="compute", k=2),
                _job(), _job(k=128)]
        plan = plan_batches(jobs)
        assert [len(g) for g in plan.groups] == [1, 1, 2]

    def test_empty(self):
        plan = plan_batches([])
        assert plan.n_jobs == plan.n_groups == plan.n_folded == 0


class TestExecuteGroup:
    def test_bit_identical_to_individual_execution(self):
        jobs = [_job(k=k) for k in (16, 64)]
        reset_batch_state()
        grouped = execute_group(jobs)
        reset_batch_state()
        solo = [timed_execute(j) for j in jobs]
        assert len(grouped) == 2
        for (gr, _), (sr, _) in zip(grouped, solo):
            _assert_identical(gr, sr)


class TestEngineIntegration:
    def _grid(self):
        return [_job(matrix=m, k=k)
                for m in ("queen", "europe") for k in (16, 64, 128)]

    def _run(self, jobs=None):
        reset_batch_state()
        with engine_scope(ExecutionEngine()) as eng:
            results = simulate_many(jobs or self._grid())
            stats = eng.stats
        return results, stats

    def test_batched_results_match_legacy_bitwise(self, cold_memos):
        fast, fast_stats = self._run()
        # Legacy semantics: every job alone, every stage from scratch.
        with cold_memos():
            slow = [execute_job(job) for job in self._grid()]
        for a, b in zip(fast, slow):
            _assert_identical(a, b)
        # The planner really ran: group riders carry batched attribution.
        assert fast_stats.batched == 4   # 2 groups of 3 -> 2x2 riders
        assert fast_stats.executed == 6

    def test_single_job_is_a_group_of_one(self):
        results, stats = self._run(jobs=[_job()])
        assert len(results) == 1
        assert stats.executed == 1
        assert stats.batched == 0

    def test_batched_counter_in_summary(self):
        _, stats = self._run()
        assert "batched=4" in stats.summary()
        assert stats.as_dict()["batched"] == 4

    def test_parallel_groups_match_serial(self, tmp_path):
        jobs = self._grid()
        reset_batch_state()
        with engine_scope(ExecutionEngine()) as eng:
            serial = simulate_many(jobs)
        reset_batch_state()
        with engine_scope(ExecutionEngine(jobs=2)) as eng:
            parallel = simulate_many(jobs)
            assert eng.stats.batched > 0
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)


class TestEvaluateMany:
    """tune_rig_batch(evaluate_many=...) probes the same points in the
    same order and lands on the same answer as the scalar path."""

    @staticmethod
    def _cost(batch):
        return abs(np.log2(batch) - np.log2(48 * 1024)) + 0.001

    def test_same_probes_same_result(self):
        scalar_calls = []

        def evaluate(batch):
            scalar_calls.append(batch)
            return self._cost(batch)

        many_rounds = []

        def evaluate_many(batches):
            many_rounds.append(list(batches))
            return [self._cost(b) for b in batches]

        a = tune_rig_batch(evaluate)
        b = tune_rig_batch(evaluate_many=evaluate_many)
        assert a.best_batch == b.best_batch
        assert a.best_time == b.best_time
        assert a.probes == b.probes
        assert a.n_evaluations == b.n_evaluations
        # Round granularity changed; the probe sequence did not.
        flat = [x for round_ in many_rounds for x in round_]
        assert flat == scalar_calls

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tune_rig_batch(evaluate_many=lambda batches: [1.0])

    def test_requires_an_evaluator(self):
        with pytest.raises(ValueError):
            tune_rig_batch()


class TestTraceCacheContention:
    def test_contended_build_counted(self):
        from repro.partition.tracecache import TraceCache
        from repro.sparse.suite import load_benchmark

        mat = load_benchmark(MAT, "tiny")
        cache = TraceCache(max_entries=4)
        cache.get_partition(mat, 4)
        assert cache.contended_builds == 0
        # A second miss while a build for the same key is in flight is
        # the contention the engine's trace-ordered dispatch avoids.
        key = (mat.path, 8, "rows")
        cache._building.add(key)
        cache.get_partition(mat, 8)
        assert cache.contended_builds == 1
        assert cache.stats()["contended_builds"] == 1
        # The finished build cleans up its in-flight marker.
        assert key not in cache._building


@pytest.mark.parametrize(
    "exp_id", ["fig15", "fig16", "fig17", "fig18", "autotune", "table8"]
)
def test_experiment_bit_identical_across_modes(exp_id, cold_memos):
    """Each sweep's full table is bit-identical with the cluster-model
    memos cold (every stage recomputed) and warm (shared stages folded
    across the sweep points)."""
    with cold_memos(), engine_scope(ExecutionEngine()):
        cold = run_experiment(exp_id, scale="tiny")
    with engine_scope(ExecutionEngine()):
        warm = run_experiment(exp_id, scale="tiny")
    assert warm.columns == cold.columns
    assert warm.rows == cold.rows
