"""repro.telemetry core: registry semantics, disabled-mode guarantees,
and live counters on a real experiment."""

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import batch_stats, reset_batch_state
from repro.config import NetSparseConfig
from repro.sparse.suite import load_benchmark, scale_factor
from repro.telemetry import MetricsRegistry, telemetry_scope


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# -- counter / histogram semantics -------------------------------------


class TestMetrics:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("cluster.filter.drops")
        assert c is reg.counter("cluster.filter.drops")
        c.inc()
        c.inc(41)
        assert reg.counters["cluster.filter.drops"].value == 42

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a.b").inc(-1)

    def test_invalid_metric_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "a..b", ".a", "a.", "a b", "a,b"):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_labelled_count_increments_base_and_sibling(self):
        reg = MetricsRegistry()
        reg.count("pcache.hits", 3, matrix="arabic")
        reg.count("pcache.hits", 2, matrix="uk")
        assert reg.counters["pcache.hits"].value == 5
        assert reg.counters["pcache.hits{matrix=arabic}"].value == 3
        assert reg.counters["pcache.hits{matrix=uk}"].value == 2

    def test_histogram_summary_and_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("concat.prs_per_packet")
        for v in range(1, 101):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 100 and s["min"] == 1 and s["max"] == 100
        assert s["mean"] == pytest.approx(50.5)
        assert h.percentile(0) == 1 and h.percentile(100) == 100
        assert h.percentile(50) == pytest.approx(50.5)
        assert s["p99"] == pytest.approx(99.01)

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("x.y").summary() == {"count": 0}

    def test_snapshot_holds_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.count("cluster.filter.drops", 12, matrix="arabic")
        reg.observe("concat.prs_per_packet", 5.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"] == {
            "cluster.filter.drops": 12,
            "cluster.filter.drops{matrix=arabic}": 12,
        }
        assert snap["histograms"]["concat.prs_per_packet"]["count"] == 1

    def test_merge_adds_counts_and_samples(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.count("pcache.hits", 2)
        parent.observe("concat.prs_per_packet", 1.0)
        worker.count("pcache.hits", 3, matrix="uk")
        worker.observe("concat.prs_per_packet", 4.0)
        parent.merge(worker)
        assert parent.snapshot()["counters"] == {
            "pcache.hits": 5, "pcache.hits{matrix=uk}": 3}
        assert parent.histograms["concat.prs_per_packet"].samples == [1.0, 4.0]
        assert worker.counters["pcache.hits"].value == 3


# -- enable/disable and the zero-overhead module API -------------------


class TestActivation:
    def test_disabled_by_default_and_noop(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()
        # None of these may raise or allocate registries when disabled.
        telemetry.count("a.b", 3)
        telemetry.observe("a.b", 1.0)
        assert telemetry.active() is None

    def test_scope_installs_and_restores(self):
        outer = MetricsRegistry()
        telemetry.enable(outer)
        with telemetry_scope() as inner:
            assert telemetry.active() is inner
            assert inner is not outer
            telemetry.count("x.y")
        assert telemetry.active() is outer
        assert "x.y" not in outer.counters
        telemetry.disable()

    def test_module_api_records_into_active_registry(self):
        with telemetry_scope() as reg:
            telemetry.count("cluster.filter.drops", 5, matrix="uk")
            telemetry.observe("concat.prs_per_packet", 9.5)
        assert reg.counters["cluster.filter.drops"].value == 5
        assert reg.counters["cluster.filter.drops{matrix=uk}"].value == 5
        assert reg.histograms["concat.prs_per_packet"].count == 1


# -- disabled-mode bit-identical simulation ----------------------------


def _assert_stage_counters(reg, result):
    """The filter, cache and respond stages recorded into ``reg``
    exactly what ``result`` (one ``simulate_netsparse`` call) reports;
    the timing stage counts nothing."""
    counters = {k: c.value for k, c in reg.counters.items()}
    assert counters["cluster.filter.candidates"] > 0          # filter
    assert counters["cluster.filter.issued"] > 0
    assert counters["cluster.filter.drops"] == result.n_filtered
    assert counters["cluster.filter.coalesced"] == result.n_coalesced
    assert counters["pcache.lookups"] > 0                     # cache
    assert counters["pcache.hits"] == result.cache_hits
    assert counters["concat.packets"] == result.n_packets     # respond
    assert counters["concat.packets"] > 0


class TestBitIdentical:
    def test_simulate_netsparse_identical_with_and_without_telemetry(self):
        from repro.cluster import simulate_netsparse

        mat = load_benchmark("arabic", "tiny")
        sc = scale_factor("arabic", mat)
        cfg = NetSparseConfig()

        baseline = simulate_netsparse(mat, 16, cfg, scale=sc)
        # Cold memos: every stage executes.
        reset_batch_state()
        with telemetry_scope() as reg:
            instrumented = simulate_netsparse(mat, 16, cfg, scale=sc)
        rerun = simulate_netsparse(mat, 16, cfg, scale=sc)

        for r in (instrumented, rerun):
            assert r.total_time == baseline.total_time
            assert np.array_equal(r.per_node_time, baseline.per_node_time)
            assert np.array_equal(r.recv_wire_bytes, baseline.recv_wire_bytes)
            assert np.array_equal(r.sent_wire_bytes, baseline.sent_wire_bytes)
            assert r.n_filtered == baseline.n_filtered
            assert r.n_coalesced == baseline.n_coalesced
            assert r.cache_hits == baseline.cache_hits
            assert r.n_packets == baseline.n_packets
        # ...and the instrumented run recorded every stage's counters.
        _assert_stage_counters(reg, baseline)

    def test_warm_instrumented_call_takes_the_memo_path(self):
        """Telemetry does not change which code runs: on warm memos an
        instrumented call hits and misses each memo exactly as a plain
        call does, records every stage, and returns the identical
        result.  Both warm routes are covered: a new cache geometry
        scored from the reuse profiles the merge entries hold, and a
        repeated one answered by its held hit mask."""
        import dataclasses

        from repro.cluster import build_cluster_topology, simulate_netsparse

        def memo_counts():
            return {name: np.array([s["hits"], s["misses"]])
                    for name, s in batch_stats().items()
                    if name != "profile"}

        def profile_counts():
            prof = batch_stats()["profile"]
            return prof["profiles_built"], prof["scores"]

        def delta(before, after):
            return {name: tuple(after[name] - before[name])
                    for name in after}

        mat = load_benchmark("queen", "tiny")
        cfg = NetSparseConfig()
        half, quarter, eighth = (
            dataclasses.replace(cfg, pcache_bytes=cfg.pcache_bytes // d)
            for d in (2, 4, 8)
        )
        topo = build_cluster_topology(cfg)
        reset_batch_state()
        # Two warm-up calls: the second distinct geometry builds the
        # reuse profiles, so the two measured calls below, each on a
        # geometry of its own, take the same route.
        simulate_netsparse(mat, 16, cfg, topo)
        simulate_netsparse(mat, 16, half, topo)
        built, scores = profile_counts()
        assert built > 0
        c0 = memo_counts()
        baseline = simulate_netsparse(mat, 16, quarter, topo)
        c1 = memo_counts()
        with telemetry_scope() as reg:
            instrumented = simulate_netsparse(mat, 16, eighth, topo)
        c2 = memo_counts()
        plain = delta(c0, c1)
        assert plain == delta(c1, c2)
        assert plain["masks"][0] > 0 and plain["merges"][0] > 0
        # A third and a fourth geometry on the held streams are scored
        # from their profiles: none is built again.
        built_now, scores_now = profile_counts()
        assert built_now == built and scores_now > scores
        _assert_stage_counters(reg, instrumented)
        # The same geometries again: their held masks answer both calls,
        # so neither consults the profiles.
        with telemetry_scope():
            instrumented_repeat = simulate_netsparse(mat, 16, quarter, topo)
        c3 = memo_counts()
        plain_repeat = simulate_netsparse(mat, 16, eighth, topo)
        c4 = memo_counts()
        assert delta(c2, c3) == delta(c3, c4)
        assert profile_counts() == (built, scores_now)
        for plain_run, instrumented_run in ((baseline, instrumented_repeat),
                                            (plain_repeat, instrumented)):
            assert instrumented_run is not plain_run
            assert instrumented_run.total_time == plain_run.total_time
            assert np.array_equal(instrumented_run.per_node_time,
                                  plain_run.per_node_time)
            assert np.array_equal(instrumented_run.recv_wire_bytes,
                                  plain_run.recv_wire_bytes)
            assert instrumented_run.cache_hits == plain_run.cache_hits
            assert instrumented_run.n_packets == plain_run.n_packets

    def test_des_gather_identical_with_and_without_telemetry(self):
        from repro.dessim import run_des_gather

        mat = load_benchmark("queen", "tiny")
        base = run_des_gather(mat, k=4, n_racks=2, nodes_per_rack=2)
        with telemetry_scope() as reg:
            instrumented = run_des_gather(mat, k=4, n_racks=2,
                                          nodes_per_rack=2)
        assert instrumented.finish_time == base.finish_time
        assert instrumented.issued_prs == base.issued_prs
        assert instrumented.fabric_bytes == base.fabric_bytes
        assert instrumented.received == base.received
        assert base.issued_prs > 0
        assert reg.counters["dessim.prs.issued"].value == base.issued_prs
        assert reg.counters["dessim.fabric.bytes"].value == base.fabric_bytes


# -- counters are live on a real experiment ---------------------------


@pytest.fixture(scope="module")
def table7_counters():
    """One tiny table7 run under telemetry, on cold memos and a serial,
    uncached engine, so every instrumented stage executes in this
    process: ``(table, {counter: value})``."""
    from repro.experiments import run_experiment
    from repro.parallel import ExecutionEngine, engine_scope

    telemetry.disable()
    reset_batch_state()
    with engine_scope(ExecutionEngine(jobs=1, cache=None)):
        with telemetry_scope() as reg:
            table = run_experiment("table7", scale="tiny")
    return table, {k: c.value for k, c in reg.counters.items()}


class TestCounterLiveness:
    def test_pipeline_counters_nonzero(self, table7_counters):
        _, counters = table7_counters
        for name in ("cluster.filter.candidates", "cluster.filter.drops",
                     "cluster.filter.coalesced", "cluster.filter.issued",
                     "pcache.lookups", "pcache.hits", "concat.packets",
                     "engine.jobs", "engine.executed"):
            assert counters.get(name, 0) > 0, f"dead counter: {name}"
        # drops < candidates, hits <= lookups: basic sanity of the stages.
        assert counters["cluster.filter.drops"] < \
            counters["cluster.filter.candidates"]
        assert counters["pcache.hits"] <= counters["pcache.lookups"]

    def test_arabic_labelled_counters_nonzero(self, table7_counters):
        _, counters = table7_counters
        for name in ("cluster.filter.drops{matrix=arabic}",
                     "cluster.filter.coalesced{matrix=arabic}",
                     "pcache.hits{matrix=arabic}"):
            assert counters.get(name, 0) > 0, f"dead counter: {name}"

    def test_table_matches_untelemetered_run(self, table7_counters):
        """Telemetry must observe, never perturb: the instrumented
        table equals the plain run's table."""
        from repro.experiments import run_experiment

        table, _ = table7_counters
        assert telemetry.active() is None
        plain = run_experiment("table7", scale="tiny")
        assert table.columns == plain.columns
        assert table.rows == plain.rows


#: Metrics of per-process caches: which process asks first sets their
#: hit/miss split, not what the simulation did.
_PROCESS_LOCAL = ("perf.trace_cache.", "sparse.suite.cache.")


def _table7_metrics(jobs):
    from repro.experiments import run_experiment
    from repro.parallel import ExecutionEngine, engine_scope

    reset_batch_state()
    with ExecutionEngine(jobs=jobs, cache=None) as eng, engine_scope(eng):
        with telemetry_scope() as reg:
            table = run_experiment("table7", scale="tiny")
    snap = reg.snapshot()
    counters = {k: v for k, v in snap["counters"].items()
                if not k.startswith(_PROCESS_LOCAL)}
    hist_counts = {k: h["count"] for k, h in snap["histograms"].items()}
    return table.rows, counters, hist_counts


def test_pool_workers_counters_reach_parent():
    """A pooled run's workers return their counters and histograms to
    the parent's registry: tiny table7 reads the same at jobs=2 as at
    jobs=1."""
    serial = _table7_metrics(jobs=1)
    pooled = _table7_metrics(jobs=2)
    assert serial[1]["cluster.filter.candidates"] > 0
    assert pooled == serial
