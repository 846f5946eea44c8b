"""repro.telemetry core: registry semantics, disabled-mode guarantees,
exporter round trips."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import batch_stats, reset_batch_state
from repro.config import NetSparseConfig
from repro.sparse.suite import load_benchmark, scale_factor
from repro.telemetry import (
    MetricsRegistry,
    chrome_trace_dict,
    load_chrome_trace,
    metrics_csv_lines,
    metrics_dict,
    telemetry_scope,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# -- counter / gauge / histogram semantics -----------------------------


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

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("engine.pool.workers", 4)
        reg.set_gauge("engine.pool.workers", 8)
        assert reg.gauges["engine.pool.workers"].value == 8.0

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


# -- spans and probes --------------------------------------------------


class TestSpans:
    def test_wall_span_context_manager_records(self):
        reg = MetricsRegistry()
        with reg.span("cluster.stage.filter", matrix="arabic"):
            pass
        (s,) = reg.spans
        assert s.name == "cluster.stage.filter"
        assert s.clock == "wall"
        assert s.duration >= 0
        assert s.args == {"matrix": "arabic"}

    def test_sim_span_explicit_times(self):
        reg = MetricsRegistry()
        reg.add_span("dessim.gather", 1.5, 2.5, clock="sim", nodes=8)
        (s,) = reg.spans
        assert (s.start, s.duration, s.clock) == (1.5, 2.5, "sim")

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().add_span("a.b", 0, 1, clock="cpu")

    def test_span_totals_by_clock(self):
        reg = MetricsRegistry()
        reg.add_span("a.b", 0, 1.0, clock="sim")
        reg.add_span("a.b", 2, 3.0, clock="sim")
        reg.add_span("a.b", 0, 0.5, clock="wall")
        assert reg.span_totals("sim") == {"a.b": (2, 4.0)}
        assert reg.span_totals("wall") == {"a.b": (1, 0.5)}
        assert reg.span_totals() == {"a.b": (3, 4.5)}

    def test_probe_records_instant_and_feeds_histogram(self):
        reg = MetricsRegistry()
        reg.probe("dessim.queue.sample", value=7.0, clock="sim", at=0.25)
        (p,) = reg.probes
        assert p.at == 0.25 and p.value == 7.0
        assert reg.histograms["dessim.queue.sample"].samples == [7.0]


# -- enable/disable and the zero-overhead module API -------------------


class TestActivation:
    def test_disabled_by_default_and_noop(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()
        # None of these may raise or allocate registries when disabled.
        telemetry.count("a.b", 3)
        telemetry.observe("a.b", 1.0)
        telemetry.set_gauge("a.b", 2.0)
        telemetry.add_span("a.b", 0, 1)
        telemetry.probe("a.b", 1.0)
        with telemetry.span("a.b", k=16):
            pass
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
            with telemetry.span("cluster.stage.filter"):
                pass
        assert reg.counters["cluster.filter.drops"].value == 5
        assert reg.histograms["concat.prs_per_packet"].count == 1
        assert len(reg.spans) == 1


# -- disabled-mode bit-identical simulation ----------------------------


class TestBitIdentical:
    def test_simulate_netsparse_identical_with_and_without_telemetry(self):
        from repro.cluster import simulate_netsparse

        mat = load_benchmark("arabic", "tiny")
        sc = scale_factor("arabic", mat)
        cfg = NetSparseConfig()

        baseline = simulate_netsparse(mat, 16, cfg, scale=sc)
        # Cold memos, as `netsparse profile` runs: every stage executes.
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
        # ...and the instrumented run actually recorded the stages.
        assert reg.counters["cluster.filter.candidates"].value > 0
        stage_spans = {s.name for s in reg.spans}
        assert {"cluster.stage.filter", "cluster.stage.cache",
                "cluster.stage.respond",
                "cluster.stage.timing"} <= stage_spans

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
        assert {"cluster.stage.filter", "cluster.stage.cache",
                "cluster.stage.respond",
                "cluster.stage.timing"} <= {s.name for s in reg.spans}
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
        sim_spans = [s for s in reg.spans if s.clock == "sim"]
        assert any(s.name == "dessim.gather" and s.duration > 0
                   for s in sim_spans)
        assert reg.counters["dessim.prs.issued"].value == base.issued_prs


# -- exporters ---------------------------------------------------------


def _loaded_registry():
    reg = MetricsRegistry()
    reg.count("cluster.filter.drops", 12, matrix="arabic")
    reg.set_gauge("engine.pool.workers", 4)
    reg.observe("concat.prs_per_packet", 5.5)
    reg.observe("concat.prs_per_packet", 7.5)
    reg.add_span("cluster.stage.filter", 0.125, 1.0, clock="wall",
                 matrix="arabic", k=16)
    reg.add_span("dessim.gather", 0.001, 0.002, clock="sim", nodes=8)
    reg.probe("pcache.sample", value=3.0, clock="sim", at=0.0015)
    return reg


class TestExport:
    def test_metrics_json_dump(self, tmp_path):
        path = write_metrics_json(_loaded_registry(), str(tmp_path / "m.json"),
                                  meta={"experiment": "table7"})
        data = json.loads(open(path).read())
        assert data["schema"] == "repro.telemetry/v1"
        assert data["meta"]["experiment"] == "table7"
        assert data["counters"]["cluster.filter.drops"] == 12
        assert data["counters"]["cluster.filter.drops{matrix=arabic}"] == 12
        assert data["histograms"]["concat.prs_per_packet"]["count"] == 2
        assert data["spans"]["wall"]["cluster.stage.filter"]["total_s"] == 1.0
        assert data["spans"]["sim"]["dessim.gather"]["count"] == 1

    def test_csv_covers_every_metric_kind(self, tmp_path):
        path = write_metrics_csv(_loaded_registry(), str(tmp_path / "m.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "metric,kind,field,value"
        kinds = {ln.split(",")[1] for ln in lines[1:]}
        assert {"counter", "gauge", "histogram", "span.wall",
                "span.sim"} <= kinds

    def test_chrome_trace_round_trip(self, tmp_path):
        reg = _loaded_registry()
        path = write_chrome_trace(reg, str(tmp_path / "t.trace.json"))
        events = load_chrome_trace(path)

        spans = [e for e in events if "duration" in e]
        probes = [e for e in events if "at" in e]
        assert len(spans) == len(reg.spans)
        assert len(probes) == len(reg.probes)
        by_name = {e["name"]: e for e in spans}
        filt = by_name["cluster.stage.filter"]
        assert filt["clock"] == "wall"
        assert filt["start"] == pytest.approx(0.125, abs=1e-8)
        assert filt["duration"] == pytest.approx(1.0, abs=1e-8)
        assert filt["args"] == {"matrix": "arabic", "k": 16}
        gather = by_name["dessim.gather"]
        assert gather["clock"] == "sim"
        assert gather["start"] == pytest.approx(0.001, abs=1e-9)
        assert gather["duration"] == pytest.approx(0.002, abs=1e-9)
        (p,) = probes
        assert p["clock"] == "sim"
        assert p["args"]["value"] == 3.0

    def test_chrome_trace_separates_clock_processes(self):
        trace = chrome_trace_dict(_loaded_registry())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        pids = {e["name"]: e["pid"] for e in spans}
        assert pids["cluster.stage.filter"] != pids["dessim.gather"]
        proc_names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(proc_names.values()) == {"wall-clock", "simulated-time"}

    def test_metrics_dict_matches_snapshot(self):
        reg = _loaded_registry()
        d = metrics_dict(reg)
        assert d["counters"] == reg.snapshot()["counters"]
        assert "exported_at" in d

    def test_csv_quotes_commas_in_labelled_names(self):
        reg = MetricsRegistry()
        reg.count("a.b", 1, x=1, y=2)     # -> a.b{x=1,y=2}
        lines = metrics_csv_lines(reg)
        assert any(ln.startswith('"a.b{x=1,y=2}"') for ln in lines)
