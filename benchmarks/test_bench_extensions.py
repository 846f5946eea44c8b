"""Benchmarks for the extension studies (beyond the paper's artifacts)."""

from conftest import PAPER_CLAIMS, run_once

from repro.experiments import run_experiment


def test_sharing(benchmark, scale):
    table = run_once(benchmark, run_experiment, "sharing", scale=scale)
    shared = dict(zip(table.column("matrix"), table.column("shared PRs %")))
    # The web crawls (shared hubs) dominate; meaningful sharing exists
    # everywhere the paper's caching argument relies on it.
    assert shared["arabic"] > 50 and shared["uk"] > 50
    assert shared["mean"] > 25


def test_des_validation(benchmark):
    table = run_once(benchmark, run_experiment, "des_validation")
    ratios = table.column("byte ratio")
    # Two independent implementations agree on traffic within 2x.
    assert all(0.5 < r < 2.0 for r in ratios)
    for row in table.rows:
        # The DES never issues more PRs than the trace model's
        # window-approximated filter (its filter state is exact).
        assert row[1] <= row[2] * 1.05


def test_concat_virtualization(benchmark):
    table = run_once(benchmark, run_experiment, "concat_virtualization")
    by_design = {r[0]: r for r in table.rows}
    dedicated = by_design["dedicated (2*127 CQs)"]
    ample = by_design["virtual pool=256"]
    starved = by_design["virtual pool=16"]
    # Ample virtual pool matches dedicated packing with less SRAM.
    assert ample[1] <= dedicated[1] * 1.02
    assert ample[3] < dedicated[3]
    # Starved pool degrades packing but still beats no concatenation.
    assert starved[2] < ample[2]
    assert starved[2] > 1.5


def test_autotune(benchmark, scale):
    table = run_once(benchmark, run_experiment, "autotune", scale=scale)
    if not PAPER_CLAIMS:
        assert table.rows
        return
    speedups = table.column("speedup vs static")
    probes = table.column("probes")
    # Tuning never loses to the static choice and helps somewhere, in
    # at most the 8 probes EXPERIMENTS.md claims.
    assert all(s >= 0.999 for s in speedups)
    assert max(speedups) > 1.2
    assert all(p <= 8 for p in probes)


def test_spgemm_preview(benchmark):
    table = run_once(benchmark, run_experiment, "spgemm_preview")
    fc = table.column("F+C %")
    over = table.column("SU overfetch x")
    assert all(f > 30 for f in fc)        # row-request reuse is filterable
    assert all(o > 5 for o in over)       # SU replication is wasteful


def test_iterative(benchmark, scale):
    table = run_once(benchmark, run_experiment, "iterative", scale=scale)
    rows = [r for r in table.rows if r[0] == "arabic"]
    by_frac = {r[1]: r for r in rows}
    # Sampling halves keep less traffic and adds jitter.
    assert by_frac[0.25][4] < by_frac[1.0][4]
    assert by_frac[0.25][3] >= by_frac[1.0][3]


def test_cache_policy(benchmark, scale):
    table = run_once(benchmark, run_experiment, "cache_policy", scale=scale)
    if not PAPER_CLAIMS:
        assert table.rows
        return
    for row in table.rows:
        lru, fifo, rnd = row[1], row[2], row[3]
        # All policies land in the same band on these streams; LRU is
        # never beaten by more than a couple of points.
        assert lru >= fifo - 2.5
        assert lru >= rnd - 2.5
        assert lru > 20


def test_scaling(benchmark, scale):
    table = run_once(benchmark, run_experiment, "scaling", scale=scale)
    if not PAPER_CLAIMS:
        assert table.rows
        return
    for name in ("arabic", "europe", "queen"):
        rows = [r for r in table.rows if r[0] == name]
        speedups = [r[2] for r in rows]
        # The NetSparse advantage over SU widens monotonically with N.
        assert speedups == sorted(speedups)
        assert speedups[-1] > 2 * speedups[0]


def test_hybrid_baseline(benchmark, scale):
    table = run_once(benchmark, run_experiment, "hybrid_baseline",
                     scale=scale)
    if not PAPER_CLAIMS:
        assert table.rows
        return
    vs_sa = table.column("hybrid/SAOpt x")
    ns_over = table.column("NS over hybrid x")
    # The hybrid never loses to SAOpt (it degenerates to it), and
    # NetSparse beats even this strongest software baseline everywhere.
    assert all(v >= 0.99 for v in vs_sa)
    assert all(x > 2 for x in ns_over)


def test_comm_energy(benchmark, scale):
    table = run_once(benchmark, run_experiment, "comm_energy", scale=scale)
    vs_su = table.column("vs SU x")
    vs_sa = table.column("vs SA x")
    assert all(v > 5 for v in vs_su)
    assert all(v > 20 for v in vs_sa)
    if PAPER_CLAIMS:
        # EXPERIMENTS.md: at least 27x vs SUOpt and 278x vs SAOpt.
        assert all(v >= 27 for v in vs_su)
        assert all(v >= 278 for v in vs_sa)


def test_latency_profile(benchmark):
    table = run_once(benchmark, run_experiment, "latency_profile")
    for row in table.rows:
        _, count, p50, p90, p99, mx = row
        assert count > 0
        assert 0 < p50 <= p90 <= p99 <= mx


def test_partitioning(benchmark, scale):
    table = run_once(benchmark, run_experiment, "partitioning", scale=scale)
    if not PAPER_CLAIMS:
        assert table.rows
        return
    by = {r[0]: r for r in table.rows}
    # Balancing collapses nnz imbalance on the skewed crawls...
    assert by["arabic"][1] > 1.5 and by["arabic"][2] < 1.2
    # ...and the end-to-end effect is a (possibly small) win there.
    assert by["arabic"][4] >= 1.0
    # Already-balanced matrices are unaffected (within 10%).
    for name in ("europe", "queen"):
        assert 0.9 < by[name][4] < 1.1
