"""Paper-shaped sharded sweep: streamed generation into the shard
store, windowed trace extraction, full cluster model — with wall and
peak-RSS budgets asserted in-test.

This is the benchmark the out-of-core tier exists for: at
``REPRO_BENCH_SCALE=large`` both matrices exceed 10M nonzeros (queen
~14.7M, europe ~18M) yet the sweep stays inside a CI-sized resident
set, because traces come back as disk-backed windows and the model
releases each node's window after its scatter stage.

At ``paper`` scale the full model runs (3-34 s of model time per
matrix), but its generation needs GBs of disk per matrix (each set
takes 4 bytes per nonzero plus 4 per row, and the streamed generator's
scratch draws up to 26 bytes per nonzero more while it runs), so the
sweep skips itself there — the trace-extraction-only row
below is the benchmark that *does* run at paper scale: streamed
generation into the shard store plus a full windowed-trace walk
(touch, classify remote, release), no kernel dispatch.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import build_cluster_topology, simulate_netsparse
from repro.config import NetSparseConfig
from repro.partition import TraceCache, build_partition, set_trace_cache
from repro.sparse.shards import is_sharded
from repro.sparse.suite import stored_set

from conftest import peak_rss_mb, run_once

#: The two matrices that clear 10M nnz at scale=large.
SWEEP = ("queen", "europe")
K = 16

#: Per-scale (wall seconds, peak RSS MiB) budgets.  RSS is a
#: process-wide high-water mark shared with whatever ran earlier in a
#: combined session, so the numbers are generous; the dedicated CI leg
#: runs this file alone at scale=large, where the budget bites.
#: Measured locally at large: ~15s wall, ~1.1GiB peak RSS.  The large
#: budgets leave slow-runner headroom but sit well below what a dense
#: (unsharded) run of the same sweep would need, so a regression that
#: silently drops the out-of-core path fails here.
BUDGETS = {
    "tiny": (120, 2048),
    "small": (240, 2560),
    "medium": (900, 3072),
    "large": (600, 3072),
}

#: Resident-trace budget for the sweep's TraceCache (idx elements).
RESIDENT_NNZ = 32 * 1024 * 1024

#: ``structural_digest()`` of each benchmark at ``large`` (seed 7); the
#: sweep asserts the ones it generates.
LARGE_DIGESTS = {
    "arabic": "f0e39203522ec55ca3eaeb0ecf192102",
    "europe": "4463795119499f9edc1d7c1c73e4150b",
    "queen": "33de8452366b80b25d039e6f9a2fff1a",
    "stokes": "4f1a564ab1738efe18531595114b56ab",
    "uk": "aabc4137104477d2510e450dbdb4e1c1",
}


def _open(name: str, scale: str):
    """The stored set, read sharded at every scale; pinned at large."""
    mat = stored_set(name, scale)
    assert is_sharded(mat)
    if scale == "large":
        assert mat.structural_digest() == LARGE_DIGESTS[name], name
    return mat


def _sweep(scale: str):
    cfg = NetSparseConfig()
    topo = build_cluster_topology(cfg)
    out = {}
    for name in SWEEP:
        mat = _open(name, scale)
        out[name] = (mat.nnz, simulate_netsparse(mat, K, cfg, topo))
    return out


def test_bench_sharded_sweep(benchmark, scale):
    if scale not in BUDGETS:
        pytest.skip("paper scale: generation + traces only, no model")
    wall_budget, rss_budget = BUDGETS[scale]
    prev = set_trace_cache(TraceCache(max_resident_nnz=RESIDENT_NNZ))
    t0 = time.perf_counter()
    try:
        results = run_once(benchmark, _sweep, scale=scale)
    finally:
        set_trace_cache(prev)
    elapsed = time.perf_counter() - t0

    for name, (nnz, res) in results.items():
        assert res.total_time > 0
        if scale == "large":
            assert nnz >= 10_000_000, (name, nnz)
    assert elapsed < wall_budget, f"wall {elapsed:.0f}s > {wall_budget}s"
    rss = peak_rss_mb()
    assert rss < rss_budget, f"peak RSS {rss:.0f}MiB > {rss_budget}MiB"


#: Trace-extraction-only row (ROADMAP item 3 follow-on): matrices,
#: (wall s, peak RSS MiB) budgets.  Paper scale sticks to queen — the
#: smallest Table-6 matrix is already ~200M nonzeros, which exercises
#: the whole sharded path (streamed generation, shard store, windowed
#: extraction) without the multi-hour europe generation.  Measured
#: locally at paper: ~32s wall end to end.
TRACE_ONLY = {
    "tiny": (("queen", "europe"), 120, 2048),
    "small": (("queen", "europe"), 240, 2560),
    "medium": (("queen", "europe"), 600, 3072),
    "large": (("queen", "europe"), 600, 3072),
    "paper": (("queen",), 900, 6144),
}

N_NODES = 128


def _extract_traces(scale: str, matrices):
    """Generation + windowed trace walk only — no kernel dispatch."""
    out = {}
    for name in matrices:
        mat = _open(name, scale)
        part = build_partition(mat, N_NODES)
        total = remote = 0
        for tr in part.node_traces():
            total += int(tr.n_nonzeros)
            remote += int(tr.remote.sum())
            tr.release()               # bounded-resident walk
        out[name] = (mat.nnz, total, remote)
    return out


def test_bench_trace_extraction(benchmark, scale):
    matrices, wall_budget, rss_budget = TRACE_ONLY[scale]
    t0 = time.perf_counter()
    results = run_once(benchmark, _extract_traces, scale, matrices)
    elapsed = time.perf_counter() - t0

    for name, (nnz, total, remote) in results.items():
        assert total == nnz, (name, total, nnz)   # every nonzero walked
        assert 0 < remote < nnz, name
        if scale == "paper":
            assert nnz >= 100_000_000, (name, nnz)
    assert elapsed < wall_budget, f"wall {elapsed:.0f}s > {wall_budget}s"
    rss = peak_rss_mb()
    assert rss < rss_budget, f"peak RSS {rss:.0f}MiB > {rss_budget}MiB"
