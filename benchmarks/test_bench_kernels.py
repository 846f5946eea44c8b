"""Microbenchmarks for the fast hot-loop kernels.

These publish kernel-level wall times into the same ``BENCH_<date>.json``
artifact as the table benchmarks, so a regression in one kernel is
visible in that artifact even when the end-to-end walls hide it behind
caching.  Workloads are sized by ``REPRO_BENCH_SCALE``
and exercise the shapes the 128-node cluster model actually feeds the
kernels (skewed PR streams, rack-merged destination streams, batched
RIG dispatch), the per-node compute model behind the end-to-end
figures, the inputs every experiment builds first (the five
benchmark matrices and SAOpt's per-rank PR counts), and whole
cluster-model calls, cold and on a repeated cache geometry.
"""

from types import SimpleNamespace

import numpy as np

from conftest import run_once

from repro.baselines.saopt import saopt_pr_counts
from repro.cluster import (
    build_cluster_topology,
    reset_batch_state,
    simulate_netsparse,
)
from repro.cluster.endtoend import per_node_compute_times
from repro.config import NetSparseConfig
from repro.core.concat import window_concat
from repro.core.pcache_fast import delayed_cache_hits
from repro.core.rig import rig_generation_time
from repro.partition import TraceCache, cached_partition, set_trace_cache
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import (
    BENCHMARKS,
    MATRIX_NAMES,
    load_benchmark,
    scale_factor,
    stored_set,
)

#: Stream lengths per REPRO_BENCH_SCALE.
_SIZES = {"tiny": 100_000, "small": 1_000_000, "medium": 4_000_000}


def _stream_len(scale):
    return _SIZES.get(scale, _SIZES["small"])


def _pcache_workload(stream):
    hits, stats = delayed_cache_hits(
        stream, n_sets=4096, ways=16, delay=2000
    )
    return SimpleNamespace(
        exp_id="kernel.pcache", hits=int(hits.sum()), stats=stats
    )


def _pcache_onetouch_workload(stream):
    hits, stats = delayed_cache_hits(
        stream, n_sets=4096, ways=16, delay=2000
    )
    return SimpleNamespace(
        exp_id="kernel.pcache_onetouch", hits=int(hits.sum()), stats=stats
    )


def _onetouch_stream(rng, size):
    """~85% of the elements are values looked up once (odd values), the
    rest a skewed re-read set (even values): the shape of the sparse
    out-of-core rack streams."""
    n_once = int(0.85 * size)
    once = np.arange(n_once, dtype=np.int64) * 2 + 1
    reread = (rng.zipf(1.3, size=size - n_once) % (1 << 16)) * 2
    stream = np.concatenate([once, reread])
    rng.shuffle(stream)
    return stream


def _concat_workload(dests):
    stats = window_concat(dests, max_prs_per_packet=11, window_prs=64)
    return SimpleNamespace(exp_id="kernel.concat", stats=stats)


def _rig_workload(sizes):
    total = 0.0
    for n_idxs in sizes:
        total += rig_generation_time(int(n_idxs), n_units=4, batch_size=32)
    return SimpleNamespace(exp_id="kernel.rig", total=total)


#: Node count of the end-to-end compute rows (the paper's cluster).
_E2E_NODES = 128


def _e2e_compute_workload(mat, exp_id):
    times = per_node_compute_times(mat, 16, _E2E_NODES)
    return SimpleNamespace(exp_id=exp_id, times=times)


def _fresh_matrix(scale):
    """A copy of ``arabic`` at ``scale`` with no cached counts."""
    mat = load_benchmark("arabic", scale)
    return COOMatrix(mat.n_rows, mat.n_cols, mat.rows, mat.cols,
                     name=mat.name)


def test_kernel_e2e_compute(benchmark, scale):
    """Per-node compute times on a freshly built partition: one
    distinct-column count per node trace (the trace build is not
    timed)."""
    mat = _fresh_matrix(scale)
    prev = set_trace_cache(TraceCache())
    try:
        cached_partition(mat, _E2E_NODES)
        result = run_once(benchmark, _e2e_compute_workload, mat,
                          "kernel.e2e_compute")
    finally:
        set_trace_cache(prev)
    assert result.times.shape == (_E2E_NODES,)
    assert result.times.max() > 0


def test_kernel_e2e_compute_repeat(benchmark, scale):
    """The same call again, as fig13 makes it for every scheme and K:
    every count is read from its trace."""
    mat = _fresh_matrix(scale)
    prev = set_trace_cache(TraceCache())
    try:
        first = per_node_compute_times(mat, 16, _E2E_NODES)
        result = run_once(benchmark, _e2e_compute_workload, mat,
                          "kernel.e2e_compute.repeat")
    finally:
        set_trace_cache(prev)
    assert (result.times == first).all()


#: ``structural_digest()`` of each benchmark at ``small`` (seed 7).
SMALL_DIGESTS = {
    "arabic": "011485ae3f8e3674de807c3de2951f4c",
    "europe": "f1501055e92c0bfad90a3ac7f1a979e8",
    "queen": "bba4b86b872664997880c9b128846a69",
    "stokes": "bcb6849f86e030053d9fa44eeb67fe19",
    "uk": "c38242c18bd6c4de720e33a869a20208",
}


def _generate_workload(scale):
    mats = {name: BENCHMARKS[name].generate(scale=scale)
            for name in MATRIX_NAMES}
    return SimpleNamespace(exp_id="kernel.generate", mats=mats)


def _load_stored_workload(scale):
    nnz = {name: stored_set(name, scale).to_coo().nnz
           for name in MATRIX_NAMES}
    return SimpleNamespace(exp_id="kernel.load_stored", nnz=nnz)


def _saopt_counts_workload(mat):
    sent, served, _ = saopt_pr_counts(mat, NetSparseConfig())
    return SimpleNamespace(exp_id="kernel.saopt_counts", sent=sent,
                           served=served)


def test_kernel_generate(benchmark, scale):
    """The five benchmark matrices, generated past the suite memo (as
    every fresh CLI process does)."""
    result = run_once(benchmark, _generate_workload, scale)
    assert set(result.mats) == set(MATRIX_NAMES)
    assert min(m.nnz for m in result.mats.values()) > 0
    if scale == "small":
        # Hashed after the timed region.
        assert {name: m.structural_digest()
                for name, m in result.mats.items()} == SMALL_DIGESTS


def test_kernel_load_stored(benchmark, scale):
    """The five benchmark matrices opened from their stored sets past
    the suite memo (as every CLI process after the first does); the
    first write is not timed."""
    for name in MATRIX_NAMES:
        stored_set(name, scale)
    result = run_once(benchmark, _load_stored_workload, scale)
    assert result.nnz == {name: load_benchmark(name, scale).nnz
                          for name in MATRIX_NAMES}


def test_kernel_saopt_counts(benchmark, scale):
    """SAOpt's per-rank dedup over the 128-node cluster (the trace
    build is not timed)."""
    mat = _fresh_matrix(scale)
    prev = set_trace_cache(TraceCache())
    try:
        cached_partition(mat, _E2E_NODES)
        result = run_once(benchmark, _saopt_counts_workload, mat)
    finally:
        set_trace_cache(prev)
    assert result.sent.shape == (_E2E_NODES, NetSparseConfig().host_cores)
    # Every sent PR is served by some rank of its owner.
    assert result.sent.sum() == result.served.sum() > 0


def _model_workload(mat, topo, exp_id):
    result = simulate_netsparse(mat, 16, NetSparseConfig(), topo,
                                scale=scale_factor(mat.name, mat))
    return SimpleNamespace(exp_id=exp_id, result=result)


def _model_setup(scale):
    """queen at ``scale`` with its 128-node traces built before any
    timing, and a fresh fabric."""
    mat = load_benchmark("queen", scale)
    cached_partition(mat, _E2E_NODES).node_traces()
    return mat, build_cluster_topology(NetSparseConfig())


def test_kernel_model_cold(benchmark, scale):
    """One cluster-model call on cold memos and a fresh fabric: every
    stage runs, each rack's hit mask comes from the replay kernel, and
    every route the traffic uses is computed."""
    prev = set_trace_cache(TraceCache())
    try:
        mat, topo = _model_setup(scale)
        reset_batch_state()
        result = run_once(benchmark, _model_workload, mat, topo,
                          "kernel.model_cold")
    finally:
        set_trace_cache(prev)
        reset_batch_state()
    assert result.result.total_time > 0
    assert result.result.cache_lookups > 0


def test_kernel_model_repeat_geometry(benchmark, scale):
    """The same call again: the memos hold every stream, and each
    rack's hit mask for this geometry, so no cache scoring runs."""
    prev = set_trace_cache(TraceCache())
    try:
        mat, topo = _model_setup(scale)
        reset_batch_state()
        first = simulate_netsparse(mat, 16, NetSparseConfig(), topo,
                                   scale=scale_factor(mat.name, mat))
        result = run_once(benchmark, _model_workload, mat, topo,
                          "kernel.model_repeat_geometry")
    finally:
        set_trace_cache(prev)
        reset_batch_state()
    assert result.result.total_time == first.total_time
    assert result.result.cache_hits == first.cache_hits


def test_kernel_pcache(benchmark, scale):
    rng = np.random.default_rng(1)
    stream = rng.zipf(1.3, size=_stream_len(scale)) % (1 << 20)
    result = run_once(benchmark, _pcache_workload, stream)
    assert result.stats.lookups == stream.size
    assert 0 < result.hits < stream.size


def test_kernel_pcache_onetouch(benchmark, scale):
    rng = np.random.default_rng(4)
    stream = _onetouch_stream(rng, _stream_len(scale))
    _, counts = np.unique(stream, return_counts=True)
    assert 0.8 <= (counts == 1).sum() / stream.size <= 0.9
    result = run_once(benchmark, _pcache_onetouch_workload, stream)
    assert result.stats.lookups == stream.size
    assert result.stats.insertions > 0.8 * stream.size
    assert 0 < result.hits < 0.15 * stream.size


def test_kernel_concat(benchmark, scale):
    rng = np.random.default_rng(2)
    dests = rng.integers(0, 128, size=_stream_len(scale))
    result = run_once(benchmark, _concat_workload, dests)
    assert result.stats.n_prs == dests.size
    assert 0 < result.stats.n_packets <= dests.size


def test_kernel_rig(benchmark, scale):
    rng = np.random.default_rng(3)
    sizes = rng.integers(1, _stream_len(scale) // 10, size=200)
    result = run_once(benchmark, _rig_workload, sizes)
    assert result.total > 0.0
