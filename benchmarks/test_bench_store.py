"""Result-store benchmark: put/get/ledger micro-throughput.

The store is the result cache, so every cache read and write pays its
per-operation overhead: this benchmark pushes a batch of array-bearing
:class:`~repro.cluster.model.CommResult` payloads through
``put_result``/``get_result`` and a matching stream of ledger rows
through ``record_run``/``history``, recording ops/sec per surface into
``BENCH_<date>.json`` under a top-level ``"store"`` key.

Bit-identity is asserted, not just measured: a result read back from
the store must round-trip every array exactly (same dtype, same bits),
because a store-backed cache hit replaces recomputation.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster.model import CommResult
from repro.store import open_store

from conftest import record_block, run_once

N_RESULTS = 64
N_LEDGER = 256


def _fake_result(seed: int) -> CommResult:
    rng = np.random.default_rng(seed)
    return CommResult(
        scheme="netsparse", matrix_name="arabic", k=16, n_nodes=8,
        total_time=rng.random() * 1e-3,
        per_node_time=rng.random(8),
        recv_wire_bytes=rng.integers(0, 1 << 40, 8),
        sent_wire_bytes=rng.integers(0, 1 << 40, 8),
        useful_payload_bytes=rng.integers(0, 1 << 40, 8),
        link_bandwidth=12.5e9,
        extras={"spill": rng.random(32).astype(np.float32)},
    )


def _run_store_bench(dsn: str) -> dict:
    store = open_store(dsn)
    results = {f"{'f' * 54}{i:010d}": _fake_result(i)
               for i in range(N_RESULTS)}

    t0 = time.perf_counter()
    for digest, res in results.items():
        assert store.put_result(digest, res, elapsed=0.01)
    put_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for digest, res in results.items():
        rec = store.get_result(digest)
        back = rec.result
        assert back.total_time == res.total_time
        assert np.array_equal(back.per_node_time, res.per_node_time)
        arr = back.extras["spill"]
        assert arr.dtype == np.float32
        assert np.array_equal(arr, res.extras["spill"])
    get_s = time.perf_counter() - t0

    digests = list(results)
    t0 = time.perf_counter()
    for i in range(N_LEDGER):
        store.record_run(digests[i % N_RESULTS], source="cache",
                         elapsed=0.01, experiment="bench")
    ledger_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = store.history(experiment="bench", limit=N_LEDGER)
    history_s = time.perf_counter() - t0
    assert len(rows) == N_LEDGER

    info = store.describe()
    assert info["results"] == N_RESULTS
    return {
        "n_results": N_RESULTS,
        "n_ledger_rows": N_LEDGER,
        "put_ops_per_s": round(N_RESULTS / put_s, 1),
        "get_ops_per_s": round(N_RESULTS / get_s, 1),
        "ledger_ops_per_s": round(N_LEDGER / ledger_s, 1),
        "history_query_ms": round(history_s * 1e3, 2),
        "db_size_mb": round(info.get("size_bytes", 0) / 1e6, 2),
    }


def test_bench_store(benchmark, scale, tmp_path):
    if scale in ("large", "paper"):
        pytest.skip("store bench is scale-free; fixed payload batch")
    dsn = f"sqlite:///{tmp_path}/store.sqlite3"
    block = run_once(benchmark, _run_store_bench, dsn)
    record_block("store", block)
    assert block["put_ops_per_s"] > 5      # far below any healthy sqlite
    assert block["get_ops_per_s"] > 5
