"""Integration tests: the store-backed ResultCache, engine ledger
attribution, cross-process convergence, and cross-engine sharing.

The store package's own unit tests live in ``test_store.py``; this
file proves the wiring *behind* existing surfaces — ``ResultCache``,
``ExecutionEngine`` and the CLI.
"""

import multiprocessing
import os
import sqlite3

import numpy as np
import pytest

from repro.config import NetSparseConfig
from repro.parallel import ExecutionEngine, ResultCache, SimJob
from repro.results import CommResult
from repro.store import open_store

MAT, K = "arabic", 4


def make_job(**overrides):
    base = dict(scheme="netsparse", matrix=MAT, k=K,
                config=NetSparseConfig(), scale_name="tiny")
    base.update(overrides)
    return SimJob(**base)


def make_result(seed=0):
    rng = np.random.default_rng(seed)
    return CommResult(
        scheme="netsparse", matrix_name=MAT, k=K, n_nodes=8,
        total_time=rng.random() * 1e-3,
        per_node_time=rng.random(8),
        recv_wire_bytes=rng.integers(0, 1 << 40, 8),
        sent_wire_bytes=rng.integers(0, 1 << 40, 8),
        useful_payload_bytes=rng.integers(0, 1 << 40, 8),
        link_bandwidth=12.5e9,
        extras={"arr": rng.random(16).astype(np.float32)},
    )


@pytest.fixture
def dsn(tmp_path):
    return f"sqlite:///{tmp_path}/store.sqlite3"


# -- store-backed ResultCache -------------------------------------------


def test_store_tier_bit_identical_to_filesystem(tmp_path):
    digest = "d" * 64
    res = make_result()

    # Two caches over one store file: one opened from its cache dir,
    # one handed the store a second process would open by DSN.
    writer = ResultCache(tmp_path / "shared")
    writer.put(digest, res, meta={"scheme": "netsparse"}, elapsed=1.0)
    via_writer = writer.get(digest).result
    reader = ResultCache(store=open_store(writer.dsn))
    via_reader = reader.get(digest).result

    for got in (via_writer, via_reader):
        assert got.total_time == res.total_time       # exact, not approx
        assert got.per_node_time.tobytes() == res.per_node_time.tobytes()
        assert got.per_node_time.dtype == res.per_node_time.dtype
        arr = got.extras["arr"]
        assert arr.dtype == np.float32
        assert arr.tobytes() == res.extras["arr"].tobytes()


def test_env_opt_in(tmp_path, dsn, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.delenv("REPRO_STORE_DSN", raising=False)
    assert ResultCache().dsn == (
        f"sqlite:///{tmp_path / 'xdg' / 'netsparse'}/store.sqlite3")
    monkeypatch.setenv("REPRO_STORE_DSN", dsn)
    cache = ResultCache()
    assert cache.store is not None and cache.store.dsn == dsn
    assert cache.store.schema_version() >= 1
    assert cache.info().store is not None
    # An explicit cache dir beats the env var.
    assert ResultCache(tmp_path / "b").dsn == (
        f"sqlite:///{tmp_path / 'b'}/store.sqlite3")


def test_unusable_store_turns_cache_off(tmp_path):
    from repro import telemetry

    root = tmp_path / "c"
    root.mkdir()
    (root / "store.sqlite3").write_bytes(b"this is not a database" * 64)
    cache = ResultCache(root)
    job = make_job()
    with telemetry.telemetry_scope() as reg:
        with ExecutionEngine(cache=cache) as eng:
            result = eng.run_job(job)
            assert eng.stats.executed == 1
    assert cache.store is None                # off for the process
    assert reg.counter("store.errors", op="open").value == 1
    assert result.total_time > 0
    assert cache.get(job.digest()) is None
    assert cache.info().n_entries == 0


def test_wal_mode_and_busy_timeout(dsn):
    store = open_store(dsn)
    conn = store.backend.connect()
    assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 10_000


# -- engine ledger attribution -------------------------------------------


def test_engine_records_executed_then_memo_then_cache(tmp_path, dsn):
    store = open_store(dsn)
    job = make_job()
    digest = job.digest()

    eng_a = ExecutionEngine(jobs=1,
                            cache=ResultCache(store=store))
    eng_a.context["experiment"] = "exp-a"
    eng_a.run_jobs([job])          # miss everywhere -> executed
    eng_a.run_jobs([job])          # in-process memo
    eng_a.close()

    eng_b = ExecutionEngine(jobs=1,
                            cache=ResultCache(store=store))
    eng_b.run_jobs([job])          # fresh engine, store hit -> cache
    assert eng_b.stats.executed == 0
    eng_b.close()

    sources = [r["source"] for r in store.history(digest=digest)]
    assert sorted(sources) == ["cache", "executed", "memo"]
    executed = store.history(digest=digest, source="executed")
    assert len(executed) == 1
    row = executed[0]
    assert row["experiment"] == "exp-a"
    assert row["scheme"] == "netsparse" and row["matrix"] == MAT
    assert row["k"] == K and row["scale"] == "tiny"
    assert row["elapsed"] > 0
    assert row["worker"]


# -- cross-process convergence -------------------------------------------


def _racing_put(dsn, barrier, marker, queue):
    from repro.store import open_store as _open

    store = _open(dsn)
    barrier.wait(timeout=30)
    inserted = store.put_result("e" * 64, {"winner": marker},
                                meta={}, elapsed=float(marker))
    queue.put((marker, inserted))


def test_cross_process_race_converges_to_one_row(dsn):
    open_store(dsn)                 # migrate before the race
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    procs = [ctx.Process(target=_racing_put,
                         args=(dsn, barrier, i, queue)) for i in range(2)]
    for p in procs:
        p.start()
    outcomes = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0

    inserted = [m for m, ok in outcomes if ok]
    assert len(inserted) == 1       # exactly one writer won
    store = open_store(dsn)
    assert store.counts()["results"] == 1
    rec = store.get_result("e" * 64)
    assert rec.result == {"winner": inserted[0]}
    assert rec.elapsed == float(inserted[0])


# -- cross-engine sharing through one store ------------------------------


def test_two_replicas_share_one_execution(tmp_path, dsn):
    store = open_store(dsn)
    job = make_job()

    eng_a = ExecutionEngine(jobs=1,
                            cache=ResultCache(store=store))
    first = eng_a.run_job(job)
    eng_a.close()
    assert eng_a.stats.executed == 1

    # A fresh engine and cache over the same store.
    eng_b = ExecutionEngine(jobs=1,
                            cache=ResultCache(store=store))
    second = eng_b.run_job(job)
    eng_b.close()
    assert eng_b.stats.executed == 0
    assert eng_b.stats.cache_hits == 1

    assert first.total_time == second.total_time
    assert first.per_node_time.tobytes() == second.per_node_time.tobytes()

    digest = job.digest()
    executed = store.history(digest=digest, source="executed")
    assert len(executed) == 1       # one execution, ever, across engines
    sources = sorted(r["source"] for r in store.history(digest=digest))
    assert sources == ["cache", "executed"]


def _worker_env_roundtrip(dsn, queue):
    # Another process's view: the env var names the store, no objects
    # shared.
    os.environ["REPRO_STORE_DSN"] = dsn
    from repro.parallel.cache import ResultCache as RC

    cache = RC()
    entry = cache.get("f" * 64)
    queue.put(entry.result if entry else None)


def test_env_opt_in_crosses_process_boundary(dsn):
    store = open_store(dsn)
    store.put_result("f" * 64, {"seen": "cross-process"}, meta={})
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(target=_worker_env_roundtrip, args=(dsn, queue))
    proc.start()
    got = queue.get(timeout=60)
    proc.join(timeout=60)
    assert got == {"seen": "cross-process"}


def test_sqlite_file_is_actually_shared(dsn, tmp_path):
    # Belt and braces: a raw sqlite3 connection sees the rows the
    # store API wrote (no hidden per-connection state).
    store = open_store(dsn)
    store.put_result("9" * 64, {"x": 1}, meta={})
    path = store.backend.location
    with sqlite3.connect(path) as conn:
        n = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    assert n == 1


def test_cli_run_records_one_ledger_row_per_answer(tmp_path, capsys):
    from repro.cli import main
    from repro.parallel import get_engine, set_engine

    previous = set_engine(None)
    try:
        assert main(["run", "fig14", "--scale", "tiny",
                     "--cache-dir", str(tmp_path)]) == 0
        answers = get_engine().stats.jobs
    finally:
        get_engine().close()
        set_engine(previous)
    capsys.readouterr()
    assert answers > 0
    rows = open_store(f"sqlite:///{tmp_path}/store.sqlite3").history()
    assert len(rows) == answers
    assert {r["experiment"] for r in rows} == {"fig14"}
