"""Tests for the repro.store package: DSN parsing, migrations,
provenance, dedupe, the run ledger, and gc.

The cache-integration surface (store-backed ``ResultCache``, engine
ledger attribution, cross-process races, engines sharing a store) lives in
``test_store_cache.py``; this file covers the store package itself.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.results import CommResult
from repro.store import (
    MIGRATIONS,
    SCHEMA_VERSION,
    SQLiteBackend,
    StoreError,
    backend_for_dsn,
    open_store,
    parse_dsn,
    run_migrations,
)

DIGEST_A = "a" * 64
DIGEST_B = "b" * 64

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_python(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=_SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def make_result(seed=0, **kw):
    rng = np.random.default_rng(seed)
    defaults = dict(
        scheme="netsparse", matrix_name="arabic", k=16, n_nodes=8,
        total_time=rng.random() * 1e-3,
        per_node_time=rng.random(8),
        recv_wire_bytes=rng.integers(0, 1 << 40, 8),
        sent_wire_bytes=rng.integers(0, 1 << 40, 8),
        useful_payload_bytes=rng.integers(0, 1 << 40, 8),
        link_bandwidth=12.5e9,
        extras={"arr": rng.random(4).astype(np.float32)},
    )
    defaults.update(kw)
    return CommResult(**defaults)


@pytest.fixture
def store(tmp_path):
    return open_store(f"sqlite:///{tmp_path}/store.sqlite3")


# -- DSN parsing ---------------------------------------------------------


@pytest.mark.parametrize("dsn,backend,location", [
    ("sqlite:////abs/store.db", "sqlite", "/abs/store.db"),
    ("sqlite:///rel/store.db", "sqlite", "rel/store.db"),
    ("sqlite:///:memory:", "sqlite", ":memory:"),
    (":memory:", "sqlite", ":memory:"),
    ("/abs/bare.db", "sqlite", "/abs/bare.db"),
    ("rel/bare.db", "sqlite", "rel/bare.db"),
    ("postgres://u@h/db", "postgres", "postgres://u@h/db"),
    ("postgresql://u@h/db", "postgres", "postgresql://u@h/db"),
])
def test_parse_dsn_variants(dsn, backend, location):
    if backend == "postgres":
        # SQLite is the only store backend: a Postgres DSN is refused by
        # its scheme instead of being parsed.
        with pytest.raises(StoreError, match="unsupported store DSN scheme"):
            parse_dsn(dsn)
        return
    parsed = parse_dsn(dsn)
    assert parsed.backend == backend
    assert parsed.location == location
    assert parsed.raw == dsn


def test_parse_dsn_rejects_garbage():
    with pytest.raises(StoreError):
        parse_dsn("")
    with pytest.raises(StoreError, match="unsupported store DSN scheme"):
        parse_dsn("mysql://nope")


def test_memory_dsn_flag():
    assert parse_dsn(":memory:").memory
    assert not parse_dsn("/tmp/x.db").memory


def test_backend_for_dsn_kinds():
    assert isinstance(backend_for_dsn(":memory:"), SQLiteBackend)
    assert isinstance(backend_for_dsn("/tmp/x.db"), SQLiteBackend)
    with pytest.raises(StoreError):
        backend_for_dsn("postgres://u@h/db")


# -- migrations ----------------------------------------------------------


def test_migrations_idempotent(tmp_path):
    store = open_store(f"sqlite:///{tmp_path}/m.sqlite3", migrate=False)
    first = store.migrate()
    assert first == [m.version for m in MIGRATIONS]
    assert store.migrate() == []
    assert store.schema_version() == SCHEMA_VERSION


def test_open_migrates_by_default(store):
    assert store.schema_version() == SCHEMA_VERSION
    assert store.migrate() == []


def test_run_migrations_direct():
    backend = SQLiteBackend(":memory:")
    assert run_migrations(backend) == [m.version for m in MIGRATIONS]
    assert run_migrations(backend) == []


# -- results: round-trip, provenance, dedupe -----------------------------


def test_result_round_trip_bit_identical(store):
    res = make_result()
    assert store.put_result(DIGEST_A, res, meta={"scheme": "netsparse"},
                            elapsed=1.25)
    rec = store.get_result(DIGEST_A)
    back = rec.result
    assert back.total_time == res.total_time          # exact, not approx
    assert np.array_equal(back.per_node_time, res.per_node_time)
    assert back.per_node_time.dtype == res.per_node_time.dtype
    assert np.array_equal(back.extras["arr"], res.extras["arr"])
    assert back.extras["arr"].dtype == np.float32
    assert rec.elapsed == 1.25
    assert rec.meta == {"scheme": "netsparse"}


def test_provenance_complete_on_every_row(store, monkeypatch):
    # `repro.store.provenance` the *attribute* is the function (the
    # package re-export shadows the submodule); fetch the module itself.
    p = importlib.import_module("repro.store.provenance")

    monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe" * 5)
    p.git_sha.cache_clear()
    from repro.parallel.jobs import CODE_SALT

    fd = hashlib.sha256(json.dumps({"plan": 1}).encode()).hexdigest()
    store.put_result(DIGEST_A, make_result(),
                     meta={"faults_digest": fd}, elapsed=0.5)
    rec = store.get_result(DIGEST_A)
    assert rec.provenance["code_salt"] == CODE_SALT
    assert rec.provenance["git_sha"] == "cafebabe" * 5
    assert rec.provenance["faults_digest"] == fd
    assert rec.provenance["kernel_tier"]
    assert rec.provenance["schema_version"] == SCHEMA_VERSION
    p.git_sha.cache_clear()


def test_double_put_converges_to_one_row(store):
    assert store.put_result(DIGEST_A, make_result(0), elapsed=1.0) is True
    # Deterministic content: the loser of the race changes nothing.
    assert store.put_result(DIGEST_A, make_result(0), elapsed=9.0) is False
    assert store.counts()["results"] == 1
    assert store.get_result(DIGEST_A).elapsed == 1.0


def test_get_missing_result(store):
    assert store.get_result(DIGEST_B) is None


def test_non_comm_results_pickle(store):
    store.put_result(DIGEST_A, {"any": "object", "n": 3})
    assert store.get_result(DIGEST_A).result == {"any": "object", "n": 3}


@pytest.mark.parametrize("column,value", [
    ("payload", b"garbage"),
    ("fmt", "comm-json-v1"),          # the JSON format older code wrote
    ("meta_json", "{nope"),
])
def test_undecodable_row_reads_as_miss_and_is_dropped(store, column, value):
    res = make_result()
    store.put_result(DIGEST_A, res, elapsed=1.0)
    with store.backend.transaction() as cur:
        cur.execute(f"UPDATE results SET {column} = ?", (value,))
    assert store.get_result(DIGEST_A) is None
    assert store.counts()["results"] == 0
    assert store.put_result(DIGEST_A, res, elapsed=1.0) is True
    assert store.get_result(DIGEST_A).result.total_time == res.total_time


def test_cli_import_leaves_store_unloaded():
    code = (
        "import sys\n"
        "import repro.cli\n"
        "assert 'repro.store' not in sys.modules\n"
        "assert 'sqlite3' not in sys.modules\n"
    )
    _run_python(code)


# -- artifacts -----------------------------------------------------------


def test_artifact_content_addressing_dedupes(store):
    sha1 = store.put_artifact(b"payload", kind="bench", name="a.json")
    sha2 = store.put_artifact(b"payload", kind="bench", name="b.json")
    assert sha1 == sha2
    assert store.counts()["artifacts"] == 1
    art = store.get_artifact(sha1)
    assert art["content"] == b"payload"
    assert art["nbytes"] == 7


def test_latest_artifacts_newest_first(store):
    store.put_artifact(b"one", kind="bench", name="one.json")
    time.sleep(0.01)
    store.put_artifact(b"two", kind="bench", name="two.json")
    store.put_artifact(b"other", kind="report", name="r.json")
    latest = store.latest_artifacts("bench", limit=2)
    assert [a["name"] for a in latest] == ["two.json", "one.json"]


# -- run ledger ----------------------------------------------------------


def _seed_ledger(store):
    meta = {"scheme": "netsparse", "matrix": "arabic", "k": 8,
            "scale_name": "tiny", "seed": 7}
    store.record_run(DIGEST_A, source="executed", elapsed=2.0,
                     worker="w1", meta=meta, experiment="table1")
    store.record_run(DIGEST_A, source="cache", elapsed=0.0,
                     worker="w2", meta=meta, experiment="table2")
    store.record_run(DIGEST_B, source="memo", elapsed=0.0, worker="w1",
                     meta={"scheme": "suopt", "matrix": "stokes", "k": 16,
                           "scale_name": "small"}, experiment="table1")


def test_history_filters(store):
    _seed_ledger(store)
    assert len(store.history()) == 3
    assert len(store.history(experiment="table1")) == 2
    assert len(store.history(scheme="netsparse")) == 2
    assert len(store.history(matrix="stokes")) == 1
    assert len(store.history(scale="tiny")) == 2
    assert len(store.history(source="executed")) == 1
    assert len(store.history(digest=DIGEST_B)) == 1
    assert len(store.history(limit=1)) == 1
    assert store.history(since=time.time() + 60) == []
    rows = store.history(experiment="table1", scheme="netsparse")
    assert len(rows) == 1
    row = rows[0]
    assert row["source"] == "executed"
    assert row["k"] == 8 and row["scale"] == "tiny" and row["seed"] == 7
    assert row["worker"] == "w1"


def test_history_newest_first(store):
    store.record_run(DIGEST_A, source="executed")
    time.sleep(0.01)
    store.record_run(DIGEST_B, source="cache")
    rows = store.history()
    assert [r["digest"] for r in rows] == [DIGEST_B, DIGEST_A]


def test_ledger_is_append_only(store):
    _seed_ledger(store)
    # No update/delete surface exists on the ledger; even gc keeps it
    # unless the caller explicitly opts in (see test_gc_*).
    assert not hasattr(store, "delete_run")
    assert not hasattr(store, "update_run")


# -- describe / counts / gc ---------------------------------------------


def test_describe_payload(store):
    store.put_result(DIGEST_A, make_result())
    store.put_artifact(b"x", kind="bench", name="x")
    store.record_run(DIGEST_A, source="executed")
    info = store.describe()
    assert info["backend"] == "sqlite"
    assert info["schema_version"] == SCHEMA_VERSION
    assert info["latest_schema_version"] == SCHEMA_VERSION
    assert info["results"] == 1
    assert info["artifacts"] == 1
    assert info["ledger"] == 1
    assert "dsn" in info


def test_gc_reclaims_results_and_artifacts_keeps_ledger(store):
    store.put_result(DIGEST_A, make_result())
    store.put_artifact(b"x", kind="bench", name="x")
    store.record_run(DIGEST_A, source="executed")
    removed = store.gc(older_than_days=0.0)
    assert removed == {"results": 1, "artifacts": 1}
    counts = store.counts()
    assert counts["results"] == 0
    assert counts["artifacts"] == 0
    assert counts["ledger"] == 1          # append-only by default


def test_gc_dry_run_touches_nothing(store):
    store.put_result(DIGEST_A, make_result())
    removed = store.gc(older_than_days=0.0, dry_run=True)
    assert removed["results"] == 1
    assert store.counts()["results"] == 1


def test_gc_ledger_opt_in(store):
    store.record_run(DIGEST_A, source="executed")
    removed = store.gc(older_than_days=0.0, include_ledger=True)
    assert removed["ledger"] == 1
    assert store.counts()["ledger"] == 0


def test_gc_respects_cutoff(store):
    store.put_result(DIGEST_A, make_result())
    assert store.gc(older_than_days=30.0) == {"results": 0, "artifacts": 0}
    assert store.counts()["results"] == 1


# -- the CLI path ---------------------------------------------------------


def test_report_cli_streams_artifact_with_ledger_row(tmp_path, monkeypatch):
    """`netsparse report` mirrors its markdown into the artifact table
    and appends a ledger row carrying the artifact sha, so
    `store history` points at the report a run produced."""
    from repro.cli import main

    dsn = f"sqlite:///{tmp_path}/report.sqlite3"
    monkeypatch.setenv("REPRO_STORE_DSN", dsn)
    out = tmp_path / "report.md"
    assert main(["report", "--scale", "tiny", "--only", "table1",
                 "-o", str(out), "--no-cache"]) == 0

    store = open_store(dsn)
    arts = store.latest_artifacts("report", limit=5)
    assert len(arts) == 1
    assert arts[0]["name"] == "report.md"
    assert arts[0]["content"] == out.read_bytes()
    assert arts[0]["meta"]["scale"] == "tiny"
    rows = store.history(experiment="report", source="report")
    assert len(rows) == 1
    assert rows[0]["digest"] == arts[0]["sha256"]


def test_report_cli_survives_broken_store(tmp_path, monkeypatch, capsys):
    """A store that cannot open must not fail the report itself."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_STORE_DSN", "bogus://nowhere")
    out = tmp_path / "report.md"
    assert main(["report", "--scale", "tiny", "--only", "table1",
                 "-o", str(out), "--no-cache"]) == 0
    assert out.exists()
    assert "store upload skipped" in capsys.readouterr().err
