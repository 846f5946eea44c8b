"""The result store: provenance-stamped rows over SQLite.

One :class:`Store` wraps one backend connection factory
(:mod:`repro.store.backend`) and exposes the two tables the
migrations define:

- ``put_result``/``get_result`` — the storage of
  :class:`~repro.parallel.cache.ResultCache`.  Payloads are pickled
  (format ``pickle-v1``), so a result read back compares bitwise equal
  to direct simulation.  Writes are first-writer-wins
  (``INSERT OR IGNORE``), so two processes racing the same digest
  converge to a single provenance row.  A row that does not decode
  (corrupt bytes, or a format this code does not write) reads as a
  miss and is deleted, so the next ``put_result`` replaces it.
- ``record_run``/``history`` — the append-only run ledger: one row per
  engine answer with source attribution, queryable by experiment /
  scheme / matrix / scale / source / time window.

Every operation bumps a ``store.*`` telemetry counter (no-ops when
telemetry is disabled, like every other instrumented subsystem).
"""

from __future__ import annotations

import json
import pickle
import time
from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.store.backend import StoreError, backend_for_dsn, parse_dsn
from repro.store.migrations import (
    SCHEMA_VERSION,
    applied_versions,
    run_migrations,
)

__all__ = ["Store", "StoredResult", "open_store"]

#: The one result payload format this code writes and reads.
_FMT_PICKLE = "pickle-v1"


class StoredResult:
    """One row read back from the ``results`` table."""

    __slots__ = ("digest", "result", "meta", "elapsed", "created",
                 "provenance")

    def __init__(self, digest, result, meta, elapsed, created, provenance):
        self.digest = digest
        self.result = result
        self.meta = meta
        self.elapsed = elapsed
        self.created = created
        self.provenance = provenance


def _decode_payload(fmt: str, blob: bytes) -> Any:
    if fmt != _FMT_PICKLE:
        raise StoreError(f"unknown result payload format {fmt!r}")
    return pickle.loads(bytes(blob))


def _meta_json(meta: Optional[dict]) -> str:
    """Canonical JSON for a meta dict (numpy scalars degrade cleanly)."""
    from repro.results import dumps, encode_value

    return dumps(encode_value(dict(meta or {}))).decode("utf-8")


def _meta_load(raw: str) -> dict:
    from repro.results import decode_value

    return decode_value(json.loads(raw))


class Store:
    """Results + run ledger over one backend."""

    def __init__(self, backend, *, dsn: str = ""):
        self.backend = backend
        self.dsn = dsn

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def open(cls, dsn: str, *, migrate: bool = True) -> "Store":
        """Open (and by default migrate) the store a DSN names."""
        store = cls(backend_for_dsn(dsn), dsn=parse_dsn(dsn).raw)
        if migrate:
            store.migrate()
        return store

    def migrate(self) -> List[int]:
        """Apply pending migrations; ``[]`` when already up to date."""
        applied = run_migrations(self.backend)
        if applied:
            telemetry.count("store.migrations.applied", n=len(applied))
        return applied

    def schema_version(self) -> int:
        versions = applied_versions(self.backend)
        return max(versions) if versions else 0

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- results -------------------------------------------------------

    def put_result(self, digest: str, result: Any, *,
                   meta: Optional[dict] = None,
                   elapsed: float = 0.0) -> bool:
        """Store one result with full provenance; ``True`` if this call
        inserted the row (``False``: another writer got there first —
        deterministic content, so losing the race loses nothing)."""
        from repro.store.provenance import provenance

        prov = provenance()
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        with self.backend.transaction() as cur:
            cur.execute(
                "INSERT OR IGNORE INTO results"
                " (digest, fmt, payload, meta_json, elapsed, created,"
                "  code_salt, git_sha, schema_version)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (digest, _FMT_PICKLE, payload, _meta_json(meta),
                 float(elapsed), time.time(), prov["code_salt"],
                 prov["git_sha"], prov["schema_version"]))
            inserted = cur.rowcount > 0
        telemetry.count("store.results.puts")
        if not inserted:
            telemetry.count("store.results.races")
        return inserted

    def get_result(self, digest: str) -> Optional[StoredResult]:
        """The stored row, or ``None``.  A row that fails to decode
        reads as a miss and is deleted: ``INSERT OR IGNORE`` would
        otherwise keep it, and every later reader would recompute."""
        with self.backend.reading() as cur:
            cur.execute(
                "SELECT fmt, payload, meta_json, elapsed, created,"
                " code_salt, git_sha, schema_version"
                " FROM results WHERE digest = ?",
                (digest,))
            row = cur.fetchone()
        telemetry.count("store.results.gets")
        rec = None
        if row is not None:
            try:
                rec = StoredResult(
                    digest=digest,
                    result=_decode_payload(row[0], row[1]),
                    meta=_meta_load(row[2]),
                    elapsed=row[3],
                    created=row[4],
                    provenance={
                        "code_salt": row[5], "git_sha": row[6],
                        "schema_version": row[7],
                    },
                )
            except Exception:
                with self.backend.transaction() as cur:
                    cur.execute("DELETE FROM results WHERE digest = ?",
                                (digest,))
                telemetry.count("store.results.dropped")
        telemetry.count("store.results.hits" if rec is not None
                        else "store.results.misses")
        return rec

    def result_summary(self) -> Dict[str, Any]:
        """Row count, payload bytes, held simulation seconds and rows
        per ``meta["scheme"]`` over the ``results`` table."""
        with self.backend.reading() as cur:
            cur.execute("SELECT meta_json, elapsed, length(payload)"
                        " FROM results")
            rows = cur.fetchall()
        by_scheme: Dict[str, int] = {}
        for meta_json, _, _ in rows:
            try:
                scheme = str(json.loads(meta_json).get("scheme", "?"))
            except (ValueError, AttributeError):
                scheme = "?"
            by_scheme[scheme] = by_scheme.get(scheme, 0) + 1
        return {"results": len(rows),
                "bytes": sum(r[2] or 0 for r in rows),
                "sim_seconds": sum(r[1] or 0.0 for r in rows),
                "by_scheme": by_scheme}

    def clear_results(self) -> int:
        """Delete every ``results`` row (the ledger stays); returns how
        many were removed."""
        with self.backend.transaction() as cur:
            cur.execute("DELETE FROM results")
            return cur.rowcount

    # -- run ledger ----------------------------------------------------

    def record_run(self, digest: str, *, source: str, elapsed: float = 0.0,
                   worker: Optional[str] = None,
                   meta: Optional[dict] = None,
                   experiment: Optional[str] = None) -> None:
        """Append one run-ledger row (never updates, never deletes)."""
        from repro.store.provenance import provenance

        prov = provenance()
        meta = dict(meta or {})
        with self.backend.transaction() as cur:
            cur.execute(
                "INSERT INTO ledger"
                " (ts, digest, source, elapsed, worker, experiment,"
                "  scheme, matrix, k, scale, seed, git_sha, code_salt)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (time.time(), digest, source, float(elapsed),
                 worker or prov["worker"], experiment,
                 meta.get("scheme"), meta.get("matrix"),
                 meta.get("k"), meta.get("scale_name"), meta.get("seed"),
                 prov["git_sha"], prov["code_salt"]))
        telemetry.count("store.ledger.rows", source=source)

    _LEDGER_COLS = ("id", "ts", "digest", "source", "elapsed", "worker",
                    "experiment", "scheme", "matrix", "k", "scale", "seed",
                    "git_sha", "code_salt")

    def history(self, *, experiment: Optional[str] = None,
                scheme: Optional[str] = None,
                matrix: Optional[str] = None,
                scale: Optional[str] = None,
                source: Optional[str] = None,
                digest: Optional[str] = None,
                since: Optional[float] = None,
                limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Ledger rows, newest first, filtered."""
        clauses, params = [], []
        for col, val in (("experiment", experiment), ("scheme", scheme),
                         ("matrix", matrix), ("scale", scale),
                         ("source", source), ("digest", digest)):
            if val is not None:
                clauses.append(f"{col} = ?")
                params.append(val)
        if since is not None:
            clauses.append("ts >= ?")
            params.append(float(since))
        sql = ("SELECT " + ", ".join(self._LEDGER_COLS) + " FROM ledger")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY ts DESC, id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self.backend.reading() as cur:
            cur.execute(sql, tuple(params))
            rows = cur.fetchall()
        return [dict(zip(self._LEDGER_COLS, row)) for row in rows]

    # -- maintenance / introspection -----------------------------------

    def counts(self) -> Dict[str, int]:
        out = {}
        with self.backend.reading() as cur:
            for table in ("results", "ledger"):
                cur.execute(f"SELECT COUNT(*) FROM {table}")
                out[table] = cur.fetchone()[0]
        return out

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary: backend, schema, row counts."""
        info = dict(self.backend.describe())
        info["dsn"] = self.dsn
        info["schema_version"] = self.schema_version()
        info["latest_schema_version"] = SCHEMA_VERSION
        try:
            info.update(self.counts())
        except Exception:
            # Unmigrated database: counts are simply absent.
            info.update({"results": 0, "ledger": 0})
        return info

    def gc(self, *, older_than_days: float = 30.0,
           include_ledger: bool = False,
           dry_run: bool = False) -> Dict[str, int]:
        """Reclaim result rows older than the cutoff.

        The ledger is append-only and kept by default; pass
        ``include_ledger=True`` to prune its old rows too (an explicit
        audit-trail decision, never implicit)."""
        cutoff = time.time() - older_than_days * 86400.0
        removed: Dict[str, int] = {}
        tables = ["results"] + (["ledger"] if include_ledger else [])
        for table in tables:
            col = "ts" if table == "ledger" else "created"
            with self.backend.reading() as cur:
                cur.execute(f"SELECT COUNT(*) FROM {table} WHERE {col} < ?",
                            (cutoff,))
                removed[table] = cur.fetchone()[0]
            if not dry_run and removed[table]:
                with self.backend.transaction() as cur:
                    cur.execute(f"DELETE FROM {table} WHERE {col} < ?",
                                (cutoff,))
        if not dry_run and any(removed.values()):
            self.backend.vacuum()
            telemetry.count("store.gc.removed", n=sum(removed.values()))
        return removed


def open_store(dsn: str, *, migrate: bool = True) -> Store:
    """Open the store a DSN names (module-level convenience)."""
    return Store.open(dsn, migrate=migrate)

