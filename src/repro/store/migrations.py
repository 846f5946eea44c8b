"""Idempotent schema migrations.

Every schema change is one :class:`Migration` — an ordered version
number plus its SQLite DDL statements.  The runner records applied versions in ``schema_migrations`` and applies
each missing migration inside a transaction, so:

- running ``migrate`` twice is a provable no-op (the second call
  returns an empty list),
- two processes racing ``migrate`` on one database serialize on the
  write transaction and converge to the same schema,
- a failed migration rolls back whole, leaving the version unrecorded.

Tables (schema v3):

``results``
    One row per :class:`~repro.parallel.jobs.SimJob` digest — the
    storage of :class:`~repro.parallel.cache.ResultCache`.
    Every write carries full provenance: the job digest, the code salt
    (:func:`repro.sources.code_salt`), the git sha, the store schema
    version, and creation timestamps.

``ledger``
    Append-only: one row per engine answer, with source attribution
    (``memo`` / ``cache`` / ``executed`` / ``batched``), elapsed
    seconds, and the worker identity — the
    queryable history behind ``netsparse store history``.

v2 dropped what v1 wrote and nothing read: the ``artifacts`` table
(report blobs) and the ``results.kernel_tier`` column (always
``fast``).  v3 dropped ``results.faults_digest``, the hash of a fault
plan no job carries any more.  A migration is never edited once
shipped, so a fresh store applies v1, v2 and then v3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["Migration", "MIGRATIONS", "SCHEMA_VERSION", "run_migrations",
           "applied_versions"]


@dataclass(frozen=True)
class Migration:
    version: int
    name: str
    statements: Sequence[str]


MIGRATIONS: List[Migration] = [
    Migration(1, "base-results-artifacts-ledger", (
        """
        CREATE TABLE IF NOT EXISTS results (
            digest          TEXT PRIMARY KEY,
            fmt             TEXT NOT NULL,
            payload         BLOB NOT NULL,
            meta_json       TEXT NOT NULL,
            elapsed         REAL NOT NULL,
            created         REAL NOT NULL,
            code_salt       TEXT NOT NULL,
            faults_digest   TEXT,
            kernel_tier     TEXT NOT NULL,
            git_sha         TEXT NOT NULL,
            schema_version  INTEGER NOT NULL
        )
        """,
        """
        CREATE TABLE IF NOT EXISTS artifacts (
            sha256          TEXT PRIMARY KEY,
            kind            TEXT NOT NULL,
            name            TEXT NOT NULL,
            content         BLOB NOT NULL,
            nbytes          INTEGER NOT NULL,
            created         REAL NOT NULL,
            meta_json       TEXT NOT NULL,
            git_sha         TEXT NOT NULL,
            code_salt       TEXT NOT NULL
        )
        """,
        "CREATE INDEX IF NOT EXISTS ix_artifacts_kind_created"
        " ON artifacts (kind, created)",
        """
        CREATE TABLE IF NOT EXISTS ledger (
            id              INTEGER PRIMARY KEY AUTOINCREMENT,
            ts              REAL NOT NULL,
            digest          TEXT NOT NULL,
            source          TEXT NOT NULL,
            elapsed         REAL NOT NULL,
            worker          TEXT NOT NULL,
            experiment      TEXT,
            scheme          TEXT,
            matrix          TEXT,
            k               INTEGER,
            scale           TEXT,
            seed            INTEGER,
            git_sha         TEXT NOT NULL,
            code_salt       TEXT NOT NULL
        )
        """,
        "CREATE INDEX IF NOT EXISTS ix_ledger_ts ON ledger (ts)",
        "CREATE INDEX IF NOT EXISTS ix_ledger_digest ON ledger (digest)",
        "CREATE INDEX IF NOT EXISTS ix_ledger_source ON ledger (source)",
    )),
    Migration(2, "drop-artifacts-and-kernel-tier", (
        "DROP TABLE IF EXISTS artifacts",
        "ALTER TABLE results DROP COLUMN kernel_tier",
    )),
    Migration(3, "drop-faults-digest", (
        "ALTER TABLE results DROP COLUMN faults_digest",
    )),
]

#: The schema version a fully migrated store reports — stamped into
#: every result row's provenance.
SCHEMA_VERSION = max(m.version for m in MIGRATIONS)

_MIGRATIONS_TABLE = """
CREATE TABLE IF NOT EXISTS schema_migrations (
    version     INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    applied_at  REAL NOT NULL
)
"""


def applied_versions(backend) -> List[int]:
    """Versions already recorded in ``schema_migrations`` (sorted)."""
    with backend.transaction() as cur:
        cur.execute(_MIGRATIONS_TABLE)
    with backend.reading() as cur:
        cur.execute("SELECT version FROM schema_migrations ORDER BY version")
        return [row[0] for row in cur.fetchall()]


def run_migrations(backend) -> List[int]:
    """Apply every pending migration; returns the versions applied.

    Idempotent by construction: a second call finds every version
    recorded and returns ``[]`` without touching the schema.
    """
    done = set(applied_versions(backend))
    applied: List[int] = []
    for mig in sorted(MIGRATIONS, key=lambda m: m.version):
        if mig.version in done:
            continue
        with backend.transaction() as cur:
            # Re-check inside the write transaction: another process
            # may have applied this version between our read and now.
            cur.execute("SELECT 1 FROM schema_migrations WHERE version = ?",
                        (mig.version,))
            if cur.fetchone() is not None:
                continue
            for stmt in mig.statements:
                cur.execute(stmt)
            cur.execute("INSERT INTO schema_migrations"
                        " (version, name, applied_at) VALUES (?, ?, ?)",
                        (mig.version, mig.name, time.time()))
        applied.append(mig.version)
    return applied
