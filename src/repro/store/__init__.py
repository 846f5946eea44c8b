"""The result store with provenance and a run ledger.

:class:`~repro.parallel.cache.ResultCache` keeps every result here: a
SQLite database (WAL mode, so several processes share one file)
holding:

- **results**: one provenance-stamped row per ``SimJob`` digest (job
  digest, code salt, git sha, schema version, timestamps), with
  bit-identical pickled ``CommResult`` payloads;
- **ledger**: an append-only record of every engine answer with
  source attribution — the queryable history behind
  ``netsparse store history``.

The database is ``<cache-dir>/store.sqlite3`` for a ``--cache-dir``;
otherwise ``REPRO_STORE_DSN`` names it, else it is
``~/.cache/netsparse/store.sqlite3``::

    REPRO_STORE_DSN=sqlite:////var/lib/netsparse/store.sqlite3 \\
        netsparse run all --jobs 4

Two engines in different processes pointed at one store share each
answer: the first executes and writes the row, the second answers from
the store.  Migrations are idempotent
(``netsparse store migrate`` twice is a no-op) and run automatically
on open.
"""

from repro.store.backend import (
    ENV_STORE_DSN,
    ParsedDSN,
    SQLiteBackend,
    StoreError,
    backend_for_dsn,
    parse_dsn,
)
from repro.store.migrations import MIGRATIONS, SCHEMA_VERSION, run_migrations
from repro.store.provenance import git_sha, provenance, worker_id
from repro.store.store import Store, StoredResult, open_store

__all__ = [
    "ENV_STORE_DSN",
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "ParsedDSN",
    "SQLiteBackend",
    "Store",
    "StoreError",
    "StoredResult",
    "backend_for_dsn",
    "git_sha",
    "open_store",
    "parse_dsn",
    "provenance",
    "run_migrations",
    "worker_id",
]
