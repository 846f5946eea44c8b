"""The store's backend: DSN parsing and a WAL-mode SQLite connection
factory.

``sqlite:///path/to.db`` (or a bare filesystem path) opens a WAL-mode
database with a busy timeout, so several processes — CLI runs, engines,
CI jobs — can share one store file safely.
``sqlite:///:memory:`` keeps everything on a single shared connection
(tests).  Any other DSN scheme is rejected.

The backend exposes a tiny surface: ``connect()`` (a DB-API connection
appropriate to the calling thread), ``transaction()`` and
``reading()``.  Every statement the store runs is plain SQLite SQL.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ENV_STORE_DSN",
    "StoreError",
    "ParsedDSN",
    "parse_dsn",
    "SQLiteBackend",
    "backend_for_dsn",
]

#: Names the store the result cache, the run ledger and report
#: artifacts live in (see :class:`~repro.parallel.cache.ResultCache`).
ENV_STORE_DSN = "REPRO_STORE_DSN"

#: How long a writer waits on a locked SQLite database before erroring.
SQLITE_BUSY_TIMEOUT_MS = 10_000


class StoreError(RuntimeError):
    """Any store-layer failure the caller may want to degrade around."""


@dataclass(frozen=True)
class ParsedDSN:
    """A DSN broken into backend kind + database location."""

    backend: str        # always "sqlite"
    location: str       # filesystem path or ":memory:"
    raw: str

    @property
    def memory(self) -> bool:
        return self.location == ":memory:"


def parse_dsn(dsn: str) -> ParsedDSN:
    """Classify a DSN.

    Accepted spellings::

        sqlite:////abs/path.db      sqlite:///rel/path.db
        sqlite:///:memory:          :memory:
        /abs/path.db                rel/path.db      (bare paths)
    """
    if not dsn or not str(dsn).strip():
        raise StoreError("empty store DSN")
    dsn = str(dsn).strip()
    if dsn.lower().startswith("sqlite:"):
        rest = dsn.split(":", 1)[1].lstrip("/")
        # sqlite:////abs/x -> /abs/x ; sqlite:///x -> x (relative)
        if dsn.lower().startswith("sqlite:////"):
            rest = "/" + rest
        if rest in (":memory:", ""):
            return ParsedDSN(backend="sqlite", location=":memory:", raw=dsn)
        return ParsedDSN(backend="sqlite",
                         location=str(Path(rest).expanduser()), raw=dsn)
    if dsn == ":memory:":
        return ParsedDSN(backend="sqlite", location=":memory:", raw=dsn)
    if "://" in dsn:
        raise StoreError(f"unsupported store DSN scheme: {dsn!r}")
    return ParsedDSN(backend="sqlite",
                     location=str(Path(dsn).expanduser()), raw=dsn)


class SQLiteBackend:
    """WAL-mode SQLite with one connection per thread.

    File databases hand every thread its own connection (SQLite
    connections are not thread-safe under concurrent use) with WAL +
    busy-timeout pragmas, so independent processes sharing the store
    file serialize on the page level, not at the API.  ``:memory:``
    databases are per-connection in SQLite, so those fall back to one
    shared connection guarded by a lock.
    """

    name = "sqlite"

    def __init__(self, location: str):
        self.location = location
        self._local = threading.local()
        self._memory = location == ":memory:"
        self._shared: sqlite3.Connection | None = None
        self._lock = threading.RLock()

    # -- connections ---------------------------------------------------

    def _new_conn(self) -> sqlite3.Connection:
        if not self._memory:
            Path(self.location).expanduser().parent.mkdir(
                parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.location,
            timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,            # autocommit; explicit BEGIN
            check_same_thread=False,
        )
        conn.row_factory = sqlite3.Row
        cur = conn.cursor()
        cur.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
        if not self._memory:
            cur.execute("PRAGMA journal_mode=WAL")
            cur.execute("PRAGMA synchronous=NORMAL")
        cur.close()
        return conn

    def connect(self) -> sqlite3.Connection:
        if self._memory:
            with self._lock:
                if self._shared is None:
                    self._shared = self._new_conn()
                return self._shared
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._new_conn()
            self._local.conn = conn
        return conn

    @contextmanager
    def transaction(self):
        """One write transaction; serialized for shared connections."""
        conn = self.connect()
        with self._lock if self._memory else _null_lock():
            cur = conn.cursor()
            try:
                cur.execute("BEGIN IMMEDIATE")
                yield cur
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
            finally:
                cur.close()

    @contextmanager
    def reading(self):
        """A read cursor (shared-connection databases still lock)."""
        conn = self.connect()
        with self._lock if self._memory else _null_lock():
            cur = conn.cursor()
            try:
                yield cur
            finally:
                cur.close()

    # -- introspection -------------------------------------------------

    def describe(self) -> dict:
        info = {"backend": self.name, "location": self.location}
        if not self._memory:
            try:
                info["size_bytes"] = os.path.getsize(self.location)
            except OSError:
                info["size_bytes"] = 0
        return info

    def close(self) -> None:
        with self._lock:
            if self._shared is not None:
                self._shared.close()
                self._shared = None
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def vacuum(self) -> None:
        if not self._memory:
            self.connect().execute("VACUUM")


@contextmanager
def _null_lock():
    yield


def backend_for_dsn(dsn: str):
    """The connection factory for a DSN."""
    return SQLiteBackend(parse_dsn(dsn).location)
