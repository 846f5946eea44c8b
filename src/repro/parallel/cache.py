"""Content-addressed result cache: the ``results`` table of one store.

Entries are :class:`~repro.results.CommResult` records keyed by the
owning :class:`~repro.parallel.jobs.SimJob`'s content digest (which
already folds in a hash of the package sources), kept as rows of a
SQLite :class:`~repro.store.Store`.  Each row carries the wall-clock seconds
the original computation took, so ``netsparse cache info`` can report
how much simulation time the cache is holding.

The store is chosen in this order:

1. the ``store=`` argument;
2. ``sqlite:///<root>/store.sqlite3`` when a root (``--cache-dir``)
   is given;
3. ``$REPRO_STORE_DSN``;
4. ``<default_cache_dir()>/store.sqlite3``.

Several processes (concurrent CLI runs, CI jobs) pointed at one store
share one cache: writes are first-writer-wins, and SQLite's WAL mode
lets readers and writers of one file run side by side.  The store
opens on first use, so importing this module never imports
:mod:`repro.store` or :mod:`sqlite3`.  Store failures never break a
simulation: a store that cannot be opened turns the cache off for the
rest of the process, a failing ``get`` reads as a miss and a failing
``put`` is skipped, each counted under ``store.errors``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro import telemetry

__all__ = ["CacheInfo", "ResultCache", "default_cache_dir"]


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/netsparse``, else ``~/.cache/netsparse``."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "netsparse"


@dataclass
class CacheInfo:
    """Aggregate cache statistics (the ``netsparse cache info`` payload)."""

    #: The store's DSN.
    location: str
    n_entries: int = 0
    total_bytes: int = 0
    sim_seconds: float = 0.0
    by_scheme: Dict[str, int] = field(default_factory=dict)
    #: ``Store.describe()``, or ``None`` when the store is unusable.
    store: Optional[dict] = None

    def format(self) -> str:
        lines = [
            f"cache store  : {self.location}",
            f"entries      : {self.n_entries}",
            f"size         : {self.total_bytes / 1e6:.2f} MB",
            f"sim time held: {self.sim_seconds:.1f}s of simulation",
        ]
        for scheme in sorted(self.by_scheme):
            lines.append(f"  {scheme:<10} {self.by_scheme[scheme]} entries")
        if self.store is None:
            lines.append("store        : unavailable (cache off)")
        else:
            lines.append(
                f"  schema v{self.store.get('schema_version', '?')}  "
                f"ledger={self.store.get('ledger', 0)} rows")
        return "\n".join(lines)


class ResultCache:
    """Digest-keyed results in one store; corrupt rows read as misses."""

    def __init__(self, root=None, store=None):
        self.root = Path(root).expanduser() if root else None
        self._store = store
        self._store_resolved = store is not None
        self._open_lock = threading.Lock()

    @property
    def dsn(self) -> str:
        """The DSN of the store this cache keeps its results in."""
        if self._store is not None:
            return self._store.dsn
        if self.root is not None:
            return f"sqlite:///{self.root}/store.sqlite3"
        from repro.store import ENV_STORE_DSN

        return os.environ.get(ENV_STORE_DSN) or (
            f"sqlite:///{default_cache_dir()}/store.sqlite3")

    @property
    def store(self):
        """The store, opened (and migrated) on first use; ``None`` once
        it has failed to open (one failure, not one per job)."""
        if not self._store_resolved:
            with self._open_lock:
                if not self._store_resolved:
                    try:
                        from repro.store import open_store

                        self._store = open_store(self.dsn)
                    except Exception:
                        telemetry.count("store.errors", op="open")
                    self._store_resolved = True
        return self._store

    def get(self, digest: str):
        """The store's :class:`~repro.store.StoredResult`, or ``None``."""
        store = self.store
        if store is None:
            return None
        try:
            return store.get_result(digest)
        except Exception:
            telemetry.count("store.errors", op="get")
            return None

    def put(self, digest: str, result, *, meta: dict, elapsed: float) -> None:
        store = self.store
        if store is None:
            return
        try:
            store.put_result(digest, result, meta=meta, elapsed=elapsed)
        except Exception:
            # A full disk or a locked database must not fail a job.
            telemetry.count("store.errors", op="put")

    # -- maintenance ---------------------------------------------------

    def info(self) -> CacheInfo:
        info = CacheInfo(location=self.dsn)
        store = self.store
        if store is None:
            return info
        try:
            summary = store.result_summary()
            info.store = store.describe()
        except Exception:
            telemetry.count("store.errors", op="describe")
            return info
        info.n_entries = summary["results"]
        info.total_bytes = summary["bytes"]
        info.sim_seconds = summary["sim_seconds"]
        info.by_scheme = summary["by_scheme"]
        return info

    def clear(self) -> int:
        """Delete every cached result; returns how many were removed.

        Only ``results`` rows go: the run ledger stays (``netsparse
        store gc --ledger`` prunes it).  In a store other
        processes share, this clears their cache too."""
        store = self.store
        return 0 if store is None else store.clear_results()
