"""Provenance captured on every store write.

A result row without provenance is unauditable: two machines sweeping
the same grid must be able to tell *which code* produced a row before
trusting it.  Every write therefore stamps:

- ``code_salt`` — the hash of the package sources
  (:func:`repro.sources.code_salt`), the same salt already folded into
  every job digest;
- ``git_sha`` — the commit of the working tree, resolved once per
  process (``$REPRO_GIT_SHA`` overrides for detached deployments);
- ``schema_version`` — the store schema the row was written under;
- ``worker`` — ``host:pid`` of the writing process.
"""

from __future__ import annotations

import os
import socket
import subprocess
from functools import lru_cache
from pathlib import Path

__all__ = ["git_sha", "worker_id", "provenance"]

#: Override for environments without a git checkout (containers, CI
#: artifact replays).
ENV_GIT_SHA = "REPRO_GIT_SHA"


@lru_cache(maxsize=1)
def git_sha() -> str:
    """The current commit sha, or ``"unknown"`` outside a checkout."""
    env = os.environ.get(ENV_GIT_SHA)
    if env:
        return env
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@lru_cache(maxsize=1)
def worker_id() -> str:
    """``host:pid`` — note the pid is resolved per call-site process
    (the lru_cache does not survive a fork's first call in the child
    because forked children re-execute on first miss only; workers
    that fork after caching inherit the parent's id, which is the
    submitting process and therefore still the right attribution)."""
    try:
        host = socket.gethostname()
    except OSError:
        host = "localhost"
    return f"{host}:{os.getpid()}"


def provenance() -> dict:
    """The full provenance stamp for one store write."""
    from repro.sources import code_salt
    from repro.store.migrations import SCHEMA_VERSION

    return {
        "code_salt": code_salt(),
        "git_sha": git_sha(),
        "schema_version": SCHEMA_VERSION,
        "worker": worker_id(),
    }
