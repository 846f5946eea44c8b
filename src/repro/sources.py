"""Cache keys from source bytes.

A cached answer is only as fresh as the code that produced it, so the
caches that outlive a process key their entries on the code itself
rather than on a hand-maintained version string:

- :func:`code_salt` hashes every ``repro/**/*.py`` and is folded into
  every :class:`~repro.parallel.jobs.SimJob` digest (and stamped into
  every store row's provenance), so an edit to any source misses every
  result cached before it;
- :func:`source_digest` hashes a chosen set of sources, e.g. the
  generator modules that name a stored benchmark matrix
  (:func:`repro.sparse.suite.stored_set`).

Both are computed on first use, once per process, never at import.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Tuple

__all__ = ["PACKAGE_ROOT", "code_salt", "source_digest"]

#: The ``repro`` package directory; hashed paths are relative to it.
PACKAGE_ROOT = Path(__file__).resolve().parent


def _read(rel: str) -> bytes:
    return (PACKAGE_ROOT / rel).read_bytes()


@lru_cache(maxsize=None)
def source_digest(relpaths: Tuple[str, ...]) -> str:
    """sha256 over the sources at ``relpaths`` (POSIX paths relative to
    :data:`PACKAGE_ROOT`): each path, its length and its bytes, in
    sorted path order, so a rename changes the digest too."""
    h = hashlib.sha256()
    for rel in sorted(relpaths):
        data = _read(rel)
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@lru_cache(maxsize=1)
def code_salt() -> str:
    """:func:`source_digest` of every ``*.py`` under the package."""
    return source_digest(tuple(
        p.relative_to(PACKAGE_ROOT).as_posix()
        for p in PACKAGE_ROOT.rglob("*.py")))
