"""The matrix store: memory-mapped COO shards, the one out-of-core tier.

The paper evaluates arabic-2005 at ~640M nonzeros; holding such a
matrix (plus its partition traces and per-scheme selections) in one
process's RAM does not scale.  This module stores a canonical COO
matrix as a directory of bounded-size shards, each a pair of plain
``.npy`` files, so the *resident* cost of a matrix is a window, not the
matrix.  Column windows and whole-column passes read the files into
the caller's buffer, so no column page is ever mapped into the
process; row bisections and degree passes open the row files with
``mmap_mode="r"`` and drop their pages after use.  Every benchmark
matrix lives here (:func:`repro.sparse.suite.stored_set`); nothing
else writes matrix or trace data to disk.

Layout of a shard directory::

    manifest.json            # schema, shape, nnz, per-shard row ranges
    shard-00000.rows.npy     # int64, canonical (row, col) order
    shard-00000.cols.npy
    shard-00001.rows.npy
    ...

Invariants (enforced by :class:`ShardWriter`):

- shards are *canonical*: globally sorted by ``(row, col)`` with
  duplicates removed, exactly like
  :meth:`repro.sparse.matrix.COOMatrix.canonicalize`;
- shard boundaries fall on row boundaries, so any contiguous row range
  (a 1D partition block) maps to one contiguous global nnz range;
- a set is immutable once renamed into place (a writer refuses a
  directory that already holds a manifest), so its directory names
  its structure: the ``TraceCache`` keys a stored matrix by ``path``,
  and writing a set hashes nothing;
- :meth:`ShardedCOOMatrix.structural_digest`, computed only when asked,
  is byte-identical to the digest of the materialized
  :class:`~repro.sparse.matrix.COOMatrix`.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import tempfile
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.sparse.matrix import COOMatrix, digest_coords, distinct_count

__all__ = [
    "DEFAULT_SHARD_NNZ",
    "ShardWriter",
    "ShardedCOOMatrix",
    "as_coo",
    "drop_pages",
    "is_sharded",
    "shard_root",
    "write_sharded",
]

#: Target nonzeros per shard for :func:`from_coo` (~32 MB of int64
#: rows+cols).
DEFAULT_SHARD_NNZ = 1 << 21

_MANIFEST = "manifest.json"
_SCHEMA = "repro.shards/v2"

#: Elements per block of a whole-stream pass (1 MiB of int64).
_BLOCK = 1 << 17


def drop_pages(arr: np.ndarray) -> None:
    """Advise the kernel that a memmapped array's pages can be freed.

    Keeps the *peak* resident set of streaming passes bounded even when
    there is no memory pressure.  A writable map's dirty pages stay in
    the page cache, unsynced.  Best-effort: silently a no-op for
    non-memmap arrays or platforms without ``madvise``.
    """
    base = arr
    while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
        base = base.base
    mm = getattr(base, "_mmap", None)
    if mm is None:
        return
    try:
        mm.madvise(mmap.MADV_DONTNEED)
    except (AttributeError, OSError, ValueError):
        pass


def shard_root() -> str:
    """Directory every benchmark matrix is stored under.

    ``$REPRO_SHARD_DIR`` wins, then ``$XDG_CACHE_HOME/repro/shards``,
    then ``~/.cache/repro/shards`` — the result cache's lookup order —
    so repeat runs (and forked engine workers) open stored matrices
    instead of regenerating them.
    """
    env = os.environ.get("REPRO_SHARD_DIR")
    if env:
        return env
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro", "shards")


class ShardWriter:
    """Stream canonical COO chunks into a shard directory.

    ``append`` takes chunks that are already canonical (sorted,
    deduplicated) and row-aligned — the contract the family streamers
    in :mod:`repro.sparse.synthetic` provide — and writes each as one
    shard, so no O(nnz) buffer ever exists in memory.  A directory that
    already holds a manifest is refused: a finished set is never
    rewritten, so its path keys its structure.
    """

    def __init__(self, path: str, n_rows: int, n_cols: int, name: str = ""):
        if os.path.exists(os.path.join(path, _MANIFEST)):
            raise FileExistsError(f"{path}: already holds a shard set")
        self.path = path
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.name = name
        self.nnz = 0
        self._shards: List[dict] = []
        self._last_row = -1
        self._finalized = False
        os.makedirs(path, exist_ok=True)

    def append(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Write one canonical chunk as the next shard."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        if rows.size == 0:
            return
        if rows[0] < self._last_row:
            raise ValueError(
                "chunks must arrive in global row order "
                f"(got row {int(rows[0])} after {self._last_row})"
            )
        i = len(self._shards)
        row_path = os.path.join(self.path, f"shard-{i:05d}.rows.npy")
        col_path = os.path.join(self.path, f"shard-{i:05d}.cols.npy")
        np.save(row_path, rows)
        np.save(col_path, cols)
        self._shards.append({
            "nnz": int(rows.size),
            "row_min": int(rows[0]),
            "row_max": int(rows[-1]),
        })
        self.nnz += int(rows.size)
        self._last_row = int(rows[-1])

    def finalize(self) -> "ShardedCOOMatrix":
        """Write the manifest, open the store."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        manifest = {
            "schema": _SCHEMA,
            "name": self.name,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "nnz": self.nnz,
            "shards": self._shards,
        }
        tmp = os.path.join(self.path, _MANIFEST + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, os.path.join(self.path, _MANIFEST))
        self._finalized = True
        return ShardedCOOMatrix(self.path)


def _open_npy_data(path: str):
    """Open the ``.npy`` file at ``path``, unbuffered, at its first data
    byte, past the magic and header; returns ``(file, dtype)``."""
    fmt = np.lib.format
    fh = open(path, "rb", buffering=0)
    try:
        major, _ = fmt.read_magic(fh)
        dtype = (fmt.read_array_header_1_0 if major == 1
                 else fmt.read_array_header_2_0)(fh)[2]
    except BaseException:
        fh.close()
        raise
    return fh, dtype


def write_sharded(
    path: str,
    n_rows: int,
    n_cols: int,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    name: str = "",
) -> "ShardedCOOMatrix":
    """Drain a canonical chunk iterator into a new shard store.

    Written to a fresh sibling temp directory and atomically renamed
    into place, so concurrent writers (engine workers or CLI processes
    racing to generate the same benchmark) and a writer killed midway
    never leave a half-written store at ``path``.
    """
    if os.path.exists(os.path.join(path, _MANIFEST)):
        return ShardedCOOMatrix(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(path) + ".tmp-",
                           dir=parent)
    writer = ShardWriter(tmp, n_rows, n_cols, name=name)
    try:
        for rows, cols in chunks:
            writer.append(rows, cols)
        writer.finalize()
        try:
            os.replace(tmp, path)
        except OSError:
            # Lost the race: another process renamed its copy first.
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return ShardedCOOMatrix(path)


class ShardedCOOMatrix:
    """Read side of a shard directory — a bounded-memory COOMatrix stand-in.

    Exposes the subset of :class:`~repro.sparse.matrix.COOMatrix` the
    trace pipeline needs (``n_rows``/``n_cols``/``nnz``/``name``/
    ``structural_digest``) plus windowed accessors.  Deliberately does
    *not* expose ``.rows``/``.cols`` arrays: anything that would
    materialize the whole matrix must go through :meth:`to_coo` and say
    so.
    """

    def __init__(self, path: str):
        #: The set directory: the matrix's ``TraceCache`` key.
        self.path = os.path.abspath(path)
        with open(os.path.join(path, _MANIFEST)) as fh:
            manifest = json.load(fh)
        if manifest.get("schema") != _SCHEMA:
            raise ValueError(f"{path}: shard schema {manifest.get('schema')!r}"
                             f" is not {_SCHEMA!r}; delete the set to regenerate it")
        self.name: str = manifest["name"]
        self.n_rows: int = int(manifest["n_rows"])
        self.n_cols: int = int(manifest["n_cols"])
        self._nnz: int = int(manifest["nnz"])
        self._digest: Optional[str] = None
        self._unique_col_count: Optional[int] = None
        self._shard_meta: List[dict] = manifest["shards"]
        #: Global nnz offset of each shard boundary (len n_shards + 1).
        self.shard_offsets = np.concatenate([
            [0], np.cumsum([s["nnz"] for s in self._shard_meta]),
        ]).astype(np.int64)

    # -- COOMatrix-compatible surface ---------------------------------

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def shape(self) -> tuple:
        return (self.n_rows, self.n_cols)

    @property
    def n_shards(self) -> int:
        return len(self._shard_meta)

    def structural_digest(self) -> str:
        """Identical to the materialized COOMatrix's digest: streamed
        from the files, one block resident at a time, when first asked
        (no cache key needs it) and cached on the instance."""
        if self._digest is None:
            self._digest = digest_coords(
                self.n_rows, self.n_cols,
                (b for kind in ("rows", "cols") for b in self._blocks(kind)))
        return self._digest

    # -- windowed access ----------------------------------------------

    def shard_rows(self, i: int) -> np.ndarray:
        return np.load(
            os.path.join(self.path, f"shard-{i:05d}.rows.npy"), mmap_mode="r"
        )

    def shard_cols(self, i: int) -> np.ndarray:
        return np.load(
            os.path.join(self.path, f"shard-{i:05d}.cols.npy"), mmap_mode="r"
        )

    def _read(self, i: int, kind: str, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with ``kind[start:start + out.size]`` of shard ``i``.

        A read into ``out``, not a memmap copy: a mapped page counts in
        the resident set while it stays mapped, and how many of a
        copy's mapped pages counted at the peak moved from run to run
        with the page cache, while ``out`` counts the same every run.
        """
        path = os.path.join(self.path, f"shard-{i:05d}.{kind}.npy")
        fh, dtype = _open_npy_data(path)
        with fh:
            if dtype != out.dtype:
                raise ValueError(f"{path}: dtype {dtype}, want {out.dtype}")
            fh.seek(start * out.itemsize, os.SEEK_CUR)
            view = memoryview(out).cast("B")
            got = 0
            while got < view.nbytes:
                n = fh.readinto(view[got:])
                if not n:
                    raise ValueError(f"{path}: truncated at element "
                                     f"{start + got // out.itemsize}")
                got += n

    def iter_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield each shard's ``(rows, cols)`` memmaps in global order."""
        for i in range(self.n_shards):
            yield self.shard_rows(i), self.shard_cols(i)

    def nnz_before_row(self, row: int) -> int:
        """Global nnz offset of the first nonzero with ``rows >= row``.

        Row-major canonical order makes this a shard bisection plus one
        in-shard ``searchsorted`` — O(log) pages touched.
        """
        if row <= 0:
            return 0
        if row > self.n_rows:
            raise ValueError(f"row {row} out of range")
        lo = 0
        for i, meta in enumerate(self._shard_meta):
            if meta["row_min"] >= row:
                return int(self.shard_offsets[i])
            if meta["row_max"] >= row:
                rows = self.shard_rows(i)
                off = int(np.searchsorted(rows, row, side="left"))
                drop_pages(rows)
                return int(self.shard_offsets[i]) + off
            lo = int(self.shard_offsets[i + 1])
        return lo

    def cols_slice(self, start: int, stop: int) -> np.ndarray:
        """Materialize ``cols[start:stop]`` of the canonical stream.

        The caller bounds the window (a 1D partition block, a kernel
        batch); only the shards overlapping it are touched.
        """
        if not 0 <= start <= stop <= self._nnz:
            raise ValueError(f"bad nnz window [{start}, {stop})")
        if start == stop:
            return np.zeros(0, dtype=np.int64)
        first = int(np.searchsorted(self.shard_offsets, start, "right")) - 1
        out = np.empty(stop - start, dtype=np.int64)
        filled = 0
        for i in range(first, self.n_shards):
            s0 = int(self.shard_offsets[i])
            if s0 >= stop:
                break
            a = max(start - s0, 0)
            b = min(stop, int(self.shard_offsets[i + 1])) - s0
            self._read(i, "cols", a, out[filled:filled + (b - a)])
            filled += b - a
        telemetry.count("sparse.shards.window_nnz", int(out.size))
        return out

    def row_degrees(self) -> np.ndarray:
        """Per-row nonzero counts, accumulated one shard at a time
        (for nnz-balanced partitioning)."""
        counts = np.zeros(self.n_rows, dtype=np.int64)
        for rows, _ in self.iter_chunks():
            counts += np.bincount(rows, minlength=self.n_rows)
            drop_pages(rows)
        return counts

    def unique_col_count(self) -> int:
        """Number of distinct columns, one shard resident at a time.

        A presence bitmap over ``n_cols`` costs one byte per column —
        cheap even at paper scale — versus concatenating every shard.
        Cached on the instance: the count is a function of structure.
        """
        if self._unique_col_count is None:
            self._unique_col_count = distinct_count(self._blocks("cols"),
                                                    self.n_cols)
        return self._unique_col_count

    def _blocks(self, kind: str) -> Iterator[np.ndarray]:
        """The ``"rows"`` or ``"cols"`` stream in blocks of at most
        :data:`_BLOCK`, read into one buffer each block overwrites."""
        buf = np.empty(min(_BLOCK, self._nnz), dtype=np.int64)
        for i, meta in enumerate(self._shard_meta):
            n = int(meta["nnz"])
            for a in range(0, n, _BLOCK):
                block = buf[:min(_BLOCK, n - a)]
                self._read(i, kind, a, block)
                yield block

    def to_coo(self) -> COOMatrix:
        """The whole matrix as a :class:`COOMatrix` naming this set.

        A one-shard store comes back as a view over its read-only
        memmaps (no copy, nothing hashed); a multi-shard store is
        concatenated into RAM.
        """
        if self.n_shards == 1:
            rows, cols = self.shard_rows(0), self.shard_cols(0)
        elif self.n_shards:
            rows = np.concatenate([r for r, _ in self.iter_chunks()])
            cols = np.concatenate([c for _, c in self.iter_chunks()])
        else:
            rows, cols = np.zeros((2, 0), dtype=np.int64)
        mat = COOMatrix(self.n_rows, self.n_cols, rows, cols, None, self.name)
        mat.path = self.path
        return mat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedCOOMatrix({self.name!r}, {self.n_rows}x"
                f"{self.n_cols}, nnz={self._nnz}, shards={self.n_shards})")


def is_sharded(matrix) -> bool:
    """Duck-typed check used by the partition/cache layers."""
    return isinstance(matrix, ShardedCOOMatrix)


def as_coo(matrix) -> COOMatrix:
    """Densifying escape hatch for paths that need full ``rows``/``cols``
    arrays (packet-level DES construction, edge sampling).

    Dense matrices pass through untouched.  For sharded ones this
    trades the bounded resident set for whole-array access — callers
    on the model's hot path should use the windowed APIs instead.
    """
    return matrix.to_coo() if is_sharded(matrix) else matrix


def from_coo(
    matrix: COOMatrix, path: str, shard_nnz: Optional[int] = None
) -> ShardedCOOMatrix:
    """Shard an in-memory canonical matrix (tests, imported matrices).

    Chunk boundaries are pushed to the next row boundary so the
    row-alignment invariant holds.
    """
    shard_nnz = shard_nnz or DEFAULT_SHARD_NNZ

    def chunks():
        rows, cols = matrix.rows, matrix.cols
        start = 0
        while start < matrix.nnz:
            stop = min(start + shard_nnz, matrix.nnz)
            if stop < matrix.nnz:
                # extend to include all of the row straddling the cut
                stop = int(np.searchsorted(rows, rows[stop - 1], "right"))
            yield rows[start:stop], cols[start:stop]
            start = stop

    return write_sharded(path, matrix.n_rows, matrix.n_cols, chunks(),
                         name=matrix.name)
