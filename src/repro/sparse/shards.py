"""The matrix store: memory-mapped CSR-style shards, the one out-of-core tier.

The paper evaluates arabic-2005 at ~640M nonzeros; holding such a
matrix (plus its partition traces and per-scheme selections) in one
process's RAM does not scale.  This module stores a canonical COO
matrix as a directory of bounded-size shards, each a pair of plain
``.npy`` files: the shard's int32 columns and an int32 row pointer
local to the shard's row range, so a set takes 4 bytes per nonzero
plus 4 per row, and the *resident* cost of a matrix is a window, not
the matrix.  Column windows, whole-column passes, row bisections and
degree passes read the files into the caller's buffer, so no page is
ever mapped into the process; only :meth:`ShardedCOOMatrix.to_coo`
maps them (a one-shard set's view is its two maps).  Every benchmark
matrix lives here (:func:`repro.sparse.suite.stored_set`); nothing
else writes matrix or trace data to disk.

Layout of a shard directory::

    manifest.json            # schema, shape, nnz, per-shard row ranges
    shard-00000.cols.npy     # int32 columns, canonical (row, col) order
    shard-00000.indptr.npy   # int32 row pointer over the shard's rows:
                             #   row_stop - row_start + 1 entries, 0..nnz
    shard-00001.cols.npy
    ...

The shards' row ranges ``[row_start, row_stop)`` tile ``[0, n_rows)``:
a shard starts where the last one stopped (empty rows between two
shards lead the later one) and the last one stops at ``n_rows``.

Invariants (enforced by :class:`ShardWriter`):

- shards are *canonical*: globally sorted by ``(row, col)`` with
  duplicates removed, exactly like
  :meth:`repro.sparse.matrix.COOMatrix.canonicalize`;
- shard boundaries fall on row boundaries, so any contiguous row range
  (a 1D partition block) maps to one contiguous global nnz range;
- ``n_rows``, ``n_cols`` and each shard's nnz are below ``2**31``;
- a set is immutable once renamed into place (a writer refuses a
  directory that already holds a manifest), so its directory names
  its structure: the ``TraceCache`` keys a stored matrix by ``path``,
  and writing a set hashes nothing;
- :meth:`ShardedCOOMatrix.structural_digest`, computed only when asked
  from int64-widened rows and columns, is byte-identical to the digest
  of the materialized :class:`~repro.sparse.matrix.COOMatrix`.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import shutil
import tempfile
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.sparse.matrix import (
    COOMatrix,
    digest_coords,
    distinct_count,
    pointer_rows,
)

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

#: Target nonzeros per shard for :func:`from_coo` (8 MiB of int32
#: columns).
DEFAULT_SHARD_NNZ = 1 << 21

_MANIFEST = "manifest.json"
_SCHEMA = "repro.shards/v3"

#: Elements per block of a whole-stream pass (512 KiB of int32
#: columns, 1 MiB once widened to int64 for a digest).
_BLOCK = 1 << 17

#: Bound on ``n_rows``, ``n_cols`` and a shard's nnz (int32 storage).
_INT32_LIMIT = 2**31


def _shard_file(path: str, i: int, kind: str) -> str:
    return os.path.join(path, f"shard-{i:05d}.{kind}.npy")


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
    shard: its columns at once, its row pointer when the next chunk or
    :meth:`finalize` says where its rows stop, so no O(nnz) buffer
    ever exists in memory.  A directory that already holds a manifest
    is refused: a finished set is never rewritten, so its path keys
    its structure.
    """

    def __init__(self, path: str, n_rows: int, n_cols: int, name: str = ""):
        if os.path.exists(os.path.join(path, _MANIFEST)):
            raise FileExistsError(f"{path}: already holds a shard set")
        if max(n_rows, n_cols) >= _INT32_LIMIT:
            raise ValueError("a shard set needs n_rows and n_cols "
                             "below 2**31")
        self.path = path
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.name = name
        self.nnz = 0
        self._shards: List[dict] = []
        #: The last shard's row pointer, written once its rows stop.
        self._indptr: Optional[np.ndarray] = None
        self._finalized = False
        os.makedirs(path, exist_ok=True)

    def append(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Write one canonical chunk as the next shard."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        if rows.size == 0:
            return
        row_start = self._shards[-1]["row_stop"] if self._shards else 0
        # Where each row begins, and which row: strictly rising row ids
        # mean the chunk is row-sorted.
        begins = np.concatenate([[0], np.flatnonzero(rows[1:] != rows[:-1]) + 1])
        row_ids = rows[begins]
        if row_ids[0] < row_start or (row_ids[1:] <= row_ids[:-1]).any():
            raise ValueError(
                "chunks must be row-sorted, row-aligned and arrive in "
                f"global row order (got row {int(rows[0])} after "
                f"{row_start - 1})")
        if row_ids[-1] >= self.n_rows or rows.size >= _INT32_LIMIT:
            raise ValueError("row past n_rows, or a shard of 2**31 nonzeros")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise ValueError("col index out of range")
        if self._indptr is not None:
            self._write_indptr()
        row_stop = int(row_ids[-1]) + 1
        # Rows up to and including row_ids[k] begin where row_ids[k]
        # does; row_stop begins at the end.
        self._indptr = np.repeat(
            np.append(begins, rows.size).astype(np.int32),
            np.diff(np.concatenate([[row_start - 1], row_ids, [row_stop]])))
        np.save(_shard_file(self.path, len(self._shards), "cols"),
                cols.astype(np.int32))
        self._shards.append({"nnz": int(rows.size), "row_start": row_start,
                             "row_stop": row_stop})
        self.nnz += int(rows.size)

    def _write_indptr(self, row_stop: Optional[int] = None) -> None:
        """Write the last shard's row pointer, first extending its rows
        to ``row_stop`` (empty rows that end the matrix)."""
        meta, indptr = self._shards[-1], self._indptr
        if row_stop is not None and row_stop > meta["row_stop"]:
            indptr = np.concatenate([indptr, np.full(
                row_stop - meta["row_stop"], indptr[-1], dtype=np.int32)])
            meta["row_stop"] = row_stop
        np.save(_shard_file(self.path, len(self._shards) - 1, "indptr"),
                indptr)
        self._indptr = None

    def finalize(self) -> "ShardedCOOMatrix":
        """Write the last row pointer and the manifest, open the store."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        if self._indptr is not None:
            self._write_indptr(self.n_rows)
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


def _dead_writer_dirs(parent: str, base: str) -> Iterator[str]:
    """Temp dirs that writers of set ``base`` on this host left behind
    when killed: named ``<base>.tmp-<host>-<pid>-...`` with no process
    ``pid`` running."""
    prefix = f"{base}.tmp-{os.uname().nodename}-"
    for entry in os.listdir(parent):
        pid = entry[len(prefix):].split("-", 1)[0]
        if not (entry.startswith(prefix) and pid.isdigit()):
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            yield os.path.join(parent, entry)
        except PermissionError:     # alive, run by another user
            pass


def write_sharded(
    path: str,
    n_rows: int,
    n_cols: int,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    name: str = "",
) -> "ShardedCOOMatrix":
    """Drain a canonical chunk iterator into a new shard store.

    Written to a fresh sibling temp directory
    (``<set>.tmp-<host>-<pid>-...``) and atomically renamed into place,
    so concurrent writers (engine workers or CLI processes racing to
    generate the same benchmark) and a writer killed midway never
    leave a half-written store at ``path``.  A killed writer's temp
    directory is removed by the next writer of the set on its host.
    """
    if os.path.exists(os.path.join(path, _MANIFEST)):
        return ShardedCOOMatrix(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    base = os.path.basename(path)
    for torn in _dead_writer_dirs(parent, base):
        shutil.rmtree(torn, ignore_errors=True)
    tmp = tempfile.mkdtemp(
        prefix=f"{base}.tmp-{os.uname().nodename}-{os.getpid()}-",
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
        self._row_stops = np.array([s["row_stop"] for s in self._shard_meta],
                                   dtype=np.int64)

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
        """Identical to the materialized COOMatrix's digest: int64 rows
        and columns streamed from the files, one block resident at a
        time, when first asked (no cache key needs it) and cached on
        the instance."""
        if self._digest is None:
            self._digest = digest_coords(
                self.n_rows, self.n_cols,
                itertools.chain(self._row_blocks(), self._col_blocks()))
        return self._digest

    # -- windowed access ----------------------------------------------

    def shard_indptr(self, i: int) -> np.ndarray:
        return np.load(_shard_file(self.path, i, "indptr"), mmap_mode="r")

    def shard_cols(self, i: int) -> np.ndarray:
        return np.load(_shard_file(self.path, i, "cols"), mmap_mode="r")

    def _read(self, i: int, kind: str, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with ``kind[start:start + out.size]`` of shard ``i``.

        A read into ``out``, not a memmap copy: a mapped page counts in
        the resident set while it stays mapped, and how many of a
        copy's mapped pages counted at the peak moved from run to run
        with the page cache, while ``out`` counts the same every run.
        """
        path = _shard_file(self.path, i, kind)
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

    def _read_indptr(self, i: int) -> np.ndarray:
        """Shard ``i``'s whole row pointer, read into RAM (4 bytes per
        row of the shard)."""
        meta = self._shard_meta[i]
        out = np.empty(meta["row_stop"] - meta["row_start"] + 1,
                       dtype=np.int32)
        self._read(i, "indptr", 0, out)
        return out

    def iter_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield each shard's ``(indptr, cols)`` memmaps in global order."""
        for i in range(self.n_shards):
            yield self.shard_indptr(i), self.shard_cols(i)

    def nnz_before_row(self, row: int) -> int:
        """Global nnz offset of the first nonzero with ``rows >= row``:
        a bisection of the shards' row ranges plus one pointer entry
        read from the file."""
        if row <= 0:
            return 0
        if row > self.n_rows:
            raise ValueError(f"row {row} out of range")
        i = int(np.searchsorted(self._row_stops, row, side="right"))
        if i == self.n_shards:
            return self._nnz
        entry = np.empty(1, dtype=np.int32)
        self._read(i, "indptr", row - self._shard_meta[i]["row_start"], entry)
        return int(self.shard_offsets[i]) + int(entry[0])

    def cols_slice(self, start: int, stop: int) -> np.ndarray:
        """Materialize ``cols[start:stop]`` of the canonical stream as
        int32.

        The caller bounds the window (a 1D partition block, a kernel
        batch); only the shards overlapping it are touched.
        """
        if not 0 <= start <= stop <= self._nnz:
            raise ValueError(f"bad nnz window [{start}, {stop})")
        if start == stop:
            return np.zeros(0, dtype=np.int32)
        first = int(np.searchsorted(self.shard_offsets, start, "right")) - 1
        out = np.empty(stop - start, dtype=np.int32)
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
        """Per-row nonzero counts (int64) from the shards' row pointers
        (for nnz-balanced partitioning)."""
        counts = np.zeros(self.n_rows, dtype=np.int64)
        for i, meta in enumerate(self._shard_meta):
            counts[meta["row_start"]:meta["row_stop"]] = np.diff(
                self._read_indptr(i))
        return counts

    def unique_col_count(self) -> int:
        """Number of distinct columns, one shard resident at a time.

        A presence bitmap over ``n_cols`` costs one byte per column —
        cheap even at paper scale — versus concatenating every shard.
        Cached on the instance: the count is a function of structure.
        """
        if self._unique_col_count is None:
            self._unique_col_count = distinct_count(self._col_blocks(),
                                                    self.n_cols)
        return self._unique_col_count

    def _col_blocks(self) -> Iterator[np.ndarray]:
        """The int32 column stream in blocks of at most :data:`_BLOCK`,
        read into one buffer each block overwrites."""
        buf = np.empty(min(_BLOCK, self._nnz), dtype=np.int32)
        for i, meta in enumerate(self._shard_meta):
            n = int(meta["nnz"])
            for a in range(0, n, _BLOCK):
                block = buf[:min(_BLOCK, n - a)]
                self._read(i, "cols", a, block)
                yield block

    def _row_blocks(self) -> Iterator[np.ndarray]:
        """The int64 row id of every nonzero, in blocks of at most
        :data:`_BLOCK`, from one shard's row pointer at a time."""
        for i, meta in enumerate(self._shard_meta):
            indptr, n = self._read_indptr(i), int(meta["nnz"])
            for a in range(0, n, _BLOCK):
                block = pointer_rows(indptr, a, min(a + _BLOCK, n))
                block += meta["row_start"]
                yield block

    def to_coo(self) -> COOMatrix:
        """The whole matrix as a row-pointer :class:`COOMatrix` naming
        this set.

        A one-shard store comes back as a view over its read-only
        memmaps (no copy, nothing hashed); a multi-shard store is
        concatenated into RAM.
        """
        if self.n_shards == 1:
            indptr, cols = self.shard_indptr(0), self.shard_cols(0)
        else:
            cols = np.zeros(0, dtype=np.int32)
            if self.n_shards:
                cols = np.concatenate([c for _, c in self.iter_chunks()])
            indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            for i, meta in enumerate(self._shard_meta):
                indptr[meta["row_start"] + 1:meta["row_stop"] + 1] = (
                    self._read_indptr(i)[1:] + self.shard_offsets[i])
        mat = COOMatrix(self.n_rows, self.n_cols, None, cols, None, self.name,
                        indptr=indptr)
        mat.path = self.path
        return mat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedCOOMatrix({self.name!r}, {self.n_rows}x"
                f"{self.n_cols}, nnz={self._nnz}, shards={self.n_shards})")


def is_sharded(matrix) -> bool:
    """Duck-typed check used by the partition/cache layers."""
    return isinstance(matrix, ShardedCOOMatrix)


def as_coo(matrix) -> COOMatrix:
    """Densifying escape hatch for paths that index every nonzero
    (numeric kernels and execution, edge sampling, file writers,
    SpGEMM): the whole matrix with its ``rows`` held.

    A matrix that holds its rows passes through untouched; a
    row-pointer one gets them expanded (int64).  For sharded ones this
    trades the bounded resident set for whole-array access — callers
    on the model's hot path should use the windowed APIs instead.
    """
    return (matrix.to_coo() if is_sharded(matrix) else matrix).with_rows()


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
