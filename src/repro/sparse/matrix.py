"""Sparse matrix containers.

Two formats are used throughout the reproduction:

- :class:`COOMatrix` — coordinate triplets, the output format of the
  synthetic generators and the format the communication analyses
  consume (a nonzero's column id *is* the property index it reads).
- :class:`CSRMatrix` — compressed sparse rows, used by the compute
  models and reference kernels.

Values are optional: the communication study only needs structure, and
keeping structure-only matrices halves memory for the large traces.
Index arrays may be int32 or int64 and are kept as given; every
``row * n_cols + col`` key is widened to int64 (:func:`coord_keys`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["COOMatrix", "CSRMatrix", "canonical_coords", "coord_keys",
           "distinct_count", "digest_coords", "pointer_rows"]

#: Elements per block of a streamed pass over a matrix (1 MiB of int64).
_BLOCK = 1 << 17


def coord_keys(n_cols: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The int64 ``row * n_cols + col`` key of every nonzero.  Widened
    first: under numpy's value-based casting an int32 index times a
    Python int stays int32, and would overflow."""
    keys = np.multiply(rows, n_cols, dtype=np.int64)
    keys += cols
    return keys


def pointer_rows(indptr: np.ndarray, start: int, stop: int) -> np.ndarray:
    """int64 row id of each nonzero ``start <= k < stop`` under the row
    pointer ``indptr`` (empty rows included), without expanding the
    rest of the matrix."""
    return np.searchsorted(indptr, np.arange(start, stop), side="right") - 1


def _index_array(a) -> np.ndarray:
    """``a`` as an int32 or int64 array, kept as it is when it is one."""
    a = np.asarray(a)
    return a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)


def canonical_coords(
    n_cols: int, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` sorted by (row, col), duplicates dropped: one
    in-place sort of the int64 ``row * n_cols + col`` keys, split back
    by ``divmod`` into the kept keys' own buffer (structure only, so no
    stable argsort and no gathers).  Beside its inputs it holds two
    key arrays at most."""
    keys = coord_keys(n_cols, rows, cols)
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    if not keep.all():
        keys = keys[keep]
    del keep
    out_rows = np.empty_like(keys)
    np.divmod(keys, n_cols, out=(out_rows, keys))
    return out_rows, keys


def distinct_count(idx_chunks: Iterable[np.ndarray], n: int) -> int:
    """Number of distinct values across ``idx_chunks`` (all in ``[0, n)``).

    A presence bitmap costs one byte per possible value and no sort, so
    it beats ``np.unique(...).size`` and lets callers stream the chunks
    (one shard or window resident at a time).
    """
    seen = np.zeros(n, dtype=bool)
    for idxs in idx_chunks:
        seen[idxs] = True
    return int(np.count_nonzero(seen))


def digest_coords(n_rows: int, n_cols: int,
                  blocks: Iterable[np.ndarray]) -> str:
    """Hex digest of a shape and an int64 coordinate stream: all rows,
    then all cols, fed in ``blocks`` so a caller can stream them."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([n_rows, n_cols], dtype=np.int64).tobytes())
    for block in blocks:
        h.update(np.ascontiguousarray(block, dtype=np.int64))
    return h.hexdigest()


@dataclass
class COOMatrix:
    """Coordinate-format sparse matrix.

    ``rows[k], cols[k]`` give the coordinates of nonzero ``k``; nonzeros
    are kept sorted by (row, col) and deduplicated by
    :meth:`canonicalize`, which generators call before returning.

    A matrix in row order may carry CSR's row pointer ``indptr`` (row
    ``r`` holds nonzeros ``indptr[r]`` to ``indptr[r+1]``) and pass
    ``rows=None``: a stored set's view does
    (:meth:`repro.sparse.shards.ShardedCOOMatrix.to_coo`).  Its trace
    path reads the pointer; ``rows`` is expanded (int64) on each
    access, and held only by the copy :meth:`with_rows` returns to the
    callers that index every nonzero.
    """

    n_rows: int
    n_cols: int
    rows: Optional[np.ndarray]
    cols: np.ndarray
    vals: Optional[np.ndarray] = None
    name: str = ""
    #: The row pointer (``n_rows + 1`` entries), or ``None``.
    indptr: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    #: Lazily computed by :meth:`structural_digest`; excluded from
    #: comparisons (digested and fresh instances compare equal) and
    #: from ``__init__`` (no ``dataclasses.replace`` copy inherits it).
    _structural_digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily computed by :meth:`unique_col_count`; excluded likewise.
    _unique_col_count: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The stored set this matrix views (``ShardedCOOMatrix.to_coo``).
    path: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.cols = _index_array(self.cols)
        if self.indptr is not None:
            ptr = self.indptr = _index_array(self.indptr)
            if (ptr.shape != (self.n_rows + 1,) or ptr[0] != 0
                    or ptr[-1] != self.cols.size or (ptr[1:] < ptr[:-1]).any()):
                raise ValueError("row pointer must rise from 0 to nnz "
                                 "over n_rows + 1 entries")
        if self.rows is None:
            if self.indptr is None:
                raise ValueError("need rows or a row pointer")
            del self.rows       # read through __getattr__
        else:
            self.rows = _index_array(self.rows)
            if self.rows.shape != self.cols.shape:
                raise ValueError("rows and cols must have equal length")
            if self.nnz and (self.rows.min() < 0
                             or self.rows.max() >= self.n_rows):
                raise ValueError("row index out of range")
        if self.vals is not None:
            self.vals = np.asarray(self.vals, dtype=np.float64)
            if self.vals.shape != self.cols.shape:
                raise ValueError("vals length must match rows/cols")
        if self.nnz and (self.cols.min() < 0 or self.cols.max() >= self.n_cols):
            raise ValueError("col index out of range")

    def __getattr__(self, name):
        # Reached only for an attribute the instance does not hold:
        # ``rows`` of a matrix that carries a row pointer instead.
        if name == "rows" and self.__dict__.get("indptr") is not None:
            return self._expand_rows()
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _expand_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         np.diff(self.indptr))

    def with_rows(self) -> "COOMatrix":
        """This matrix with ``rows`` held: itself, or a copy of a
        pointer-backed matrix whose rows are expanded once and which
        names the same set."""
        if "rows" in self.__dict__:
            return self
        mat = COOMatrix(self.n_rows, self.n_cols, self._expand_rows(),
                        self.cols, self.vals, self.name, indptr=self.indptr)
        mat.path = self.path
        return mat

    @property
    def nnz(self) -> int:
        return int(self.cols.size)

    @property
    def shape(self) -> tuple:
        return (self.n_rows, self.n_cols)

    def structural_digest(self) -> str:
        """Hex digest of the matrix *structure* (shape + coordinates).

        Values and name are deliberately excluded: every communication
        analysis depends only on which coordinates are nonzero.  The
        digest is computed once and cached on the instance — it keys
        the :class:`repro.partition.tracecache.TraceCache` unless
        ``path`` names a stored set.  Rows and cols are fed a block at
        a time, so no int64 copy of an int32 array is made.
        """
        if self._structural_digest is None:
            self._structural_digest = digest_coords(
                self.n_rows, self.n_cols, self._coord_blocks())
        return self._structural_digest

    def _coord_blocks(self):
        held = self.__dict__.get("rows")
        for a in range(0, self.nnz, _BLOCK):
            b = min(a + _BLOCK, self.nnz)
            yield (held[a:b] if held is not None
                   else pointer_rows(self.indptr, a, b))
        for a in range(0, self.nnz, _BLOCK):
            yield self.cols[a:a + _BLOCK]

    def unique_col_count(self) -> int:
        """Number of distinct columns (the single-node working set).

        Computed once with a presence bitmap and cached on the
        instance, like :meth:`structural_digest`.
        """
        if self._unique_col_count is None:
            self._unique_col_count = distinct_count((self.cols,), self.n_cols)
        return self._unique_col_count

    def canonicalize(self) -> "COOMatrix":
        """Return a copy sorted by (row, col), duplicates removed (the
        first occurrence's value wins)."""
        if self.vals is None:
            rows, cols = canonical_coords(self.n_cols, self.rows, self.cols)
            return COOMatrix(self.n_rows, self.n_cols, rows, cols, None,
                             self.name)
        _, sel = np.unique(coord_keys(self.n_cols, self.rows, self.cols),
                           return_index=True)
        return COOMatrix(self.n_rows, self.n_cols, self.rows[sel],
                         self.cols[sel], self.vals[sel], self.name)

    def with_random_values(self, seed: int = 0) -> "COOMatrix":
        """Attach uniform(0.1, 1.0) values (for numeric kernel tests)."""
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.1, 1.0, size=self.nnz)
        return COOMatrix(self.n_rows, self.n_cols, self.__dict__.get("rows"),
                         self.cols, vals, self.name, indptr=self.indptr)

    def to_csr(self) -> "CSRMatrix":
        rows = self.rows
        order = np.argsort(coord_keys(self.n_cols, rows, self.cols),
                           kind="stable")
        rows, cols = rows[order], self.cols[order]
        vals = self.vals[order] if self.vals is not None else None
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(self.n_rows, self.n_cols, indptr, cols, vals, self.name)

    def to_scipy(self):
        import scipy.sparse as sp

        vals = self.vals if self.vals is not None else np.ones(self.nnz)
        return sp.coo_matrix(
            (vals, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols)
        )

    # -- structure statistics used by the motivation analyses ---------

    def row_degrees(self) -> np.ndarray:
        """Nonzeros per row (int64), from the row pointer when there
        is one."""
        if self.indptr is not None:
            return np.subtract(self.indptr[1:], self.indptr[:-1],
                               dtype=np.int64)
        return np.bincount(self.rows, minlength=self.n_rows)

    def col_degrees(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.n_cols)

    def bandwidth(self) -> int:
        """Maximum |col - row| over nonzeros (diagonal concentration)."""
        if not self.nnz:
            return 0
        return int(np.abs(self.cols - self.rows).max())

    def mean_abs_offset(self) -> float:
        """Mean |col - row|, a robust diagonal-concentration measure."""
        if not self.nnz:
            return 0.0
        return float(np.abs(self.cols - self.rows).mean())


@dataclass
class CSRMatrix:
    """Compressed-sparse-row matrix (structure plus optional values)."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.size != self.n_rows + 1:
            raise ValueError("indptr must have n_rows + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.data is not None:
            self.data = np.asarray(self.data, dtype=np.float64)
            if self.data.shape != self.indices.shape:
                raise ValueError("data length must match indices")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def shape(self) -> tuple:
        return (self.n_rows, self.n_cols)

    def row_slice(self, r: int) -> np.ndarray:
        return self.indices[self.indptr[r] : self.indptr[r + 1]]

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))
        return COOMatrix(self.n_rows, self.n_cols, rows, self.indices, self.data, self.name)

    def to_scipy(self):
        import scipy.sparse as sp

        data = self.data if self.data is not None else np.ones(self.nnz)
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols)
        )

    @staticmethod
    def from_scipy(mat, name: str = "") -> "CSRMatrix":
        csr = mat.tocsr()
        return CSRMatrix(
            csr.shape[0],
            csr.shape[1],
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float64),
            name,
        )
