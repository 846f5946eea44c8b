"""Reference sparse kernels: SpMV, SpMM, SDDMM.

These are the numerically exact kernels the distributed execution model
must match (the correctness invariant tested throughout: no matter what
the communication layer filters, coalesces, concatenates or caches, the
computed output equals these references).

The input *property array* terminology follows the paper (§2.1): for a
sparse matrix A (m×n), the input properties B are an n×K dense array
indexed by nonzero column ids, the output properties are m×K.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.sparse.matrix import COOMatrix, CSRMatrix
from repro.sparse.shards import as_coo

__all__ = ["spmv", "spmm", "sddmm"]

Matrix = Union[COOMatrix, CSRMatrix]


def _as_coo(a: Matrix) -> COOMatrix:
    return a.to_coo() if isinstance(a, CSRMatrix) else as_coo(a)


def _values(coo: COOMatrix) -> np.ndarray:
    if coo.vals is not None:
        return coo.vals
    return np.ones(coo.nnz, dtype=np.float64)


def spmv(a: Matrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix × dense vector: ``y = A @ x``."""
    coo = _as_coo(a)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (coo.n_cols,):
        raise ValueError(f"x must have shape ({coo.n_cols},), got {x.shape}")
    y = np.zeros(coo.n_rows, dtype=np.float64)
    np.add.at(y, coo.rows, _values(coo) * x[coo.cols])
    return y


def spmm(a: Matrix, b: np.ndarray) -> np.ndarray:
    """Sparse matrix × tall-skinny dense matrix: ``C = A @ B``.

    ``b`` has shape (n_cols, K); K is the property size in elements.
    """
    coo = _as_coo(a)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != coo.n_cols:
        raise ValueError(f"b must have shape ({coo.n_cols}, K), got {b.shape}")
    c = np.zeros((coo.n_rows, b.shape[1]), dtype=np.float64)
    np.add.at(c, coo.rows, _values(coo)[:, None] * b[coo.cols])
    return c


def sddmm(a: Matrix, u: np.ndarray, v: np.ndarray) -> COOMatrix:
    """Sampled dense-dense matrix multiplication.

    For each nonzero (i, j) of the sampling matrix A, computes
    ``out[i, j] = A[i, j] * (u[i] · v[j])`` where u is (n_rows, K) and
    v is (n_cols, K).  Returns a COO matrix with A's pattern.
    """
    coo = _as_coo(a)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != coo.n_rows:
        raise ValueError(f"u must have shape ({coo.n_rows}, K), got {u.shape}")
    if v.shape != (coo.n_cols, u.shape[1]):
        raise ValueError(
            f"v must have shape ({coo.n_cols}, {u.shape[1]}), got {v.shape}"
        )
    dots = np.einsum("ij,ij->i", u[coo.rows], v[coo.cols])
    vals = _values(coo) * dots
    return COOMatrix(coo.n_rows, coo.n_cols, coo.rows, coo.cols, vals, coo.name)
