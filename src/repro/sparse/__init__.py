"""Sparse-matrix substrate.

Provides the matrix containers (:class:`~repro.sparse.matrix.COOMatrix`,
:class:`~repro.sparse.matrix.CSRMatrix`), structure-matched synthetic
generators for the paper's five SuiteSparse benchmarks
(:mod:`repro.sparse.synthetic`), the benchmark registry
(:mod:`repro.sparse.suite`), and numerically validated reference kernels
(:mod:`repro.sparse.kernels`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sparse.kernels": ("sddmm", "spmm", "spmv"),
    "repro.sparse.matrix": ("COOMatrix", "CSRMatrix"),
    "repro.sparse.suite": ("BENCHMARKS", "BenchmarkSpec", "load_benchmark"),
})
