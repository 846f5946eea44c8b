"""Distributed kernel execution must match single-node references
exactly, on every benchmark family."""

import numpy as np
import pytest

from repro.cluster.execute import (
    distributed_sddmm,
    distributed_spmm,
    distributed_spmv,
)
from repro.sparse import sddmm, spmm, spmv
from repro.sparse.suite import MATRIX_NAMES, load_benchmark


@pytest.fixture(scope="module", params=list(MATRIX_NAMES))
def matrix(request):
    return load_benchmark(request.param, "tiny").with_random_values(seed=5)


def test_distributed_spmm_matches_reference(matrix):
    rng = np.random.default_rng(0)
    b = rng.normal(size=(matrix.n_cols, 8))
    run = distributed_spmm(matrix, b, n_nodes=16)
    np.testing.assert_array_equal(run.output, spmm(matrix, b))
    assert run.n_nodes == 16
    assert run.prs_issued <= run.pr_candidates


def test_distributed_spmv_matches_reference(matrix):
    rng = np.random.default_rng(1)
    x = rng.normal(size=matrix.n_cols)
    run = distributed_spmv(matrix, x, n_nodes=8)
    np.testing.assert_array_equal(run.output, spmv(matrix, x))
    assert run.output.ndim == 1


def test_distributed_sddmm_matches_reference(matrix):
    rng = np.random.default_rng(2)
    u = rng.normal(size=(matrix.n_rows, 4))
    v = rng.normal(size=(matrix.n_cols, 4))
    run = distributed_sddmm(matrix, u, v, n_nodes=8)
    reference = sddmm(matrix, u, v)
    np.testing.assert_array_equal(run.output, reference.vals)


def test_fc_rate_reported(matrix):
    rng = np.random.default_rng(3)
    b = rng.normal(size=(matrix.n_cols, 2))
    run = distributed_spmm(matrix, b, n_nodes=16)
    if matrix.name in ("arabic", "queen"):
        assert run.fc_rate > 0.3        # heavy reuse matrices
    assert 0.0 <= run.fc_rate < 1.0
    assert run.properties_moved <= run.prs_issued


def test_node_count_does_not_change_numerics(matrix):
    rng = np.random.default_rng(4)
    b = rng.normal(size=(matrix.n_cols, 3))
    a = distributed_spmm(matrix, b, n_nodes=4).output
    c = distributed_spmm(matrix, b, n_nodes=32).output
    np.testing.assert_allclose(a, c, rtol=1e-10)


def test_shape_validation():
    mat = load_benchmark("queen", "tiny")
    with pytest.raises(ValueError):
        distributed_spmm(mat, np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        distributed_spmv(mat, np.zeros(3), 4)
    with pytest.raises(ValueError):
        distributed_sddmm(mat, np.zeros((3, 2)),
                          np.zeros((mat.n_cols, 2)), 4)
    with pytest.raises(ValueError):
        distributed_sddmm(mat, np.zeros((mat.n_rows, 2)),
                          np.zeros((mat.n_cols, 3)), 4)


def test_structure_only_matrix_uses_unit_values():
    mat = load_benchmark("queen", "tiny")   # no values attached
    rng = np.random.default_rng(5)
    b = rng.normal(size=(mat.n_cols, 2))
    run = distributed_spmm(mat, b, n_nodes=8)
    np.testing.assert_allclose(run.output, spmm(mat, b), rtol=1e-10)
