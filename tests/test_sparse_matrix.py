"""Unit tests for COO/CSR containers."""

import dataclasses

import numpy as np
import pytest

from repro.sparse import COOMatrix, CSRMatrix


def small_coo():
    #     0 1 2 3
    # 0 [ .  a  .  b ]
    # 1 [ c  .  .  . ]
    # 2 [ .  d  e  . ]
    return COOMatrix(
        3, 4,
        rows=np.array([0, 0, 1, 2, 2]),
        cols=np.array([1, 3, 0, 1, 2]),
        vals=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    )


def test_shape_and_nnz():
    m = small_coo()
    assert m.shape == (3, 4)
    assert m.nnz == 5


def test_row_out_of_range_rejected():
    with pytest.raises(ValueError):
        COOMatrix(2, 2, rows=np.array([2]), cols=np.array([0]))


def test_col_out_of_range_rejected():
    with pytest.raises(ValueError):
        COOMatrix(2, 2, rows=np.array([0]), cols=np.array([5]))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        COOMatrix(2, 2, rows=np.array([0, 1]), cols=np.array([0]))


def test_canonicalize_sorts_and_dedups():
    m = COOMatrix(
        2, 2,
        rows=np.array([1, 0, 1, 0]),
        cols=np.array([1, 1, 1, 0]),
        vals=np.array([9.0, 8.0, 7.0, 6.0]),
    )
    c = m.canonicalize()
    assert c.nnz == 3
    assert list(c.rows) == [0, 0, 1]
    assert list(c.cols) == [0, 1, 1]


def test_coo_csr_roundtrip():
    m = small_coo()
    back = m.to_csr().to_coo()
    assert list(back.rows) == list(m.rows)
    assert list(back.cols) == list(m.cols)
    np.testing.assert_allclose(back.vals, m.vals)


def test_csr_row_slice():
    csr = small_coo().to_csr()
    assert list(csr.row_slice(0)) == [1, 3]
    assert list(csr.row_slice(1)) == [0]
    assert list(csr.row_slice(2)) == [1, 2]


def test_csr_validation():
    with pytest.raises(ValueError):
        CSRMatrix(2, 2, indptr=np.array([0, 1]), indices=np.array([0]))
    with pytest.raises(ValueError):
        CSRMatrix(2, 2, indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))


def test_scipy_roundtrip_matches():
    m = small_coo()
    sp = m.to_scipy().toarray()
    dense = np.zeros((3, 4))
    dense[m.rows, m.cols] = m.vals
    np.testing.assert_allclose(sp, dense)
    back = CSRMatrix.from_scipy(m.to_scipy())
    np.testing.assert_allclose(back.to_scipy().toarray(), dense)


def test_degrees():
    m = small_coo()
    assert list(m.row_degrees()) == [2, 1, 2]
    assert list(m.col_degrees()) == [1, 2, 1, 1]


def test_bandwidth_and_offset():
    m = small_coo()
    assert m.bandwidth() == 3  # nonzero (0, 3)
    assert m.mean_abs_offset() == pytest.approx((1 + 3 + 1 + 1 + 0) / 5)


def test_with_random_values_deterministic():
    m = COOMatrix(2, 2, rows=np.array([0, 1]), cols=np.array([1, 0]))
    a = m.with_random_values(seed=1)
    b = m.with_random_values(seed=1)
    np.testing.assert_array_equal(a.vals, b.vals)
    assert (a.vals > 0).all()


def test_empty_matrix():
    m = COOMatrix(3, 3, rows=np.array([], dtype=int), cols=np.array([], dtype=int))
    assert m.nnz == 0
    assert m.bandwidth() == 0
    assert m.to_csr().nnz == 0


def test_replaced_copy_recomputes_cached_structure():
    m = small_coo()
    m.structural_digest(), m.unique_col_count()
    r = dataclasses.replace(m, cols=np.array([1, 1, 1, 1, 1]))
    fresh = COOMatrix(3, 4, r.rows, r.cols)
    assert r.structural_digest() == fresh.structural_digest()
    assert r.structural_digest() != m.structural_digest()
    assert (r.unique_col_count(), m.unique_col_count()) == (1, 4)
