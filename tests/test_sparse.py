import numpy as np
import pytest
import scipy.sparse as sp

from ahgnn.sparse import SparseMatrix, normalize_relation, spmm, spspmm


def normalize_oracle(dense):
    """Entry-wise v/sqrt(rowsum*colsum) on a dense copy, zero-degree dropped."""
    dense = np.asarray(dense, dtype=np.float64)
    out = np.zeros_like(dense)
    rs, cs = dense.sum(axis=1), dense.sum(axis=0)
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            if dense[i, j] != 0 and rs[i] > 0 and cs[j] > 0:
                out[i, j] = dense[i, j] / np.sqrt(rs[i] * cs[j])
    return out


def random_sparse(rng, rows, cols, density=0.3, integer=True):
    dense = (rng.random((rows, cols)) < density).astype(np.float64)
    if integer:
        dense *= rng.integers(1, 4, size=(rows, cols))
    else:
        dense *= rng.random((rows, cols)) + 0.1
    return dense


def test_from_coo_sums_duplicates_and_sorts():
    m = SparseMatrix.from_coo(2, 3, [0, 0, 1, 0], [2, 1, 0, 2], [1.0, 2.0, 3.0, 4.0])
    assert m.nnz == 3
    expected = np.array([[0.0, 2.0, 5.0], [3.0, 0.0, 0.0]])
    np.testing.assert_array_equal(m.to_dense(), expected)
    m.validate()


def test_indices_are_int32_where_they_fit_and_coords_int64():
    from ahgnn.sparse import _index_dtype
    m = SparseMatrix.from_coo(3, 4, [0, 2, 2], [3, 0, 1], [1.0, 2.0, 3.0])
    for mat in (m, m.transpose(), spspmm(m, m.transpose()),
                SparseMatrix.identity(3), SparseMatrix.empty(2, 5)):
        assert mat.row_offsets.dtype == mat.col_indices.dtype == np.int32
        r, c = mat.coords()
        assert r.dtype == c.dtype == np.int64
    r, c = m.coords()
    np.testing.assert_array_equal(r * m.cols + c, [3, 8, 9])
    assert _index_dtype(2 ** 31 - 1, 3, 0) is np.int32
    assert _index_dtype(3, 2 ** 31, 0) is np.int64
    assert _index_dtype(3, 3, 2 ** 31) is np.int64


def test_from_coo_drops_cancelled_zeros():
    m = SparseMatrix.from_coo(1, 2, [0, 0], [1, 1], [2.0, -2.0])
    assert m.nnz == 0
    m.validate()


def test_from_scipy_leaves_its_argument_unchanged():
    m = sp.csr_matrix((np.array([1.0, 2.0, 0.0]), np.array([2, 0, 1]),
                       np.array([0, 3])), shape=(1, 3))
    a = SparseMatrix.from_scipy(m)
    np.testing.assert_array_equal(a.col_indices, [0, 2])
    np.testing.assert_array_equal(a.values, [2.0, 1.0])
    np.testing.assert_array_equal(m.indices, [2, 0, 1])
    np.testing.assert_array_equal(m.data, [1.0, 2.0, 0.0])
    assert m.nnz == 3


def test_from_coo_rejects_out_of_range():
    with pytest.raises(ValueError, match="row index out of range"):
        SparseMatrix.from_coo(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMatrix.from_coo(2, 2, [0], [5], [1.0])


def test_validate_flags_broken_invariants():
    m = SparseMatrix(rows=2, cols=2,
                     row_offsets=np.array([0, 1, 2], dtype=np.int64),
                     col_indices=np.array([0, 1], dtype=np.int64),
                     values=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="explicit zeros"):
        m.validate()
    m2 = SparseMatrix(rows=1, cols=3,
                      row_offsets=np.array([0, 2], dtype=np.int64),
                      col_indices=np.array([2, 1], dtype=np.int64),
                      values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        m2.validate()


def test_round_trip_dense():
    rng = np.random.default_rng(0)
    for _ in range(10):
        dense = random_sparse(rng, 5, 7, integer=False)
        np.testing.assert_array_equal(SparseMatrix.from_dense(dense).to_dense(),
                                      dense)


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_sparse(rng, 6, 4)
        x = rng.normal(size=(4, 3))
        got = spmm(SparseMatrix.from_dense(a), x)
        np.testing.assert_allclose(got, a @ x, rtol=1e-13, atol=1e-13)


def test_spmm_shape_errors():
    a = SparseMatrix.identity(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        spmm(a, np.ones((4, 2)))
    with pytest.raises(ValueError, match="2-D"):
        spmm(a, np.ones(3))


def test_spspmm_exact_on_integer_inputs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_sparse(rng, 5, 6)
        b = random_sparse(rng, 6, 4)
        got = spspmm(SparseMatrix.from_dense(a), SparseMatrix.from_dense(b))
        got.validate()
        np.testing.assert_array_equal(got.to_dense(), a @ b)


def test_spspmm_result_is_canonical():
    rng = np.random.default_rng(3)
    a = random_sparse(rng, 8, 8)
    m = spspmm(SparseMatrix.from_dense(a), SparseMatrix.from_dense(a))
    m.validate()


def test_transpose_and_sums():
    a = SparseMatrix.from_coo(2, 3, [0, 1, 1], [2, 0, 2], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(a.transpose().to_dense(), a.to_dense().T)
    np.testing.assert_array_equal(a.row_sums(), [1.0, 5.0])
    np.testing.assert_array_equal(a.col_sums(), [2.0, 0.0, 4.0])


def test_equality_is_exact_on_canonical_arrays():
    a = SparseMatrix.from_coo(2, 3, [1, 0, 1], [2, 2, 2], [1.0, 2.0, 3.0])
    assert a == SparseMatrix.from_coo(2, 3, [0, 1], [2, 2], [2.0, 4.0])
    assert a != SparseMatrix.from_coo(2, 3, [0, 1], [2, 2],
                                      [2.0, np.nextafter(4.0, 5.0)])
    assert a != SparseMatrix.from_coo(2, 4, [0, 1], [2, 2], [2.0, 4.0])
    assert a != SparseMatrix.from_coo(2, 3, [0, 1], [1, 2], [2.0, 4.0])


def test_identity_and_empty():
    assert SparseMatrix.identity(4).nnz == 4
    e = SparseMatrix.empty(3, 5)
    assert e.nnz == 0
    e.validate()
    np.testing.assert_array_equal(e.to_dense(), np.zeros((3, 5)))


def test_normalize_matches_entrywise_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        dense = random_sparse(rng, 6, 5, integer=bool(rng.integers(0, 2)))
        got = normalize_relation(SparseMatrix.from_dense(dense))
        np.testing.assert_allclose(got.to_dense(), normalize_oracle(dense),
                                   rtol=1e-14, atol=0)


def test_normalize_unit_degree_fixed_point():
    # a permutation matrix has unit row and column degrees
    perm = np.eye(4)[[2, 0, 3, 1]]
    m = normalize_relation(SparseMatrix.from_dense(perm))
    np.testing.assert_array_equal(m.to_dense(), perm)


def test_normalize_row_mass_bounded_by_sqrt_degree():
    # sum_j v_ij / sqrt(r_i c_j) <= sqrt(r_i) when column degrees are >= 1
    rng = np.random.default_rng(5)
    for _ in range(25):
        dense = random_sparse(rng, 7, 7)
        m = normalize_relation(SparseMatrix.from_dense(dense))
        rdeg = dense.sum(axis=1)
        bound = np.sqrt(np.where(rdeg > 0, rdeg, 1.0)) + 1e-12
        assert np.all(m.to_dense().sum(axis=1) <= bound)
        assert np.all(np.isfinite(m.values))


def test_normalize_rejects_bad_values():
    with pytest.raises(ValueError, match="non-negative"):
        normalize_relation(SparseMatrix.from_dense([[1.0, -1.0]]))
    bad = SparseMatrix(rows=1, cols=1,
                       row_offsets=np.array([0, 1], dtype=np.int64),
                       col_indices=np.array([0], dtype=np.int64),
                       values=np.array([np.inf]))
    with pytest.raises(ValueError, match="finite"):
        normalize_relation(bad)


def test_normalize_empty_matrix():
    m = normalize_relation(SparseMatrix.empty(3, 4))
    assert m.nnz == 0
    assert m.shape == (3, 4)
