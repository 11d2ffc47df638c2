"""Compressed sparse row matrices for typed graph relations.

A relation between two node types is stored as a CSR triple
(row_offsets, col_indices, values) in canonical form: duplicate
coordinates summed, column indices strictly increasing inside each row,
no explicitly stored zeros.  Products and canonicalization delegate to
scipy.sparse, which is exact for integer-valued float64 inputs.  Index
arrays are int32 whenever the shape and entry count fit, as scipy's own
are: handed int64 indices, scipy scans them on every conversion to see
whether they fit int32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp


def _index_dtype(rows: int, cols: int, nnz: int):
    return np.int32 if max(rows, cols, nnz) <= np.iinfo(np.int32).max \
        else np.int64


def _canonical(m: sp.csr_matrix) -> "SparseMatrix":
    """Wrap a float64 CSR temporary, canonicalising its arrays in place."""
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    rows, cols = int(m.shape[0]), int(m.shape[1])
    idx = _index_dtype(rows, cols, m.nnz)
    return SparseMatrix(
        rows=rows,
        cols=cols,
        row_offsets=m.indptr.astype(idx),
        col_indices=m.indices.astype(idx),
        values=m.data.astype(np.float64),
    )


@dataclass(frozen=True)
class SparseMatrix:
    """Canonical CSR matrix with float64 values."""

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @staticmethod
    def from_scipy(m) -> "SparseMatrix":
        """Canonical copy of a scipy matrix; `m` itself is left unchanged."""
        return _canonical(sp.csr_matrix(m, dtype=np.float64, copy=True))

    @staticmethod
    def from_coo(rows: int, cols: int, r, c, v) -> "SparseMatrix":
        """Build from coordinate triples; duplicate coordinates are summed."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if r.shape != c.shape or r.shape != v.shape:
            raise ValueError("coordinate arrays must have matching length")
        if r.size and (r.min() < 0 or r.max() >= rows):
            raise ValueError(f"row index out of range for shape ({rows}, {cols})")
        if c.size and (c.min() < 0 or c.max() >= cols):
            raise ValueError(f"column index out of range for shape ({rows}, {cols})")
        m = sp.coo_matrix((v, (r, c)), shape=(rows, cols))
        return SparseMatrix.from_scipy(m)

    @staticmethod
    def from_dense(a) -> "SparseMatrix":
        return _canonical(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return _canonical(sp.identity(n, dtype=np.float64, format="csr"))

    @staticmethod
    def empty(rows: int, cols: int) -> "SparseMatrix":
        idx = _index_dtype(rows, cols, 0)
        return SparseMatrix(
            rows=rows,
            cols=cols,
            row_offsets=np.zeros(rows + 1, dtype=idx),
            col_indices=np.zeros(0, dtype=idx),
            values=np.zeros(0, dtype=np.float64),
        )

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.rows, self.cols),
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def transpose(self) -> "SparseMatrix":
        return _canonical(self.to_scipy().T.tocsr())

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.to_scipy().sum(axis=1)).ravel()

    def col_sums(self) -> np.ndarray:
        return np.asarray(self.to_scipy().sum(axis=0)).ravel()

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (row, col) int64 index arrays of the stored entries, row-major.

        int64, whatever the stored index dtype, so that index arithmetic
        such as r * cols + c cannot overflow.
        """
        counts = np.diff(self.row_offsets)
        r = np.repeat(np.arange(self.rows, dtype=np.int64), counts)
        return r, self.col_indices.astype(np.int64)

    def validate(self) -> None:
        """Check the canonical-form invariants; raise ValueError on breakage."""
        off, col = self.row_offsets, self.col_indices
        if off.shape != (self.rows + 1,):
            raise ValueError("row_offsets length must be rows + 1")
        if off[0] != 0 or off[-1] != col.shape[0]:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if col.shape != self.values.shape:
            raise ValueError("col_indices and values must have equal length")
        if col.size and (col.min() < 0 or col.max() >= self.cols):
            raise ValueError("column index out of range")
        for i in range(self.rows):
            seg = col[off[i] : off[i + 1]]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise ValueError(f"row {i} columns must be strictly increasing")
        if np.any(self.values == 0.0):
            raise ValueError("explicit zeros are not canonical")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __eq__(self, other: object) -> bool:
        """Same shape and the same canonical arrays, value for value."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("row_offsets", "col_indices", "values"))


def spmm(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse @ dense product, returning a dense float64 array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("dense operand must be 2-D")
    if a.cols != x.shape[0]:
        raise ValueError(f"shape mismatch: ({a.rows}, {a.cols}) @ {x.shape}")
    return np.asarray(a.to_scipy() @ x)


def spspmm(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Sparse @ sparse product in canonical CSR form."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: ({a.rows}, {a.cols}) @ ({b.rows}, {b.cols})")
    return _canonical(a.to_scipy() @ b.to_scipy())


def normalize_relation(m: SparseMatrix) -> SparseMatrix:
    """Symmetric degree normalization v_ij / sqrt(rowdeg_i * coldeg_j).

    Degrees are value-weighted sums.  Negative or non-finite inputs are
    rejected, no self-loops are added, and no epsilon is folded into the
    degrees.  A canonical matrix stores no zeros, so every stored entry
    has a positive row and column degree and keeps its place.
    """
    if not np.all(np.isfinite(m.values)):
        raise ValueError("relation values must be finite")
    if np.any(m.values < 0):
        raise ValueError("relation values must be non-negative")
    r, c = m.coords()
    rdeg, cdeg = m.row_sums(), m.col_sums()
    return replace(m, values=m.values / np.sqrt(rdeg[r] * cdeg[c]))
