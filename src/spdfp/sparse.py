"""Row-compressed sparse matrices and spectral estimation.

The solvers only ever need y = Mx, y = M^T x (of all rows, or of a row
range through a RowView) and the largest eigenvalue of M M^T, so that is
the whole surface of this module. Storage is canonical CSR: strictly
increasing column indices within each row, which the constructor checks,
and from_coo sums duplicates and drops exact zeros. That fixes the
reduction order and keeps runs bit-reproducible, and it makes a row with
n_cols entries hold every column in order, which the C lane's column
sweep over full rows relies on. Entries that come strictly ordered by
(row, column), as stack_identity gives them, skip the sort; from_dense
takes no coordinates at all, but builds the canonical arrays from one
mask of the array's nonzero entries, with the bits from_coo would give.
Every product outside the fused steps is RowView's, through the one view
a matrix keeps per row range (SparseMatrix.row_view), the records' too:
the C lane's where it is built when the product is called, else NumPy's,
with the same bits (a view below C_PRODUCT_ENTRIES entries takes NumPy's
single-vector products on either lane, as a C call costs more than they
do), and the eigenvalue comes from Lanczos on the Gram products of those
products. A matrix is immutable, so it estimates its eigenvalue once, on
first use of SparseMatrix.spectrum, and keeps it, unless it was handed
the estimate of a stored ground truth first.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from spdfp import _kernels


class SparseMatrix:
    """Immutable CSR matrix.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape.
    indptr, indices, data : ndarray
        Standard CSR arrays (int64, int64, float64). The column indices of
        each row must be strictly increasing, else a ValueError names the
        first row that breaks it; use :meth:`from_coo` / :meth:`from_dense`
        to canonicalize arbitrary input. Stored zeros are kept.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_spectrum", "_views")

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative matrix dimension")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if indptr.shape != (n_rows + 1,) or indptr[0] != 0 or indptr[-1] != len(data):
            raise ValueError("malformed indptr")
        if not np.all(indptr[1:] >= indptr[:-1]):
            raise ValueError("indptr must be nondecreasing")
        if len(indices) != len(data):
            raise ValueError("indices/data length mismatch")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("column index out of range")
        # entry j and j + 1 of one row need indices[j] < indices[j + 1]
        unsorted = indices[1:] <= indices[:-1]
        starts = indptr[1:-1]
        unsorted[starts[(starts > 0) & (starts < len(indices))] - 1] = False
        if unsorted.any():
            j = int(unsorted.argmax())
            row = int(np.searchsorted(indptr, j, side="right")) - 1
            raise ValueError(f"row {row}: column indices must be strictly increasing "
                             f"(canonical CSR), got {indices[j]} then {indices[j + 1]}")
        for arr in (indptr, indices, data):
            arr.setflags(write=False)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._spectrum, self._views = None, {}

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from coordinate triples: duplicates summed from 0.0 in
        (row, column, input) order, zeros of either sign dropped. Entries
        strictly increasing in (row, column) have nothing to sort or sum,
        so each kept value is 0.0 + v at once, the sum the sorted path
        would give it."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("entry index out of range")
        r0, r1, c0, c1 = rows[:-1], rows[1:], cols[:-1], cols[1:]
        if not np.all((r1 > r0) | ((r1 == r0) & (c1 > c0))):
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            first = np.ones(len(rows), dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            vals = np.bincount(np.cumsum(first) - 1, weights=vals)
            rows, cols = rows[first], cols[first]
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], 0.0 + vals[keep]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(n_rows, n_cols, indptr, cols, vals)

    @classmethod
    def from_dense(cls, arr):
        """Build from a 2-d array of any memory order, with the bits that
        from_coo gives its nonzero entries in row-major order: zeros of
        either sign dropped, each kept value 0.0 + v. The canonical arrays
        come straight from one mask of the nonzero entries, with no
        coordinate triples, so the working memory past the CSR arrays is
        that mask."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        n_rows, n_cols = arr.shape
        nonzero = arr != 0.0
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
        # a boolean index takes its entries in row-major order on any layout
        indices = np.broadcast_to(np.arange(n_cols, dtype=np.int64), arr.shape)[nonzero]
        data = arr[nonzero]
        del nonzero  # before the constructor's checks allocate theirs
        np.add(0.0, data, out=data)
        return cls(n_rows, n_cols, indptr, indices, data)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return len(self.data)

    @property
    def spectrum(self):
        """estimate_spectrum(self), computed on first access and kept: the
        CSR arrays are write-protected, so it cannot go stale."""
        if self._spectrum is None:
            self._spectrum = estimate_spectrum(self)
        return self._spectrum

    @spectrum.setter
    def spectrum(self, estimate):
        """Keep estimate, a SpectralEstimate that estimate_spectrum gave for
        a matrix with the same shape and CSR arrays, as a ground truth file
        stores it, so that the first access runs no Lanczos."""
        if not isinstance(estimate, SpectralEstimate):
            raise TypeError("expected a SpectralEstimate")
        self._spectrum = estimate

    def matvec(self, x):
        """Return M x."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"matvec expects a vector of length {self.n_cols}")
        return self.row_view(0, self.n_rows).matvec(x)

    def rmatvec(self, y):
        """Return M^T y."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise ValueError(f"rmatvec expects a vector of length {self.n_rows}")
        return self.row_view(0, self.n_rows).rmatvec(y)

    def to_dense(self):
        """The matrix as a fresh C-ordered array, zero where no entry is
        stored: written from the matrix's own arrays, so the working memory
        past it is one row index per entry."""
        out = np.zeros((self.n_rows, self.n_cols))
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def entries(self):
        """Coordinate view (rows, cols, vals) in row-major order."""
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), counts)
        return rows, self.indices.copy(), self.data.copy()

    def row_view(self, row_start, row_stop):
        """The matrix's one RowView of rows [row_start, row_stop), made on
        first use and kept: matvec and rmatvec use the one of all rows."""
        view = self._views.get((row_start, row_stop))
        if view is None:
            view = self._views[row_start, row_stop] = RowView(self, row_start, row_stop)
        return view

    def row_block(self, row_start, row_stop):
        """The submatrix of rows [row_start, row_stop) as a SparseMatrix."""
        lo, hi = self.indptr[row_start], self.indptr[row_stop]
        indptr = (self.indptr[row_start:row_stop + 1] - lo).copy()
        return SparseMatrix(row_stop - row_start, self.n_cols, indptr,
                            self.indices[lo:hi].copy(), self.data[lo:hi].copy())

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


# The shape and CSR arrays of a SparseMatrix, which a RowView and lane.c's
# products over it (_kernels.CLane.rows) read and keep alive
CsrArrays = namedtuple("CsrArrays", "n_rows n_cols indptr indices data")


# The entry count from which a view's single-vector products are lane.c's,
# where the lane is built: below it NumPy's are faster, as each C call pays
# a ctypes floor of about 5 us. A matvec plus rmatvec, C against NumPy, in
# us, min of 5 x 2000 calls on one CPU of a 2-vCPU Xeon, rows of 16
# entries: dense 16-column rows (rmatvec sweeps) 1024 entries 11.0 / 8.8,
# 1536 11.8 / 12.5, 2048 12.2 / 16.1, 5120 15.2 / 35.3; every other of 32
# columns (rmatvec scatters) 1024 11.6 / 8.6, 1536 12.5 / 11.5, 2048
# 13.2 / 15.6, 5120 16.6 / 35.2.
C_PRODUCT_ENTRIES = 1536


class RowView:
    """Rows [row_start, row_stop) of a SparseMatrix, set up once per matrix
    (SparseMatrix.row_view) for all the products over them.

    These are the package's one set of products: each output entry is a
    sum from 0.0 in CSR order. Each product takes the lane in use when it
    is called (_kernels.LANE): where the C lane is built, lane.c's
    spdfp_rows computes the stacked ones (matvecs), and matvec and rmatvec
    for a view of at least C_PRODUCT_ENTRIES entries, on the CSR arrays
    this view holds on to (not the matrix, so a matrix is freed when its
    last reference goes), refusing an array that is not a C-contiguous float64
    one of the right shape; otherwise np.bincount does, converting and
    checking nothing. Each lane's arrays (lane.c's CSR struct, or the
    view's entries) are built on first use, so a view that only takes
    NumPy's products never builds lane.c's. Both give the same bits. x must
    be a float64 vector of length n_cols, y one of length n_rows, and X a
    stack of such x, one per row.
    """

    __slots__ = ("n_rows", "n_cols", "_csr", "_start", "_large", "_c", "_entries")

    def __init__(self, M, row_start, row_stop):
        if not 0 <= row_start <= row_stop <= M.n_rows:
            raise ValueError("row range out of bounds")
        self.n_rows = row_stop - row_start
        self.n_cols = M.n_cols
        # M's shape and arrays, not M: M keeps its views, so a view that held
        # M would make a cycle that only the cyclic garbage collector frees
        self._csr = CsrArrays(M.n_rows, M.n_cols, M.indptr, M.indices, M.data)
        self._start, self._c, self._entries = row_start, None, None
        self._large = M.indptr[row_stop] - M.indptr[row_start] >= C_PRODUCT_ENTRIES

    def _c_products(self):
        """lane.c's product function over the view (_kernels.CLane.rows) of
        the lane in use, or None where none is: built on first use under
        that lane, and kept."""
        lane = _kernels.LANE
        if lane is None:
            return None
        if self._c is None or self._c.lane is not lane:
            self._c = lane.rows(self._csr, self._start, self._start + self.n_rows)
        return self._c

    def _numpy_entries(self):
        """(rows, indices, data) of the view's entries, which the NumPy
        products read: built on first use, and kept."""
        M, start, stop = self._csr, self._start, self._start + self.n_rows
        lo, hi = M.indptr[start], M.indptr[stop]
        counts = M.indptr[start + 1:stop + 1] - M.indptr[start:stop]
        self._entries = np.arange(self.n_rows).repeat(counts), M.indices[lo:hi], M.data[lo:hi]
        return self._entries

    # np.bincount gives int64 zeros when there are no entries, hence astype
    def matvec(self, x):
        if self._large and (c := self._c_products()):
            return c(x, False, False)
        rows, indices, data = self._entries or self._numpy_entries()
        return np.bincount(rows, weights=data * x[indices],
                           minlength=self.n_rows).astype(np.float64, copy=False)

    def rmatvec(self, y):
        if self._large and (c := self._c_products()):
            return c(y, True, False)
        rows, indices, data = self._entries or self._numpy_entries()
        return np.bincount(indices, weights=data * y[rows],
                           minlength=self.n_cols).astype(np.float64, copy=False)

    def matvecs(self, X):
        """The matvec of each row of X, one row each: one C call at any
        size, which takes eight rows per pass over the matrix (the rest four,
        then one), or matvec row by row."""
        if c := self._c_products():
            return c(X, False, True)
        return np.array([self.matvec(x) for x in X])


def identity(d):
    """The d x d identity as a SparseMatrix."""
    r = np.arange(d)
    return SparseMatrix.from_coo(d, d, r, r, np.ones(d))


def build_difference_matrix(d):
    """First-order difference operator: (d-1) x d, -1 on the diagonal and +1
    on the superdiagonal, so (Mx)_i = x_{i+1} - x_i."""
    if d < 2:
        raise ValueError("difference matrix needs dimension >= 2")
    rows = np.repeat(np.arange(d - 1), 2)
    cols = np.empty(2 * (d - 1), dtype=np.int64)
    cols[0::2] = np.arange(d - 1)
    cols[1::2] = np.arange(1, d)
    vals = np.tile([-1.0, 1.0], d - 1)
    return SparseMatrix.from_coo(d - 1, d, rows, cols, vals)


def stack_identity(G):
    """Vertical stack [G; I] with I the identity on G's column space."""
    d = G.n_cols
    g_rows, g_cols, g_vals = G.entries()
    rows = np.concatenate([g_rows, G.n_rows + np.arange(d)])
    cols = np.concatenate([g_cols, np.arange(d)])
    vals = np.concatenate([g_vals, np.ones(d)])
    return SparseMatrix.from_coo(G.n_rows + d, d, rows, cols, vals)


@dataclass(frozen=True)
class SpectralEstimate:
    """rho_max(B B^T) from the Lanczos method.

    iterations_used is the number of Lanczos steps taken, one Gram product
    each. residual is the final residual bound beta_k |s_k|: some eigenvalue
    lies within it of the estimate. converged says whether that bound fell
    to the relative tolerance within max_iter steps, or the steps spanned
    the whole space.
    """

    rho_max: float
    iterations_used: int
    converged: bool
    residual: float


def estimate_spectrum(B, tol=1e-10, max_iter=10000):
    """Estimate rho_max(B B^T) by the Lanczos method with full
    reorthogonalisation (Golub & Van Loan, Matrix Computations, ch. 10).

    It runs on the smaller Gram matrix G, B^T B when B has no more columns
    than rows and B B^T otherwise; the two share their largest eigenvalue.
    The start vector is the first draw of default_rng(0), a random start as
    in Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 13, 1992), so
    the estimate is reproducible. After step k the largest eigenvalue theta
    of the tridiagonal T_k, with eigenvector s, has residual
    ||G Q_k s - theta Q_k s|| = beta_k |s_k|. The iteration stops once that
    is at most tol * theta, or after max_iter steps, or after as many steps
    as G has rows. A failure to converge within max_iter is reported through
    the ``converged`` flag, not an exception.

    The Gram products are two of RowView's, so C products where the C lane
    is built, else NumPy ones, with the same bits; the reorthogonalisation
    and the eigenvalues of T_k are NumPy's on either lane.
    """
    if B.n_rows == 0 or B.n_cols == 0:
        raise ValueError("cannot estimate spectrum of an empty matrix")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    outer = B.n_cols > B.n_rows  # G = B B^T, else B^T B
    n = B.n_rows if outer else B.n_cols
    rows = B.row_view(0, B.n_rows)
    gram = ((lambda u: rows.matvec(rows.rmatvec(u))) if outer
            else (lambda u: rows.rmatvec(rows.matvec(u))))
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    basis, alphas, betas, converged = [], [], [], False
    for k in range(1, min(max_iter, n) + 1):
        basis.append(q)
        w = gram(q)
        alphas.append(float(q @ w))
        # full reorthogonalisation, twice, one dot product at a time so that
        # the bits do not depend on the number of BLAS threads
        for _ in range(2):
            for b in basis:
                w -= (b @ w) * b
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        thetas, vectors = np.linalg.eigh(T)
        theta = float(thetas[-1])
        residual = beta * abs(float(vectors[-1, -1]))
        if residual <= tol * theta or k == n:
            converged = math.isfinite(theta)
            break
        betas.append(beta)
        q = w / beta
    return SpectralEstimate(rho_max=max(theta, 0.0), iterations_used=k, converged=converged,
                            residual=residual)
