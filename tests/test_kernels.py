import numpy as np
import pytest

import spdfp._kernels as kernels
import spdfp._kernels._numpy as lane_numpy
from spdfp.sparse import SparseMatrix

try:
    import spdfp._kernels._core as lane_cython
except ImportError:
    lane_cython = None

needs_compiled = pytest.mark.skipif(lane_cython is None,
                                    reason="compiled kernel lane not built")


def random_csr(rng):
    n_rows = int(rng.integers(1, 30))
    n_cols = int(rng.integers(1, 30))
    nnz = int(rng.integers(0, n_rows * n_cols + 1))
    return SparseMatrix.from_coo(n_rows, n_cols,
                                 rng.integers(0, n_rows, nnz),
                                 rng.integers(0, n_cols, nnz),
                                 rng.standard_normal(nnz))


def test_backend_reports_a_lane():
    assert kernels.backend() in ("cython", "numpy")


def test_numpy_lane_against_dense():
    rng = np.random.default_rng(0)
    for _ in range(50):
        M = random_csr(rng)
        D = M.to_dense()
        x = rng.standard_normal(M.n_cols)
        r0 = int(rng.integers(0, M.n_rows + 1))
        r1 = int(rng.integers(r0, M.n_rows + 1))
        out = np.empty(r1 - r0)
        lane_numpy.csr_matvec_range(M.indptr, M.indices, M.data, x, out, r0, r1)
        np.testing.assert_allclose(out, D[r0:r1] @ x, atol=1e-13)
        y = rng.standard_normal(r1 - r0)
        outc = np.empty(M.n_cols)
        lane_numpy.csr_rmatvec_range(M.indptr, M.indices, M.data, y, outc, r0, r1)
        np.testing.assert_allclose(outc, D[r0:r1].T @ y, atol=1e-13)


@needs_compiled
def test_lane_parity_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(200):
        M = random_csr(rng)
        x = rng.standard_normal(M.n_cols)
        r0 = int(rng.integers(0, M.n_rows + 1))
        r1 = int(rng.integers(r0, M.n_rows + 1))
        a = np.empty(r1 - r0)
        b = np.empty(r1 - r0)
        lane_cython.csr_matvec_range(M.indptr, M.indices, M.data, x, a, r0, r1)
        lane_numpy.csr_matvec_range(M.indptr, M.indices, M.data, x, b, r0, r1)
        np.testing.assert_array_equal(a, b)
        y = rng.standard_normal(r1 - r0)
        u = np.empty(M.n_cols)
        v = np.empty(M.n_cols)
        lane_cython.csr_rmatvec_range(M.indptr, M.indices, M.data, y, u, r0, r1)
        lane_numpy.csr_rmatvec_range(M.indptr, M.indices, M.data, y, v, r0, r1)
        np.testing.assert_array_equal(u, v)
        t = float(rng.uniform(0, 2))
        s1 = np.empty(M.n_cols)
        s2 = np.empty(M.n_cols)
        lane_cython.soft_threshold(x, t, s1)
        lane_numpy.soft_threshold(x, t, s2)
        np.testing.assert_array_equal(s1, s2)


def test_soft_threshold_values():
    y = np.array([2.0, -0.3, 0.5, -0.5, 0.0])
    out = np.empty(5)
    kernels.soft_threshold(y, 0.5, out)
    np.testing.assert_array_equal(out, [1.5, 0.0, 0.0, 0.0, 0.0])

