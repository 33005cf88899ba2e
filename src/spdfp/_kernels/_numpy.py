"""Pure-NumPy kernels, the lane used when the C lane is not built."""

import numpy as np


def csr_matvec_range(indptr, indices, data, x, out, row_start, row_stop):
    lo, hi = indptr[row_start], indptr[row_stop]
    counts = indptr[row_start + 1:row_stop + 1] - indptr[row_start:row_stop]
    rows = np.arange(row_stop - row_start).repeat(counts)
    out[:] = np.bincount(rows, weights=data[lo:hi] * x[indices[lo:hi]],
                         minlength=row_stop - row_start)


def csr_rmatvec_range(indptr, indices, data, y, out, row_start, row_stop):
    lo, hi = indptr[row_start], indptr[row_stop]
    counts = indptr[row_start + 1:row_stop + 1] - indptr[row_start:row_stop]
    rows = np.arange(row_stop - row_start).repeat(counts)
    out[:] = np.bincount(indices[lo:hi], weights=data[lo:hi] * y[rows],
                         minlength=out.shape[0])


def soft_threshold(y, t, out):
    np.multiply(np.sign(y), np.maximum(np.abs(y) - t, 0.0), out=out)
