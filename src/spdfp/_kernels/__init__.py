"""Kernel lanes.

The C lane (lane.c, built into the shared library ``_lane`` by
``python setup.py build_ext --inplace``) is loaded with ctypes when it was
built; otherwise the pure-NumPy lane in _numpy runs. Both lanes give the same
bits. ``csr_matvec_range``, ``csr_rmatvec_range`` and ``soft_threshold`` are
the kernels of the lane in use, and ``LANE`` is the loaded CLane or None.
"""

import ctypes
import importlib.machinery
import os

import numpy as np

_KINDS = {"pdfp": 0, "spdfp1": 1, "spdfp2": 2}
_LOSSES = {"square": 0, "hinge": 1, "logistic": 2}
_WEIGHTS_FAILED = -2

# lane.c's weights callback: int (*)(int64_t lo, int64_t hi)
_Weights = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int64, ctypes.c_int64)


class _Csr(ctypes.Structure):
    _fields_ = [("n_rows", ctypes.c_int64), ("n_cols", ctypes.c_int64),
                ("indptr", ctypes.c_void_p), ("indices", ctypes.c_void_p),
                ("data", ctypes.c_void_p)]


class _Run(ctypes.Structure):
    """lane.c's ``run``: one run's problem, parameters, ranges and iterates."""

    _fields_ = [("kind", ctypes.c_int64), ("loss", ctypes.c_int64),
                ("prox_l1", ctypes.c_int64),
                ("c", ctypes.c_double), ("alpha", ctypes.c_double),
                ("lam", ctypes.c_double), ("nu", ctypes.c_double),
                ("prox_weight", ctypes.c_double),
                ("A", _Csr), ("B", _Csr), ("labels", ctypes.c_void_p),
                ("ranges", ctypes.c_void_p), ("n_ranges", ctypes.c_int64),
                ("x", ctypes.c_void_p), ("v", ctypes.c_void_p), ("work", ctypes.c_void_p),
                ("weights", _Weights)]


def _address(arr, dtype, size=None):
    """The data address of arr, after checking its dtype, layout and size."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == 1
            and arr.flags.c_contiguous):
        raise TypeError(f"expected a contiguous 1-d {np.dtype(dtype)} array")
    if size is not None and arr.shape[0] != size:
        raise ValueError(f"expected length {size}, got {arr.shape[0]}")
    return arr.ctypes.data


def _csr(M):
    return _Csr(M.n_rows, M.n_cols, _address(M.indptr, np.int64, M.n_rows + 1),
                _address(M.indices, np.int64), _address(M.data, np.float64))


class CLane:
    """The C lane, loaded from the shared library at path.

    The kernels take the NumPy lane's arguments. The CSR arrays must be a
    valid matrix, as a SparseMatrix guarantees: indptr nondecreasing and
    within data, column indices within x (matvec) or out (rmatvec).
    """

    def __init__(self, path):
        lib = ctypes.CDLL(path)
        p, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.spdfp_csr_matvec_range.argtypes = (p, p, p, p, p, i64, i64)
        lib.spdfp_csr_rmatvec_range.argtypes = (p, p, p, p, p, i64, i64, i64)
        lib.spdfp_soft_threshold.argtypes = (p, ctypes.c_double, p, i64)
        lib.spdfp_run_steps.argtypes = (ctypes.POINTER(_Run), p, i64, i64)
        lib.spdfp_run_steps.restype = ctypes.c_int
        lib.spdfp_run_size.argtypes = ()
        lib.spdfp_run_size.restype = i64
        if lib.spdfp_run_size() != ctypes.sizeof(_Run):
            raise ImportError(f"{path} was built from another lane.c; rebuild it with "
                              "'python setup.py build_ext --inplace'")
        for fn in (lib.spdfp_csr_matvec_range, lib.spdfp_csr_rmatvec_range,
                   lib.spdfp_soft_threshold):
            fn.restype = None
        self._lib = lib
        self._last = (None, None, None, None)

    def _matrix(self, indptr, indices, data, row_start, row_stop):
        """The addresses of the CSR arrays, checked once per matrix in a row:
        power iteration applies the same matrix a thousand times, and one
        address costs about as much as a small product. Holds on to the
        arrays of the last matrix, so that their identity decides."""
        last = self._last
        if not (last[0] is indptr and last[1] is indices and last[2] is data):
            last = (indptr, indices, data, (_address(indptr, np.int64),
                                            _address(indices, np.int64),
                                            _address(data, np.float64)))
            self._last = last
        if not 0 <= row_start <= row_stop < indptr.shape[0]:
            raise ValueError("row range out of bounds")
        return last[3]

    def csr_matvec_range(self, indptr, indices, data, x, out, row_start, row_stop):
        self._lib.spdfp_csr_matvec_range(
            *self._matrix(indptr, indices, data, row_start, row_stop), _address(x, np.float64),
            _address(out, np.float64, row_stop - row_start), row_start, row_stop)

    def csr_rmatvec_range(self, indptr, indices, data, y, out, row_start, row_stop):
        self._lib.spdfp_csr_rmatvec_range(
            *self._matrix(indptr, indices, data, row_start, row_stop),
            _address(y, np.float64, row_stop - row_start), _address(out, np.float64),
            out.shape[0], row_start, row_stop)

    def soft_threshold(self, y, t, out):
        self._lib.spdfp_soft_threshold(_address(y, np.float64), t,
                                       _address(out, np.float64, len(y)), len(y))

    def steps(self, kind, spec, prox_spec, cfg, ranges, x, v):
        """The steps of one run of kind over x and v, as a Steps."""
        return Steps(self._lib, kind, spec, prox_spec, cfg, ranges, x, v)


class Steps:
    """Runs of 'pdfp', 'spdfp1' or 'spdfp2' steps, in one C call each,
    updating x and v in place. A step uses one of the row ranges [lo, hi)
    of A given here; alpha is read only for spdfp.

    ``use(picks)`` takes an int64 array of indices into the ranges and its
    address, once; each call then runs count of them from an offset. So a
    run draws its picks in chunks of whole epochs and pays no copy or
    address lookup per epoch. ``products()`` gives A x and B x of the
    current x, also through addresses taken once, for the epoch records.

    For the logistic loss the C loop calls back into Python once per step
    for the loss weights: spdfp.problem.loss_weights, the function the
    reference step calls, on the margins the loop has just computed. The
    weights come from the same NumPy exp on the same margins, so the steps
    give the reference step's bits. An exception raised in the callback
    stops the loop at that step and is raised again by the call.
    Keeps every array and callback its pointers refer to alive."""

    def __init__(self, lib, kind, spec, prox_spec, cfg, ranges, x, v):
        A, B, labels = spec.dataset.samples, spec.B, spec.dataset.labels
        ranges = np.array(ranges, dtype=np.int64).reshape(-1, 2)
        work = np.empty(A.n_rows + 3 * A.n_cols + 2 * B.n_rows)
        Ax, Bx = np.empty(A.n_rows), np.empty(B.n_rows)
        self._errors = []
        weights = (_weights(spec.loss, work, labels, self._errors) if spec.loss == "logistic"
                   else _Weights())
        self._keep = (A, B, labels, ranges, x, v, work, weights)
        self._run = run = _Run(_KINDS[kind], _LOSSES[spec.loss], prox_spec.kind == "l1",
                               cfg.schedule.c, 0.0 if kind == "pdfp" else cfg.schedule.alpha,
                               cfg.lam, spec.l2_weight, prox_spec.weight, _csr(A), _csr(B),
                               _address(labels, np.float64, A.n_rows),
                               ranges.ctypes.data, len(ranges),
                               _address(x, np.float64, A.n_cols),
                               _address(v, np.float64, B.n_rows), work.ctypes.data, weights)
        self._fn = lib.spdfp_run_steps
        self._matvec = lib.spdfp_csr_matvec_range
        self._products = (Ax, Bx, [(M.indptr, M.indices, M.data, run.x, out.ctypes.data,
                                    0, M.n_rows) for M, out in ((run.A, Ax), (run.B, Bx))])
        self.use(())

    def use(self, picks):
        """Take picks, indices into the ranges, for the calls that follow."""
        picks = np.ascontiguousarray(picks, dtype=np.int64)
        self._picks = picks, _address(picks, np.int64)

    def __call__(self, start, count, k):
        """One step for each of picks[start:start + count]; k counts steps
        from 1 before the first of them."""
        picks, address = self._picks
        if not 0 <= start <= start + count <= len(picks):
            raise ValueError(f"steps {start}..{start + count} out of {len(picks)} picks")
        status = self._fn(self._run, address + start * picks.itemsize, count, k)
        if status == _WEIGHTS_FAILED:
            raise self._errors.pop()
        if status != 0:
            raise ValueError("batch index or row range out of bounds")

    def products(self):
        """A x and B x of the x the steps update, in arrays this Steps owns
        and overwrites on the next call."""
        Ax, Bx, calls = self._products
        for args in calls:
            self._matvec(*args)
        return Ax, Bx


def _weights(loss, work, labels, errors):
    """The weights callback of a Steps: overwrites the margins of rows
    lo..hi-1 in work[:hi-lo] with their loss weights. It catches every
    exception, which ctypes would otherwise print and ignore, keeps it in
    errors and returns 1; Steps raises it."""
    from spdfp.problem import loss_weights  # spdfp.problem imports this package

    def weights(lo, hi):
        try:
            work[:hi - lo] = loss_weights(loss, work[:hi - lo], labels[lo:hi])
        except BaseException as exc:  # raised again by Steps.__call__
            errors.append(exc)
            return 1
        return 0

    return _Weights(weights)


def _built_library():
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(here, "_lane" + suffix)
        if os.path.isfile(path):
            return path
    return None


_path = _built_library()
LANE = CLane(_path) if _path is not None else None

if LANE is None:
    from spdfp._kernels._numpy import (  # noqa: F401
        csr_matvec_range,
        csr_rmatvec_range,
        soft_threshold,
    )
else:
    csr_matvec_range = LANE.csr_matvec_range
    csr_rmatvec_range = LANE.csr_rmatvec_range
    soft_threshold = LANE.soft_threshold


def backend():
    """Name of the kernel lane in use: 'c' or 'numpy'."""
    return "numpy" if LANE is None else "c"
