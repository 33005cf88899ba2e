"""The fused C lane.

lane.c, built into the shared library ``_lane`` by
``python setup.py build_ext --inplace``, runs the PDFP / SPDFP steps of a
run's record blocks, with each epoch's snapshot, time stamp and the
step-size factors of its a_k record, and the products of
sparse.RowView (every stacked one, and the single-vector ones of a view
of at least sparse.C_PRODUCT_ENTRIES entries), the records' A x and B x
and the Lanczos method's among them, and is loaded with ctypes when it
was built. ``LANE`` is the loaded CLane, or None, and then every step
runs on the NumPy reference path of spdfp.solvers, which works each
record's factors out in Python floats, and every product is RowView's
NumPy one; spdfp.solvers._steps, once a run, and sparse.RowView's
products, at each call, read it to pick the lane. Both paths give the
same bits. So where the lane is built every sparse product is C but a
small view's single-vector ones; the prox
outside the fused steps (prox.soft_threshold) and the ADMM x-update's
linear solve are NumPy on either path. A C transposed product over rows
that are all full, which an O(1) test on indptr finds
(sparse.SparseMatrix refuses CSR that is not canonical, which makes it
sound), sweeps the matrix's columns eight outputs at a time, with each
output's CSR-order sum and so its bits; any other scatters over the rows'
entries, four entries of a row a pass. A C product M x takes four rows per
pass, except a step's A x over a dense A, which sweeps (see Steps); a
stack of them takes eight vectors a pass over M's rows, through a scratch
block that CLane.rows lends, so that lane.c allocates nothing.
"""

import ctypes
import importlib.machinery
import os

import numpy as np

_KINDS = {"pdfp": 0, "spdfp1": 1, "spdfp2": 2}
_LANE_VERSION = 12  # spdfp_lane_version() of the lane.c this module calls
_LOSSES = {"square": 0, "hinge": 1, "logistic": 2}


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
                ("A", _Csr), ("B", _Csr), ("At", ctypes.c_void_p), ("labels", ctypes.c_void_p),
                ("ranges", ctypes.c_void_p), ("n_ranges", ctypes.c_int64),
                ("x", ctypes.c_void_p), ("v", ctypes.c_void_p), ("work", ctypes.c_void_p)]


def _address(arr, dtype, *shape):
    """The data address of arr, after checking its dtype, C layout and
    shape, whose lengths are given or None for any."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.ndim == len(shape) and arr.flags.c_contiguous):
        raise TypeError(f"expected a contiguous {len(shape)}-d {np.dtype(dtype)} array")
    if any(n is not None and n != got for n, got in zip(shape, arr.shape)):
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr.ctypes.data


def _csr(M):
    return _Csr(M.n_rows, M.n_cols, _address(M.indptr, np.int64, M.n_rows + 1),
                _address(M.indices, np.int64, None), _address(M.data, np.float64, None))


class CLane:
    """The C lane, loaded from the shared library at path."""

    def __init__(self, path):
        lib = ctypes.CDLL(path)
        p, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.spdfp_run_size.argtypes = ()
        lib.spdfp_run_size.restype = i64
        version = getattr(lib, "spdfp_lane_version", None)  # None in a revision-1 library
        if version is not None:
            version.argtypes, version.restype = (), i64
        if (version is None or version() != _LANE_VERSION
                or lib.spdfp_run_size() != ctypes.sizeof(_Run)):
            raise ImportError(f"{path} was built from another lane.c; rebuild it with "
                              "'python setup.py build_ext --inplace'")
        lib.spdfp_run_steps.argtypes = (ctypes.POINTER(_Run), p, i64, i64, i64, p, p, p, p, p)
        lib.spdfp_run_steps.restype = ctypes.c_int
        lib.spdfp_rows.argtypes = (ctypes.POINTER(_Csr), i64, i64, i64, p, i64, p, p)
        lib.spdfp_rows.restype = None
        self._lib = lib

    def rows(self, M, lo, hi):
        """Rows lo..hi-1 of M, 0 <= lo <= hi <= M.n_rows, as one function
        product(x, transpose, stacked): M[lo:hi] x, or M[lo:hi]^T x with
        transpose set, of a vector x, or of each row of x with stacked set,
        as a fresh array. M is a sparse.SparseMatrix or the
        sparse.CsrArrays of one; the function keeps M's CSR arrays alive,
        not M. It refuses an x that is not a C-contiguous float64
        array of that shape, and sums as sparse.RowView's NumPy products do.
        A stack of eight or more vectors without transpose takes eight a
        pass over M's rows, through a scratch block of 8 M.n_cols doubles
        that the function makes on its first such call and keeps. Its
        ``lane`` is this CLane, so a kept function tells which lane it is of."""
        csr, n_cols, fn, block = _csr(M), M.n_cols, self._lib.spdfp_rows, None

        def product(x, transpose, stacked):
            nonlocal block
            n_in, n_out = (hi - lo, n_cols) if transpose else (n_cols, hi - lo)
            address = _address(x, np.float64, *(None,) * stacked, n_in)
            count = len(x) if stacked else 1
            if block is None and count >= 8 and not transpose:
                block = np.empty(8 * n_cols)
            out = np.empty((*x.shape[:-1], n_out))
            fn(csr, lo, hi, transpose, address, count,
               None if block is None else block.ctypes.data, out.ctypes.data)
            return out

        product.arrays = M.indptr, M.indices, M.data  # which csr points into
        product.lane = self
        return product

    def steps(self, kind, spec, prox_spec, cfg, ranges, x, v):
        """The steps of one run of kind over x and v, as a Steps."""
        return Steps(self._lib, kind, spec, prox_spec, cfg, ranges, x, v)


class Steps:
    """The steps of a 'pdfp', 'spdfp1' or 'spdfp2' run, updating x and v in
    place, a whole record block per C call. A step uses one of the row
    ranges [lo, hi) of A given here; gamma_k = c / k**alpha, alpha = 0 for a
    constant step, and k counts the steps of all calls from 1.

    A call takes the picks of some epochs, indices into the ranges, as an
    int64 array of one row per epoch; after each epoch it copies x and v
    into the next rows of the given snapshot arrays, writes the step-size
    factors of the epoch's record and stamps the time, in C. So a run draws
    the picks of a block of epochs at once and steps and snapshots the
    whole block in one call. ``iterates`` is (x, v), the
    arrays the steps update. solvers._ReferenceSteps takes the same calls on
    the reference path.

    Every step runs wholly in C, the logistic one too: its loss weights take
    libm exp, as spdfp.problem.loss_weights does through math.exp, so the
    steps give the reference step's bits. A step starts from the B^T v the
    step before it left; each call works B^T v out afresh from v before its
    first step, so a write into ``iterates[1]`` between calls counts. A
    step's A^T w is lane.c's one transposed product, as RowView's is: a
    sweep down A's columns where its rows are all full, else a scatter. A
    run over a dense A (A.nnz == n d, which canonical CSR allows only with
    every row full) keeps a dense copy of A's transpose, and each step's
    A x sweeps the columns of its rows there; over another A it takes four
    rows per pass. Keeps every array its pointers refer to alive."""

    def __init__(self, lib, kind, spec, prox_spec, cfg, ranges, x, v):
        A, B, labels = spec.dataset.samples, spec.B, spec.dataset.labels
        ranges = np.array(ranges, dtype=np.int64).reshape(-1, 2)
        work = np.empty(A.n_rows + 3 * A.n_cols + 2 * B.n_rows)
        # a run over a dense A sweeps A x down the columns of a dense copy
        # of A's transpose, which lives as long as the run
        dense = A.nnz == A.n_rows * A.n_cols
        At = np.ascontiguousarray(A.data.reshape(A.n_rows, A.n_cols).T) if dense else None
        self._keep = (A, B, At, labels, ranges, x, v, work)
        self.iterates = x, v
        self._run = run = _Run(_KINDS[kind], _LOSSES[spec.loss], prox_spec.kind == "l1",
                               cfg.schedule.c, cfg.schedule.alpha,
                               cfg.lam, spec.l2_weight, prox_spec.weight, _csr(A), _csr(B),
                               None if At is None else At.ctypes.data,
                               _address(labels, np.float64, A.n_rows),
                               ranges.ctypes.data, len(ranges),
                               _address(x, np.float64, A.n_cols),
                               _address(v, np.float64, B.n_rows), work.ctypes.data)
        self._fn = lib.spdfp_run_steps
        self._shape = A.n_cols, B.n_rows
        self._k = 1

    def __call__(self, picks, X=None, V=None, stamps=None, weights=None, dscales=None):
        """The steps of picks, a C-contiguous int64 array of one row of
        picks per epoch. After epoch e, x goes to X[e], v to V[e], the
        seconds since the call began to stamps[e] and the factors of the
        epoch's a_k record (solvers._record_factors) to weights[e] and
        dscales[e], where given: C-contiguous float64 arrays of one row per
        epoch. Every pick is checked before the first step."""
        address = _address(picks, np.int64, None, None)
        epochs, per_epoch = picks.shape
        d, m = self._shape
        out = [None if a is None else _address(a, np.float64, epochs, *row)
               for a, row in ((X, (d,)), (V, (m,)), (stamps, ()), (weights, ()), (dscales, ()))]
        if self._fn(self._run, address, epochs, per_epoch, self._k, *out) != 0:
            raise ValueError("batch index or row range out of bounds")
        self._k += picks.size


def _built_library():
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(here, "_lane" + suffix)
        if os.path.isfile(path):
            return path
    return None


_path = _built_library()
LANE = CLane(_path) if _path is not None else None


def backend():
    """Which path runs the steps: 'c' when the fused C lane is built, else
    'numpy' (the reference steps)."""
    return "numpy" if LANE is None else "c"
