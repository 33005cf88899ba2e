"""The NumPy products and the fused C lane.

The SparseMatrix products are checked against dense ones. The C lane
(lane.c) is built here, into a temporary directory with the system
compiler, and checked bit for bit against the Python reference path: single
steps whose prox argument hits the soft-threshold's edge cases or whose
margins hit the logistic weights' ones, and whole runs of run_solver and
compute_ground_truth. Bits are compared through
.view(np.int64), so that -0.0 against +0.0 shows.
"""

import ast
import ctypes
import gc
import itertools
import math
import os
import re
import shutil
import subprocess
import sysconfig
import time
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spdfp._kernels as kernels
from spdfp import gradients, harness, solvers, sparse
from spdfp.harness import compute_ground_truth, prox_for, synth_fused_lasso
from spdfp.problem import Dataset, ProblemSpec
from spdfp.prox import ProxSpec, soft_threshold
from spdfp.solvers import (
    ConstantSchedule,
    Reference,
    SolverConfig,
    StepSchedule,
    fixed_point_residual,
    run_solver,
)
from spdfp.sparse import SparseMatrix, estimate_spectrum, identity, stack_identity
from test_solvers import check_record_bits

LANE_SOURCE = os.path.join(os.path.dirname(kernels.__file__), "lane.c")
SETUP_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "setup.py")


def shipped_compile_args():
    """The extra_compile_args of the C lane's Extension in setup.py, so that
    the lane built here is built as the package builds it."""
    with open(SETUP_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "extra_compile_args":
            return ast.literal_eval(node.value)
    raise AssertionError("setup.py gives the C lane no extra_compile_args")


def random_csr(rng, n_cols=None):
    n_rows = int(rng.integers(1, 30))
    n_cols = int(rng.integers(1, 30)) if n_cols is None else n_cols
    nnz = int(rng.integers(0, n_rows * n_cols + 1))
    return SparseMatrix.from_coo(n_rows, n_cols,
                                 rng.integers(0, n_rows, nnz),
                                 rng.integers(0, n_cols, nnz),
                                 rng.standard_normal(nnz))


def reference_step(kind, ctx, cfg, k, batch, x, v):
    """The new x and v of one reference step of a PDFP-family kind, which
    works B^T v out itself, as the public step functions do."""
    return solvers._STEPS[kind](ctx, cfg, k, batch, x, v, ctx.B.rmatvec(v))[:2]


# one epoch of one step, on row range 0
ONE_STEP = np.zeros((1, 1), dtype=np.int64)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


def find_compiler():
    candidates = (sysconfig.get_config_var("CC") or "").split()[:1] + ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


# the lane this process loaded: the fixture below hides it from each test
BUILT = kernels.LANE


@pytest.fixture(autouse=True)
def numpy_reference(monkeypatch):
    """The reference side of every comparison here is the NumPy lane, also
    where the C lane is built in-tree, since RowView's products read
    kernels.LANE; a test that runs on the C lane sets it."""
    monkeypatch.setattr(kernels, "LANE", None)


def compile_library(tmp_path_factory, flags, source):
    """The path of the shared library compiled from source with flags; a
    warning fails the build, and with it the tests that use it."""
    cc = find_compiler()
    if cc is None:
        pytest.skip("no C compiler found ($CC, cc, gcc or clang), so the C lane cannot be built")
    lib = tmp_path_factory.mktemp("lane") / "lane.so"
    flags = [*flags, "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
    subprocess.run([cc, *flags, "-shared", "-fPIC", "-o", str(lib), str(source), "-lm"],
                   check=True, capture_output=True)
    return str(lib)


def build_lane(tmp_path_factory, flags):
    """The C lane compiled with flags, loaded."""
    return kernels.CLane(compile_library(tmp_path_factory, flags, LANE_SOURCE))


def unoptimised_flags():
    """The shipped flags at -O0."""
    return ["-O0" if f.startswith("-O") else f for f in shipped_compile_args()]


@pytest.fixture(scope="module")
def c_lane(tmp_path_factory):
    # the flags setup.py builds with, -ffp-contract=off among them, which the
    # bit parity rests on
    flags = shipped_compile_args()
    assert "-ffp-contract=off" in flags  # where FMA is not in the base ISA, parity alone misses it
    return build_lane(tmp_path_factory, flags)


@pytest.fixture(scope="module")
def unoptimised_lane(tmp_path_factory):
    # the shipped flags at -O0: what the optimiser makes of the vector code
    # must not change a bit
    return build_lane(tmp_path_factory, unoptimised_flags())


@pytest.fixture(scope="module")
def soft_builds(tmp_path_factory):
    # lane.c's soft() as a function of (y, t), at the shipped flags and at
    # -O0: lane.c exports no prox, and a step's prox argument is a sum from
    # +0.0, which is never -0.0, so only a direct call reaches y = -0.0
    probe = tmp_path_factory.mktemp("soft") / "soft.c"
    probe.write_text(f'#include "{LANE_SOURCE}"\n'
                     "double soft_probe(double y, double t) { return soft(y, t); }\n")
    builds = []
    for flags in (shipped_compile_args(), unoptimised_flags()):
        fn = ctypes.CDLL(compile_library(tmp_path_factory, flags, probe)).soft_probe
        fn.argtypes, fn.restype = (ctypes.c_double, ctypes.c_double), ctypes.c_double
        builds.append(fn)
    return builds


@pytest.mark.parametrize("version", [None, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
def test_loader_refuses_a_library_built_from_another_lane_c(tmp_path, version):
    # a library with the run struct of this lane.c but no version stamp, as
    # built from the lane.c whose spdfp_products took no snapshots, or with
    # another stamp, as from the lane.c whose spdfp_run_steps ran one span of
    # steps or the ones without spdfp_gram, spdfp_scales or spdfp_rows and
    # At, or with spdfp_gram, or with spdfp_products and a spdfp_rows of one
    # vector, or with spdfp_scales and a spdfp_run_steps without the a_k
    # factors, or with a CSR At in the run struct, or with an At that only a
    # full-range run holds, which a mini-batch step would sweep from its
    # start, or with a spdfp_rows that takes no scratch block: calling it
    # could write through the wrong pointers or the wrong rows, or fail on a
    # missing symbol
    cc = find_compiler()
    if cc is None:
        pytest.skip("no C compiler found ($CC, cc, gcc or clang)")
    source = ["#include <stdint.h>",
              f"int64_t spdfp_run_size(void) {{ return {ctypes.sizeof(kernels._Run)}; }}",
              "int spdfp_run_steps(void) { return 0; }",
              "void spdfp_products(void) { }"]
    if version is not None:
        source.append(f"int64_t spdfp_lane_version(void) {{ return {version}; }}")
    (tmp_path / "old.c").write_text("\n".join(source) + "\n")
    lib = tmp_path / "old.so"
    subprocess.run([cc, "-shared", "-fPIC", "-o", str(lib), str(tmp_path / "old.c")],
                   check=True, capture_output=True)
    with pytest.raises(ImportError, match="built from another lane.c; rebuild it"):
        kernels.CLane(str(lib))


def test_lane_version_matches_the_loader():
    # the loader refuses a library whose spdfp_lane_version differs from its
    # own, so lane.c and _kernels must be bumped together
    with open(LANE_SOURCE, encoding="utf-8") as fh:
        source = fh.read()
    found = re.search(r"^int64_t spdfp_lane_version\(void\)\s*\{\s*return (\d+);\s*\}",
                      source, re.M)
    assert found is not None
    assert int(found.group(1)) == kernels._LANE_VERSION


def test_backend_reports_a_lane(monkeypatch):
    monkeypatch.setattr(kernels, "LANE", BUILT)
    assert kernels.backend() == ("numpy" if BUILT is None else "c")
    monkeypatch.setattr(kernels, "LANE", None)
    assert kernels.backend() == "numpy"


def test_backend_reports_c_for_a_built_lane(c_lane, monkeypatch):
    monkeypatch.setattr(kernels, "LANE", c_lane)
    assert kernels.backend() == "c"


def test_numpy_lane_against_dense():
    rng = np.random.default_rng(0)
    empty_rows = empty_ranges = 0
    for _ in range(50):
        M = random_csr(rng)
        D = M.to_dense()
        x = rng.standard_normal(M.n_cols)
        r0 = int(rng.integers(0, M.n_rows + 1))
        r1 = int(rng.integers(r0, M.n_rows + 1))
        empty_rows += int(np.any(np.diff(M.indptr[r0:r1 + 1]) == 0))
        empty_ranges += r0 == r1
        out = M.row_view(r0, r1).matvec(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, D[r0:r1] @ x, atol=1e-13)
        y = rng.standard_normal(r1 - r0)
        outc = M.row_view(r0, r1).rmatvec(y)
        assert outc.dtype == np.float64
        np.testing.assert_allclose(outc, D[r0:r1].T @ y, atol=1e-13)
    assert empty_rows and empty_ranges


def test_soft_threshold_values():
    y = np.array([2.0, -0.3, 0.5, -0.5, 0.0, -0.0])
    assert_same_bits(soft_threshold(y, 0.5), [1.5, -0.0, 0.0, -0.0, 0.0, 0.0])


def stacked_products(monkeypatch, c_lane, M, lo, hi, X):
    """RowView(M, lo, hi).matvecs(X) on the C lane, then on the NumPy lane."""
    got = []
    for lane in (c_lane, None):
        monkeypatch.setattr(kernels, "LANE", lane)
        got.append(M.row_view(lo, hi).matvecs(X))
    return got


def test_lane_parity_bitwise(monkeypatch, c_lane):
    # the C lane's products run inside its fused steps and in RowView, for
    # the records among others: one step of each kind over a random row
    # range of a random A, and A x and B x of a block of snapshots (x before
    # and after the step, and a random x), against the reference step and
    # RowView's NumPy products
    rng = np.random.default_rng(1)
    empty_rows = 0
    for trial in range(200):
        A = random_csr(rng)
        B = random_csr(rng, A.n_cols)
        r0 = int(rng.integers(0, A.n_rows))
        r1 = int(rng.integers(r0 + 1, A.n_rows + 1))
        empty_rows += int(np.any(np.diff(A.indptr[r0:r1 + 1]) == 0))
        weight = float(rng.uniform(0, 2))
        spec = ProblemSpec(loss="square", dataset=Dataset(A, rng.standard_normal(A.n_rows)),
                           l2_weight=float(rng.choice([0.0, 0.1])),
                           composite_weight=weight, B=B)
        kind = ("pdfp", "spdfp1", "spdfp2")[trial % 3]
        sched = ConstantSchedule(0.1) if kind == "pdfp" else StepSchedule(c=0.1, alpha=0.7)
        cfg = SolverConfig(schedule=sched, lam=0.5, p=1)
        prox_spec = ProxSpec("l1", weight)
        x0, v0 = rng.standard_normal(A.n_cols), rng.standard_normal(B.n_rows)
        x, v = x0.copy(), v0.copy()
        steps = c_lane.steps(kind, spec, prox_spec, cfg, ((r0, r1),), x, v)
        steps(ONE_STEP)
        ctx = solvers._RunContext(spec, prox_spec, ((r0, r1),))
        want_x, want_v = reference_step(kind, ctx, cfg, 1, ctx.batches[0], x0, v0)
        assert_same_bits(x, want_x)
        assert_same_bits(v, want_v)
        X = np.array([x0, x, rng.standard_normal(A.n_cols)])
        for M in (A, B):
            got, want = stacked_products(monkeypatch, c_lane, M, 0, M.n_rows, X)
            assert got.shape == want.shape == (3, M.n_rows)
            assert_same_bits(got, want)
    assert empty_rows
    # two matrices that share indptr and indices, applied in turn
    M = random_csr(rng)
    M2 = SparseMatrix(M.n_rows, M.n_cols, M.indptr, M.indices, 2.0 * M.data)
    assert M2.indptr is M.indptr
    X = rng.standard_normal((2, M.n_cols))
    monkeypatch.setattr(kernels, "LANE", c_lane)
    views = [N.row_view(0, N.n_rows) for N in (M, M2)]
    got = [view.matvecs(X) for view in views + views]
    monkeypatch.setattr(kernels, "LANE", None)
    for N, products in zip((M, M2, M, M2), got):
        assert_same_bits(products, [N.matvec(x) for x in X])


@pytest.mark.parametrize("c,alpha,lam,ks", [
    (0.5, 0.7, 0.3, range(1, 300)),
    (0.5, 0.7, 0.3, range(17, 2000, 8)),
    (0.3, 0.0, 0.2, range(1, 50)),
    (2.0, 1.0, 0.05, range(1, 700, 7)),
    (1e200, 0.7, 0.5, range(1, 30)),
    (1.5e154, 0.55, 2.0, range(1, 3000, 3)),
    (1e-160, 0.7, 0.5, range(1, 40)),
], ids=["k1", "step8", "alpha0", "alpha1", "inf", "overflow-edge", "subnormal"])
def test_steps_write_the_a_k_factors_with_the_python_bits(c_lane, c, alpha, lam, ks):
    # the a_k weights gamma(k) ** 2 / lam and dual scales lam / gamma(k - 1)
    # that a steps call writes for the records of its epochs, k the step
    # after each, on the C lane against the Python floats of the reference
    # steps and of a transcription: k = 1 (scale 1, from an epoch of no
    # steps), alpha = 0 and 1, weights whose square passes the largest
    # double (inf) or falls below the smallest normal one, and a call that
    # starts past k = 1 (step8 first steps to k = 9 without outputs)
    sched = ConstantSchedule(c) if alpha == 0 else StepSchedule(c=c, alpha=alpha)
    cfg = SolverConfig(schedule=sched, lam=lam, p=5)
    spec = fused_spec("square", 0.0)
    prox_spec = ProxSpec("l1", 0.2)
    ctx = solvers._RunContext(spec, prox_spec, ((0, 5),))
    lead = np.zeros((1, ks[0] - ks.step - 1 if ks[0] > 1 else 0), dtype=np.int64)
    per_epoch = np.zeros((len(ks) - (ks[0] == 1), ks.step), dtype=np.int64)
    got = []
    for steps in (c_lane.steps("spdfp2", spec, prox_spec, cfg, ((0, 5),), np.ones(6), np.zeros(4)),
                  solvers._ReferenceSteps("spdfp2", cfg, ctx, (np.ones(6), np.zeros(4)), None)):
        weights, dscales = np.full(len(ks), 7.0), np.full(len(ks), 7.0)
        if ks[0] == 1:
            steps(lead, weights=weights[:1], dscales=dscales[:1])
        else:
            steps(lead)
        steps(per_epoch, weights=weights[len(ks) - len(per_epoch):],
              dscales=dscales[len(ks) - len(per_epoch):])
        got.append((weights, dscales))
    (c_weights, c_dscales), (weights, dscales) = got
    assert_same_bits(c_weights, weights)
    assert_same_bits(c_dscales, dscales)

    def square(g):
        try:
            return g ** 2
        except OverflowError:
            return math.inf

    assert_same_bits(weights, [square(c / k**alpha) / lam for k in ks])
    assert_same_bits(dscales, [lam / (c / (k - 1)**alpha) if k > 1 else 1.0 for k in ks])
    assert (dscales[0] == 1.0) == (ks[0] == 1)
    if c == 1e200:
        assert np.isinf(weights).all()
    if c == 1.5e154:
        assert np.isinf(weights).any() and np.isfinite(weights).any()
    if c == 1e-160:
        assert 0 < weights.min() < np.finfo(float).tiny


def spectrum_matrices():
    """Matrices whose spectrum both lanes estimate: tall, wide and square,
    with an empty row and an empty column, with explicit +0.0 and -0.0
    entries (which from_coo would drop), 1 x 1, and the desk and rate
    instances' A and B."""
    rng = np.random.default_rng(5)

    def dense(n_rows, n_cols):
        return SparseMatrix.from_dense(rng.standard_normal((n_rows, n_cols))
                                       * (rng.random((n_rows, n_cols)) < 0.5))

    holes = rng.standard_normal((9, 7))
    holes[3], holes[:, 5] = 0.0, 0.0
    M = dense(8, 6)
    zeros = M.data.copy()
    zeros[::3], zeros[1::3] = 0.0, -0.0
    desk, rate = synth_fused_lasso(1000, 50, 0.05, 0.01, 7, mu=0.1), rate_spec()
    return {"tall": dense(40, 6), "wide": dense(6, 40), "square": dense(12, 12),
            "empty row and column": SparseMatrix.from_dense(holes),
            "empty row and column, wide": SparseMatrix.from_dense(holes.T),
            "signed zeros": SparseMatrix(8, 6, M.indptr, M.indices, zeros),
            "1x1": SparseMatrix.from_dense([[-2.5]]),
            "desk A": desk.dataset.samples, "desk B": desk.B,
            "rate A": rate.dataset.samples, "rate B": rate.B}


def csr_of(M):
    """Which matrix's CSR arrays M, a SparseMatrix or the CsrArrays that
    its views hand lane.c, holds: its shape and the identities of its
    arrays, so that a spy can tell whose products were built."""
    return M.n_rows, M.n_cols, id(M.indptr), id(M.indices), id(M.data)


def test_spectrum_same_bits_on_both_lanes(monkeypatch, c_lane):
    # the C lane's RowView products give every Lanczos step the NumPy
    # lane's bits, so the whole estimate is the same: rho_max and residual
    # to the bit; a matrix of at least C_PRODUCT_ENTRIES entries takes
    # lane.c's products over all its rows, and a smaller one never builds
    # them
    views = []
    rows = c_lane.rows
    monkeypatch.setattr(c_lane, "rows",
                        lambda M, lo, hi: views.append((csr_of(M), lo, hi)) or rows(M, lo, hi))
    seen_large = 0
    for name, M in spectrum_matrices().items():
        estimates = []
        views.clear()
        for lane in (c_lane, None):
            monkeypatch.setattr(kernels, "LANE", lane)
            estimates.append(estimate_spectrum(M))
        c, numpy = estimates
        assert (c.iterations_used, c.converged) == (numpy.iterations_used, numpy.converged), name
        assert_same_bits([c.rho_max, c.residual], [numpy.rho_max, numpy.residual])
        large = M.nnz >= sparse.C_PRODUCT_ENTRIES
        seen_large += large
        assert views == ([(csr_of(M), 0, M.n_rows)] if large else []), name
    assert seen_large


def test_products_take_blocks_of_snapshots_eight_then_four_at_a_time(monkeypatch, c_lane,
                                                                    unoptimised_lane):
    # blocks of 1 to 17 snapshots reach two eight-wide pair passes, the
    # four-wide pass and the leftover one-at-a-time rows (every count % 8),
    # on both C builds, over row ranges that start past row 0 and may be
    # empty; snapshots hold +-0.0, +-inf, NaN and subnormals, so each output
    # entry must sum the same products in the same order as RowView's NumPy
    # matvec, row by row, in the row of out its snapshot has. The
    # transposed products of a stack take rmatvec's bits, vector by vector
    rng = np.random.default_rng(5)
    seen = {"empty row": 0, "lo > 0": 0, "empty range": 0}
    for trial in range(68):
        M = random_csr(rng)
        lo = int(rng.integers(0, M.n_rows + 1))
        hi = int(rng.integers(lo, M.n_rows + 1))
        seen["empty row"] += int(np.any(np.diff(M.indptr[lo:hi + 1]) == 0))
        seen["lo > 0"] += lo > 0
        seen["empty range"] += lo == hi
        count = 1 + trial % 17
        X = with_specials(rng, rng.standard_normal((count, M.n_cols)), 0.3)
        X[0, :len(SPECIAL)] = SPECIAL[:M.n_cols]
        Y = with_specials(rng, rng.standard_normal((count, hi - lo)), 0.3)
        monkeypatch.setattr(kernels, "LANE", None)
        view = M.row_view(lo, hi)
        with np.errstate(invalid="ignore", over="ignore"):
            want, want_t = view.matvecs(X), [view.rmatvec(y) for y in Y]
            for lane in (c_lane, unoptimised_lane):
                monkeypatch.setattr(kernels, "LANE", lane)
                got = M.row_view(lo, hi).matvecs(X)
                got_t = lane.rows(M, lo, hi)(Y, True, True)
                assert got.shape == want.shape == (count, hi - lo)
                assert got_t.shape == (count, M.n_cols)
                assert_same_bits_but_nan_signs(got, want)
                assert_same_bits_but_nan_signs(got_t, want_t)
    assert all(seen.values()), seen


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310])


def with_specials(rng, a, share, specials=SPECIAL):
    """a with about share of its entries replaced by values of specials."""
    a = a.copy()
    mask = rng.random(a.shape) < share
    a[mask] = rng.choice(specials, int(mask.sum()))
    return a


def assert_same_bits_but_nan_signs(a, b):
    """NaN where the other has NaN, and the same bits everywhere else. Which
    NaN a sum or product of two NaNs keeps is left open by IEEE 754; x86
    keeps its first operand's, and a compiler may swap the operands of + and
    *, so where inf - inf (-NaN) meets a NaN, the lanes may differ in its
    sign."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(b)
    np.testing.assert_array_equal(np.isnan(a), nan)
    assert_same_bits(a[~nan], b[~nan])


def test_row_view_products_give_the_numpy_bits_on_the_c_lane(c_lane):
    # spdfp_rows against RowView's np.bincount lines, bit for bit: matrices
    # whose data and vectors hold signed zeros, NaN, inf and subnormals,
    # with empty rows and columns, over row ranges that may be empty, with n
    # and d mostly not multiples of 4. The views are below
    # C_PRODUCT_ENTRIES, so the C side calls lane.c's products directly
    rng = np.random.default_rng(9)
    seen = {"empty row": 0, "empty column": 0, "empty range": 0, "ragged": 0}
    for _ in range(300):
        M = random_csr(rng)
        M = SparseMatrix(M.n_rows, M.n_cols, M.indptr, M.indices,
                         with_specials(rng, M.data, 0.15))
        lo = int(rng.integers(0, M.n_rows + 1))
        hi = int(rng.integers(lo, M.n_rows + 1))
        x = with_specials(rng, rng.standard_normal(M.n_cols), 0.15)
        y = with_specials(rng, rng.standard_normal(hi - lo), 0.15)
        seen["empty row"] += int(np.any(np.diff(M.indptr[lo:hi + 1]) == 0))
        seen["empty column"] += int(len(set(M.indices)) < M.n_cols)
        seen["empty range"] += lo == hi
        seen["ragged"] += M.n_rows % 4 != 0 and M.n_cols % 4 != 0
        product, view = c_lane.rows(M, lo, hi), M.row_view(lo, hi)
        with np.errstate(invalid="ignore", over="ignore"):
            c_ax, c_aty = product(x, False, False), product(y, True, False)
            np_ax, np_aty = view.matvec(x), view.rmatvec(y)
        assert c_ax.shape == (hi - lo,) and c_aty.shape == (M.n_cols,)
        assert_same_bits_but_nan_signs(c_ax, np_ax)
        assert_same_bits_but_nan_signs(c_aty, np_aty)
    assert all(seen.values()), seen


def test_scatter_takes_every_remainder_of_its_four_entry_pass(c_lane, unoptimised_lane):
    # rmatvec's scatter takes four entries of a row a pass, then the rest
    # of the row one at a time: rows of 0 to 9 entries (never full, so no
    # sweep) reach every remainder after zero, one and two passes, over
    # columns drawn anew for each row, in shuffled row order; data and y
    # hold signed zeros, subnormals, inf and NaN. Both C builds against
    # the NumPy lane, of one vector and of a stack
    rng = np.random.default_rng(35)
    for trial in range(40):
        n_cols = int(rng.integers(10, 24))
        lengths = rng.permutation(np.repeat(np.arange(10), 2))
        indices = [np.sort(rng.choice(n_cols, k, replace=False)) for k in lengths]
        data = rng.standard_normal(lengths.sum())
        M = SparseMatrix(len(lengths), n_cols, np.concatenate([[0], np.cumsum(lengths)]),
                         np.concatenate(indices).astype(np.int64),
                         with_specials(rng, data, 0.15) if trial % 2 else data)
        lo, hi = int(rng.integers(0, 3)), M.n_rows - int(rng.integers(0, 3))
        Y = with_specials(rng, rng.standard_normal((3, hi - lo)), 0.3)
        view = M.row_view(lo, hi)
        with np.errstate(invalid="ignore", over="ignore"):
            want = [view.rmatvec(y) for y in Y]
            for lane in (c_lane, unoptimised_lane):
                product = lane.rows(M, lo, hi)
                assert_same_bits_but_nan_signs(product(Y[0], True, False), want[0])
                assert_same_bits_but_nan_signs(product(Y, True, True), want)


def test_a_small_view_never_builds_the_c_products(monkeypatch, c_lane):
    # lane.c's CSR struct of a view is built on the first product that
    # takes it, and kept: a view below C_PRODUCT_ENTRIES entries, as the
    # one a small matrix keeps for SparseMatrix.matvec / rmatvec, builds
    # none for single vectors; a stack builds one, and a large view builds
    # one at its first single product, which the matrix's own products
    # then share, as the view is the one the matrix keeps
    built = []
    csr = kernels._csr
    monkeypatch.setattr(kernels, "_csr", lambda M: built.append(csr_of(M)) or csr(M))
    monkeypatch.setattr(kernels, "LANE", c_lane)
    M = SparseMatrix.from_dense(np.arange(12.0).reshape(3, 4))
    view = M.row_view(0, 3)
    assert_same_bits(view.matvec(np.ones(4)), [6.0, 22.0, 38.0])
    assert_same_bits(view.rmatvec(np.ones(3)), [12.0, 15.0, 18.0, 21.0])
    assert_same_bits(M.matvec(np.ones(4)), [6.0, 22.0, 38.0])
    assert_same_bits(M.rmatvec(np.ones(3)), [12.0, 15.0, 18.0, 21.0])
    assert built == []
    for count in (2, 9):  # the second takes the eight-wide pass, on the same struct
        assert_same_bits(view.matvecs(np.ones((count, 4))), [[6.0, 22.0, 38.0]] * count)
        assert built == [csr_of(M)]
    entries = sparse.C_PRODUCT_ENTRIES
    L = SparseMatrix.from_dense(np.ones((1, entries)))
    large = L.row_view(0, 1)
    assert built == [csr_of(M)]
    for _ in range(2):
        assert_same_bits(large.matvec(np.ones(entries)), [float(entries)])
        assert_same_bits(large.rmatvec(np.ones(1)), np.ones(entries))
    assert built == [csr_of(M), csr_of(L)]
    for _ in range(2):
        assert_same_bits(L.matvec(np.ones(entries)), [float(entries)])
        assert_same_bits(L.rmatvec(np.ones(1)), np.ones(entries))
    assert built == [csr_of(M), csr_of(L)]


def spy_on(monkeypatch, lane):
    """Load lane as kernels.LANE, with a list that records the names of the
    library functions it calls, which is returned."""
    calls, lib = [], lane._lib

    class Spy:  # the library, with a record of the calls of its functions
        def __getattr__(self, name):
            fn = getattr(lib, name)
            return lambda *a: calls.append(name) or fn(*a)

    monkeypatch.setattr(lane, "_lib", Spy())
    monkeypatch.setattr(kernels, "LANE", lane)
    return calls


def test_row_view_refuses_a_short_or_strided_vector_before_c_reads_it(monkeypatch, c_lane):
    calls = spy_on(monkeypatch, c_lane)
    d = -(-sparse.C_PRODUCT_ENTRIES // 3)  # so that rows 1-3 take the C products
    M = SparseMatrix.from_dense(np.arange(6.0 * d).reshape(6, d))
    view = M.row_view(1, 4)
    for product, bad, error in ((view.matvec, np.ones(d - 1), ValueError),
                                (view.matvec, np.ones(2 * d)[::2], TypeError),
                                (view.matvec, np.ones(d, dtype=np.float32), TypeError),
                                (view.matvec, np.ones((d, 1)), TypeError),
                                (view.rmatvec, np.ones(2), ValueError),
                                (view.rmatvec, np.ones(6)[::2], TypeError),
                                (view.rmatvec, [1.0, 2.0, 3.0], TypeError)):
        with pytest.raises(error):
            product(bad)
    assert calls == []
    rows = M.to_dense()[1:4]  # integers, so every order of summing gives the same bits
    assert_same_bits(view.matvec(np.ones(d)), rows.sum(axis=1))
    assert_same_bits(view.rmatvec(np.ones(3)), rows.sum(axis=0))
    assert calls == ["spdfp_rows", "spdfp_rows"]
    with pytest.raises(ValueError, match="row range out of bounds"):
        sparse.RowView(M, 4, 7)


def test_row_view_takes_the_c_products_from_c_product_entries(monkeypatch, c_lane):
    # on the C lane, a view below C_PRODUCT_ENTRIES entries takes NumPy's
    # matvec and rmatvec, whose arrays it builds on their first call, and
    # one at or above it lane.c's; matvecs is one C call at either size
    calls = spy_on(monkeypatch, c_lane)
    for entries, single in ((sparse.C_PRODUCT_ENTRIES - 1, []),
                            (sparse.C_PRODUCT_ENTRIES, ["spdfp_rows", "spdfp_rows"])):
        M = SparseMatrix.from_coo(2, entries, np.ones(entries, dtype=np.int64),
                                  np.arange(entries), np.ones(entries))
        view = M.row_view(0, 2)
        calls.clear()
        assert_same_bits(view.matvecs(np.ones((3, entries))), np.tile([0.0, entries], (3, 1)))
        assert calls == ["spdfp_rows"] and view._entries is None
        calls.clear()
        assert_same_bits(view.matvec(np.ones(entries)), [0.0, entries])
        assert_same_bits(view.rmatvec(np.array([5.0, 2.0])), np.full(entries, 2.0))
        assert calls == single


def test_a_kept_view_takes_the_lane_of_each_product(monkeypatch, c_lane):
    # a view binds no lane: one first used on the NumPy lane takes lane.c's
    # products once the C lane is in use, and NumPy's again after, with the
    # same bits, and so do the matrix's own products, which share it
    calls = spy_on(monkeypatch, c_lane)
    rng = np.random.default_rng(8)
    M = SparseMatrix.from_dense(rng.standard_normal((4, -(-sparse.C_PRODUCT_ENTRIES // 4))))
    x, y = rng.standard_normal(M.n_cols), rng.standard_normal(4)
    X = rng.standard_normal((3, M.n_cols))
    view, got = M.row_view(0, 4), []
    for lane, c_calls in ((None, 0), (c_lane, 5), (None, 0)):
        monkeypatch.setattr(kernels, "LANE", lane)
        calls.clear()
        got.append([view.matvec(x), view.rmatvec(y), view.matvecs(X), M.matvec(x), M.rmatvec(y)])
        assert calls == ["spdfp_rows"] * c_calls
    assert M.row_view(0, 4) is view
    for products in got[1:]:
        assert_same_bits_in(products, got[0])


def test_soft_threshold_signed_zeros_and_nan(c_lane, unoptimised_lane):
    # A has no entries and B = I, so with v = 0 the first step's prox
    # argument is x itself (-0.0 becomes +0.0 in B x) and its threshold is
    # (gamma / lam) * weight = 2 * weight: ties |arg| = t, zeros, +-inf,
    # NaN and subnormals, against a subnormal threshold too, all reach the
    # C lane's soft(), on both C builds; with lam = 1e-310, gamma / lam
    # overflows, so the threshold is inf, or NaN against a zero weight,
    # which the prox of a zero must keep
    y = np.array([-0.3, 0.3, -0.0, 0.0, 2.0, -2.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan,
                  5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310, 3e-310, -3e-310])
    d = len(y)
    for lane, kind, weight, lam in itertools.product((c_lane, unoptimised_lane),
                                                    ("pdfp", "spdfp1", "spdfp2"),
                                                    (0.5, 0.0, 1e-310), (0.5, 1e-310)):
        spec = ProblemSpec(loss="square",
                           dataset=Dataset(SparseMatrix.from_coo(4, d, [], [], []), np.ones(4)),
                           l2_weight=0.0, composite_weight=weight, B=identity(d))
        sched = ConstantSchedule(1.0) if kind == "pdfp" else StepSchedule(c=1.0, alpha=0.7)
        cfg = SolverConfig(schedule=sched, lam=lam, p=4)
        prox_spec = ProxSpec("l1", weight)
        x, v = y.copy(), np.zeros(d)
        steps = lane.steps(kind, spec, prox_spec, cfg, ((0, 4),), x, v)
        with np.errstate(invalid="ignore", over="ignore"):
            steps(ONE_STEP)
            ctx = solvers._RunContext(spec, prox_spec, ((0, 4),))
            want = reference_step(kind, ctx, cfg, 1, ctx.batches[0], y.copy(), np.zeros(d))
        # which sign an operation on two NaNs keeps is left open by IEEE 754
        # and differs between NumPy's loops, so NaNs are compared by position
        for got, ref in zip((x, v), want):
            assert_same_bits_but_nan_signs(got, ref)


def test_soft_gives_the_numpy_bits_of_every_pair(soft_builds):
    # lane.c's soft() against prox.soft_threshold on every pair of a y and
    # a threshold t: y of both signs, zeros, ties, subnormals, the largest
    # double, inf and NaN; t zero, subnormal, normal, inf and NaN (what
    # gamma / lam makes of a zero weight once it overflows). NaN outputs
    # are compared by position, their sign being left open
    big = np.finfo(float).max
    ys = [0.0, 0.3, 1.0, 2.0, np.inf, 5e-324, 1e-310, 2.2e-308, big, np.nan]
    ys = np.array(ys + [-y for y in ys])
    ts = np.array([0.0, 5e-324, 1e-310, 0.3, 1.0, 2.0, np.inf, np.nan])
    Y, T = (a.ravel() for a in np.meshgrid(ys, ts))
    with np.errstate(invalid="ignore"):
        want = soft_threshold(Y, T)
    for soft in soft_builds:
        assert_same_bits_but_nan_signs([soft(y, t) for y, t in zip(Y, T)], want)


def test_logistic_weights_at_extreme_margins(c_lane):
    # column 0 holds the margins m (x_0 = 1) and row i has n = 32 in column
    # 1 + i (x = 0 there), so with B's one row empty a step with gamma = 1
    # sets x_{1+i} = -(n w_i) / n = -w_i from the loss weight of row i
    # alone, subnormal weights too; each margin comes with both labels, so
    # t = -b m takes both signs
    margins = [0.0, -0.0, 1e-300, -1e-300, 1.0, -40.0, 745.0, -745.0, 746.0, -746.0,
               1e308, -1e308, np.inf, -np.inf, np.nan, 40.0]
    n = 2 * len(margins)
    rows = np.repeat(np.arange(n), 2)
    cols = np.column_stack([np.zeros(n, dtype=np.int64), 1 + np.arange(n)]).ravel()
    data = np.column_stack([np.repeat(margins, 2), np.full(n, float(n))]).ravel()
    A = SparseMatrix.from_coo(n, n + 1, rows, cols, data)
    spec = ProblemSpec(loss="logistic", dataset=Dataset(A, np.tile([1.0, -1.0], len(margins))),
                       l2_weight=0.0, composite_weight=0.1,
                       B=SparseMatrix.from_coo(1, n + 1, [], [], []))
    x0 = np.zeros(n + 1)
    x0[0] = 1.0
    for kind in ("pdfp", "spdfp1", "spdfp2"):
        sched = ConstantSchedule(1.0) if kind == "pdfp" else StepSchedule(c=1.0, alpha=0.7)
        cfg = SolverConfig(schedule=sched, lam=0.5, p=n)
        x, v = x0.copy(), np.zeros(1)
        steps = c_lane.steps(kind, spec, ProxSpec("l1", 0.1), cfg, ((0, n),), x, v)
        with np.errstate(over="ignore", invalid="ignore"):
            steps(ONE_STEP)
            ctx = solvers._RunContext(spec, ProxSpec("l1", 0.1), ((0, n),))
            want = reference_step(kind, ctx, cfg, 1, ctx.batches[0], x0.copy(), np.zeros(1))
        # the two rows of the NaN margin, and the exp(-745) weights
        assert np.isnan(x[1:]).sum() == 2
        assert np.sum((0.0 < np.abs(x)) & (np.abs(x) < 1e-323)) == 2
        for got, ref in zip((x, v), want):
            nan = np.isnan(ref)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert_same_bits(got[~nan], ref[~nan])


def test_c_kernels_check_their_arrays(c_lane):
    spec = fused_spec("square", 0.0)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.1, p=5)
    x, v = np.ones(6), np.ones(4)
    for bad_x, bad_v, error in ((x.astype(np.float32), v, TypeError),
                                (np.ones(12)[::2], v, TypeError),
                                (np.ones(5), v, ValueError),
                                (x, np.ones(5), ValueError)):
        with pytest.raises(error):
            c_lane.steps("spdfp1", spec, ProxSpec("l1", 0.2), cfg, ((0, 5),), bad_x, bad_v)


# ---------------------------------------------------------------------------
# whole runs: fused C path against the Python reference path

def fused_spec(loss, l2_weight):
    # n = 23 with p = 5 leaves a short last batch; sample 3 has no entries
    # and row 1 of B is empty
    rng = np.random.default_rng(40)
    n, d = 23, 6
    A = rng.standard_normal((n, d))
    A[rng.random((n, d)) < 0.3] = 0.0
    A[3] = 0.0
    b = rng.standard_normal(n) if loss == "square" else rng.choice([-1.0, 1.0], n)
    B = SparseMatrix.from_coo(4, d, [0, 0, 2, 2, 3, 3], [0, 1, 2, 3, 4, 5],
                              [1.0, -1.0, 1.0, -1.0, 2.0, -0.5])
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
    return ProblemSpec(loss=loss, dataset=ds, l2_weight=l2_weight, composite_weight=0.2, B=B)


def run_on_lane(monkeypatch, lane, *args, **kwargs):
    """run_solver with kernels.LANE set to lane; returns the records and
    copies of the iterates at every recorded epoch, from the snapshot rows
    of the record blocks."""
    states = []
    block_records = solvers._block_records

    def grab(spec, reference, ctx, first, X, V, wall, weights, dscales):
        snapshots = (X,) if V is None else (X, V)  # a stoc_admm run snapshots x alone
        assert all(len(a) == len(wall) for a in snapshots)
        assert all(a is None or len(a) == len(wall) for a in (weights, dscales))
        states.extend([a.copy() for a in rows] for rows in zip(*snapshots))
        return block_records(spec, reference, ctx, first, X, V, wall, weights, dscales)

    with monkeypatch.context() as m:
        m.setattr(kernels, "LANE", lane)
        m.setattr(solvers, "_block_records", grab)
        recs = run_solver(*args, **kwargs)
    # a diverged run drops the rows of its block after the first bad one
    return recs, states[:len(recs)]


def assert_same_run(got, want):
    (recs_a, states_a), (recs_b, states_b) = got, want
    assert len(recs_a) == len(recs_b) == len(states_a) == len(states_b)
    for ra, rb in zip(recs_a, recs_b):
        assert (ra.solver, ra.seed, ra.epoch) == (rb.solver, rb.seed, rb.epoch)
        fields = ("objective", "rel_obj_error", "iterate_sq_error", "a_k")
        assert [getattr(ra, f) is None for f in fields] == [getattr(rb, f) is None for f in fields]
        assert_same_bits([getattr(ra, f) or 0.0 for f in fields],
                         [getattr(rb, f) or 0.0 for f in fields])
    for sa, sb in zip(states_a, states_b):
        for a, b in zip(sa, sb):
            assert_same_bits(a, b)


@pytest.mark.parametrize("kind", ["pdfp", "spdfp1", "spdfp2"])
@pytest.mark.parametrize("loss,l2_weight", [("square", 0.0), ("hinge", 0.1),
                                             ("logistic", 0.0), ("logistic", 0.1)])
@pytest.mark.parametrize("prox_spec", [ProxSpec("l1", 0.2), ProxSpec("zero", 0.0)],
                         ids=["l1", "zero"])
def test_fused_run_matches_python_path_bitwise(monkeypatch, c_lane, kind, loss, l2_weight,
                                               prox_spec):
    spec = fused_spec(loss, l2_weight)
    rho = estimate_spectrum(spec.B).rho_max
    sched = ConstantSchedule(0.3) if kind == "pdfp" else StepSchedule(c=0.5, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.8 / rho, p=5, seed=11, max_epochs=6)
    rng = np.random.default_rng(41)
    ref = Reference(x_star=rng.standard_normal(6), v_star=rng.standard_normal(4),
                    objective_star=0.7)
    calls = []
    steps = c_lane.steps
    monkeypatch.setattr(c_lane, "steps", lambda *a: calls.append(a) or steps(*a))

    fused = run_on_lane(monkeypatch, c_lane, kind, spec, prox_spec, cfg, reference=ref)
    assert len(calls) == 1
    python = run_on_lane(monkeypatch, None, kind, spec, prox_spec, cfg, reference=ref)
    assert_same_run(fused, python)

    # no epochs: the initial record alone, its products from the lane
    none = replace(cfg, max_epochs=0)
    assert_same_run(run_on_lane(monkeypatch, c_lane, kind, spec, prox_spec, none, reference=ref),
                    run_on_lane(monkeypatch, None, kind, spec, prox_spec, none, reference=ref))
    # records built one epoch per block, and three epochs per block (a row
    # holds x, v, A x and B x: 6 + 4 + 23 + 4 doubles), so that the seven
    # records of the run come in blocks of 3, 3 and 1; each block draws the
    # picks of its own epochs and steps them in one call (epoch 0 runs none)
    for budget, rows, epochs in ((1, [1] * 7, [1] * 6), (3 * 37, [3, 3, 1], [2, 3, 1])):
        with monkeypatch.context() as m:
            m.setattr(solvers, "_RECORD_BLOCK", budget)
            block_records = solvers._block_records
            sizes, stepped = [], []
            m.setattr(solvers, "_block_records",
                      lambda *a: sizes.append(len(a[4])) or block_records(*a))
            for cls in (kernels.Steps, solvers._ReferenceSteps):
                m.setattr(cls, "__call__", lambda self, picks, *a, call=cls.__call__:
                          stepped.append(len(picks)) or call(self, picks, *a))
            for lane in (c_lane, None):
                sizes.clear()
                stepped.clear()
                assert_same_run(run_on_lane(monkeypatch, lane, kind, spec, prox_spec, cfg,
                                            reference=ref), python)
                assert sizes == rows
                assert stepped == epochs
    assert len(calls) == 4

    # with on_step the run keeps the Python path, and its last state is the same
    seen = []
    run_on_lane(monkeypatch, c_lane, kind, spec, prox_spec, cfg, reference=ref,
                on_step=seen.append)
    assert len(calls) == 4
    assert_same_bits(seen[-1].x, fused[1][-1][0])
    assert_same_bits(seen[-1].v, fused[1][-1][1])


@pytest.mark.parametrize("kind", ["spdfp1", "spdfp2"])
@pytest.mark.parametrize("loss,l2_weight", [("square", 0.0), ("logistic", 0.1)])
def test_constant_step_spdfp_runs_fused_with_the_python_bits(monkeypatch, c_lane, kind, loss,
                                                              l2_weight):
    # gamma_k = c / k**0 and ((k-1)/k)**0 = 1 through libm pow, as in Python
    spec = fused_spec(loss, l2_weight)
    cfg = SolverConfig(schedule=ConstantSchedule(0.3), lam=0.8 / spec.B.spectrum.rho_max, p=5,
                       seed=11, max_epochs=30)
    rng = np.random.default_rng(42)
    ref = Reference(x_star=rng.standard_normal(6), v_star=rng.standard_normal(4),
                    objective_star=0.7)
    calls = []
    steps = c_lane.steps
    monkeypatch.setattr(c_lane, "steps", lambda *a: calls.append(a) or steps(*a))
    fused = run_on_lane(monkeypatch, c_lane, kind, spec, ProxSpec("l1", 0.2), cfg, reference=ref)
    assert len(calls) == 1
    python = run_on_lane(monkeypatch, None, kind, spec, ProxSpec("l1", 0.2), cfg, reference=ref)
    assert len(fused[0]) == 31
    assert_same_run(fused, python)


def test_fused_pdfp_stops_at_the_same_epoch(monkeypatch, c_lane):
    spec = fused_spec("square", 0.0)
    rho = estimate_spectrum(spec.B).rho_max
    cfg = SolverConfig(schedule=ConstantSchedule(0.3), lam=0.8 / rho, p=23, max_epochs=500,
                       stop_tolerance=1e-6)
    fused = run_on_lane(monkeypatch, c_lane, "pdfp", spec, ProxSpec("l1", 0.2), cfg)
    python = run_on_lane(monkeypatch, None, "pdfp", spec, ProxSpec("l1", 0.2), cfg)
    assert 1 < len(fused[0]) < 501
    assert_same_run(fused, python)


@pytest.mark.parametrize("lane", ["c", "numpy"])
def test_a_pdfp_run_that_starts_within_its_tolerance_still_steps_epoch_1(monkeypatch, c_lane,
                                                                          lane):
    # the residual is first checked after a step, so a run from a pair that
    # already meets the tolerance records epoch 0 and epoch 1 and stops; its
    # epoch 0 record is that of the start, with a_k's dual scale 1 at k = 1
    spec = fused_spec("square", 0.0)
    monkeypatch.setattr(kernels, "LANE", c_lane if lane == "c" else None)
    gt = compute_ground_truth(spec)
    prox_spec = prox_for(spec)
    x0, v0 = gt.x_star, (gt.gamma / gt.lam) * gt.v_star
    tol = 1e-6
    assert fixed_point_residual(spec, prox_spec, gt.gamma, gt.lam, x0, v0) <= tol
    cfg = SolverConfig(schedule=ConstantSchedule(gt.gamma), lam=gt.lam, p=spec.n,
                       max_epochs=50, stop_tolerance=tol)
    ref = Reference(x_star=np.zeros(spec.dim), v_star=np.ones(spec.B.n_rows), objective_star=0.5)
    stepped = []
    for cls in (kernels.Steps, solvers._ReferenceSteps):
        monkeypatch.setattr(cls, "__call__", lambda self, picks, *a, call=cls.__call__, **kw:
                            stepped.append(picks.size) or call(self, picks, *a, **kw))
    recs = run_solver("pdfp", spec, prox_spec, cfg, x0=x0, v0=v0, reference=ref)
    assert [r.epoch for r in recs] == [0, 1] and stepped == [1]
    check_record_bits(recs[0], "pdfp", spec, cfg, ref, x0, v0, 1)


@pytest.mark.parametrize("kind", ["pdfp", "spdfp1", "spdfp2"])
def test_fused_run_stops_where_the_python_path_diverges(monkeypatch, c_lane, kind):
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, 2)
    rho = estimate_spectrum(spec.B).rho_max
    sched = ConstantSchedule(1e3) if kind == "pdfp" else StepSchedule(c=1e3, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.9 / rho, p=8, seed=4, max_epochs=60)
    runs, messages = [], []
    for lane in (c_lane, None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(run_on_lane(monkeypatch, lane, kind, spec, ProxSpec("l1", 0.1), cfg))
        messages.append([str(w.message) for w in caught if "diverged" in str(w.message)])
    (fused, fused_states), (python, python_states) = runs
    assert 1 < len(fused) == len(python) < 61
    assert messages[0] == messages[1] and len(messages[0]) == 1
    assert not np.isfinite(fused[-1].objective) and not np.isfinite(python[-1].objective)
    assert_same_run((fused[:-1], fused_states[:-1]), (python[:-1], python_states[:-1]))


@pytest.mark.parametrize("kind", ["spdfp1", "spdfp2"])
def test_diverging_run_warns_alike_on_both_lanes(monkeypatch, c_lane, kind):
    # the reference steps of a run without on_step keep NumPy's overflow and
    # invalid-value warnings off, as the C lane gives none, so both lanes
    # show the objective's overflow and then run_solver's diverged warning
    spec = synth_fused_lasso(60, 7, 0.1, 0.01, 3)
    cfg = SolverConfig(schedule=StepSchedule(1e3, 0.7), lam=0.9 / spec.B.spectrum.rho_max,
                       p=10, max_epochs=30)
    runs, messages = [], []
    for lane in (c_lane, None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(run_on_lane(monkeypatch, lane, kind, spec, ProxSpec("l1", 0.1), cfg))
        messages.append([str(w.message) for w in caught])
    assert messages[0] == messages[1]
    assert len(messages[0]) == 2 and "overflow" in messages[0][0]
    assert "diverged" in messages[0][1]
    assert_same_run(*runs)


@pytest.mark.parametrize("kind", ["pdfp", "spdfp1", "spdfp2"])
def test_a_step_whose_square_overflows_is_recorded_and_flagged(monkeypatch, c_lane, kind):
    # gamma(k) ** 2 in the a_k weight passes the largest double at c = 1e200,
    # where Python's float ** raises; the weight is inf instead, so the run
    # keeps its records up to its first non-finite objective and warns, on
    # both lanes alike
    spec = synth_fused_lasso(60, 6, 0.1, 0.01, 3)
    sched = ConstantSchedule(1e200) if kind == "pdfp" else StepSchedule(c=1e200, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.5 / spec.B.spectrum.rho_max, p=10, max_epochs=5)
    rng = np.random.default_rng(46)
    ref = Reference(x_star=rng.standard_normal(6), v_star=rng.standard_normal(spec.B.n_rows),
                    objective_star=0.7)
    runs, messages = [], []
    for lane in (c_lane, None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(run_on_lane(monkeypatch, lane, kind, spec, ProxSpec("l1", 0.1), cfg,
                                    reference=ref))
        messages.append([str(w.message) for w in caught if "diverged" in str(w.message)])
    for recs, _ in runs:
        assert len(recs) == 2 and recs[0].a_k == math.inf
        assert not math.isfinite(recs[-1].objective)
    assert messages[0] == messages[1] and len(messages[0]) == 1
    assert_same_run(*runs)


def test_admm_and_on_step_runs_keep_the_python_path(monkeypatch, c_lane):
    calls = []
    monkeypatch.setattr(c_lane, "steps", lambda *a: calls.append(a))
    monkeypatch.setattr(kernels, "LANE", c_lane)
    spec = fused_spec("logistic", 0.0)
    rho = estimate_spectrum(spec.B).rho_max
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.8 / rho, p=5,
                       max_epochs=2)
    seen = []
    run_solver("spdfp2", spec, ProxSpec("l1", 0.2), cfg, on_step=seen.append)
    assert len(seen) == 2 * 5
    admm = solvers.AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    run_solver("stoc_admm", spec, ProxSpec("l1", 0.2), cfg, admm_cfg=admm)
    assert calls == []


@pytest.mark.parametrize("lane", ["numpy", "c"])
def test_a_second_run_sets_up_no_view_and_no_c_products(monkeypatch, c_lane, lane):
    # a run takes its products from its matrices' kept views, so once a run
    # of a kind has set them up, with lane.c's CSR structs where the lane is
    # built, a second run sets up none; the fused steps' run struct holds
    # A's and B's CSR arrays anew each run
    monkeypatch.setattr(kernels, "LANE", c_lane if lane == "c" else None)
    spec = fused_spec("logistic", 0.1)
    rho = estimate_spectrum(spec.B).rho_max
    cfg = SolverConfig(schedule=ConstantSchedule(0.5), lam=0.8 / rho, p=5, max_epochs=2)
    admm = solvers.AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    views, built = [], []
    init, csr = sparse.RowView.__init__, kernels._csr
    for kind in solvers.SOLVER_KINDS:
        run_solver(kind, spec, ProxSpec("l1", 0.2), cfg, admm_cfg=admm)
        with monkeypatch.context() as m:
            m.setattr(sparse.RowView, "__init__", lambda *a: views.append(a) or init(*a))
            m.setattr(kernels, "_csr", lambda M: built.append(M) or csr(M))
            run_solver(kind, spec, ProxSpec("l1", 0.2), cfg, admm_cfg=admm)
        fused = lane == "c" and kind != "stoc_admm"
        assert views == [] and built == ([spec.dataset.samples, spec.B] if fused else [])
        built.clear()


@pytest.mark.parametrize("lane", ["numpy", "c"])
def test_a_dropped_matrix_is_freed_without_the_cyclic_collector(monkeypatch, c_lane, lane):
    # a matrix keeps its views, and neither a view nor lane.c's products
    # over it (their closure included) hold the matrix, only its shape and
    # CSR arrays: so a matrix that took single, stacked and Lanczos
    # products is freed, arrays and all, when its last reference goes, with
    # the cyclic garbage collector off
    monkeypatch.setattr(kernels, "LANE", c_lane if lane == "c" else None)
    M = SparseMatrix.from_dense(np.random.default_rng(38).standard_normal((40, 60)))
    assert M.nnz >= sparse.C_PRODUCT_ENTRIES  # so that the C lane takes the single products
    M.matvec(np.ones(60))
    M.rmatvec(np.ones(40))
    M.row_view(3, 30).matvecs(np.ones((9, 60)))
    assert M.spectrum.converged
    assert all((view._c is not None) == (lane == "c") for view in M._views.values())
    arrays = [weakref.ref(a) for a in (M.indptr, M.indices, M.data)]
    gc.disable()
    try:
        del M
        assert [a() for a in arrays] == [None] * 3
    finally:
        gc.enable()


@pytest.mark.parametrize("loss", ["square", "hinge", "logistic"])
def test_runs_on_row_view_products_give_the_same_bits_on_both_lanes(monkeypatch, c_lane, loss):
    # stoc_admm, a run with on_step, the fixed-point residual, the
    # objective and the gradients take their products from RowView, which
    # calls spdfp_rows where the C lane is built and np.bincount otherwise
    spec = fused_spec(loss, 0.1)
    prox_spec = ProxSpec("l1", 0.2)
    rho = estimate_spectrum(spec.B).rho_max
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.8 / rho, p=5,
                       max_epochs=6, seed=3)
    admm = solvers.AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    ref = Reference(x_star=np.linspace(-1.0, 1.0, spec.dim), objective_star=0.3)
    x = np.linspace(0.5, -0.7, spec.dim)
    v = np.linspace(-0.2, 0.4, spec.B.n_rows)
    plan = gradients.make_batch_plan(spec.n, 5)
    outputs = []
    for lane in (c_lane, None):
        monkeypatch.setattr(kernels, "LANE", lane)
        spec = fused_spec(loss, 0.1)  # new matrices, whose kept views take this lane
        seen = []
        recs = [run_solver("stoc_admm", spec, prox_spec, cfg, admm_cfg=admm, reference=ref),
                run_solver("spdfp1", spec, prox_spec, cfg, reference=ref,
                           on_step=lambda s: seen.append(s.x.copy()))]
        values = [fixed_point_residual(spec, prox_spec, 0.3, cfg.lam, x, v),
                  harness.objective_value(spec, x),
                  *gradients.full_gradient(spec, x),
                  *gradients.stochastic_gradient(spec, plan, 4, x)]
        outputs.append((recs, seen, values))
    (c_recs, c_seen, c_values), (np_recs, np_seen, np_values) = outputs
    for a, b in zip(c_recs, np_recs):
        assert len(a) == len(b) == cfg.max_epochs + 1
        for name in set(solvers.COLUMNS) - {"wall_time"}:
            col_a, col_b = getattr(a, name), getattr(b, name)
            assert (col_a is None) == (col_b is None)
            if col_a is not None:
                assert_same_bits(col_a, col_b)
    assert len(c_seen) == len(np_seen) == cfg.max_epochs * plan.n_batches
    assert_same_bits(c_seen, np_seen)
    assert_same_bits(c_values, np_values)



def test_records_take_one_stacked_product_per_block_and_matrix(monkeypatch, c_lane):
    # a stoc_admm run on the C lane steps through RowView, and the records
    # of each of its blocks of 3, 3 and 1 epochs take A x and B x of all the
    # block's snapshots in one spdfp_rows call each, not one per snapshot
    lib, building, per_block = c_lane._lib, [False], []

    class Spy:  # the library, with the calls made while records are built
        def __getattr__(self, name):
            fn = getattr(lib, name)

            def call(*a):
                if building[0]:
                    per_block[-1].append((name, a[3], a[5]))  # spdfp_rows' transpose, count
                return fn(*a)
            return call

    block_records = solvers._block_records

    def records(*a):
        per_block.append([])
        building[0] = True
        try:
            return block_records(*a)
        finally:
            building[0] = False

    monkeypatch.setattr(c_lane, "_lib", Spy())
    monkeypatch.setattr(kernels, "LANE", c_lane)
    monkeypatch.setattr(solvers, "_block_records", records)
    monkeypatch.setattr(solvers, "_RECORD_BLOCK", 3 * 37)  # x, v, A x and B x: 6 + 4 + 23 + 4
    spec = fused_spec("square", 0.1)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.1, p=5, max_epochs=6)
    admm = solvers.AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    assert len(run_solver("stoc_admm", spec, ProxSpec("l1", 0.2), cfg, admm_cfg=admm)) == 7
    assert per_block == [[("spdfp_rows", 0, n)] * 2 for n in (3, 3, 1)]


def test_fused_steps_reject_out_of_range_picks(c_lane):
    spec = fused_spec("square", 0.0)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.1, p=5)
    x, v = np.ones(6), np.ones(4)
    steps = c_lane.steps("spdfp1", spec, ProxSpec("l1", 0.2), cfg, ((0, 5), (5, 10)), x, v)
    for picks in ([0, 2], [-1], [1, 0, 7]):
        with pytest.raises(ValueError):
            steps(np.array([picks], dtype=np.int64))
    # a bad pick in the last epoch of a block stops the call before its
    # first step: x, v and every snapshot row and stamp keep their values
    X, V, stamps = np.full((3, 6), 7.0), np.full((3, 4), 7.0), np.full(3, 7.0)
    with pytest.raises(ValueError, match="out of bounds"):
        steps(np.array([[0, 1], [1, 0], [1, 7]], dtype=np.int64), X, V, stamps)
    for a in (X, V, stamps):
        assert_same_bits(a, np.full(a.shape, 7.0))
    # its snapshot arrays must hold one row of x or v, or one stamp, per epoch
    picks = np.array([[0], [1], [1]], dtype=np.int64)
    for bad_x, bad_v, bad_t, error in ((np.ones((2, 6)), None, None, ValueError),
                                       (None, np.ones((3, 5)), None, ValueError),
                                       (None, None, np.ones((3, 1)), TypeError),
                                       (np.ones((3, 6), dtype=np.float32), None, None, TypeError),
                                       (np.ones((3, 12))[:, ::2], None, None, TypeError)):
        with pytest.raises(error):
            steps(picks, bad_x, bad_v, bad_t)
    # and its a_k factor arrays one float64 per epoch
    for bad, error in ((np.ones(2), ValueError), (np.ones((3, 1)), TypeError),
                       (np.ones(3, dtype=np.float32), TypeError), (np.ones(6)[::2], TypeError)):
        for out in ("weights", "dscales"):
            with pytest.raises(error):
                steps(picks, **{out: bad})
    assert_same_bits(x, np.ones(6))
    assert_same_bits(v, np.ones(4))
    # a refused call takes no step from the count: the next step is the first
    steps(ONE_STEP)
    fresh = c_lane.steps("spdfp1", spec, ProxSpec("l1", 0.2), cfg, ((0, 5),),
                         np.ones(6), np.ones(4))
    fresh(ONE_STEP)
    for a, b in zip(steps.iterates, fresh.iterates):
        assert_same_bits(a, b)
    bad = c_lane.steps("spdfp1", spec, ProxSpec("l1", 0.2), cfg, ((20, 24),), x, v)
    with pytest.raises(ValueError):
        bad(ONE_STEP)


@pytest.mark.parametrize("lane", ["c", "numpy"])
def test_steps_refuse_out_of_range_picks_before_any_step_on_both_lanes(c_lane, lane):
    # a pick outside [0, n_ranges), -1 or one in a later epoch, is refused
    # with the same ValueError on both lanes before the first step: the
    # reference steps would take ctx.batches[-1], or raise IndexError after
    # writing X[0]; the iterates, the snapshot arrays and the step counter
    # keep their values
    spec = synth_fused_lasso(20, 5, 0.1, 0.01, 1)
    prox_spec = prox_for(spec)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7),
                       lam=0.5 / spec.B.spectrum.rho_max, p=10)
    ranges = ((0, 10), (10, 20))
    d, m = spec.dim, spec.B.n_rows

    def fresh():
        x, v = np.ones(d), np.full(m, 0.5)
        if lane == "c":
            return c_lane.steps("spdfp2", spec, prox_spec, cfg, ranges, x, v)
        ctx = solvers._RunContext(spec, prox_spec, ranges)
        return solvers._ReferenceSteps("spdfp2", cfg, ctx, (x, v), None)

    steps = fresh()
    for picks in ([[-1]], [[0], [len(ranges)]]):
        picks = np.array(picks, dtype=np.int64)
        X, V, stamps = (np.full((len(picks), d), 7.0), np.full((len(picks), m), 7.0),
                        np.full(len(picks), 7.0))
        with pytest.raises(ValueError, match="batch index or row range out of bounds"):
            steps(picks, X, V, stamps)
        for a in (X, V, stamps):
            assert_same_bits(a, np.full(a.shape, 7.0))
        assert_same_bits(steps.iterates[0], np.ones(d))
        assert_same_bits(steps.iterates[1], np.full(m, 0.5))
    # the refused calls took no step from the count
    picks = np.array([[1, 0], [0, 1]], dtype=np.int64)
    want = fresh()
    steps(picks)
    want(picks)
    for a, b in zip(steps.iterates, want.iterates):
        assert_same_bits(a, b)


def test_fused_steps_take_picks_as_a_contiguous_int64_table(c_lane):
    # one row of picks per epoch: a 1-D, float64, int32 or non-contiguous
    # array, or a list, is refused before any step
    spec = fused_spec("square", 0.0)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.1, p=5)
    x, v = np.ones(6), np.ones(4)
    steps = c_lane.steps("spdfp1", spec, ProxSpec("l1", 0.2), cfg, ((0, 5), (5, 10)), x, v)
    X = np.full((2, 6), 7.0)
    for picks in (np.array([0, 1], dtype=np.int64), np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[0, 1], [1, 0]], dtype=np.int32),
                  np.zeros((2, 4), dtype=np.int64)[:, ::2], [[0, 1], [1, 0]]):
        with pytest.raises(TypeError):
            steps(picks, X)
    assert_same_bits(X, np.full((2, 6), 7.0))
    assert_same_bits(x, np.ones(6))
    assert_same_bits(v, np.ones(4))


def test_steps_carry_their_step_counter_across_calls(c_lane):
    # k goes on from one call to the next: three calls of one epoch give
    # the bits of one call of three epochs, on both lanes; spdfp2's step
    # size and dual factor both read k
    spec = fused_spec("logistic", 0.1)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.1, p=5)
    ranges = ((0, 5), (5, 10), (20, 23))
    picks = np.array([[0, 2], [1, 1], [2, 0]], dtype=np.int64)
    ctx = solvers._RunContext(spec, ProxSpec("l1", 0.2), ranges)

    def lanes():
        return (c_lane.steps("spdfp2", spec, ProxSpec("l1", 0.2), cfg, ranges,
                             np.ones(6), np.zeros(4)),
                solvers._ReferenceSteps("spdfp2", cfg, ctx, (np.ones(6), np.zeros(4)), None))

    for whole, split in zip(lanes(), lanes()):
        X, V = np.empty((3, 6)), np.empty((3, 4))
        whole(picks, X, V)
        Xs, Vs = np.empty((3, 6)), np.empty((3, 4))
        for e in range(3):
            split(picks[e:e + 1], Xs[e:e + 1], Vs[e:e + 1])
        assert_same_bits(Xs, X)
        assert_same_bits(Vs, V)
        for a, b in zip(split.iterates, whole.iterates):
            assert_same_bits(a, b)


def test_block_call_snapshots_each_epoch_on_both_lanes(c_lane):
    # three epochs of two steps in one call: row e of X and V is the state
    # after epoch e, the same bits as the reference steps give, and the
    # stamps count up from the start of the call
    spec = fused_spec("logistic", 0.1)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.1, p=5)
    ranges = ((0, 5), (5, 10), (20, 23))
    picks = np.array([[0, 2], [1, 1], [2, 0]], dtype=np.int64)
    ctx = solvers._RunContext(spec, ProxSpec("l1", 0.2), ranges)
    got = []
    for steps in (c_lane.steps("spdfp2", spec, ProxSpec("l1", 0.2), cfg, ranges,
                               np.ones(6), np.zeros(4)),
                  solvers._ReferenceSteps("spdfp2", cfg, ctx, (np.ones(6), np.zeros(4)), None)):
        X, V, stamps = np.empty((3, 6)), np.empty((3, 4)), np.empty(3)
        t = time.perf_counter()
        steps(picks, X, V, stamps)
        elapsed = time.perf_counter() - t
        assert 0 <= stamps[0] <= stamps[1] <= stamps[2] <= elapsed
        assert_same_bits(X[-1], steps.iterates[0])
        assert_same_bits(V[-1], steps.iterates[1])
        got.append((X, V))
    (Xc, Vc), (Xr, Vr) = got
    assert_same_bits(Xc, Xr)
    assert_same_bits(Vc, Vr)
    x, v = np.ones(6), np.zeros(4)
    for e in range(3):
        for i, k in zip(picks[e], (2 * e + 1, 2 * e + 2)):
            x, v = reference_step("spdfp2", ctx, cfg, k, ctx.batches[i], x, v)
        assert_same_bits(Xr[e], x)
        assert_same_bits(Vr[e], v)


@pytest.mark.parametrize("kind", ["pdfp", "spdfp1", "spdfp2"])
def test_reference_steps_make_three_b_products_a_step(kind):
    # as on the C lane, a call works B^T v out once and each step hands on
    # B^T v of its new v: B x_half, B (B^T v) and B^T v_new per step
    spec = fused_spec("square", 0.1)
    sched = ConstantSchedule(0.3) if kind == "pdfp" else StepSchedule(c=0.5, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.8 / spec.B.spectrum.rho_max, p=5)
    ranges = ((0, 5), (5, 10), (20, 23))
    ctx = solvers._RunContext(spec, ProxSpec("l1", 0.2), ranges)
    calls = []

    class Counted:
        def matvec(self, x, B=ctx.B):
            calls.append("matvec")
            return B.matvec(x)

        def rmatvec(self, y, B=ctx.B):
            calls.append("rmatvec")
            return B.rmatvec(y)

    ctx.B = Counted()
    steps = solvers._ReferenceSteps(kind, cfg, ctx, (np.ones(6), np.zeros(4)), None)
    picks = np.array([[0, 2, 1], [1, 1, 0]], dtype=np.int64)
    steps(picks[:1])
    steps(picks[1:])
    assert len(calls) == 3 * picks.size + 2
    assert calls.count("rmatvec") == picks.size + 2


@pytest.mark.parametrize("kind", ["pdfp", "spdfp1", "spdfp2"])
def test_multi_epoch_call_with_empty_rows_and_columns_of_b(c_lane, kind):
    # B's rows 1 and 4 and its column 2 are empty, so B^T v is zero in
    # column 2 and v's entries 1 and 4 reach no column; a call of five
    # epochs, whose steps take B^T v from the step before, gives the
    # reference steps' bits in every snapshot
    spec = replace(fused_spec("logistic", 0.1),
                   B=SparseMatrix.from_coo(5, 6, [0, 0, 2, 2, 3, 3], [0, 1, 3, 4, 5, 0],
                                           [1.0, -1.0, 1.0, -1.0, 2.0, -0.5]))
    prox_spec = ProxSpec("l1", 0.2)
    sched = ConstantSchedule(0.3) if kind == "pdfp" else StepSchedule(c=0.5, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.8 / spec.B.spectrum.rho_max, p=5)
    ranges = ((0, 5), (5, 10), (10, 15), (15, 20), (20, 23))
    picks = np.random.default_rng(43).integers(0, len(ranges), (5, 4))
    rng = np.random.default_rng(44)
    x0, v0 = rng.standard_normal(6), rng.standard_normal(5)
    ctx = solvers._RunContext(spec, prox_spec, ranges)
    got = []
    for steps in (c_lane.steps(kind, spec, prox_spec, cfg, ranges, x0.copy(), v0.copy()),
                  solvers._ReferenceSteps(kind, cfg, ctx, (x0.copy(), v0.copy()), None)):
        X, V = np.empty((5, 6)), np.empty((5, 5))
        steps(picks, X, V)
        got.append((X, V))
    (Xc, Vc), (Xr, Vr) = got
    assert_same_bits(Xc, Xr)
    assert_same_bits(Vc, Vr)


def test_a_write_into_v_between_calls_counts_on_the_c_lane(c_lane):
    # each call works out B^T v afresh from v before its first step, so a
    # caller that overwrites v between two calls gets the reference bits,
    # not those of a step that reused the B^T v of the old v
    spec = fused_spec("square", 0.1)
    prox_spec = ProxSpec("l1", 0.2)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7),
                       lam=0.8 / spec.B.spectrum.rho_max, p=5)
    ranges = ((0, 5), (5, 10), (20, 23))
    picks = np.array([[0, 2], [1, 1]], dtype=np.int64)
    ctx = solvers._RunContext(spec, prox_spec, ranges)
    new_v = np.random.default_rng(45).standard_normal(4)
    got = []
    for steps in (c_lane.steps("spdfp1", spec, prox_spec, cfg, ranges, np.ones(6), np.zeros(4)),
                  solvers._ReferenceSteps("spdfp1", cfg, ctx, (np.ones(6), np.zeros(4)), None)):
        steps(picks[:1])
        steps.iterates[1][:] = new_v
        steps(picks[1:])
        got.append([a.copy() for a in steps.iterates])
    for a, b in zip(*got):
        assert_same_bits(a, b)
    x, v = np.ones(6), np.zeros(4)
    for k, i in enumerate((0, 2), start=1):
        x, v = reference_step("spdfp1", ctx, cfg, k, ctx.batches[i], x, v)
    v = new_v.copy()
    for k in (3, 4):
        x, v = reference_step("spdfp1", ctx, cfg, k, ctx.batches[1], x, v)
    assert_same_bits(got[0][0], x)
    assert_same_bits(got[0][1], v)


@pytest.mark.parametrize("lane", ["c", "numpy"])
def test_wall_time_counts_up_within_the_run(monkeypatch, c_lane, lane):
    # the stamps come from inside the steps call; each record's wall_time is
    # that stamp plus the call's start, on one clock, so it never runs back
    # and ends before the run returns: in one block, over blocks of three
    # epochs, and in a pdfp run that steps one epoch per call
    monkeypatch.setattr(kernels, "LANE", c_lane if lane == "c" else None)
    spec = fused_spec("square", 0.0)
    lam = 0.8 / spec.B.spectrum.rho_max
    runs = [("spdfp1", SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=lam, p=5,
                                    max_epochs=40), solvers._RECORD_BLOCK),
            ("spdfp2", SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=lam, p=5,
                                    max_epochs=40), 3 * 37),
            ("pdfp", SolverConfig(schedule=ConstantSchedule(0.3), lam=lam, p=23,
                                  max_epochs=500, stop_tolerance=1e-6), solvers._RECORD_BLOCK)]
    for kind, cfg, budget in runs:
        monkeypatch.setattr(solvers, "_RECORD_BLOCK", budget)
        t = time.perf_counter()
        recs = run_solver(kind, spec, ProxSpec("l1", 0.2), cfg)
        elapsed = time.perf_counter() - t
        wall = [r.wall_time for r in recs]
        assert len(wall) > 2
        assert 0 <= wall[0]
        assert all(a <= b for a, b in zip(wall, wall[1:]))
        assert wall[-1] <= elapsed


@pytest.mark.parametrize("lane", ["c", "numpy"])
def test_wall_time_leaves_out_building_the_records(monkeypatch, c_lane, lane):
    # five blocks of three epochs whose records each take 0.1 s to build:
    # the steps of all 12 epochs take milliseconds, and so does the last
    # record's wall_time, which would be 0.4 s more with the records in it
    monkeypatch.setattr(kernels, "LANE", c_lane if lane == "c" else None)
    block_records = solvers._block_records
    monkeypatch.setattr(solvers, "_block_records",
                        lambda *a: time.sleep(0.1) or block_records(*a))
    monkeypatch.setattr(solvers, "_RECORD_BLOCK", 3 * 37)
    spec = fused_spec("square", 0.0)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7),
                       lam=0.8 / spec.B.spectrum.rho_max, p=5, max_epochs=12)
    wall = [r.wall_time for r in run_solver("spdfp1", spec, ProxSpec("l1", 0.2), cfg)]
    assert len(wall) == 13
    assert all(a <= b for a, b in zip(wall, wall[1:]))
    assert wall[-1] < 0.1


@pytest.mark.parametrize("lane", ["c", "numpy"])
@pytest.mark.parametrize("kind,sched", [("spdfp1", StepSchedule(c=0.5, alpha=0.7)),
                                        ("spdfp2", StepSchedule(c=0.5, alpha=0.7)),
                                        ("pdfp", ConstantSchedule(0.3))],
                         ids=["spdfp1", "spdfp2", "pdfp"])
def test_records_over_many_blocks_match_the_one_epoch_transcription(monkeypatch, c_lane, lane,
                                                                    kind, sched):
    # the steps call writes each epoch's dual scale and a_k weight beside its
    # snapshot, and epoch 0's come from the run; every record, in each of
    # four blocks, keeps the bits of the error columns worked out for its
    # epoch alone, with gamma(k - 1) and gamma(k) ** 2 / lam
    spec = fused_spec("square", 0.1)
    cfg = SolverConfig(schedule=sched, lam=0.8 / spec.B.spectrum.rho_max, p=5, seed=12,
                       max_epochs=13)
    rng = np.random.default_rng(42)
    ref = Reference(x_star=rng.standard_normal(6), v_star=rng.standard_normal(4),
                    objective_star=0.7)
    sizes = []
    block_records = solvers._block_records
    monkeypatch.setattr(solvers, "_block_records",
                        lambda *a: sizes.append(len(a[4])) or block_records(*a))
    monkeypatch.setattr(solvers, "_RECORD_BLOCK", 4 * 37)  # four rows of x, v, A x and B x
    recs, states = run_on_lane(monkeypatch, c_lane if lane == "c" else None, kind, spec,
                               ProxSpec("l1", 0.2), cfg, reference=ref)
    assert sizes == [4, 4, 4, 2]
    per_epoch = 1 if kind == "pdfp" else 5
    assert [r.epoch for r in recs] == list(range(cfg.max_epochs + 1))
    for epoch, (rec, (x, v)) in enumerate(zip(recs, states)):
        check_record_bits(rec, kind, spec, cfg, ref, x, v, 1 + epoch * per_epoch)


def rate_spec():
    # the n = 64, d = 8 graph instance of the rate experiment (criterion 7)
    rng = np.random.default_rng(11)
    n, d = 64, 8
    A = rng.standard_normal((n, d))
    b = A @ rng.standard_normal(d) + 0.05 * rng.standard_normal(n)
    G = SparseMatrix.from_coo(3, d, [0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 7],
                              [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    return ProblemSpec(loss="square", dataset=Dataset(SparseMatrix.from_dense(A), b),
                       l2_weight=1.0, composite_weight=0.1, B=stack_identity(G))


def logistic_spec():
    # a logistic graph lasso: correlated feature pairs, half the entries
    # zeroed, +-1 labels from a logistic model
    rng = np.random.default_rng(12)
    n, d = 300, 12
    A = np.repeat(rng.standard_normal((n, d // 2)), 2, axis=1) + 0.5 * rng.standard_normal((n, d))
    A *= rng.random((n, d)) < 0.5
    b = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-A @ rng.standard_normal(d))), 1.0, -1.0)
    G = SparseMatrix.from_coo(d // 2, d, np.repeat(np.arange(d // 2), 2), np.arange(d),
                              np.tile([1.0, -1.0], d // 2))
    return ProblemSpec(loss="logistic", dataset=Dataset(SparseMatrix.from_dense(A), b),
                       l2_weight=0.01, composite_weight=0.05, B=stack_identity(G))


@pytest.mark.parametrize("instance", ["desk", "rate", "logistic"])
def test_ground_truth_same_bits_on_both_paths(monkeypatch, c_lane, instance):
    make = {"desk": lambda: synth_fused_lasso(1000, 50, 0.05, 0.01, 7, mu=0.1),
            "rate": rate_spec, "logistic": logistic_spec}[instance]
    truths = []
    for lane in (c_lane, None):
        monkeypatch.setattr(kernels, "LANE", lane)
        # new matrices, whose kept views (objective_star's A x) take this lane
        truths.append(compute_ground_truth(make()))
    a, b = truths
    for name in ("x_star", "v_star", "objective_star", "residual"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    assert a.iterations == b.iterations < harness.DEFAULT_TRUTH_ITERS
    assert a.residual < 1e-12


@pytest.mark.parametrize("instance", ["rate", "logistic"])
def test_truth_stop_is_the_residual_of_the_pair_before_the_last_step(monkeypatch, c_lane,
                                                                    instance):
    # the truth stops on the length of a chunk's last step, which is the
    # fixed-point residual of the pair before it up to rounding in x and v
    make = {"rate": rate_spec, "logistic": logistic_spec}[instance]
    step_length = harness._step_length
    for lane in (c_lane, None):
        monkeypatch.setattr(kernels, "LANE", lane)
        spec = make()  # new matrices, whose kept views take this lane
        seen = []

        def spy(x_prev, v_prev, x, v):
            seen.append((x_prev.copy(), v_prev.copy(), step_length(x_prev, v_prev, x, v)))
            return seen[-1][2]

        monkeypatch.setattr(harness, "_step_length", spy)
        gt = compute_ground_truth(spec)
        assert len(seen) == gt.iterations // harness._TRUTH_CHUNK
        assert seen[-1][2] <= harness.TRUTH_TARGET < seen[-2][2]
        for x_prev, v_prev, length in seen:
            residual = fixed_point_residual(spec, prox_for(spec), gt.gamma, gt.lam,
                                            x_prev, v_prev)
            scale = np.linalg.norm(x_prev) + np.linalg.norm(v_prev)
            assert abs(length - residual) <= 1e-15 * scale


def test_capped_truth_same_bits_on_both_paths(monkeypatch, c_lane):
    # caps that end in a partial chunk, down to a single step
    for cap in (26, 1):
        truths = []
        for lane in (c_lane, None):
            monkeypatch.setattr(kernels, "LANE", lane)
            with pytest.warns(RuntimeWarning, match=f"cap of {cap} iterations"):
                truths.append(compute_ground_truth(rate_spec(), iters=cap))
        a, b = truths
        assert a.iterations == b.iterations == cap
        for name in ("x_star", "v_star", "objective_star", "residual"):
            assert_same_bits(getattr(a, name), getattr(b, name))


def ragged_spec(loss):
    # n = 23, not a multiple of 4, so the four-row passes over A end in
    # leftover rows; rows of unequal length, so each pass finishes rows past
    # the shortest one; an empty row and two empty columns, which the
    # scatter A^T w never writes into
    rng = np.random.default_rng(31)
    n, d = 23, 7
    A = rng.standard_normal((n, d))
    A[rng.random((n, d)) < rng.uniform(0.0, 0.8, (n, 1))] = 0.0
    A[:, [2, 5]] = 0.0
    A[9] = 0.0
    b = rng.standard_normal(n) if loss == "square" else rng.choice([-1.0, 1.0], n)
    G = SparseMatrix.from_coo(3, d, [0, 0, 1, 1, 2, 2], [0, 1, 3, 4, 5, 6],
                              [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    return ProblemSpec(loss=loss, dataset=Dataset(SparseMatrix.from_dense(A), b),
                       l2_weight=0.1, composite_weight=0.1, B=stack_identity(G))


@pytest.mark.parametrize("loss", ["square", "logistic"])
def test_full_range_steps_scatter_with_the_python_bits(monkeypatch, c_lane, loss):
    spec = ragged_spec(loss)
    A = spec.dataset.samples
    lengths = np.diff(A.indptr)
    assert len(set(lengths)) > 3 and 0 in lengths and 0 in np.bincount(A.indices, minlength=7)
    truths = []
    for lane in (c_lane, None):
        monkeypatch.setattr(kernels, "LANE", lane)
        truths.append(compute_ground_truth(spec))
    a, b = truths
    assert a.iterations == b.iterations < harness.DEFAULT_TRUTH_ITERS
    for name in ("x_star", "v_star", "objective_star", "residual"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    ref, prox_spec = a.reference(), prox_for(spec)
    pdfp = SolverConfig(schedule=ConstantSchedule(a.gamma), lam=a.lam, p=spec.n, max_epochs=30)
    whole = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=a.lam, p=spec.n,
                         max_epochs=30, seed=4)
    batches = replace(whole, p=5)
    for kind, cfg in (("pdfp", pdfp), ("spdfp1", whole), ("spdfp2", batches)):
        assert_same_run(*[run_on_lane(monkeypatch, lane, kind, spec, prox_spec, cfg, reference=ref)
                          for lane in (c_lane, None)])


def test_every_run_over_a_dense_a_holds_its_transpose(c_lane):
    # the dense copy of A^T whose columns a step's A x sweeps, held by every
    # run over a dense A, mini-batch runs included; a run over a sparse A,
    # of any range, holds none and takes A x by rows
    cfg = SolverConfig(schedule=ConstantSchedule(0.1), lam=0.5, p=1)
    prox_spec = ProxSpec("l1", 0.5)
    for spec, dense in ((ragged_spec("square"), False), (dense_spec("square", 23, 9, seed=5), True),
                        (dense_spec("logistic", 23, 9, seed=5), True)):
        A = spec.dataset.samples
        for ranges in (((0, A.n_rows),), ((3, 20),), ((0, 8), (8, 16), (16, A.n_rows))):
            x, v = np.zeros(A.n_cols), np.zeros(spec.B.n_rows)
            steps = c_lane.steps("spdfp2", spec, prox_spec, cfg, ranges, x, v)
            At = steps._keep[2]
            if not dense:
                assert At is None and steps._run.At is None
                continue
            assert At.shape == (A.n_cols, A.n_rows) and At.flags.c_contiguous
            assert steps._run.At == At.ctypes.data
            assert_same_bits(At, A.to_dense().T)


def test_a_full_range_step_keeps_the_bits_of_special_values(monkeypatch, c_lane):
    # one pdfp step over all rows of a sparse A, which scatters A^T w over
    # A's entries, against the reference step's bincount scatter; A and x
    # hold signed zeros and subnormals, and in every other trial inf and NaN
    # too
    rng = np.random.default_rng(13)
    finite = SPECIAL[np.isfinite(SPECIAL)]
    for trial in range(120):
        specials = SPECIAL if trial % 2 else finite
        A = random_csr(rng)
        data = A.data.copy()
        mask = rng.random(len(data)) < 0.1
        data[mask] = rng.choice(specials, int(mask.sum()))
        A = SparseMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, data)
        B = random_csr(rng, A.n_cols)
        spec = ProblemSpec(loss="square", dataset=Dataset(A, rng.standard_normal(A.n_rows)),
                           l2_weight=0.0, composite_weight=0.5, B=B)
        cfg = SolverConfig(schedule=ConstantSchedule(0.1), lam=0.5, p=1)
        prox_spec = ProxSpec("l1", 0.5)
        x0 = rng.standard_normal(A.n_cols)
        x0[rng.random(A.n_cols) < 0.1] = rng.choice(specials)
        v0 = rng.standard_normal(B.n_rows)
        x, v = x0.copy(), v0.copy()
        steps = c_lane.steps("pdfp", spec, prox_spec, cfg, ((0, A.n_rows),), x, v)
        assert steps._run.At is None or A.nnz == A.n_rows * A.n_cols
        monkeypatch.setattr(kernels, "LANE", None)
        ctx = solvers._RunContext(spec, prox_spec, ((0, A.n_rows),))
        with np.errstate(all="ignore"):
            steps(ONE_STEP)
            want = reference_step("pdfp", ctx, cfg, 1, ctx.batches[0], x0, v0)
        for got, ref in zip((x, v), want):
            assert_same_bits_but_nan_signs(got, ref)


# ---------------------------------------------------------------------------
# lane parity on generated problems

# the nonzero entries of generated problems: subnormals among them
PARITY_VALUES = [-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 5e-324, -5e-324, 2.2e-308, -1e-310]


@st.composite
def parity_problems(draw):
    """A small ProblemSpec and a start x0, v0: A (n x d) and B (m x d) hold
    PARITY_VALUES and zeros, so their rows and columns may be empty, and
    some of their entries are explicit +-0.0; every loss, and an l1 or no
    prox. Labels of the square loss, x0 and v0 hold signed zeros and
    subnormals too."""
    n, d, m = draw(st.integers(1, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entries = st.sampled_from([0.0] * 4 + PARITY_VALUES)
    signed = st.sampled_from([0.0, -0.0, *PARITY_VALUES])

    def vector(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)

    def matrix(rows):
        M = SparseMatrix.from_dense(vector(entries, rows * d).reshape(rows, d))
        zeros = draw(st.lists(st.sampled_from([None, None, 0.0, -0.0]),
                              min_size=M.nnz, max_size=M.nnz))
        data = [a if z is None else z for a, z in zip(M.data, zeros)]
        return SparseMatrix(M.n_rows, M.n_cols, M.indptr, M.indices, data)

    loss = draw(st.sampled_from(["square", "hinge", "logistic"]))
    labels = vector(signed if loss == "square" else st.sampled_from([-1.0, 1.0]), n)
    spec = ProblemSpec(loss=loss, dataset=Dataset(matrix(n), labels),
                       l2_weight=draw(st.sampled_from([0.0, 0.1])),
                       composite_weight=draw(st.sampled_from([0.0, 0.3])), B=matrix(m))
    return spec, vector(signed, d), vector(signed, m)


def assert_same_bits_in(got, want):
    """assert_same_bits_but_nan_signs over nested lists of arrays, floats
    and Nones."""
    if isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits_in(a, b)
    elif got is None or want is None:
        assert got is want is None
    else:
        assert_same_bits_but_nan_signs(got, want)


# the function-scoped fixture is the autouse numpy_reference, whose LANE
# each example sets itself
@settings(max_examples=50, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parity_problems(), st.data())
def test_lanes_give_the_same_bits_on_generated_problems(monkeypatch, c_lane, problem, data):
    # the records, snapshots and truths of both lanes, over generated
    # problems: every solver, and a run with on_step; batch sizes that may
    # not divide n, constant and decaying steps, lambda under the guard
    # 1 / (||B||_1 ||B||_inf) and at most 1, and record blocks of one to a
    # few epochs
    spec, x0, v0 = problem
    draw = data.draw
    B = np.abs(spec.B.to_dense())
    lam = draw(st.sampled_from([0.3, 0.99])) / max(B.sum(axis=0).max() * B.sum(axis=1).max(), 1.0)
    c = draw(st.sampled_from([0.05, 0.5, 2.0]))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    cfg = SolverConfig(schedule=ConstantSchedule(c) if alpha == 0 else StepSchedule(c, alpha),
                       lam=lam, p=draw(st.integers(1, spec.n)), seed=draw(st.integers(0, 9)),
                       max_epochs=draw(st.integers(0, 8)))
    constant = replace(cfg, schedule=ConstantSchedule(c),
                       stop_tolerance=draw(st.sampled_from([0.0, 1e-3])))
    row = spec.dim + spec.n + 2 * spec.B.n_rows  # the doubles of one epoch's record
    block = draw(st.sampled_from([1, 2 * row, 5 * row, solvers._RECORD_BLOCK]))
    admm = solvers.AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    ref = Reference(x_star=x0[::-1].copy(), v_star=v0[::-1].copy(), objective_star=0.25)
    prox_spec = prox_for(spec)
    watched = draw(st.sampled_from(["spdfp1", "spdfp2"]))  # the kind of the on_step run
    iters = draw(st.integers(1, 60))
    lanes = []
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # diverged runs and capped truths warn
        for lane in (c_lane, None):
            seen, got = [], []
            runs = [("pdfp", constant, {"v0": v0}), ("spdfp1", cfg, {"v0": v0}),
                    ("spdfp2", cfg, {"v0": v0}), ("stoc_admm", cfg, {"admm_cfg": admm}),
                    (watched, cfg, {"v0": v0, "on_step": lambda s: seen.append([s.x, s.v])})]
            with monkeypatch.context() as m:
                m.setattr(solvers, "_RECORD_BLOCK", block)
                for kind, run_cfg, extra in runs:
                    recs, states = run_on_lane(m, lane, kind, spec, prox_spec, run_cfg,
                                               x0=x0, reference=ref, **extra)
                    got.append([[col for name, col in zip(solvers.COLUMNS, recs.columns)
                                 if name != "wall_time"], states])
                m.setattr(kernels, "LANE", lane)
                truth = compute_ground_truth(spec, constant, iters=iters)
            lanes.append([got, seen, [getattr(truth, f.name) for f in fields(truth)]])
    assert_same_bits_in(*lanes)


# ---------------------------------------------------------------------------
# full rows: the column sweep

# finite values a dense problem's data holds beside normal draws: signed
# zeros, stored as entries, and subnormals
DENSE_FINITE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])


def dense_matrix(rng, n_rows, n_cols, specials, share=0.15):
    """An n_rows x n_cols SparseMatrix whose rows are all full, zeros of
    either sign stored as entries: about share of them are specials."""
    data = with_specials(rng, rng.standard_normal(n_rows * n_cols), share, specials)
    return SparseMatrix(n_rows, n_cols, np.arange(n_rows + 1) * n_cols,
                        np.tile(np.arange(n_cols), n_rows), data)


# the shapes of the dense tests: neither side a multiple of 2 or 8, so the
# sweep's eight-column blocks, its pairs and its last odd column all run,
# and the same with one side 8 and one side 1
DENSE_SHAPES = [(1, 1), (3, 5), (8, 1), (13, 9), (23, 17), (37, 27)]


def test_full_rows_sweep_with_the_numpy_bits(c_lane, unoptimised_lane):
    # RowView products over full rows, on both C builds against the NumPy
    # lane: rmatvec sweeps, of one vector and of a stack (spdfp_rows'
    # transpose product), over row ranges that start anywhere; data and
    # vectors hold signed zeros, subnormals, inf and NaN
    rng = np.random.default_rng(81)
    for n_rows, n_cols in DENSE_SHAPES:
        for trial in range(8):
            M = dense_matrix(rng, n_rows, n_cols, SPECIAL if trial % 2 else DENSE_FINITE)
            lo = int(rng.integers(0, n_rows + 1))
            hi = int(rng.integers(lo, n_rows + 1))
            Y = with_specials(rng, rng.standard_normal((5, hi - lo)), 0.15)
            x = with_specials(rng, rng.standard_normal(n_cols), 0.15)
            view = M.row_view(lo, hi)
            with np.errstate(invalid="ignore", over="ignore"):
                want = (view.rmatvec(Y[0]), [view.rmatvec(y) for y in Y], view.matvec(x))
                for lane in (c_lane, unoptimised_lane):
                    product = lane.rows(M, lo, hi)  # these views are below C_PRODUCT_ENTRIES
                    got = (product(Y[0], True, False), product(Y, True, True),
                           product(x, False, False))
                    for a, b in zip(got, want):
                        assert_same_bits_but_nan_signs(a, b)


def dense_spec(loss, n, d, seed):
    """A problem on an n x d A of full rows whose data hold DENSE_FINITE
    values, B = [G; I] with a chain G."""
    rng = np.random.default_rng(seed)
    A = dense_matrix(rng, n, d, DENSE_FINITE)
    b = (with_specials(rng, rng.standard_normal(n), 0.15, DENSE_FINITE) if loss == "square"
         else rng.choice([-1.0, 1.0], n))
    G = sparse.build_difference_matrix(d)
    return ProblemSpec(loss=loss, dataset=Dataset(A, b), l2_weight=0.01,
                       composite_weight=0.1, B=stack_identity(G))


@pytest.mark.parametrize("loss", ["square", "logistic"])
@pytest.mark.parametrize("n,d,p", [pytest.param(37, 27, 7, id="37-27"),
                                   pytest.param(45, 9, 7, id="45-9"),
                                   pytest.param(45, 9, 19, id="45-9-19")])
def test_dense_problems_give_the_same_bits_on_every_lane(monkeypatch, c_lane, unoptimised_lane,
                                                         loss, n, d, p):
    # the truth, a pdfp run and spdfp1 / spdfp2 runs with p < n, whose
    # batches start at multiples of p and end in a short one, so that with
    # p = 19 a batch's A x sweeps eight columns of A's transpose at a time:
    # the C lane at the shipped flags and at -O0, against the NumPy lane
    spec = dense_spec(loss, n, d, seed=n + d)
    A = spec.dataset.samples
    assert np.all(np.diff(A.indptr) == d) and np.any(bits(A.data) == bits(-0.0))
    truths, runs = [], []
    for lane in (c_lane, unoptimised_lane, None):
        monkeypatch.setattr(kernels, "LANE", lane)
        truths.append(compute_ground_truth(spec, iters=600))
        gt = truths[-1]
        ref, prox_spec = gt.reference(), prox_for(spec)
        pdfp = SolverConfig(schedule=ConstantSchedule(gt.gamma), lam=gt.lam, p=n, max_epochs=20)
        batches = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=gt.lam, p=p,
                               max_epochs=6, seed=3)
        runs.append([run_on_lane(monkeypatch, lane, kind, spec, prox_spec, cfg, reference=ref)
                     for kind, cfg in (("pdfp", pdfp), ("spdfp1", batches),
                                       ("spdfp2", batches))])
    for got in (0, 1):
        for name in ("x_star", "v_star", "objective_star", "residual", "iterations"):
            assert_same_bits(getattr(truths[got], name), getattr(truths[2], name))
        for a, b in zip(runs[got], runs[2]):
            assert_same_run(a, b)


@pytest.mark.parametrize("rows", ["all", "batch"])
def test_a_dense_step_keeps_the_bits_of_special_values(monkeypatch, c_lane, unoptimised_lane,
                                                       rows):
    # one pdfp step over all rows of a dense A or one spdfp2 step over a
    # batch that starts at row 3 and ends before the last, each with A x
    # swept from a dense copy of A's transpose and A^T w from A, against
    # the reference step: A, x and v hold signed zeros and subnormals, and
    # in every other trial inf and NaN too
    rng = np.random.default_rng(83)
    shapes = [(n, d) for n, d in DENSE_SHAPES if rows == "all" or n >= 5]
    for trial, (n, d) in enumerate(shapes * 4):
        specials = SPECIAL if trial % 2 else DENSE_FINITE
        A = dense_matrix(rng, n, d, specials)
        B = random_csr(rng, d)
        spec = ProblemSpec(loss="square", dataset=Dataset(A, rng.standard_normal(n)),
                           l2_weight=0.1, composite_weight=0.5, B=B)
        kind, lo, hi = ("pdfp", 0, n) if rows == "all" else ("spdfp2", 3, n - 1)
        cfg = SolverConfig(schedule=ConstantSchedule(0.1), lam=0.5, p=1)
        prox_spec = ProxSpec("l1", 0.5)
        x0 = with_specials(rng, rng.standard_normal(d), 0.15, specials)
        v0 = with_specials(rng, rng.standard_normal(B.n_rows), 0.15, specials)
        ctx = solvers._RunContext(spec, prox_spec, ((lo, hi),))
        with np.errstate(all="ignore"):
            want = reference_step(kind, ctx, cfg, 1, ctx.batches[0], x0, v0)
            for lane in (c_lane, unoptimised_lane):
                x, v = x0.copy(), v0.copy()
                steps = lane.steps(kind, spec, prox_spec, cfg, ((lo, hi),), x, v)
                assert steps._run.At is not None
                steps(ONE_STEP)
                for got, ref in zip((x, v), want):
                    assert_same_bits_but_nan_signs(got, ref)
