import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdfp.sparse import (
    SparseMatrix,
    build_difference_matrix,
    estimate_spectrum,
    identity,
    stack_identity,
)


def random_sparse(rng, n_rows, n_cols, density=0.3):
    nnz = max(1, int(density * n_rows * n_cols))
    return SparseMatrix.from_coo(
        n_rows, n_cols,
        rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz),
        rng.standard_normal(nnz))


def test_from_coo_canonicalizes():
    # duplicates summed, exact zeros dropped, columns sorted within rows
    M = SparseMatrix.from_coo(2, 3, [0, 0, 0, 1, 1], [2, 0, 2, 1, 1],
                              [1.0, 5.0, -1.0, 2.0, -2.0])
    assert M.nnz == 1
    np.testing.assert_array_equal(M.to_dense(), [[5.0, 0, 0], [0, 0, 0]])
    M2 = SparseMatrix.from_coo(1, 4, [0, 0, 0], [3, 0, 2], [1.0, 2.0, 3.0])
    assert list(M2.indices) == [0, 2, 3]


def test_from_coo_rejects_bad_indices():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, 2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, 2, [0], [-1], [1.0])


def test_constructor_rejects_malformed_indptr():
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(2, 3, [0, 10, 3], [0, 1, 2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(3, 3, [0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="malformed"):
        SparseMatrix(2, 3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
    M = SparseMatrix(3, 3, [0, 2, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0])  # empty row 1
    np.testing.assert_array_equal(M.matvec(np.ones(3)), [2.0, 0.0, 1.0])


def test_constructor_refuses_a_row_out_of_column_order_and_names_it():
    # canonical CSR: strictly increasing columns within a row. Across a row
    # boundary, or an empty row, any order is fine; stored zeros are kept
    with pytest.raises(ValueError, match=r"^row 0: column indices must be strictly "
                                         r"increasing \(canonical CSR\), got 2 then 0$"):
        SparseMatrix(2, 3, [0, 2, 3], [2, 0, 1], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"^row 3: .*got 1 then 1$"):
        SparseMatrix(4, 3, [0, 2, 2, 2, 4], [1, 2, 1, 1], [1.0] * 4)
    with pytest.raises(ValueError, match=r"^row 1: .*got 2 then 1$"):
        SparseMatrix(3, 3, [0, 0, 2, 3], [2, 1, 0], [1.0] * 3)
    M = SparseMatrix(4, 3, [0, 0, 3, 3, 4], [0, 1, 2, 0], [1.0, 0.0, -0.0, 2.0])
    assert M.nnz == 4 and list(M.indices) == [0, 1, 2, 0]
    assert SparseMatrix(2, 0, [0, 0, 0], [], []).nnz == 0


def test_matvec_adjoint_consistency():
    # <Bu, v> == <u, B^T v> to 1e-12 relative
    rng = np.random.default_rng(1)
    for _ in range(50):
        M = random_sparse(rng, int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        u = rng.standard_normal(M.n_cols)
        v = rng.standard_normal(M.n_rows)
        lhs = M.matvec(u) @ v
        rhs = u @ M.rmatvec(v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_matvec_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = random_sparse(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        D = M.to_dense()
        x = rng.standard_normal(M.n_cols)
        y = rng.standard_normal(M.n_rows)
        np.testing.assert_allclose(M.matvec(x), D @ x, atol=1e-14)
        np.testing.assert_allclose(M.rmatvec(y), D.T @ y, atol=1e-14)


def test_row_block_and_range_ops():
    rng = np.random.default_rng(3)
    M = random_sparse(rng, 9, 5)
    D = M.to_dense()
    x = rng.standard_normal(5)
    w = rng.standard_normal(5)
    np.testing.assert_array_equal(M.row_block(2, 7).to_dense(), D[2:7])
    view = M.row_view(2, 7)
    np.testing.assert_allclose(view.matvec(x), D[2:7] @ x, atol=1e-14)
    np.testing.assert_allclose(view.rmatvec(w), D[2:7].T @ w, atol=1e-14)
    np.testing.assert_array_equal(M.row_view(0, 9).matvec(x), M.matvec(x))


def test_range_products_reject_bad_input():
    M = random_sparse(np.random.default_rng(4), 6, 4)
    for bad_x in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ValueError):
            M.matvec(bad_x)
    for start, stop in ((-1, 2), (3, 2), (0, 7)):
        with pytest.raises(ValueError):
            M.row_view(start, stop)
    for bad_y in (np.zeros(4), np.zeros(7), np.zeros((6, 1))):
        with pytest.raises(ValueError):
            M.rmatvec(bad_y)


def test_difference_matrix_rows():
    B = build_difference_matrix(3)
    np.testing.assert_array_equal(B.to_dense(), [[-1, 1, 0], [0, -1, 1]])
    B2 = build_difference_matrix(2)
    np.testing.assert_array_equal(B2.to_dense(), [[-1, 1]])


def test_difference_matrix_matvec():
    B = build_difference_matrix(5)
    np.testing.assert_allclose(B.matvec(np.array([1.0, 2, 3, 4, 5])), np.ones(4))


def test_difference_matrix_rejects_small_d():
    with pytest.raises(ValueError):
        build_difference_matrix(1)


def test_stack_identity_basic():
    G = SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [1.0, -1.0])
    S = stack_identity(G)
    np.testing.assert_array_equal(S.to_dense(), [[1, -1], [1, 0], [0, 1]])


def test_stack_identity_empty_graph():
    G = SparseMatrix.from_coo(0, 4, [], [], [])
    S = stack_identity(G)
    np.testing.assert_array_equal(S.to_dense(), np.eye(4))


def test_stack_identity_full_column_rank():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        G = random_sparse(rng, int(rng.integers(0, 5) + 1), d)
        S = stack_identity(G)
        assert np.linalg.matrix_rank(S.to_dense()) == d


def test_spectrum_identity():
    est = estimate_spectrum(identity(3), tol=1e-12)
    assert est.converged
    assert est.rho_max == pytest.approx(1.0, abs=1e-9)


def test_spectrum_diagonal():
    M = SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    est = estimate_spectrum(M, tol=1e-12)
    assert est.rho_max == pytest.approx(9.0, rel=1e-8)


def test_spectrum_difference_matrix_against_dense():
    # B B^T of the difference operator is tridiag(-1, 2, -1) of order d - 1,
    # whose largest eigenvalue is 4 sin^2(pi (d - 1) / (2 d))
    for d in (2, 3, 10, 40, 100):
        B = build_difference_matrix(d)
        est = estimate_spectrum(B)
        exact = 4.0 * np.sin(np.pi * (d - 1) / (2 * d)) ** 2
        assert est.converged
        assert est.rho_max == pytest.approx(exact, rel=1e-14, abs=0)
        assert est.iterations_used <= d - 1
    B = build_difference_matrix(10)
    dense = np.linalg.eigvalsh(B.to_dense() @ B.to_dense().T)
    assert estimate_spectrum(B).rho_max == pytest.approx(dense.max(), rel=1e-14, abs=0)


def test_spectrum_rayleigh_lower_bound():
    rng = np.random.default_rng(5)
    shapes = [(int(rng.integers(2, 10)), int(rng.integers(2, 10))) for _ in range(10)]
    # tall and wide: the estimate runs on B^T B and on B B^T
    shapes += [(120, 30), (30, 120), (200, 200)]
    for n_rows, n_cols in shapes:
        B = random_sparse(rng, n_rows, n_cols)
        est = estimate_spectrum(B, tol=1e-12, max_iter=100000)
        assert est.converged
        assert est.iterations_used <= min(n_rows, n_cols)
        D = B.to_dense()
        dense = np.linalg.eigvalsh(D.T @ D if n_cols <= n_rows else D @ D.T).max()
        assert est.rho_max == pytest.approx(dense, rel=1e-13, abs=0)
        for _ in range(5):
            u = rng.standard_normal(B.n_cols)
            rayleigh = np.sum(B.matvec(u) ** 2) / (u @ u)
            assert est.rho_max >= rayleigh - 1e-8 * max(1.0, rayleigh)


def test_spectrum_nonconvergence_flag():
    B = build_difference_matrix(40)
    est = estimate_spectrum(B, tol=1e-15, max_iter=3)
    assert not est.converged
    assert est.iterations_used == 3


def test_matrix_keeps_its_spectrum():
    rng = np.random.default_rng(6)
    for M in (random_sparse(rng, 30, 7), random_sparse(rng, 7, 30), build_difference_matrix(9)):
        est = M.spectrum
        assert M.spectrum is est
        fresh = estimate_spectrum(M)
        assert fresh is not est
        assert dataclasses.astuple(est) == dataclasses.astuple(fresh)
        assert est.converged and 0 <= est.residual <= 1e-10 * est.rho_max
    # a row block is another matrix, with its own estimate
    assert M.row_block(0, 4).spectrum is not M.spectrum


def test_matrix_keeps_one_view_for_its_products():
    # matvec and rmatvec apply the matrix's kept RowView of all rows, whose
    # entries the first product builds; a second product reuses them
    M = build_difference_matrix(6)
    view = M.row_view(0, 5)
    assert view._entries is None
    np.testing.assert_array_equal(M.matvec(np.arange(6.0)), np.ones(5))
    entries = view._entries
    assert entries is not None
    with mock.patch.object(np, "arange", side_effect=AssertionError("entries rebuilt")):
        np.testing.assert_array_equal(M.rmatvec(np.ones(5)), [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(M.matvec(np.ones(6)), np.zeros(5))
    assert M.row_view(0, 5) is view and view._entries is entries


def test_from_dense_holds_one_mask_past_its_output():
    # tracemalloc's peak over from_dense on a 2000 x 100 half-dense array:
    # the CSR arrays it returns, one boolean mask of the array (which the
    # constructor's check of nnz booleans never outgrows) and 4 KiB, the
    # size of neither, for array headers and the like
    rng = np.random.default_rng(38)
    a = rng.standard_normal((2000, 100)) * (rng.random((2000, 100)) < 0.5)
    tracemalloc.start()
    try:
        M = SparseMatrix.from_dense(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.nnz == np.count_nonzero(a)
    assert peak <= M.indptr.nbytes + M.indices.nbytes + M.data.nbytes + a.size + 4096


def test_spectrum_rejects_empty_and_bad_tol():
    with pytest.raises(ValueError):
        estimate_spectrum(SparseMatrix.from_coo(0, 3, [], [], []))
    with pytest.raises(ValueError):
        estimate_spectrum(identity(2), tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        estimate_spectrum(identity(2), max_iter=0)


def test_immutability():
    B = build_difference_matrix(4)
    with pytest.raises(ValueError):
        B.data[0] = 5.0


# ---------------------------------------------------------------------------
# properties, over small random matrices whose entries are small integers,
# so that sums are exact, duplicates can cancel and every product can be
# compared with the dense one for equality

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                             derandomize=True)


@st.composite
def coo_triples(draw, max_side=6):
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    count = draw(st.integers(0, 3 * n_rows * n_cols)) if n_rows and n_cols else 0
    rows = draw(st.lists(st.integers(0, max(n_rows - 1, 0)), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, max(n_cols - 1, 0)), min_size=count, max_size=count))
    vals = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
                         min_size=count, max_size=count))
    return n_rows, n_cols, rows, cols, vals


@PROPERTY_SETTINGS
@given(coo_triples())
def test_from_coo_is_canonical_csr_of_the_summed_entries(triples):
    n_rows, n_cols, rows, cols, vals = triples
    M = SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
    dense = np.zeros((n_rows, n_cols))
    np.add.at(dense, (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)), vals)
    np.testing.assert_array_equal(M.to_dense(), dense)
    assert M.indptr[0] == 0 and np.all(np.diff(M.indptr) >= 0) and M.indptr[-1] == M.nnz
    for i in range(n_rows):
        # sorted, each column once (duplicates summed), no zero kept
        assert np.all(np.diff(M.indices[M.indptr[i]:M.indptr[i + 1]]) > 0)
    assert np.all(M.data != 0.0)
    assert M.nnz == np.count_nonzero(dense)


@PROPERTY_SETTINGS
@given(coo_triples(), st.data())
def test_row_view_products_equal_dense_ones(triples, data):
    n_rows, n_cols, rows, cols, vals = triples
    M = SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
    lo = data.draw(st.integers(0, n_rows))
    hi = data.draw(st.integers(lo, n_rows))
    small = st.integers(-3, 3).map(float)
    x = np.array(data.draw(st.lists(small, min_size=n_cols, max_size=n_cols)), dtype=np.float64)
    y = np.array(data.draw(st.lists(small, min_size=hi - lo, max_size=hi - lo)),
                 dtype=np.float64)
    view, dense = M.row_view(lo, hi), M.to_dense()[lo:hi]
    for got, want in ((view.matvec(x), dense @ x), (view.rmatvec(y), dense.T @ y)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


# from_coo takes entries strictly increasing in (row, column) as they come,
# and sorts and sums any others; both paths must give the same bits, NaN,
# infinities and subnormals included, and drop zeros of either sign

SPECIAL = st.sampled_from([0.0, -0.0, float("nan"), -float("nan"), float("inf"),
                           -float("inf"), 5e-324, -5e-324, 1.0, -2.5])


@st.composite
def ordered_entries(draw, max_side=6):
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, max(n_rows - 1, 0)),
                                          st.integers(0, max(n_cols - 1, 0))),
                                max_size=n_rows * n_cols)))
    vals = draw(st.lists(st.floats() | SPECIAL, min_size=len(cells), max_size=len(cells)))
    return n_rows, n_cols, cells, vals


def csr_bytes(M):
    return M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()


@PROPERTY_SETTINGS
@given(ordered_entries(), st.data())
def test_ordered_and_shuffled_entries_give_the_same_bits(entries, data):
    n_rows, n_cols, cells, vals = entries
    order = data.draw(st.permutations(range(len(cells))))
    if len(cells) > 1 and order == sorted(order):
        order = order[::-1]
    built = []
    for perm in (range(len(cells)), order):
        rows = [cells[i][0] for i in perm]
        cols = [cells[i][1] for i in perm]
        with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
            built.append(SparseMatrix.from_coo(n_rows, n_cols, rows, cols,
                                               [vals[i] for i in perm]))
        assert lexsort.called == (perm is order and len(cells) > 1)
    fast, sorted_ = built
    assert csr_bytes(fast) == csr_bytes(sorted_)
    kept = [(r, c, 0.0 + v) for (r, c), v in zip(cells, vals) if v != 0.0]
    assert fast.indices.tolist() == [c for _, c, _ in kept]
    assert fast.data.tobytes() == np.array([v for *_, v in kept], dtype=np.float64).tobytes()
    assert fast.indptr.tolist() == [sum(r < i for r, _, _ in kept) for i in range(n_rows + 1)]


@PROPERTY_SETTINGS
@given(coo_triples(), st.data())
def test_duplicates_sum_from_zero_in_input_order(triples, data):
    # each (row, column) keeps 0.0 + v1 + v2 + ..., its values summed in
    # the order they come, and is dropped where that sum is a zero
    n_rows, n_cols, rows, cols, _ = triples
    vals = data.draw(st.lists(st.floats() | SPECIAL, min_size=len(rows), max_size=len(rows)))
    sums = {}
    for r, c, v in zip(rows, cols, vals):
        sums[r, c] = sums.get((r, c), 0.0) + v
    kept = sorted((rc, s) for rc, s in sums.items() if s != 0.0)
    M = SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
    assert M.indices.tolist() == [c for (_, c), _ in kept]
    assert M.data.tobytes() == np.array([s for _, s in kept], dtype=np.float64).tobytes()
    assert np.diff(M.indptr).tolist() == [sum(r == i for (r, _), _ in kept)
                                          for i in range(n_rows)]


# from_dense builds canonical CSR straight from a mask of the nonzero
# entries; from_coo over np.nonzero, the route it replaced, is the oracle
# of its bits, on arrays of any memory order

def from_dense_by_coo(a):
    rows, cols = np.nonzero(a)
    return SparseMatrix.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])


@st.composite
def dense_arrays(draw, max_side=6):
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    values = st.sampled_from([0.0, -0.0, 2.2e-308, -1e-310]) | st.floats() | SPECIAL
    a = np.array(draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols)),
                 dtype=np.float64).reshape(n_rows, n_cols)
    # empty rows and columns, then the layout: C, Fortran, or a transpose
    a[draw(st.lists(st.integers(0, max(n_rows - 1, 0)), max_size=n_rows)), :] = 0.0
    a[:, draw(st.lists(st.integers(0, max(n_cols - 1, 0)), max_size=n_cols))] = -0.0
    layout = draw(st.sampled_from(["C", "F", "transposed"]))
    if layout == "F":
        return np.asfortranarray(a)
    return np.ascontiguousarray(a.T).T if layout == "transposed" else a


@PROPERTY_SETTINGS
@given(dense_arrays())
def test_from_dense_gives_the_bits_of_from_coo_over_nonzero(a):
    M = SparseMatrix.from_dense(a)
    assert M.shape == a.shape
    assert csr_bytes(M) == csr_bytes(from_dense_by_coo(a))
    back = M.to_dense()
    assert back.flags.c_contiguous and back.shape == a.shape
    # a, with -0.0 as +0.0 (NaN compares equal to NaN here)
    np.testing.assert_array_equal(back, a)
    assert not np.signbit(back[back == 0.0]).any()
