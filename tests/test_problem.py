import mpmath
import numpy as np
import pytest

from spdfp.problem import (
    LOSSES,
    Dataset,
    ProblemSpec,
    _objective,
    loss_values,
    loss_weights,
    objective_value,
)
from spdfp.sparse import SparseMatrix, build_difference_matrix, identity


def make_spec(A, b, loss="square", nu=0.0, mu=0.0, B=None):
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=np.asarray(b, dtype=float))
    B = identity(A.shape[1]) if B is None else B
    return ProblemSpec(loss=loss, dataset=ds, l2_weight=nu, composite_weight=mu, B=B)


def test_objective_square_hand_value():
    # mean of 0.5*(a_i'x - b_i)^2 with A = I2, b = 0, x = (3, 4)
    spec = make_spec(np.eye(2), [0.0, 0.0])
    assert objective_value(spec, np.array([3.0, 4.0])) == pytest.approx(6.25, abs=1e-15)


def test_objective_zero_input():
    spec = make_spec(np.eye(3), [0.0, 0.0, 0.0])
    assert objective_value(spec, np.zeros(3)) == 0.0


def test_objective_logistic_at_zero_is_log2():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 3))
    b = rng.choice([-1.0, 1.0], 7)
    spec = make_spec(A, b, loss="logistic")
    assert objective_value(spec, np.zeros(3)) == pytest.approx(np.log(2.0), rel=1e-14)


def test_objective_includes_l2_and_composite():
    B = build_difference_matrix(2)
    spec = make_spec(np.eye(2), [0.0, 0.0], nu=2.0, mu=3.0, B=B)
    x = np.array([1.0, -1.0])
    # 0.5*mean(1, 1) + (2/2)*2 + 3*|(-2)| = 0.5 + 2 + 6
    assert objective_value(spec, x) == pytest.approx(8.5, abs=1e-14)


def test_objective_midpoint_convexity():
    rng = np.random.default_rng(1)
    for loss in ("square", "logistic", "hinge"):
        A = rng.standard_normal((12, 4))
        b = rng.choice([-1.0, 1.0], 12) if loss != "square" else rng.standard_normal(12)
        spec = make_spec(A, b, loss=loss, nu=0.3, mu=0.2, B=build_difference_matrix(4))
        for _ in range(25):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            fx, fy = objective_value(spec, x), objective_value(spec, y)
            fmid = objective_value(spec, 0.5 * (x + y))
            assert fmid <= 0.5 * (fx + fy) + 1e-10


def test_objective_dimension_mismatch():
    spec = make_spec(np.eye(2), [0.0, 0.0])
    with pytest.raises(ValueError):
        objective_value(spec, np.zeros(3))


def test_hinge_logistic_require_pm1_labels():
    A = np.eye(2)
    with pytest.raises(ValueError):
        make_spec(A, [0.5, 1.0], loss="hinge")
    with pytest.raises(ValueError):
        make_spec(A, [2.0, -1.0], loss="logistic")
    make_spec(A, [1.0, -1.0], loss="hinge")  # fine


def test_spec_validation():
    A = np.eye(2)
    with pytest.raises(ValueError):
        make_spec(A, [0.0, 0.0], loss="huber")
    with pytest.raises(ValueError):
        make_spec(A, [0.0, 0.0], nu=-1.0)
    with pytest.raises(ValueError):
        make_spec(A, [0.0, 0.0], B=build_difference_matrix(3))
    with pytest.raises(ValueError):
        Dataset(samples=SparseMatrix.from_dense(A), labels=np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite_weights(bad):
    # a NaN fails every comparison, so 'weight < 0' alone let it through
    with pytest.raises(ValueError, match="finite"):
        make_spec(np.eye(2), [0.0, 0.0], nu=bad)
    with pytest.raises(ValueError, match="finite"):
        make_spec(np.eye(2), [0.0, 0.0], mu=bad)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000])
def test_objective_keeps_the_bits_of_mean_and_sum(loss, n):
    # np.add.reduce in place of np.mean / np.sum; the lengths sit on the
    # edges of the pairwise summation blocks (8 and 128 entries)
    rng = np.random.default_rng(n)
    A, G = rng.standard_normal((n, 5)), rng.standard_normal((n, 5))
    b = rng.standard_normal(n) if loss == "square" else rng.choice([-1.0, 1.0], n)
    spec = make_spec(A, b, loss, nu=0.3, mu=0.7, B=SparseMatrix.from_dense(G))
    x = 3.0 * rng.standard_normal(5)
    Ax, Bx = spec.dataset.samples.matvec(x), spec.B.matvec(x)
    want = float(np.mean(loss_values(loss, Ax, spec.dataset.labels)))
    want += 0.5 * 0.3 * float(x @ x)
    want += 0.7 * float(np.sum(np.abs(Bx)))
    bits = np.array([want, _objective(spec, x, Ax, Bx), objective_value(spec, x)]).view(np.int64)
    assert bits[0] == bits[1] == bits[2]


def test_logistic_weights_within_2_ulp_of_mpmath():
    # w = -b / (1 + exp(b z)), for both labels, on a grid over [-745, 745]
    # with zeros and tiny margins; the one-exp form measured at most 1.8 ulp
    z = np.concatenate([np.linspace(-745.0, 745.0, 14901), [-1e-300, 1e-300, -0.0, 0.0]])
    worst = 0.0
    with mpmath.workdps(40):
        for b in (-1.0, 1.0):
            w = loss_weights("logistic", z, np.full(len(z), b))
            for wi, zi in zip(w.tolist(), z.tolist()):
                exact = -b / (1 + mpmath.exp(b * mpmath.mpf(zi)))
                ulp = float(np.spacing(abs(float(exact))))
                worst = max(worst, float(abs(mpmath.mpf(wi) - exact)) / ulp)
    assert worst <= 2.0


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("nu,mu", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (0.3, 0.7)])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000])
def test_stacked_objective_keeps_the_bits_of_each_row(loss, nu, mu, n):
    # a stack of x, A x and B x, one per row, as the run records take it:
    # each row's value has the bits of that row's vector objective, and of
    # the np.mean / np.sum / x @ x form. _objective reads no product itself,
    # so A and B are empty and every length (samples, features, rows of B)
    # is n, on the edges of the pairwise summation and dot product blocks
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n) if loss == "square" else rng.choice([-1.0, 1.0], n)
    spec = make_spec(np.zeros((n, n)), b, loss, nu=nu, mu=mu,
                     B=SparseMatrix.from_coo(n, n, [], [], []))
    for rows in (1, 2, 17):
        X, AX, BX = 3.0 * rng.standard_normal((3, rows, n))
        stacked = _objective(spec, X, AX, BX)
        assert stacked.shape == (rows,)
        for x, Ax, Bx, got in zip(X, AX, BX, stacked):
            x, Ax, Bx = x.copy(), Ax.copy(), Bx.copy()
            want = float(np.mean(loss_values(loss, Ax, spec.dataset.labels)))
            if nu:
                want += 0.5 * nu * float(x @ x)
            if mu:
                want += mu * float(np.sum(np.abs(Bx)))
            bits = np.array([want, _objective(spec, x, Ax, Bx), got]).view(np.int64)
            assert bits[0] == bits[1] == bits[2]
