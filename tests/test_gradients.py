import numpy as np
import pytest

import oracles
from spdfp.gradients import (
    _draw_batch_indices,
    full_gradient,
    make_batch_plan,
    stochastic_gradient,
    variance_constants,
)
from spdfp.problem import Dataset, ProblemSpec, loss_values
from spdfp.sparse import SparseMatrix, identity

LOSSES = ("square", "logistic", "hinge")


def make_spec(A, b, loss="square", nu=0.0):
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=np.asarray(b, dtype=float))
    return ProblemSpec(loss=loss, dataset=ds, l2_weight=nu, composite_weight=0.0,
                       B=identity(A.shape[1]))


def classification_labels(rng, n):
    return rng.choice([-1.0, 1.0], n)


def test_full_gradient_square_hand_value():
    spec = make_spec(np.eye(2), [1.0, 2.0])
    np.testing.assert_allclose(full_gradient(spec, np.zeros(2)), [-0.5, -1.0], atol=1e-15)


def test_full_gradient_l2_term_only():
    # zero data gradient at x=0 margins ... use b=0, x such that data grad vanishes
    spec = make_spec(np.eye(3), [0.0, 0.0, 0.0], nu=0.7)
    x = np.array([1.0, -2.0, 3.0])
    # square data gradient is x/n here; subtract it to isolate: use x=0 instead
    np.testing.assert_allclose(full_gradient(spec, np.zeros(3)), np.zeros(3), atol=1e-15)
    # and with orthogonal-to-data x: A=0 rows impossible; check additivity instead
    spec0 = make_spec(np.eye(3), [0.0, 0.0, 0.0], nu=0.0)
    np.testing.assert_allclose(full_gradient(spec, x) - full_gradient(spec0, x),
                               0.7 * x, atol=1e-15)


def test_full_gradient_logistic_at_zero():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((9, 4))
    b = classification_labels(rng, 9)
    spec = make_spec(A, b, loss="logistic")
    want = -(b[:, None] * A).mean(axis=0) / 2.0
    np.testing.assert_allclose(full_gradient(spec, np.zeros(4)), want, atol=1e-14)


def test_full_gradient_matches_finite_differences():
    # central differences on the mean loss, at points away from hinge kinks
    rng = np.random.default_rng(1)
    for loss in LOSSES:
        A = rng.standard_normal((8, 3))
        b = classification_labels(rng, 8) if loss != "square" else rng.standard_normal(8)
        spec = make_spec(A, b, loss=loss, nu=0.4)
        x = rng.standard_normal(3)
        if loss == "hinge" and np.min(np.abs(b * (A @ x) - 1.0)) < 1e-3:
            x = x + 0.01
        g = full_gradient(spec, x)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            def F(z):
                return (np.mean(loss_values(loss, A @ z, b))
                        + 0.5 * spec.l2_weight * z @ z)
            fd = (F(x + e) - F(x - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=2e-5, abs=2e-6)


def test_batch_plan_contiguous_ranges():
    plan = make_batch_plan(6, 2)
    assert plan.ranges == ((0, 2), (2, 4), (4, 6))
    assert make_batch_plan(5, 5).ranges == ((0, 5),)
    assert make_batch_plan(3, 1).ranges == ((0, 1), (1, 2), (2, 3))


def test_batch_plan_remainder_policy():
    plan = make_batch_plan(7, 3)
    assert plan.ranges == ((0, 3), (3, 6), (6, 7))
    assert oracles.batch_probability(plan, 0) == pytest.approx(3 / 7)
    assert oracles.batch_probability(plan, 2) == pytest.approx(1 / 7)


def test_batch_plan_rejects_bad_p():
    with pytest.raises(ValueError):
        make_batch_plan(4, 0)
    with pytest.raises(ValueError):
        make_batch_plan(4, 5)


def test_single_batch_equals_full_gradient():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 3))
    spec = make_spec(A, rng.standard_normal(6))
    plan = make_batch_plan(6, 6)
    x = rng.standard_normal(3)
    np.testing.assert_array_equal(stochastic_gradient(spec, plan, 0, x),
                                  full_gradient(spec, x))


def test_singleton_batch_hand_value():
    spec = make_spec(np.eye(2), [1.0, 2.0])
    plan = make_batch_plan(2, 1)
    g = stochastic_gradient(spec, plan, 0, np.zeros(2))
    np.testing.assert_allclose(g, [-1.0, 0.0], atol=1e-15)


def test_stochastic_gradient_index_errors():
    spec = make_spec(np.eye(2), [1.0, 2.0])
    plan = make_batch_plan(2, 1)
    for i in (2, -1):
        with pytest.raises(IndexError):
            stochastic_gradient(spec, plan, i, np.zeros(2))
    for x in (np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(ValueError):
            stochastic_gradient(spec, plan, 0, x)
        with pytest.raises(ValueError):
            full_gradient(spec, x)


def test_unbiasedness_all_losses_and_batch_sizes():
    rng = np.random.default_rng(3)
    n, d = 12, 4
    A = rng.standard_normal((n, d))
    for loss in LOSSES:
        b = classification_labels(rng, n) if loss != "square" else rng.standard_normal(n)
        spec = make_spec(A, b, loss=loss, nu=0.2)
        for p in (1, 3, 5, 12):  # 5 exercises the remainder batch
            plan = make_batch_plan(n, p)
            for _ in range(5):
                x = rng.standard_normal(d)
                full = full_gradient(spec, x)
                mix = np.zeros(d)
                for i in range(plan.n_batches):
                    mix += (oracles.batch_probability(plan, i)
                            * stochastic_gradient(spec, plan, i, x))
                np.testing.assert_allclose(mix, full, atol=1e-12)


def test_draw_batch_indices_distribution():
    rng = np.random.default_rng(4)
    plan = make_batch_plan(10, 4)  # sizes 4, 4, 2
    counts = np.bincount(_draw_batch_indices(plan, rng, 20000), minlength=3)
    freq = counts / counts.sum()
    np.testing.assert_allclose(freq, [0.4, 0.4, 0.2], atol=0.02)


def test_variance_constants_identity_blocks():
    spec = make_spec(np.eye(4), [1.0, -1.0, 2.0, 0.5])
    plan = make_batch_plan(4, 2)
    vc = variance_constants(spec, plan)
    assert vc.L_p == pytest.approx(1.0, rel=1e-9)
    assert vc.C1 == pytest.approx(0.5, rel=1e-9)
    b2 = 1 + 1 + 4 + 0.25
    assert vc.C2 == pytest.approx(2.0 / 8.0 * b2, rel=1e-9)


def test_variance_constants_zero_labels():
    spec = make_spec(np.eye(4), np.zeros(4))
    vc = variance_constants(spec, make_batch_plan(4, 2))
    assert vc.C2 == 0.0


def test_variance_constants_scaling():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    plan = make_batch_plan(8, 4)
    vc1 = variance_constants(make_spec(A, b), plan)
    t = 1.7
    vc2 = variance_constants(make_spec(t * A, b), plan)
    assert vc2.L_p == pytest.approx(t**2 * vc1.L_p, rel=1e-7)
    assert vc2.C1 == pytest.approx(t**4 * vc1.C1, rel=1e-7)


def test_variance_constants_rejects_other_losses():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 2))
    spec = make_spec(A, classification_labels(rng, 4), loss="hinge")
    with pytest.raises(ValueError):
        variance_constants(spec, make_batch_plan(4, 2))


def test_second_moment_bound_square_loss():
    # E||g_i(x)||^2 <= C1 ||x||^2 + C2 with exhaustive expectation (nu = 0)
    rng = np.random.default_rng(7)
    for _ in range(3):
        n, d = 20, 5
        A = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        spec = make_spec(A, b)
        for p in (4, 10):
            plan = make_batch_plan(n, p)
            vc = variance_constants(spec, plan)
            for _ in range(100):
                x = rng.standard_normal(d) * rng.uniform(0, 5)
                second = sum(oracles.batch_probability(plan, i)
                             * np.sum(stochastic_gradient(spec, plan, i, x) ** 2)
                             for i in range(plan.n_batches))
                assert second <= vc.C1 * (x @ x) + vc.C2 + 1e-9


def test_cocoercivity_square_loss():
    # <g(x) - g(y), x - y> >= beta ||g(x) - g(y)||^2, beta = 1/rho_max(A'A/n)
    rng = np.random.default_rng(8)
    n, d = 15, 4
    A = rng.standard_normal((n, d))
    spec = make_spec(A, rng.standard_normal(n))
    beta = 1.0 / np.linalg.eigvalsh(A.T @ A / n).max()
    for _ in range(50):
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        gx, gy = full_gradient(spec, x), full_gradient(spec, y)
        assert (gx - gy) @ (x - y) >= beta * np.sum((gx - gy) ** 2) - 1e-9


def test_strong_convexity_with_l2():
    rng = np.random.default_rng(9)
    n, d = 10, 3
    A = rng.standard_normal((n, d))
    for loss in LOSSES:
        b = classification_labels(rng, n) if loss != "square" else rng.standard_normal(n)
        nu = 0.8
        spec = make_spec(A, b, loss=loss, nu=nu)
        for _ in range(50):
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            gx, gy = full_gradient(spec, x), full_gradient(spec, y)
            assert (gx - gy) @ (x - y) >= nu * np.sum((x - y) ** 2) - 1e-9
