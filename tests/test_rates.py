import math

import mpmath
import numpy as np
import pytest

from spdfp.rates import (
    ErrorTrace,
    RecursionParams,
    fit_rate,
    joint_error,
    lemma_bound,
    phi_c,
    simulate_recursion,
    smallest_step_index,
)
from spdfp.solvers import StepSchedule


# ---------------------------------------------------------------------------
# phi family

def test_phi_values():
    assert phi_c(0.0, 1.0) == 0.0
    assert phi_c(1.0, 3.0) == pytest.approx(2.0, abs=1e-15)
    assert phi_c(-1.0, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_phi_continuous_at_zero():
    for t in (0.5, 2.0, 10.0):
        assert abs(phi_c(1e-9, t) - math.log(t)) <= 1e-7


def test_phi_monotone_in_t_and_zero_at_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = float(rng.uniform(-3, 3))
        assert phi_c(c, 1.0) == 0.0
        ts = np.sort(rng.uniform(0.05, 20.0, 5))
        vals = [phi_c(c, t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_phi_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        phi_c(1.0, 0.0)


# ---------------------------------------------------------------------------
# recursion parameters and simulation

def test_smallest_step_index():
    assert smallest_step_index(0.5, 1.0) == 1
    assert smallest_step_index(2.0, 1.0) == 2
    assert smallest_step_index(2.0, 0.3) == 11   # 2^(1/0.3) ~ 10.08
    assert smallest_step_index(1.0, 0.7) == 1    # eta_1 = 1 <= 1
    assert smallest_step_index(8.0, 1.0) == 8


def test_recursion_params_refuse_a_first_index_past_2_53():
    # past 2**53 float step indices are not exact: c = 1e17 at alpha = 1 gave
    # k0 = 99999999999999992, and c = 1e300 searched for minutes
    with pytest.raises(ValueError, match=r"c=1e\+17 and alpha=1 .* past 2\*\*53"):
        RecursionParams(alpha=1, c=1e17, tau=0.1, s_init=0.0)
    assert RecursionParams(alpha=1.0, c=2.0**53, tau=0.1, s_init=0.0).k0 == 2**53


def test_lemma_bound_is_finite_where_its_growth_factor_alone_overflows():
    # exp(c k0**(1-alpha) / (1-alpha)) = exp(800) at alpha = 0.5, c = 20
    # (k0 = 400) passes the largest double, but times the decay it does not
    p = RecursionParams(alpha=0.5, c=20.0, tau=0.1, s_init=1.0)
    assert p.k0 == 400
    assert 0 < lemma_bound(p, 2 * p.k0) < math.inf


def test_recursion_params_k0_consistency():
    p = RecursionParams(alpha=0.5, c=2.0, tau=0.1, s_init=1.0)
    assert p.k0 == 4


def test_simulate_noiseless_product_form():
    p = RecursionParams(alpha=0.7, c=0.8, tau=0.0, s_init=2.0)
    s = simulate_recursion(p, 50)
    prod = 2.0
    for k in range(1, 50):
        prod *= (1 - 0.8 / k**0.7)
        assert s[k] == pytest.approx(prod, rel=1e-12)
    assert np.all(np.diff(s) < 0)


def test_simulate_zero_start_zero_noise():
    p = RecursionParams(alpha=0.5, c=0.5, tau=0.0, s_init=0.0)
    np.testing.assert_array_equal(simulate_recursion(p, 30), np.zeros(30))


def test_simulate_clips_at_zero():
    # eta_1 = 2 makes the linear term negative from s_1 = 1
    p = RecursionParams(alpha=1.0, c=2.0, tau=0.1, s_init=1.0)
    s = simulate_recursion(p, 5)
    assert s[1] == 0.0  # (1-2)*1 + 0.1*4 = -0.6, clipped


# ---------------------------------------------------------------------------
# closed-form bound

def mp_bound(alpha, c, tau, s_init, k):
    """Printed bound evaluated in 50-digit arithmetic."""
    with mpmath.workdps(50):
        alpha, c, tau = mpmath.mpf(alpha), mpmath.mpf(c), mpmath.mpf(tau)
        k0 = 1
        while c / mpmath.mpf(k0) ** alpha > 1:
            k0 += 1
        s = mpmath.mpf(s_init)
        for j in range(1, k0):
            eta = c / mpmath.mpf(j) ** alpha
            s = max(mpmath.mpf(0), (1 - eta) * s + tau * eta**2)

        def phi(cc, t):
            t = mpmath.mpf(t)
            if cc == 0:
                return mpmath.log(t)
            return (t**cc - 1) / cc

        if alpha == 1:
            c0 = c
            val = (s * (mpmath.mpf(k0) / (k + 1)) ** c0
                   + tau * c0**2 / mpmath.mpf(k + 1) ** c0
                   * (1 + mpmath.mpf(1) / k0) ** c0 * phi(c0 - 1, k))
        else:
            grow = mpmath.exp(c * mpmath.mpf(k0) ** (1 - alpha) / (1 - alpha))
            decay = mpmath.exp(-c * (1 - 2 ** (alpha - 1))
                               * mpmath.mpf(k + 1) ** (1 - alpha) / (1 - alpha))
            val = ((tau * c**2 * phi(1 - 2 * alpha, k) + s * grow) * decay
                   + tau * 2**alpha * c / mpmath.mpf(k - 2) ** alpha)
        return float(val)


@pytest.mark.parametrize("alpha,c,tau,s_init,k", [
    (1.0, 1.0, 0.7, 0.9, 10),
    (1.0, 2.0, 0.3, 1.5, 40),
    (0.5, 0.8, 0.2, 1.0, 25),
    (0.3, 2.0, 1.0, 0.0, 60),
    (0.9, 0.5, 0.1, 1.0, 17),
])
def test_lemma_bound_spot_values_extended_precision(alpha, c, tau, s_init, k):
    p = RecursionParams(alpha=alpha, c=c, tau=tau, s_init=s_init)
    assert lemma_bound(p, k) == pytest.approx(mp_bound(alpha, c, tau, s_init, k),
                                              rel=1e-12)


def test_lemma_bound_simulates_s_k0_once_per_params(monkeypatch):
    # s_k0 depends on the params alone: bound-check's cell of k0 = 400 and
    # k from 800 to 2000 runs one simulation of it, not one per k
    import spdfp.rates as rates
    calls = []
    simulate = rates.simulate_recursion
    monkeypatch.setattr(rates, "simulate_recursion",
                        lambda params, k_max: calls.append(k_max) or simulate(params, k_max))
    p = RecursionParams(alpha=0.5, c=20.0, tau=0.1, s_init=1.0)
    bounds = [lemma_bound(p, k) for k in range(2 * p.k0, 2001)]
    assert calls == [p.k0] and p.s_k0 == simulate(p, p.k0)[-1]
    fresh = RecursionParams(alpha=0.5, c=20.0, tau=0.1, s_init=1.0)
    assert bounds[-1] == lemma_bound(fresh, 2000) and fresh == p


def test_lemma_bound_vanishes_without_noise_or_start():
    p = RecursionParams(alpha=1.0, c=0.5, tau=0.0, s_init=0.0)
    for k in (2, 10, 100):
        assert lemma_bound(p, k) == 0.0


def test_lemma_bound_domain_errors():
    p = RecursionParams(alpha=1.0, c=2.0, tau=0.1, s_init=1.0)  # k0 = 2
    with pytest.raises(ValueError):
        lemma_bound(p, 3)
    lemma_bound(p, 4)
    q = RecursionParams(alpha=0.5, c=0.5, tau=0.1, s_init=1.0)  # k0 = 1
    with pytest.raises(ValueError):
        lemma_bound(q, 2)   # (k-2)^alpha undefined
    lemma_bound(q, 3)


@pytest.mark.parametrize("alpha,c,start", [(1.0, 2.0, 4), (1.0, 0.5, 2), (0.5, 0.5, 3),
                                           (0.5, 4.0, 32)])
def test_bound_start_is_where_lemma_bound_starts(alpha, c, start):
    # 2*k0 for alpha = 1, max(2*k0, 3) below it; k0 is 2, 1, 1 and 16
    p = RecursionParams(alpha=alpha, c=c, tau=0.1, s_init=1.0)
    assert p.bound_start == start
    with pytest.raises(ValueError, match=f"^bound valid for k >= {start}, got {start - 1}$"):
        lemma_bound(p, start - 1)
    assert math.isfinite(lemma_bound(p, start))


def test_lemma_bound_eventually_nonincreasing_alpha1():
    p = RecursionParams(alpha=1.0, c=2.0, tau=0.5, s_init=1.0)
    ks = np.arange(2 * p.k0, 10001)
    vals = np.array([lemma_bound(p, int(k)) for k in ks])
    assert np.all(np.diff(vals) <= 1e-15)


def test_recursion_dominated_by_bound_on_grid():
    # alpha < 1 cells plus the alpha = 1, c >= 1 regime hold up to k = 5000
    for alpha in (0.3, 0.6, 0.9):
        for c in (0.5, 1.0, 2.0):
            for tau in (0.1, 1.0):
                for s_init in (0.0, 1.0):
                    p = RecursionParams(alpha=alpha, c=c, tau=tau, s_init=s_init)
                    s = simulate_recursion(p, 5000)
                    k_start = max(2 * p.k0, 3)
                    for k in range(k_start, 5001):
                        assert s[k - 1] <= lemma_bound(p, k), \
                            (alpha, c, tau, s_init, k)


# ---------------------------------------------------------------------------
# rate fitting

def make_trace(ks, a):
    return ErrorTrace(k=np.asarray(ks), a=np.asarray(a))


def test_fit_rate_exact_power_law():
    ks = np.arange(1, 200)
    tr = make_trace(ks, ks.astype(float) ** -0.7)
    assert fit_rate(tr, 0.5) == pytest.approx(-0.7, abs=1e-6)


def test_fit_rate_scale_invariant():
    ks = np.arange(1, 150)
    a = ks.astype(float) ** -1.0
    assert fit_rate(make_trace(ks, 5.0 * a), 0.4) == pytest.approx(-1.0, abs=1e-6)
    for scale in (0.01, 3.0, 1e6):
        assert fit_rate(make_trace(ks, scale * a), 0.4) == pytest.approx(
            fit_rate(make_trace(ks, a), 0.4), abs=1e-12)


def test_fit_rate_validation():
    ks = np.arange(1, 10)
    with pytest.raises(ValueError):
        fit_rate(make_trace(ks, np.ones(9)), 0.5)  # too few points
    ks = np.arange(1, 40)
    a = np.ones(39)
    a[-3] = 0.0
    with pytest.raises(ValueError):
        fit_rate(make_trace(ks, a), 0.5)  # nonpositive value in tail
    with pytest.raises(ValueError):
        fit_rate(make_trace(ks, np.ones(39)), 0.0)


def test_error_trace_validation_and_thinning():
    with pytest.raises(ValueError):
        ErrorTrace(k=np.array([1, 1, 2]), a=np.zeros(3))
    with pytest.raises(ValueError):
        ErrorTrace(k=np.array([1, 2]), a=np.array([-1.0, 0.0]))
    tr = ErrorTrace(k=np.arange(1, 10001), a=np.ones(10000))
    thin = tr.thin_log(points_per_decade=10)
    assert len(thin.k) < 60
    assert thin.k[0] == 1 and thin.k[-1] == 10000


# ---------------------------------------------------------------------------
# joint error metric

def test_joint_error_zero_at_reference():
    sched = StepSchedule(c=0.5, alpha=0.7)
    x_star = np.array([1.0, -1.0])
    v_star = np.array([0.3])
    xs = [np.tile(x_star, (6, 1))]
    vs = [np.tile(v_star, (6, 1))]
    tr = joint_error(xs, vs, x_star, v_star, sched, lam=0.2)
    np.testing.assert_array_equal(tr.a, np.zeros(6))


def test_joint_error_single_repetition_is_squared_sum():
    sched = StepSchedule(c=0.5, alpha=1.0)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3))
    V = rng.standard_normal((4, 2))
    x_star = rng.standard_normal(3)
    v_star = rng.standard_normal(2)
    lam = 0.3
    tr = joint_error([X], [V], x_star, v_star, sched, lam)
    for i, k in enumerate(range(1, 5)):
        gk = 0.5 / k
        want = np.sum((X[i] - x_star) ** 2) + gk**2 / lam * np.sum((V[i] - v_star) ** 2)
        assert tr.a[i] == pytest.approx(want, rel=1e-14)


def test_joint_error_matches_hand_rolled_average():
    sched = StepSchedule(c=1.0, alpha=0.7)
    rng = np.random.default_rng(2)
    R, T, d, m = 10, 7, 4, 3
    Xs = [rng.standard_normal((T, d)) for _ in range(R)]
    Vs = [rng.standard_normal((T, m)) for _ in range(R)]
    x_star = rng.standard_normal(d)
    v_star = rng.standard_normal(m)
    lam = 0.4
    ks = np.array([2, 3, 5, 8, 13, 21, 34])
    tr = joint_error(Xs, Vs, x_star, v_star, sched, lam, ks=ks)
    for i, k in enumerate(ks):
        gk = 1.0 / k**0.7
        vals = [np.sum((Xs[r][i] - x_star) ** 2)
                + gk**2 / lam * np.sum((Vs[r][i] - v_star) ** 2)
                for r in range(R)]
        assert tr.a[i] == pytest.approx(sum(vals) / R, rel=1e-12)


def test_joint_error_dimension_checks():
    sched = StepSchedule(c=1.0, alpha=0.7)
    with pytest.raises(ValueError):
        joint_error([np.zeros((3, 2))], [np.zeros((4, 2))],
                    np.zeros(2), np.zeros(2), sched, 0.1)


@pytest.mark.parametrize("field", ["c", "tau", "s_init"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_recursion_params_reject_nan_and_inf(field, bad):
    good = dict(alpha=0.5, c=1.0, tau=0.1, s_init=0.0)
    with pytest.raises(ValueError, match="finite"):
        RecursionParams(**{**good, field: bad})
