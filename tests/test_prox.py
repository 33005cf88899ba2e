import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import prox_1d, scaled_prox_1d
from spdfp.prox import ProxSpec, prox, prox_residual, prox_scaled

L1 = ProxSpec(kind="l1", weight=1.0)
ZERO = ProxSpec(kind="zero", weight=0.0)


def test_prox_tau_zero_is_identity():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(6)
    np.testing.assert_array_equal(prox(L1, 0.0, y), y)


def test_prox_l1_against_scalar_minimization():
    y = np.array([2.0, -0.3])
    np.testing.assert_allclose(prox(L1, 0.5, y), [1.5, 0.0], atol=1e-12)
    # golden-section oracle on 0.5|x| + 0.5(x - y_i)^2, per coordinate
    for yi, pi in zip(y, prox(L1, 0.5, y)):
        assert pi == pytest.approx(prox_1d(1.0, 0.5, yi), abs=1e-8)


def test_prox_at_origin():
    for spec in (L1, ZERO, ProxSpec("l1", 3.5)):
        np.testing.assert_array_equal(prox(spec, 1.3, np.zeros(4)), np.zeros(4))


def test_prox_tie_maps_to_zero():
    # |y| == tau * weight exactly
    out = prox(ProxSpec("l1", 2.0), 0.5, np.array([1.0, -1.0, 0.999]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])


def test_prox_rejects_negative_tau():
    with pytest.raises(ValueError):
        prox(L1, -0.1, np.zeros(2))
    with pytest.raises(ValueError):
        prox_residual(L1, -0.1, np.zeros(2))


def test_residual_example_and_zero_kind():
    np.testing.assert_allclose(prox_residual(L1, 0.5, np.array([2.0, -0.3])),
                               [0.5, -0.3], atol=1e-15)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(5)
    np.testing.assert_array_equal(prox_residual(ZERO, 1.0, y), np.zeros(5))


def test_residual_magnitude_clipped_at_threshold():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tau = float(rng.uniform(0, 2))
        w = float(rng.uniform(0, 2))
        y = rng.standard_normal(8) * 3
        r = prox_residual(ProxSpec("l1", w), tau, y)
        assert np.all(np.abs(r) <= tau * w + 1e-15)


def test_moreau_decomposition_exact():
    rng = np.random.default_rng(3)
    for spec in (L1, ZERO, ProxSpec("l1", 0.2)):
        for _ in range(50):
            tau = float(rng.uniform(0, 3))
            y = rng.standard_normal(7) * 2
            np.testing.assert_array_equal(prox(spec, tau, y) + prox_residual(spec, tau, y), y)


def test_firm_nonexpansiveness():
    # ||P y1 - P y2||^2 <= <P y1 - P y2, y1 - y2> + 1e-12
    rng = np.random.default_rng(4)
    for op in (prox, prox_residual):
        for _ in range(300):
            spec = ProxSpec("l1", float(rng.uniform(0, 2)))
            tau = float(rng.uniform(0, 2))
            y1 = rng.standard_normal(6) * 3
            y2 = rng.standard_normal(6) * 3
            d = op(spec, tau, y1) - op(spec, tau, y2)
            assert d @ d <= d @ (y1 - y2) + 1e-12


def test_prox_scaled_r_one_matches_prox():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(prox_scaled(L1, 1.0, y), prox(L1, 1.0, y), atol=1e-15)


def test_prox_scaled_example_r2():
    y = np.array([3.0, 0.0, -3.0])
    got = prox_scaled(L1, 2.0, y)
    # oracle: minimize 2*|x/2| + 0.5*(x - y_i)^2 per coordinate
    want = [scaled_prox_1d(1.0, 2.0, yi) for yi in y]
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_prox_scaled_identity_over_r_grid():
    rng = np.random.default_rng(6)
    for r in (0.1, 1.0, 10.0):
        for w in (0.5, 1.0, 2.0):
            spec = ProxSpec("l1", w)
            y = rng.standard_normal(5) * 4
            got = prox_scaled(spec, r, y)
            want = [scaled_prox_1d(w, r, yi) for yi in y]
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_prox_scaled_zero_kind_and_errors():
    y = np.array([1.0, -2.0])
    for r in (0.1, 1.0, 10.0):
        np.testing.assert_array_equal(prox_scaled(ZERO, r, y), y)
    with pytest.raises(ValueError):
        prox_scaled(L1, 0.0, y)
    with pytest.raises(ValueError):
        prox_scaled(L1, -1.0, y)


@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
def test_prox_scaled_refuses_a_scale_that_is_not_finite(r):
    # r = inf used to give [nan, nan] with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^scale r must be positive and finite$"):
            prox_scaled(ProxSpec("l1", 1.0), r, np.array([1.0, -2.0]))


def test_proxspec_validation():
    with pytest.raises(ValueError):
        ProxSpec(kind="l2", weight=1.0)
    with pytest.raises(ValueError):
        ProxSpec(kind="l1", weight=-0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_proxspec_rejects_non_finite_weight(bad):
    with pytest.raises(ValueError, match="finite"):
        ProxSpec(kind="l1", weight=bad)
    with pytest.raises(ValueError):
        prox(L1, np.nan, np.ones(2))
    with pytest.raises(ValueError):
        prox_scaled(L1, np.nan, np.ones(2))


# ---------------------------------------------------------------------------
# properties, over generated vectors, steps and weights

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)
VALUES = st.floats(-1e6, 1e6, allow_subnormal=False)
VECTORS = st.lists(VALUES, min_size=1, max_size=8).map(np.array)
STEPS = st.floats(0, 1e3, allow_subnormal=False)
SPECS = st.builds(ProxSpec, st.just("l1"), STEPS) | st.just(ZERO)


@PROPERTY_SETTINGS
@given(SPECS, STEPS, VECTORS)
def test_moreau_decomposition_and_the_clipped_residual(spec, tau, y):
    p, r = prox(spec, tau, y), prox_residual(spec, tau, y)
    np.testing.assert_array_equal(p + r, y)
    # the l1 residual is the projection onto the box [-tau w, tau w], up to
    # the rounding of y - prox(y), which is at most one ulp of y
    t = tau * spec.weight
    want = np.clip(y, -t, t) if spec.kind == "l1" else np.zeros_like(y)
    assert np.all(np.abs(r - want) <= np.spacing(np.abs(y)))


@PROPERTY_SETTINGS
@given(SPECS, st.floats(1e-3, 1e3), VECTORS)
def test_prox_scaled_is_the_prox_of_the_rescaled_function(spec, r, y):
    # h(x) = r f1(x / r) is f1 itself for the 1-homogeneous l1 norm and the
    # zero function, so prox_h(y) = r prox_{f1/r}(y / r) = prox_{f1}(y)
    got, want = prox_scaled(spec, r, y), prox(spec, 1.0, y)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (np.max(np.abs(y)) + spec.weight))


@PROPERTY_SETTINGS
@given(SPECS, STEPS, VECTORS, st.data())
def test_prox_and_residual_are_firmly_nonexpansive(spec, tau, y1, data):
    # ||T y1 - T y2||^2 <= <T y1 - T y2, y1 - y2>, up to rounding
    y2 = data.draw(st.lists(VALUES, min_size=len(y1), max_size=len(y1)).map(np.array))
    slack = 1e-12 * (1.0 + y1 @ y1 + y2 @ y2)
    for op in (prox, prox_residual):
        d = op(spec, tau, y1) - op(spec, tau, y2)
        assert d @ d <= d @ (y1 - y2) + slack
