import numpy as np
import pytest

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
