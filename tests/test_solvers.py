import collections.abc
import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from spdfp import solvers
from spdfp.gradients import _draw_batch_indices, full_gradient, make_batch_plan, stochastic_gradient
from spdfp.harness import synth_fused_lasso
from spdfp.problem import LOSSES, Dataset, ProblemSpec, objective_value
from spdfp.prox import ProxSpec
from spdfp.sparse import SparseMatrix, build_difference_matrix, estimate_spectrum, identity
from spdfp.solvers import (
    SOLVER_KINDS,
    AdmmConfig,
    AdmmState,
    ConstantSchedule,
    IterState,
    Reference,
    SolverConfig,
    StepSchedule,
    check_lambda,
    fixed_point_residual,
    initial_admm_state,
    initial_state,
    run_solver,
)

L1 = ProxSpec("l1", 1.0)
ZERO = ProxSpec("zero", 0.0)


def fused_spec(n, d, seed, nu=0.0, mu=0.1):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    b = A @ np.ones(d) + 0.1 * rng.standard_normal(n)
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
    return ProblemSpec(loss="square", dataset=ds, l2_weight=nu,
                       composite_weight=mu, B=build_difference_matrix(d)), A, b


def dense_parts(spec):
    return (spec.dataset.samples.to_dense(), spec.dataset.labels.copy(),
            spec.B.to_dense())


def replay_draws(seed, n, p, n_steps):
    rng = np.random.default_rng(seed)
    nb = len(make_batch_plan(n, p).ranges)
    return [min(int(rng.integers(0, n)) // p, nb - 1) for _ in range(n_steps)]


def stepped(kind, spec, prox_spec, cfg, count, **kwargs):
    """The states after each of the first count steps of run_solver(kind,
    ...), as on_step gets them; the run goes for the epochs they take."""
    per_epoch = 1 if kind == "pdfp" else make_batch_plan(spec.n, cfg.p).n_batches
    states = []
    run_solver(kind, spec, prox_spec, replace(cfg, max_epochs=-(-count // per_epoch)),
               on_step=states.append, **kwargs)
    return states[:count]


# ---------------------------------------------------------------------------
# schedules and configs

def test_schedule_validation_and_gamma():
    s = StepSchedule(c=2.0, alpha=0.5)
    assert s.gamma(4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        StepSchedule(c=0.0, alpha=0.5)
    with pytest.raises(ValueError):
        StepSchedule(c=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        StepSchedule(c=1.0, alpha=1.5)
    assert ConstantSchedule(0.3).gamma(100) == 0.3


def test_every_schedule_carries_its_exponent():
    # a constant step is c / k**0, bit for bit
    s = ConstantSchedule(0.05)
    assert s.alpha == ConstantSchedule.alpha == 0.0
    for k in (1, 2, 3, 7, 1000, 2**40):
        assert s.gamma(k) == s.c / k**s.alpha == 0.05
        assert ((k - 1) / k) ** s.alpha == 1.0


def test_constant_step_spdfp_runs_and_pdfp_refuses_a_decaying_one():
    spec, _, _ = fused_spec(20, 6, seed=8, mu=0.2)
    prox_spec = ProxSpec("l1", 0.2)
    cfg = SolverConfig(schedule=ConstantSchedule(0.05), lam=0.18, p=5, seed=77, max_epochs=3)
    xs1, xs2 = [], []
    recs1 = run_solver("spdfp1", spec, prox_spec, cfg, on_step=lambda s: xs1.append(s.x))
    recs2 = run_solver("spdfp2", spec, prox_spec, cfg, on_step=lambda s: xs2.append(s.x))
    assert len(recs1) == len(recs2) == 4 and len(xs1) == len(xs2) == 3 * 4
    for a, b in zip(xs1, xs2):
        assert np.linalg.norm(a - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)
    # pdfp steps by schedule.c alone, so it must not be given a decaying step
    decaying = replace(cfg, schedule=StepSchedule(0.1, 0.7))
    with pytest.raises(ValueError, match="pdfp needs a constant step"):
        run_solver("pdfp", spec, prox_spec, decaying)


def test_lambda_guard():
    spec, _, _ = fused_spec(20, 6, seed=0)
    from spdfp.sparse import estimate_spectrum
    rho = estimate_spectrum(spec.B).rho_max
    bad = SolverConfig(schedule=ConstantSchedule(0.1), lam=1.0 / rho, p=20)
    with pytest.raises(ValueError):
        check_lambda(bad, spec.B)
    with pytest.raises(ValueError):
        run_solver("pdfp", spec, L1, bad)
    ok = SolverConfig(schedule=ConstantSchedule(0.1), lam=0.9 / rho, p=20)
    check_lambda(ok, spec.B)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parameters_reject_nan_and_inf(bad):
    # a NaN fails every comparison, so 'lam <= 0' alone let it through
    with pytest.raises(ValueError, match="lambda"):
        SolverConfig(schedule=ConstantSchedule(0.1), lam=bad, p=1)
    with pytest.raises(ValueError):
        StepSchedule(c=bad, alpha=0.5)
    with pytest.raises(ValueError):
        ConstantSchedule(bad)
    with pytest.raises(ValueError):
        AdmmConfig(beta_tilde=bad, zeta_schedule=ConstantSchedule(0.1))
    spec, _, _ = fused_spec(20, 6, seed=0)
    with pytest.raises(ValueError):
        fixed_point_residual(spec, L1, bad, 0.1, np.zeros(6), np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_stop_tolerance_must_be_nonnegative_and_finite(bad):
    # a NaN or negative tolerance would turn the pdfp stop off without a word
    with pytest.raises(ValueError, match="stop_tolerance"):
        SolverConfig(schedule=ConstantSchedule(0.1), lam=0.1, p=1, stop_tolerance=bad)
    SolverConfig(schedule=ConstantSchedule(0.1), lam=0.1, p=1, stop_tolerance=0.0)


@pytest.mark.parametrize("field,bad,message", [
    ("p", 2.5, "p must be an integer, got 2.5"),
    ("max_epochs", 2.5, "max_epochs must be an integer, got 2.5"),
    ("seed", 1.0, "seed must be an integer, got 1.0"),
    ("seed", -1, "seed must be nonnegative, got -1"),
])
def test_solver_config_refuses_counts_that_are_not_integers(field, bad, message):
    # each used to end in a TypeError or NumPy's seed error inside run_solver
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverConfig(schedule=ConstantSchedule(0.1), lam=0.1, **{"p": 1, field: bad})
    cfg = SolverConfig(schedule=ConstantSchedule(0.1), lam=0.1, p=np.int64(2),
                       max_epochs=np.int32(3), seed=np.uint64(4))  # NumPy integers pass
    assert (cfg.p, cfg.max_epochs, cfg.seed) == (2, 3, 4)


@pytest.mark.parametrize("ref,message", [
    # length 1 used to broadcast: the records of x* = 0 and v* = 0
    (Reference(np.zeros(1), np.zeros(1), 1.0), "reference x_star must have shape (5,), got (1,)"),
    (Reference(np.zeros(3)), "reference x_star must have shape (5,), got (3,)"),
    (Reference(np.zeros(5), np.zeros(1)), "reference v_star must have shape (4,), got (1,)"),
    (Reference(np.zeros(5), np.zeros(4), math.nan),
     "reference objective_star = nan is not finite"),
    (Reference(np.zeros(5), None, -math.inf), "reference objective_star = -inf is not finite"),
])
def test_run_solver_refuses_a_reference_of_the_wrong_shape_before_the_first_step(ref, message):
    spec, _, _ = fused_spec(12, 5, seed=3)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.2, p=3, max_epochs=2)
    steps = []
    for kind in ("spdfp2", "stoc_admm"):
        admm = AdmmConfig(beta_tilde=1.0, zeta_schedule=ConstantSchedule(1.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_solver(kind, spec, L1, cfg, admm_cfg=admm, reference=ref, on_step=steps.append)
    assert steps == []


def test_lambda_guard_rejects_nan():
    spec, _, _ = fused_spec(20, 6, seed=0)
    # check_lambda reads only cfg.lam, so a namespace stands in for a config
    # that did not pass through SolverConfig's own check
    with pytest.raises(ValueError, match="lambda"):
        check_lambda(SimpleNamespace(lam=np.nan), spec.B)
    with pytest.raises(ValueError, match="lambda"):
        check_lambda(SimpleNamespace(lam=0.01), spec.B, rho_max=np.nan)
    check_lambda(SimpleNamespace(lam=0.01), spec.B)


def test_lambda_guard_trusts_only_a_converged_estimate():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((12, 8))
    rho = float(np.linalg.eigvalsh(D.T @ D)[-1])
    norms = np.abs(D).sum(axis=0).max() * np.abs(D).sum(axis=1).max()
    B = SparseMatrix.from_dense(D)
    est = B.spectrum
    assert est.converged and est.residual <= 1e-10 * est.rho_max
    assert est.rho_max == pytest.approx(rho, rel=1e-13)
    lanczos, norm_limit = 1.0 / (est.rho_max + est.residual), 1.0 / norms
    assert norm_limit < lanczos
    between = SimpleNamespace(lam=0.5 * (norm_limit + lanczos))
    below = SimpleNamespace(lam=0.99 * norm_limit)
    # converged: lambda (theta + r) < 1 admits what the norm bound does not
    check_lambda(between, B)
    with pytest.raises(ValueError, match="lambda"):
        check_lambda(SimpleNamespace(lam=lanczos), B)
    # three Lanczos steps do not converge, so only the norm bound counts
    B = SparseMatrix.from_dense(D)
    B._spectrum = estimate_spectrum(B, max_iter=3)
    assert not B.spectrum.converged and B.spectrum.rho_max < rho
    short = 1.0 / (B.spectrum.rho_max + B.spectrum.residual)
    assert norm_limit < between.lam < short
    with pytest.raises(ValueError, match=r"converged=False\), 1/\(\|\|B\|\|_1 "):
        check_lambda(between, B)
    check_lambda(below, B)
    # a given rho_max is taken as exact
    check_lambda(between, B, rho_max=rho)
    with pytest.raises(ValueError, match="lambda"):
        check_lambda(below, B, rho_max=1.0 / below.lam)


# ---------------------------------------------------------------------------
# pdfp

def test_pdfp_reduces_to_gradient_descent_with_zero_prox():
    spec, A, b = fused_spec(12, 5, seed=1)
    gamma = 0.1
    cfg = SolverConfig(schedule=ConstantSchedule(gamma), lam=0.2, p=12)
    new, = stepped("pdfp", spec, ZERO, cfg, 1, x0=np.ones(5))
    np.testing.assert_array_equal(new.v, np.zeros(4))
    np.testing.assert_allclose(new.x, np.ones(5) - gamma * full_gradient(spec, np.ones(5)),
                               atol=1e-15)


def test_pdfp_zero_state_is_fixed_when_gradient_vanishes():
    # b = 0 makes x = 0, v = 0 a fixed point
    ds = Dataset(samples=identity(4), labels=np.zeros(4))
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=0.0,
                       composite_weight=1.0, B=build_difference_matrix(4))
    cfg = SolverConfig(schedule=ConstantSchedule(0.5), lam=0.2, p=4)
    new, = stepped("pdfp", spec, L1, cfg, 1)
    np.testing.assert_array_equal(new.x, np.zeros(4))
    np.testing.assert_array_equal(new.v, np.zeros(3))


def test_pdfp_matches_transcription():
    spec, A, b = fused_spec(9, 5, seed=2)
    Ad, bd, Bd = dense_parts(spec)
    gamma, lam = 0.3, 0.2
    cfg = SolverConfig(schedule=ConstantSchedule(gamma), lam=lam, p=9)
    rng = np.random.default_rng(3)
    x0, v0 = rng.standard_normal(5), rng.standard_normal(4)
    prox_spec = ProxSpec("l1", spec.composite_weight)
    state = stepped("pdfp", spec, prox_spec, cfg, 3, x0=x0, v0=v0)[-1]
    xs, vs = oracles.pdfp_steps(Ad, bd, Bd, 0.0, spec.composite_weight,
                                gamma, lam, 3, x0=x0, v0=v0)
    np.testing.assert_allclose(state.x, xs[-1], atol=1e-12)
    np.testing.assert_allclose(state.v, vs[-1], atol=1e-12)


def test_pdfp_stationarity_at_fixed_point():
    spec, _, _ = fused_spec(40, 6, seed=4)
    gamma = 0.5
    lam = 0.9 / np.linalg.eigvalsh(spec.B.to_dense() @ spec.B.to_dense().T).max()
    cfg = SolverConfig(schedule=ConstantSchedule(gamma), lam=lam, p=40)
    state, after = stepped("pdfp", spec, L1, cfg, 4001)[-2:]  # after 4000 steps, and one more
    res = fixed_point_residual(spec, L1, gamma, lam, state.x, state.v)
    assert res <= 1e-12
    assert np.linalg.norm(after.x - state.x) <= 1e-12
    assert np.linalg.norm(after.v - state.v) <= 1e-12


# ---------------------------------------------------------------------------
# stochastic steps

def test_spdfp1_single_batch_x_matches_pdfp_with_gamma_k():
    spec, _, _ = fused_spec(10, 4, seed=5)
    lam = 0.2
    c, alpha = 0.4, 0.7
    cfg = SolverConfig(schedule=StepSchedule(c=c, alpha=alpha), lam=lam, p=10)
    got, = stepped("spdfp1", spec, L1, cfg, 1, x0=np.ones(4), v0=np.zeros(3))
    # same x as a batch step with gamma = gamma_1 = c
    cfg_b = SolverConfig(schedule=ConstantSchedule(c), lam=lam, p=10)
    want, = stepped("pdfp", spec, L1, cfg_b, 1, x0=np.ones(4))
    np.testing.assert_allclose(got.x, want.x, atol=1e-12)
    # dual scales differ by lam/gamma
    np.testing.assert_allclose((c / lam) * got.v, want.v, atol=1e-12)


def test_spdfp1_zero_prox_is_sgd():
    spec, _, _ = fused_spec(8, 4, seed=6)
    cfg = SolverConfig(schedule=StepSchedule(c=0.3, alpha=0.6), lam=0.2, p=2, seed=9)
    plan = make_batch_plan(8, 2)
    draws = replay_draws(9, 8, 2, 1)
    new, = stepped("spdfp1", spec, ZERO, cfg, 1, x0=np.ones(4))
    g = stochastic_gradient(spec, plan, draws[0], np.ones(4))
    np.testing.assert_allclose(new.x, np.ones(4) - 0.3 * g, atol=1e-14)
    np.testing.assert_array_equal(new.v, np.zeros(3))


@pytest.mark.parametrize("alg,oracle", [("alg1", oracles.spdfp_alg1_steps),
                                        ("alg2", oracles.spdfp_alg2_steps)])
def test_spdfp_50_steps_match_transcription(alg, oracle):
    # from zero, and from a nonzero pair, whose dual the k = 1 factor and
    # scales act on
    spec, _, _ = fused_spec(8, 4, seed=7, mu=0.15)
    Ad, bd, Bd = dense_parts(spec)
    c, alpha, lam, p, seed = 0.5, 0.7, 0.15, 2, 123
    cfg = SolverConfig(schedule=StepSchedule(c=c, alpha=alpha), lam=lam, p=p, seed=seed)
    kind = "spdfp1" if alg == "alg1" else "spdfp2"
    start = np.random.default_rng(71)
    for x0, v0 in ((None, None), (start.standard_normal(4), start.standard_normal(3))):
        states = [initial_state(spec, x0=x0, v0=v0),
                  *stepped(kind, spec, ProxSpec("l1", spec.composite_weight), cfg, 50,
                           x0=x0, v0=v0)]
        lib_x, lib_v = [s.x for s in states], [s.v for s in states]
        draws = replay_draws(seed, 8, p, 50)
        xs, vs = oracle(Ad, bd, Bd, 0.0, spec.composite_weight, c, alpha, lam, p, draws,
                        x0=x0, v0=v0)
        np.testing.assert_allclose(lib_x, xs, atol=1e-12)
        np.testing.assert_allclose(lib_v, vs, atol=1e-12)


def test_alg2_equivalence_to_alg1_x_iterates():
    spec, _, _ = fused_spec(20, 6, seed=8, mu=0.2)
    prox_spec = ProxSpec("l1", 0.2)
    for alpha in (0.55, 1.0):
        cfg = SolverConfig(schedule=StepSchedule(c=0.8, alpha=alpha), lam=0.18,
                           p=5, seed=77, max_epochs=6)
        xs1, xs2 = [], []
        run_solver("spdfp1", spec, prox_spec, cfg, on_step=lambda s: xs1.append(s.x))
        run_solver("spdfp2", spec, prox_spec, cfg, on_step=lambda s: xs2.append(s.x))
        for a, b in zip(xs1, xs2):
            assert np.linalg.norm(a - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)
        xs1.clear(), xs2.clear()


# ---------------------------------------------------------------------------
# stochastic ADMM

def test_stoc_admm_zero_fixed_point():
    ds = Dataset(samples=identity(3), labels=np.zeros(3))
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=0.0,
                       composite_weight=0.0, B=identity(3))
    admm = AdmmConfig(beta_tilde=1.0, zeta_schedule=ConstantSchedule(0.5))
    cfg = SolverConfig(schedule=ConstantSchedule(1.0), lam=1.0, p=3)
    new, = stepped("stoc_admm", spec, ZERO, cfg, 1, admm_cfg=admm)
    np.testing.assert_array_equal(new.x, np.zeros(3))
    np.testing.assert_array_equal(new.y, np.zeros(3))
    np.testing.assert_array_equal(new.multiplier, np.zeros(3))


def test_stoc_admm_x_update_matches_dense_solve():
    spec, A, b = fused_spec(6, 3, seed=9, mu=0.3)
    Ad, bd, Bd = dense_parts(spec)
    beta, zc = 2.0, 0.7
    admm = AdmmConfig(beta_tilde=beta, zeta_schedule=StepSchedule(c=zc, alpha=0.5))
    # the private step, since a run starts from y = multiplier = 0
    ctx = solvers._RunContext(spec, ProxSpec("l1", 0.3), make_batch_plan(6, 6).ranges)
    state = AdmmState(x=np.array([0.3, -0.2, 0.5]), y=np.array([0.1, -0.4]),
                      multiplier=np.array([0.2, 0.3]), k=1)
    new = AdmmState(*solvers._stoc_admm(ctx, admm, state.k, ctx.batches[0],
                                        state.x, state.y, state.multiplier), k=state.k + 1)
    zeta = zc  # k = 1
    g = oracles.square_grad(Ad, bd, 0.0, state.x)
    M = np.eye(3) / zeta + beta * Bd.T @ Bd
    want_x = np.linalg.solve(M, Bd.T @ (beta * state.y + state.multiplier)
                             + state.x / zeta - g)
    np.testing.assert_allclose(new.x, want_x, atol=1e-10)
    want_y = oracles.soft(Bd @ want_x - state.multiplier / beta, 0.3 / beta)
    np.testing.assert_allclose(new.y, want_y, atol=1e-10)
    np.testing.assert_allclose(new.multiplier,
                               state.multiplier - beta * (Bd @ want_x - want_y),
                               atol=1e-10)


def test_stoc_admm_builds_its_dense_terms_once_per_run(monkeypatch):
    # the identity and beta B^T B of the x-update: one of each per run, not
    # one per step; the records keep the bits of the per-step expression
    spec, _, _ = fused_spec(60, 8, seed=10, mu=0.1)
    admm = AdmmConfig(beta_tilde=5.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    cfg = SolverConfig(schedule=StepSchedule(c=1.0, alpha=1.0), lam=0.1, p=10, max_epochs=4)
    made, states = [], []
    eye, to_dense = np.eye, SparseMatrix.to_dense
    with monkeypatch.context() as m:
        m.setattr(np, "eye", lambda *a, **kw: made.append("eye") or eye(*a, **kw))
        m.setattr(SparseMatrix, "to_dense", lambda M: made.append("B") or to_dense(M))
        run_solver("stoc_admm", spec, ProxSpec("l1", 0.1), cfg, admm_cfg=admm,
                   on_step=states.append)
    assert made == ["B", "eye"] and len(states) == 24
    # the step as it was written, with both terms built per step, over the
    # same draws
    Bd = spec.B.to_dense()
    ctx = solvers._RunContext(spec, ProxSpec("l1", 0.1), make_batch_plan(60, 10).ranges)
    x, y, mult = np.zeros(8), np.zeros(Bd.shape[0]), np.zeros(Bd.shape[0])
    picks = _draw_batch_indices(make_batch_plan(60, 10), np.random.default_rng(cfg.seed), (4, 6))
    k = 1
    for i in picks.ravel():
        beta, zeta = admm.beta_tilde, admm.zeta_schedule.gamma(k)
        g = ctx.gradient(ctx.batches[i], x)
        rhs = ctx.B.rmatvec(beta * y + mult) + x / zeta - g
        x = np.linalg.solve(np.eye(8) / zeta + beta * (Bd.T @ Bd), rhs)
        Bx = ctx.B.matvec(x)
        y = ctx.prox(1.0 / beta, Bx - mult / beta)
        mult = mult - beta * (Bx - y)
        k += 1
    for got, want in zip((states[-1].x, states[-1].y, states[-1].multiplier), (x, y, mult)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_stoc_admm_feasibility_trend():
    spec, _, _ = fused_spec(60, 8, seed=10, mu=0.1)
    admm = AdmmConfig(beta_tilde=5.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    cfg = SolverConfig(schedule=StepSchedule(c=1.0, alpha=1.0), lam=0.1, p=10, seed=11)
    gaps = [np.linalg.norm(spec.B.matvec(state.x) - state.y)
            for state in stepped("stoc_admm", spec, ProxSpec("l1", 0.1), cfg, 200,
                                 admm_cfg=admm)]
    # eventual decrease, not monotone: late gaps well below the early ones
    assert np.mean(gaps[-20:]) < 0.5 * np.mean(gaps[:20])
    assert max(gaps[-10:]) < max(gaps[:10])


# ---------------------------------------------------------------------------
# fixed-point residual

def test_residual_zero_at_trivial_optimum():
    ds = Dataset(samples=identity(3), labels=np.zeros(3))
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=0.0,
                       composite_weight=0.0, B=identity(3))
    assert fixed_point_residual(spec, ZERO, 0.5, 0.5, np.zeros(3), np.zeros(3)) == 0.0


def test_residual_positive_off_optimum():
    spec, _, _ = fused_spec(15, 5, seed=12)
    rng = np.random.default_rng(13)
    r = fixed_point_residual(spec, L1, 0.4, 0.2, rng.standard_normal(5),
                             rng.standard_normal(4))
    assert r > 1e-3


def test_residual_requires_positive_steps():
    spec, _, _ = fused_spec(6, 3, seed=14)
    with pytest.raises(ValueError):
        fixed_point_residual(spec, L1, 0.0, 0.2, np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# run_solver plumbing

def test_run_solver_zero_epochs_returns_initial_record():
    spec, _, _ = fused_spec(10, 4, seed=15)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.2, p=5,
                       max_epochs=0)
    recs = run_solver("spdfp2", spec, L1, cfg)
    assert len(recs) == 1 and recs[0].epoch == 0


def test_run_solver_epoch_step_accounting():
    spec, _, _ = fused_spec(10, 4, seed=16)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.2, p=3,
                       max_epochs=4)
    steps = []
    run_solver("spdfp1", spec, L1, cfg, on_step=lambda s: steps.append(s.k))
    assert len(steps) == 4 * len(make_batch_plan(10, 3).ranges)


def test_run_solver_deterministic_replay():
    spec, _, _ = fused_spec(30, 5, seed=17)
    ref = Reference(x_star=np.zeros(5), v_star=np.zeros(4), objective_star=0.1)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.2, p=6,
                       seed=99, max_epochs=5)
    r1 = run_solver("spdfp2", spec, L1, cfg, reference=ref)
    r2 = run_solver("spdfp2", spec, L1, cfg, reference=ref)
    for a, b in zip(r1, r2):
        assert (a.objective, a.rel_obj_error, a.iterate_sq_error, a.a_k) == \
               (b.objective, b.rel_obj_error, b.iterate_sq_error, b.a_k)


@pytest.mark.parametrize("n,p", [(64, 8), (23, 5), (7, 3), (1000, 10), (2000, 20)])
@pytest.mark.parametrize("block", [1, 3, 50, None])
def test_chunked_draws_equal_per_epoch_draws(n, p, block):
    # a run draws the picks of each block of epochs at once, one row per
    # epoch (None: one block of all 37); n = 23 and 7 leave a short last
    # batch and are not powers of two, so their draws take the rejection
    # path, and blocks of 3 end in a short one
    plan = make_batch_plan(n, p)
    nb, epochs = plan.n_batches, 37
    block = block or epochs
    blocked = np.random.default_rng(5)
    draws = [_draw_batch_indices(plan, blocked, (min(block, epochs - first), nb))
             for first in range(0, epochs, block)]
    rng = np.random.default_rng(5)
    per_epoch = [_draw_batch_indices(plan, rng, nb) for _ in range(epochs)]
    assert all(c.dtype == np.int64 and c.flags.c_contiguous for c in draws)
    np.testing.assert_array_equal(np.concatenate(draws), np.array(per_epoch))
    assert np.concatenate(draws).ravel().tolist() == replay_draws(5, n, p, epochs * nb)
    # and the stream goes on from the same place
    assert blocked.integers(0, 2**40) == rng.integers(0, 2**40)


def test_pdfp_picks_draw_nothing(monkeypatch):
    def draw(*args):
        raise AssertionError("pdfp drew batch indices")

    monkeypatch.setattr(solvers, "_draw_batch_indices", draw)
    spec, _, _ = fused_spec(10, 4, seed=19)
    cfg = SolverConfig(schedule=ConstantSchedule(0.05), lam=0.2, p=10, max_epochs=5)
    assert len(run_solver("pdfp", spec, L1, cfg)) == 6
    assert len(run_solver("pdfp", spec, L1, cfg, on_step=lambda s: None)) == 6


def run_diverging(*args, **kwargs):
    """run_solver's records and the messages of its divergence warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recs = run_solver(*args, **kwargs)
    return recs, [str(w.message) for w in caught
                  if w.category is RuntimeWarning and "diverged" in str(w.message)]


@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_diverging_run_stops_at_the_first_non_finite_record(kind):
    # steps far too large: every kind overflows within 60 epochs
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, 2)
    rho = estimate_spectrum(spec.B).rho_max
    sched = ConstantSchedule(1e3) if kind == "pdfp" else StepSchedule(c=1e3, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.9 / rho, p=40 if kind == "pdfp" else 8, seed=4,
                       max_epochs=60)
    admm = AdmmConfig(beta_tilde=1.0, zeta_schedule=StepSchedule(c=1e6, alpha=0.5))
    recs, messages = run_diverging(kind, spec, ProxSpec("l1", 0.1), cfg, admm_cfg=admm,
                                   name="label-" + kind)
    assert 1 < len(recs) < cfg.max_epochs + 1
    assert all(math.isfinite(r.objective) for r in recs[:-1])
    assert not math.isfinite(recs[-1].objective)
    assert messages == [f"solver label-{kind} (seed 4) diverged: objective "
                        f"{recs[-1].objective} at epoch {recs[-1].epoch}; run stopped"]


@pytest.mark.parametrize("kind", ["pdfp", "spdfp1", "spdfp2"])
def test_a_non_finite_start_does_not_stop_the_run(kind):
    # epoch 0 runs no step, so a non-finite objective there is no
    # divergence. x0 holds 1e200 in a coordinate that no sample and no row
    # of B touches, so 0.5 * nu * x @ x overflows; the first step, with
    # gamma_1 * nu = 1, takes that coordinate to 0 exactly, and the run
    # goes on to its last epoch without a warning
    rng = np.random.default_rng(44)
    A = rng.standard_normal((12, 4))
    A[:, 3] = 0.0
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=rng.standard_normal(12))
    B = SparseMatrix.from_coo(2, 4, [0, 0, 1, 1], [0, 1, 1, 2], [1.0, -1.0, 1.0, -1.0])
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=2.0, composite_weight=0.1, B=B)
    sched = ConstantSchedule(0.5) if kind == "pdfp" else StepSchedule(c=0.5, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.5 / estimate_spectrum(B).rho_max, p=4, seed=3,
                       max_epochs=8)
    recs, messages = run_diverging(kind, spec, ProxSpec("l1", 0.1), cfg,
                                   x0=[0.1, -0.2, 0.3, 1e200])
    assert messages == []
    assert [r.epoch for r in recs] == list(range(cfg.max_epochs + 1))
    assert recs[0].objective == math.inf
    assert all(math.isfinite(r.objective) for r in recs[1:])


@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_divergence_inside_a_record_block_stops_at_the_same_record(monkeypatch, kind):
    # the records are built a block of epochs at a time, so a run steps on
    # past its first non-finite objective to the end of the block; it must
    # still keep exactly the records, and give the warning, of a run that
    # builds each record as its epoch ends (a block of one epoch)
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, 2)
    rho = estimate_spectrum(spec.B).rho_max
    sched = ConstantSchedule(1e3) if kind == "pdfp" else StepSchedule(c=1e3, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.9 / rho, p=40 if kind == "pdfp" else 8, seed=4,
                       max_epochs=60)
    admm = AdmmConfig(beta_tilde=1.0, zeta_schedule=StepSchedule(c=1e6, alpha=0.5))
    ref = Reference(x_star=np.ones(6), v_star=np.ones(5), objective_star=0.5)
    per_epoch = spec.dim + spec.n + 2 * spec.B.n_rows  # doubles of one block row
    runs = {}
    for rows in (1, 3, None):
        with monkeypatch.context() as m:
            if rows is not None:
                m.setattr(solvers, "_RECORD_BLOCK", rows * per_epoch)
            recs, messages = run_diverging(kind, spec, ProxSpec("l1", 0.1), cfg,
                                           admm_cfg=admm, reference=ref)
        runs[rows] = [repr({**vars(r), "wall_time": None}) for r in recs], messages
        # the default block holds the whole run, so the run diverged inside it
        assert rows is not None or len(recs) < solvers._RECORD_BLOCK // per_epoch
    assert runs[1] == runs[3] == runs[None]
    recs, messages = runs[None]
    assert 1 < len(recs) < cfg.max_epochs + 1 and len(messages) == 1


@pytest.mark.parametrize("case", ["blocks", "diverged", "no_reference"])
@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_run_records_read_as_the_list_of_their_run_records(monkeypatch, kind, case):
    # run_solver returns columns; read as a sequence they are the RunRecords
    # built row by row from them, with the field types a RunRecord always
    # had: in a run of four record blocks, a run that diverges inside its
    # block, and a run without a reference, whose error columns are None
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, 2)
    big = 1e3 if case == "diverged" else 0.5
    sched = ConstantSchedule(big) if kind == "pdfp" else StepSchedule(c=big, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=0.9 / spec.B.spectrum.rho_max,
                       p=40 if kind == "pdfp" else 8, seed=4,
                       max_epochs=60 if case == "diverged" else 10)
    admm = AdmmConfig(beta_tilde=1.0, zeta_schedule=StepSchedule(c=1e6 if case == "diverged"
                                                                 else 1.0, alpha=0.5))
    ref = None if case == "no_reference" else Reference(x_star=np.ones(6), v_star=np.ones(5),
                                                          objective_star=0.5)
    if case == "blocks":
        monkeypatch.setattr(solvers, "_RECORD_BLOCK", 3 * (spec.dim + spec.n + 2 * spec.B.n_rows))
    recs, _ = run_diverging(kind, spec, ProxSpec("l1", 0.1), cfg, admm_cfg=admm, reference=ref)
    n = len(recs)
    assert n == cfg.max_epochs + 1 if case != "diverged" else 1 < n < cfg.max_epochs + 1
    rows = [solvers.RunRecord(recs.solver, recs.seed, recs.first + i,
                              *(None if c is None else float(c[i]) for c in recs.columns))
            for i in range(n)]

    def fields_of(r):
        assert type(r) is solvers.RunRecord
        return [(type(v), repr(v)) for v in vars(r).values()]

    want = [fields_of(r) for r in rows]
    assert isinstance(recs, collections.abc.Sequence)
    assert [fields_of(r) for r in recs] == want
    assert [fields_of(recs[i]) for i in range(-n, n)] == want + want
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            recs[i]
    for part in (slice(1, None), slice(None, 3), slice(None, None, -2), slice(5, 2)):
        assert type(recs[part]) is list
        assert [fields_of(r) for r in recs[part]] == want[part]
    assert recs[-1] is recs[n - 1] is list(recs)[-1]  # rows are built once and kept
    for r in recs:
        assert (type(r.solver), type(r.seed), type(r.epoch)) == (str, int, int)
        assert all(type(v) is float for v in (r.wall_time, r.objective))
        errors = (r.rel_obj_error, r.iterate_sq_error, r.a_k)
        assert [type(v) for v in errors] == (
            [type(None)] * 3 if ref is None else
            [float, float, type(None) if kind == "stoc_admm" else float])
    assert recs.objective.dtype == np.float64 and len(recs.wall_time) == n
    with pytest.raises(ValueError, match="read-only"):
        recs.objective[0] = 0.0
    if case == "diverged":
        assert not math.isfinite(recs[-1].objective)


def test_run_solver_unknown_kind_and_missing_admm_cfg():
    spec, _, _ = fused_spec(6, 3, seed=18)
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=0.2, p=2)
    with pytest.raises(ValueError):
        run_solver("sgd", spec, L1, cfg)
    with pytest.raises(ValueError):
        run_solver("stoc_admm", spec, L1, cfg)


# ---------------------------------------------------------------------------
# one-step expected-error estimate

def test_one_step_joint_error_estimate():
    # strongly convex square-loss instance with full-row-rank B
    n, d, p = 8, 4, 2
    rng = np.random.default_rng(20)
    A = rng.standard_normal((n, d))
    b = A @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    nu, mu = 0.5, 0.05
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=nu,
                       composite_weight=mu, B=build_difference_matrix(d))
    prox_spec = ProxSpec("l1", mu)
    Bd = spec.B.to_dense()
    eig = np.linalg.eigvalsh(Bd @ Bd.T)
    rho_max, rho_min = eig.max(), eig.min()
    lam = 0.9 / rho_max
    gamma = 0.4

    # reference pair from a long batch run; dual rescaled to subgradient scale
    cfgb = SolverConfig(schedule=ConstantSchedule(gamma), lam=lam, p=n)
    st = stepped("pdfp", spec, prox_spec, cfgb, 5000)[-1]
    x_star = st.x
    v_star = (lam / gamma) * st.v
    assert fixed_point_residual(spec, prox_spec, gamma, lam, x_star, st.v) < 1e-12

    # a fixed pre-step state a few iterations in
    c, alpha = 0.5, 0.7
    cfg = SolverConfig(schedule=StepSchedule(c=c, alpha=alpha), lam=lam, p=p, seed=3)
    plan = make_batch_plan(n, p)
    state = stepped("spdfp1", spec, prox_spec, cfg, 5)[-1]
    k = state.k
    gam_k = cfg.schedule.gamma(k)
    gam_k1 = cfg.schedule.gamma(k + 1)

    # empirical average of a_{k+1} over 2000 sampled one-step transitions,
    # each the private step from state on a batch of one draw
    ctx = solvers._RunContext(spec, prox_spec, plan.ranges)
    bt = ctx.B.rmatvec(state.v)
    acc = 0.0
    n_samples = 2000
    for i in _draw_batch_indices(plan, np.random.default_rng(999), n_samples).tolist():
        x, v, _ = solvers._pdfp_step("spdfp1", ctx, cfg, k, ctx.batches[i], state.x, state.v, bt)
        dx = x - x_star
        dv = v - v_star
        acc += dx @ dx + gam_k1**2 / lam * (dv @ dv)
    lhs = acc / n_samples

    # right side with exhaustive batch expectation
    gx = full_gradient(spec, state.x)
    gstar = full_gradient(spec, x_star)
    quad = sum(oracles.batch_probability(plan, i)
               * np.sum((stochastic_gradient(spec, plan, i, state.x) - gstar) ** 2)
               for i in range(plan.n_batches))
    dx = state.x - x_star
    dv = state.v - v_star
    rhs = (dx @ dx + gam_k**2 / lam * (1 - lam * rho_min) * (dv @ dv)
           - 2 * gam_k * (gx - gstar) @ dx + gam_k**2 * quad)
    assert lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# run_solver against a loop over the reference step bodies, one step a call

def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def check_record_bits(rec, kind, spec, cfg, ref, x, v, k):
    """Check the error columns of rec, bit for bit, against a transcription
    of them for the iterates x = x_k and v = v_k (unused for 'stoc_admm')
    alone, with the schedule's gamma of one k at a time."""
    diff = x - ref.x_star
    f = objective_value(spec, x)
    want = [f, (f - ref.objective_star) / abs(ref.objective_star), diff @ diff]
    have = [rec.objective, rec.rel_obj_error, rec.iterate_sq_error]
    if kind == "stoc_admm":
        assert rec.a_k is None
    else:
        if kind == "spdfp1" or k == 1:
            v1 = v
        else:
            gamma_prev = cfg.schedule.c if kind == "pdfp" else cfg.schedule.gamma(k - 1)
            v1 = (cfg.lam / gamma_prev) * v
        dv = v1 - ref.v_star
        want.append(diff @ diff + cfg.schedule.gamma(k) ** 2 / cfg.lam * (dv @ dv))
        have.append(rec.a_k)
    np.testing.assert_array_equal(bits(have), bits(want))


def parity_spec(loss):
    # n = 23 with p = 5 leaves a short last batch; sample 3 has no entries
    # and row 1 of B is empty
    rng = np.random.default_rng(30)
    n, d = 23, 6
    A = rng.standard_normal((n, d))
    A[rng.random((n, d)) < 0.3] = 0.0
    A[3] = 0.0
    b = rng.standard_normal(n) if loss == "square" else rng.choice([-1.0, 1.0], n)
    B = SparseMatrix.from_coo(4, d, [0, 0, 2, 2, 3, 3], [0, 1, 2, 3, 4, 5],
                              [1.0, -1.0, 1.0, -1.0, 2.0, -0.5])
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
    return ProblemSpec(loss=loss, dataset=ds, l2_weight=0.1, composite_weight=0.2, B=B)


@pytest.mark.parametrize("kind", SOLVER_KINDS)
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("prox_spec", [ProxSpec("l1", 0.2), ZERO], ids=["l1", "zero"])
def test_run_solver_matches_single_steps_bitwise(kind, loss, prox_spec):
    spec = parity_spec(loss)
    lam = 0.8 / estimate_spectrum(spec.B).rho_max
    sched = ConstantSchedule(0.3) if kind == "pdfp" else StepSchedule(c=0.5, alpha=0.7)
    cfg = SolverConfig(schedule=sched, lam=lam, p=5, seed=11, max_epochs=3)
    admm = AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    rng = np.random.default_rng(31)
    ref = Reference(x_star=rng.standard_normal(6), v_star=rng.standard_normal(4),
                    objective_star=0.7)

    got, snapshots = [], []

    def grab(s):
        got.append(s)
        snapshots.append([a.copy() for a in vars(s).values() if isinstance(a, np.ndarray)])

    recs = run_solver(kind, spec, prox_spec, cfg, admm_cfg=admm, reference=ref, on_step=grab)

    # each step on its own: a batch index drawn alone ('pdfp' draws none)
    # and B^T v worked out afresh
    plan = make_batch_plan(spec.n, cfg.p)
    rng = np.random.default_rng(cfg.seed)
    ctx = solvers._RunContext(spec, prox_spec, ((0, spec.n),) if kind == "pdfp" else plan.ranges)

    def step(s):
        batch = ctx.batches[0 if kind == "pdfp" else _draw_batch_indices(plan, rng, None)]
        if kind == "stoc_admm":
            return AdmmState(*solvers._stoc_admm(ctx, admm, s.k, batch, s.x, s.y, s.multiplier),
                             s.k + 1)
        x, v, _ = solvers._pdfp_step(kind, ctx, cfg, s.k, batch, s.x, s.v, ctx.B.rmatvec(s.v))
        return IterState(x, v, s.k + 1)

    state = initial_admm_state(spec) if kind == "stoc_admm" else initial_state(spec)
    steps_per_epoch = 1 if kind == "pdfp" else plan.n_batches

    def check_record(rec, s, epoch):
        assert rec.epoch == epoch
        check_record_bits(rec, kind, spec, cfg, ref, s.x, getattr(s, "v", None), s.k)

    check_record(recs[0], state, 0)
    n_steps = 0
    for epoch in range(1, cfg.max_epochs + 1):
        for _ in range(steps_per_epoch):
            state = step(state)
            mine = got[n_steps]
            assert type(mine) is type(state) and mine.k == state.k
            for name, want in vars(state).items():
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(bits(getattr(mine, name)), bits(want))
            n_steps += 1
        check_record(recs[epoch], state, epoch)
    assert len(got) == n_steps and len(recs) == cfg.max_epochs + 1

    # no state handed to on_step changed after later steps
    for s, snap in zip(got, snapshots):
        arrays = [a for a in vars(s).values() if isinstance(a, np.ndarray)]
        for a, b in zip(arrays, snap):
            np.testing.assert_array_equal(bits(a), bits(b))


@pytest.mark.parametrize("kind,bad", [
    *[(kind, "x0") for kind in SOLVER_KINDS],
    *[(kind, "p") for kind in SOLVER_KINDS],
    *[(kind, "v0") for kind in SOLVER_KINDS],
    *[(kind, "lambda") for kind in ("pdfp", "spdfp1", "spdfp2")],
])
def test_run_solver_rejects_bad_input_before_any_step(kind, bad):
    spec = parity_spec("square")
    rho_max = estimate_spectrum(spec.B).rho_max
    lam = 1.0 / rho_max if bad == "lambda" else 0.5 / rho_max
    p = spec.n + 1 if bad == "p" else 5
    cfg = SolverConfig(schedule=StepSchedule(c=0.5, alpha=0.7), lam=lam, p=p, max_epochs=2)
    admm = AdmmConfig(beta_tilde=2.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    x0 = np.zeros(spec.dim + (bad == "x0"))
    # a stoc_admm run takes no v0 at all, so it is given one only to be refused
    v0 = (None if kind == "stoc_admm" and bad != "v0"
          else np.zeros(spec.B.n_rows - (bad == "v0")))
    steps = []
    with pytest.raises(ValueError):
        run_solver(kind, spec, L1, cfg, admm_cfg=admm, x0=x0, v0=v0,
                   on_step=steps.append)
    assert steps == []
