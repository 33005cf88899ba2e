"""Acceptance suite.

Each test prints one line ``ACCEPTANCE <n> <name>: PASS|FAIL (detail)``
before asserting, so a full run always reports every criterion.

Criterion 3 is asserted exactly as stated over the full parameter grid and
is expected to fail on the alpha = 1, c = 0.5 cells: the printed alpha = 1
closed-form decay bound is violated by the extremal admissible sequence
itself at moderate k (see README, "Known red criterion"); the bound only
takes over past k ~ 450 there. The other 29 cells have zero violations.
"""

import time

import numpy as np
import pytest

import oracles
from spdfp.gradients import full_gradient, make_batch_plan, stochastic_gradient, variance_constants
from spdfp.harness import (
    compute_ground_truth,
    default_gamma,
    default_lambda,
    prox_for,
    synth_fused_lasso,
)
from spdfp.problem import Dataset, ProblemSpec, objective_value
from spdfp.prox import ProxSpec, prox, prox_residual, prox_scaled
from spdfp.rates import RecursionParams, fit_rate, joint_error, lemma_bound, simulate_recursion
from spdfp.solvers import (
    AdmmConfig,
    ConstantSchedule,
    SolverConfig,
    StepSchedule,
    fixed_point_residual,
    run_solver,
)
from spdfp.sparse import SparseMatrix, build_difference_matrix, estimate_spectrum, stack_identity


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def desk():
    spec = synth_fused_lasso(1000, 50, 0.05, 0.01, seed=7, mu=0.1)
    gt = compute_ground_truth(spec)
    return spec, prox_for(spec), gt


@pytest.fixture(scope="module")
def desk_ridge():
    spec = synth_fused_lasso(1000, 50, 0.05, 0.01, seed=7, mu=0.1, nu=0.1)
    gt = compute_ground_truth(spec)
    return spec, prox_for(spec), gt


def test_criterion_1_algorithm_equivalence(desk):
    t0 = time.perf_counter()
    spec, prox_spec, _ = desk
    cfg = SolverConfig(schedule=StepSchedule(c=1.0, alpha=0.7),
                       lam=default_lambda(spec), p=100, seed=42, max_epochs=5)
    xs1, xs2 = [], []
    run_solver("spdfp1", spec, prox_spec, cfg, on_step=lambda s: xs1.append(s.x))
    run_solver("spdfp2", spec, prox_spec, cfg, on_step=lambda s: xs2.append(s.x))
    dev = max(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)
              for a, b in zip(xs1, xs2))
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-10 and elapsed < 5.0
    report(1, "algorithm equivalence", ok,
           f"max rel deviation {dev:.3e} over {len(xs1)} steps, {elapsed:.2f}s")
    assert dev <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(64)
    n, d = 64, 6
    A = rng.standard_normal((n, d))
    worst = 0.0
    for loss in ("square", "logistic", "hinge"):
        b = rng.standard_normal(n) if loss == "square" else rng.choice([-1.0, 1.0], n)
        ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
        spec = ProblemSpec(loss=loss, dataset=ds, l2_weight=0.25,
                           composite_weight=0.0, B=build_difference_matrix(d))
        for p in (1, 4, 8, 64):
            plan = make_batch_plan(n, p)
            for _ in range(50):
                x = rng.standard_normal(d)
                full = full_gradient(spec, x)
                mix = np.zeros(d)
                for i in range(plan.n_batches):
                    mix += (p / n) * stochastic_gradient(spec, plan, i, x)
                worst = max(worst, float(np.max(np.abs(mix - full))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "stochastic gradient unbiasedness", ok,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_recursion_bound_grid():
    t0 = time.perf_counter()
    k_max = 5000
    violations = []
    for alpha in (0.3, 0.6, 0.9, 1.0):
        for c in (0.5, 2.0):
            for tau in (0.1, 1.0):
                for s_init in (0.0, 1.0):
                    params = RecursionParams(alpha=alpha, c=c, tau=tau, s_init=s_init)
                    s = simulate_recursion(params, k_max)
                    k_start = 2 * params.k0 if alpha == 1.0 else max(2 * params.k0, 3)
                    bad = sum(1 for k in range(k_start, k_max + 1)
                              if s[k - 1] > lemma_bound(params, k))
                    if bad:
                        violations.append((alpha, c, tau, s_init, bad))
    elapsed = time.perf_counter() - t0
    total = sum(v[-1] for v in violations)
    ok = total == 0 and elapsed < 5.0
    report(3, "recursion decay bound grid", ok,
           f"{total} violations in cells {violations or 'none'}, {elapsed:.2f}s")
    assert elapsed < 5.0
    # Faithful assertion; known to fail for the alpha=1, c=0.5 cells where the
    # printed bound is itself violated by the extremal sequence at small k.
    assert total == 0, (
        "printed alpha=1 decay bound fails against the extremal recursion for "
        f"c < 1: {violations}")


def test_criterion_4_variance_constants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(45)
    worst_slack = np.inf
    for _ in range(5):
        n, d = 100, 20
        A = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
        spec = ProblemSpec(loss="square", dataset=ds, l2_weight=0.0,
                           composite_weight=0.0, B=build_difference_matrix(d))
        for p in (5, 20):
            plan = make_batch_plan(n, p)
            vc = variance_constants(spec, plan)
            assert vc.C1 == pytest.approx(2 * vc.L_p**2 / p**2, rel=1e-12)
            assert vc.C2 == pytest.approx(2 * vc.L_p / (n * p) * (b @ b), rel=1e-12)
            for _ in range(100):
                x = rng.standard_normal(d) * rng.uniform(0, 5)
                second = sum(oracles.batch_probability(plan, i)
                             * np.sum(stochastic_gradient(spec, plan, i, x) ** 2)
                             for i in range(plan.n_batches))
                worst_slack = min(worst_slack, vc.C1 * (x @ x) + vc.C2 - second)
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-9 and elapsed < 5.0
    report(4, "second-moment bound constants", ok,
           f"worst slack {worst_slack:.3e}, {elapsed:.2f}s")
    assert worst_slack >= -1e-9
    assert elapsed < 5.0


def test_criterion_5_batch_solver_correctness(desk):
    t0 = time.perf_counter()
    spec, prox_spec, _ = desk
    rho_max = estimate_spectrum(spec.B).rho_max
    lam = 0.9 / rho_max
    gamma = default_gamma(spec)
    cfg = SolverConfig(schedule=ConstantSchedule(gamma), lam=lam, p=spec.n,
                       max_epochs=3000, stop_tolerance=1e-8)
    recs = run_solver("pdfp", spec, prox_spec, cfg)
    epochs_used = recs[-1].epoch
    # re-derive the final residual to certify the stop
    state_obj = recs[-1].objective
    assert epochs_used <= 3000

    # final iterate via a fresh full-length run to get x explicitly
    xs = []
    run_solver("pdfp", spec, prox_spec, cfg, on_step=lambda s: xs.append((s.x, s.v)))
    x_fin, v_fin = xs[-1]
    res = fixed_point_residual(spec, prox_spec, gamma, lam, x_fin, v_fin)
    f_fin = objective_value(spec, x_fin)

    rng = np.random.default_rng(5)
    worst_gap = np.inf
    for _ in range(10**4):
        x = x_fin + rng.standard_normal(spec.dim) * rng.uniform(0.001, 3.0)
        worst_gap = min(worst_gap, objective_value(spec, x) - f_fin)

    Ad = spec.dataset.samples.to_dense()
    x_pgd = oracles.proximal_gradient_tv(Ad, spec.dataset.labels, 0.0,
                                         spec.composite_weight, spec.B.to_dense(),
                                         outer_iters=300, inner_iters=200)
    pgd_gap = objective_value(spec, x_pgd) - f_fin
    elapsed = time.perf_counter() - t0
    ok = res <= 1e-8 and worst_gap >= -1e-12 and pgd_gap >= -1e-7 and elapsed < 30
    report(5, "batch solver correctness", ok,
           f"residual {res:.2e} after {epochs_used} iters, random gap {worst_gap:.2e}, "
           f"fb-splitting gap {pgd_gap:.2e}, {elapsed:.1f}s")
    assert res <= 1e-8
    assert worst_gap >= -1e-12          # no random point beats the solution
    assert pgd_gap >= -1e-7             # nor does the independent solver
    assert elapsed < 30


def test_criterion_6_rate_ordering(desk_ridge):
    t0 = time.perf_counter()
    spec, prox_spec, gt = desk_ridge
    lam = default_lambda(spec)
    rho_max = estimate_spectrum(spec.B).rho_max
    seeds = [int(s) for s in
             np.random.SeedSequence(2024).generate_state(10, dtype=np.uint64) >> 1]
    errs = {}
    for alpha in (0.3, 0.5, 0.7, 1.0):
        vals = []
        for seed in seeds:
            cfg = SolverConfig(schedule=StepSchedule(c=1.0, alpha=alpha), lam=lam,
                               p=100, seed=seed, max_epochs=20)
            recs = run_solver("spdfp2", spec, prox_spec, cfg,
                              reference=gt.reference(), rho_max=rho_max)
            vals.append(recs[-1].iterate_sq_error)
        errs[alpha] = float(np.mean(vals))
    gaps = [(errs[a] - errs[b]) / errs[a]
            for a, b in ((0.3, 0.5), (0.5, 0.7), (0.7, 1.0))]
    elapsed = time.perf_counter() - t0
    ok = all(g >= 0.05 for g in gaps) and elapsed < 120
    report(6, "step-exponent ordering", ok,
           "errors " + " > ".join(f"{errs[a]:.3e}" for a in (0.3, 0.5, 0.7, 1.0))
           + f", rel gaps {[f'{g:.0%}' for g in gaps]}, {elapsed:.1f}s")
    for g in gaps:
        assert g >= 0.05
    assert elapsed < 120


def test_criterion_7_rate_exponent():
    t0 = time.perf_counter()
    rng0 = np.random.default_rng(11)
    n, d = 64, 8
    A = rng0.standard_normal((n, d))
    x_true = rng0.standard_normal(d)
    b = A @ x_true + 0.05 * rng0.standard_normal(n)
    G = SparseMatrix.from_coo(3, d, [0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 7],
                              [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=1.0,
                       composite_weight=0.1, B=stack_identity(G))
    prox_spec = prox_for(spec)
    gt = compute_ground_truth(spec, iters=20000)
    assert gt.residual < 1e-12

    lam = default_lambda(spec)
    rho_max = estimate_spectrum(spec.B).rho_max
    sched = StepSchedule(c=0.5, alpha=0.7)
    n_steps, reps, p = 25000, 20, 8
    nb = n // p
    ks_rec = np.unique(np.round(np.logspace(0, np.log10(n_steps),
                                            int(24 * np.log10(n_steps)))).astype(np.int64))
    rec_set = set(int(k) for k in ks_rec)
    xs_all, vs_all = [], []
    for r in range(reps):
        cfg = SolverConfig(schedule=sched, lam=lam, p=p, seed=5000 + r,
                           max_epochs=n_steps // nb)
        xs, vs = [], []

        def grab(s, xs=xs, vs=vs):
            if s.k - 1 in rec_set:
                xs.append(s.x)
                vs.append(s.v)

        run_solver("spdfp1", spec, prox_spec, cfg, on_step=grab, rho_max=rho_max)
        xs_all.append(np.array(xs))
        vs_all.append(np.array(vs))
    trace = joint_error(xs_all, vs_all, gt.x_star, gt.v_star, sched, lam,
                        ks=ks_rec + 1)
    slope = fit_rate(trace, tail_fraction=0.5)
    elapsed = time.perf_counter() - t0
    ok = -1.05 <= slope <= -0.35 and elapsed < 60
    report(7, "empirical rate exponent", ok,
           f"slope {slope:.3f} (target -0.7), {elapsed:.1f}s")
    assert -1.05 <= slope <= -0.35
    assert elapsed < 60


def test_criterion_8_admm_parity(desk):
    t0 = time.perf_counter()
    spec, prox_spec, gt = desk
    lam = default_lambda(spec)
    rho_max = estimate_spectrum(spec.B).rho_max
    seeds = [int(s) for s in
             np.random.SeedSequence(77).generate_state(5, dtype=np.uint64) >> 1]
    admm_cfg = AdmmConfig(beta_tilde=30.0, zeta_schedule=StepSchedule(c=0.5, alpha=0.5))
    spdfp_rel, admm_rel = [], []
    spdfp_time, admm_time = 0.0, 0.0
    for seed in seeds:
        cfg = SolverConfig(schedule=StepSchedule(c=1.0, alpha=0.7), lam=lam,
                           p=100, seed=seed, max_epochs=50)
        recs = run_solver("spdfp2", spec, prox_spec, cfg,
                          reference=gt.reference(), rho_max=rho_max)
        spdfp_rel.append(min(r.rel_obj_error for r in recs))
        spdfp_time += recs[-1].wall_time
        recs = run_solver("stoc_admm", spec, prox_spec, cfg, admm_cfg=admm_cfg,
                          reference=gt.reference(), rho_max=rho_max)
        admm_rel.append(min(r.rel_obj_error for r in recs))
        admm_time += recs[-1].wall_time
    spdfp_err = float(np.mean(spdfp_rel))
    admm_err = float(np.mean(admm_rel))
    per_epoch = (spdfp_time / (50 * len(seeds)), admm_time / (50 * len(seeds)))
    elapsed = time.perf_counter() - t0
    ok = spdfp_err <= 1e-2 and admm_err <= 1e-2 and per_epoch[0] <= per_epoch[1] \
        and elapsed < 120
    report(8, "stochastic ADMM parity", ok,
           f"rel err spdfp {spdfp_err:.2e} admm {admm_err:.2e}; per-epoch "
           f"{per_epoch[0]*1e3:.2f}ms vs {per_epoch[1]*1e3:.2f}ms, {elapsed:.1f}s")
    assert spdfp_err <= 1e-2
    assert admm_err <= 1e-2
    assert per_epoch[0] <= per_epoch[1]
    assert elapsed < 120


def test_criterion_9_prox_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    trials = 10**4

    # firm nonexpansiveness of prox and its residual
    worst_firm = -np.inf
    for _ in range(trials):
        spec = ProxSpec("l1", float(rng.uniform(0, 2)))
        tau = float(rng.uniform(0, 2))
        y1 = rng.standard_normal(4) * 3
        y2 = rng.standard_normal(4) * 3
        for op in (prox, prox_residual):
            dp = op(spec, tau, y1) - op(spec, tau, y2)
            worst_firm = max(worst_firm, float(dp @ dp - dp @ (y1 - y2)))
    firm_ok = worst_firm <= 1e-12

    # Moreau decomposition, exact
    moreau_ok = True
    for _ in range(trials):
        spec = ProxSpec("l1", float(rng.uniform(0, 2)))
        tau = float(rng.uniform(0, 2))
        y = rng.standard_normal(4) * 3
        if not np.array_equal(prox(spec, tau, y) + prox_residual(spec, tau, y), y):
            moreau_ok = False
            break

    # scaling identity against a vectorized optimality-condition bisection:
    # root of x - y + w*sign(x) (in the subdifferential sense) equals the prox
    w = rng.uniform(0.01, 2.0, trials)
    r = 10.0 ** rng.uniform(-1, 1, trials)
    y = rng.standard_normal(trials) * 4
    got = np.array([prox_scaled(ProxSpec("l1", wi), ri, np.array([yi]))[0]
                    for wi, ri, yi in zip(w, r, y)])
    lo = np.minimum(y - w, 0.0)
    hi = np.maximum(y + w, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = mid - y + w * np.sign(mid)
        high = (gmid > 0) | ((mid == 0) & (np.abs(y) <= w))
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    want = 0.5 * (lo + hi)
    scale_err = float(np.max(np.abs(got - want)))
    scale_ok = scale_err <= 1e-8

    elapsed = time.perf_counter() - t0
    ok = firm_ok and moreau_ok and scale_ok and elapsed < 5
    report(9, "prox property suite", ok,
           f"firm slack {worst_firm:.2e}, moreau exact {moreau_ok}, "
           f"scaling err {scale_err:.2e}, {elapsed:.2f}s")
    assert firm_ok
    assert moreau_ok
    assert scale_ok
    assert elapsed < 5
