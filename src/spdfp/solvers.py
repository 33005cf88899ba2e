"""Iteration engines.

Four solvers share the state layout (primal x, dual v, counter k):

* ``pdfp_step``        batch primal-dual fixed-point step, constant step size
* ``spdfp_step_alg1``  stochastic variant with gamma_k = c/k^alpha; the dual
                       iterate lives on the subgradient scale (this is the
                       form the convergence analysis tracks)
* ``spdfp_step_alg2``  the rescaled equivalent used for numerics; the dual
                       carries a factor gamma_k/lambda relative to alg1
* ``stoc_admm_step``   stochastic ADMM baseline with a d x d linear solve
                       per step

``run_solver`` wraps any of them into an epoch loop with per-epoch records.
"""

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from spdfp.gradients import draw_batch_index, full_gradient, make_batch_plan, stochastic_gradient
from spdfp.problem import objective_value
from spdfp.prox import prox, prox_residual
from spdfp.sparse import estimate_spectrum

SOLVER_KINDS = ("pdfp", "spdfp1", "spdfp2", "stoc_admm")


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing step sizes gamma(k) = c / k**alpha."""

    c: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("schedule constant c must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("schedule exponent alpha must lie in (0, 1]")

    def gamma(self, k):
        return self.c / k**self.alpha


@dataclass(frozen=True)
class ConstantSchedule:
    """Constant step size; stands in for a StepSchedule where allowed
    (PDFP's gamma, STOC-ADMM's zeta)."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("step size must be positive")

    def gamma(self, k):
        return self.c


@dataclass
class IterState:
    """Primal/dual iterates before step k (1-based)."""

    x: np.ndarray
    v: np.ndarray
    k: int


@dataclass
class AdmmState:
    x: np.ndarray
    y: np.ndarray
    multiplier: np.ndarray
    k: int


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by PDFP and SPDFP.

    lambda must satisfy 0 < lam < 1/rho_max(B B^T); run_solver enforces this
    against a power-iteration estimate before iterating.
    """

    schedule: StepSchedule
    lam: float
    p: int
    seed: int = 0
    max_epochs: int = 100
    stop_tolerance: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.p < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")


@dataclass(frozen=True)
class AdmmConfig:
    """STOC-ADMM parameters: augmented penalty beta_tilde and the zeta_k
    schedule of the proximal term (default form c/sqrt(k))."""

    beta_tilde: float
    zeta_schedule: StepSchedule

    def __post_init__(self):
        if self.beta_tilde <= 0:
            raise ValueError("beta_tilde must be positive")


def initial_state(spec, x0=None, v0=None):
    x = np.zeros(spec.dim) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    v = np.zeros(spec.B.n_rows) if v0 is None else np.asarray(v0, dtype=np.float64).copy()
    if x.shape != (spec.dim,) or v.shape != (spec.B.n_rows,):
        raise ValueError("initial iterates have wrong dimensions")
    return IterState(x=x, v=v, k=1)


def initial_admm_state(spec, x0=None):
    x = np.zeros(spec.dim) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    m = spec.B.n_rows
    return AdmmState(x=x, y=np.zeros(m), multiplier=np.zeros(m), k=1)


def _dual_reflect(B, lam, v):
    # (I - lam B B^T) v without materializing B B^T
    return v - lam * B.matvec(B.rmatvec(v))


def pdfp_step(spec, prox_spec, cfg, state):
    """One batch step with constant gamma = cfg.schedule.c."""
    B = spec.B
    gamma = cfg.schedule.c
    lam = cfg.lam
    x_half = state.x - gamma * full_gradient(spec, state.x)
    arg = B.matvec(x_half) + _dual_reflect(B, lam, state.v)
    v_new = prox_residual(prox_spec, gamma / lam, arg)
    x_new = x_half - lam * B.rmatvec(v_new)
    return IterState(x=x_new, v=v_new, k=state.k + 1)


def spdfp_step_alg1(spec, prox_spec, cfg, state, rng, plan):
    """One stochastic step, dual on the subgradient scale."""
    B = spec.B
    k = state.k
    gamma_k = cfg.schedule.gamma(k)
    lam = cfg.lam
    i = draw_batch_index(plan, rng)
    g = stochastic_gradient(spec, plan, i, state.x)
    x_half = state.x - gamma_k * g
    arg = B.matvec(x_half) + (gamma_k / lam) * _dual_reflect(B, lam, state.v)
    v_new = (lam / gamma_k) * prox_residual(prox_spec, gamma_k / lam, arg)
    x_new = x_half - gamma_k * B.rmatvec(v_new)
    return IterState(x=x_new, v=v_new, k=k + 1)


def spdfp_step_alg2(spec, prox_spec, cfg, state, rng, plan):
    """One stochastic step in the rescaled form.

    At k = 1 the dual memory term carries the factor gamma_1/lambda; for
    k >= 2 it carries ((k-1)/k)**alpha.
    """
    B = spec.B
    k = state.k
    gamma_k = cfg.schedule.gamma(k)
    lam = cfg.lam
    i = draw_batch_index(plan, rng)
    g = stochastic_gradient(spec, plan, i, state.x)
    x_half = state.x - gamma_k * g
    factor = gamma_k / lam if k == 1 else ((k - 1) / k) ** cfg.schedule.alpha
    arg = B.matvec(x_half) + factor * _dual_reflect(B, lam, state.v)
    v_new = prox_residual(prox_spec, gamma_k / lam, arg)
    x_new = x_half - lam * B.rmatvec(v_new)
    return IterState(x=x_new, v=v_new, k=k + 1)


class _AdmmWorkspace:
    """Per-run cache for the d x d system of the x-update."""

    def __init__(self, spec, admm_cfg):
        Bd = spec.B.to_dense()
        self.BtB = Bd.T @ Bd
        self.eye = np.eye(spec.dim)
        self.constant_zeta = isinstance(admm_cfg.zeta_schedule, ConstantSchedule)
        self._cached = None

    def system(self, admm_cfg, zeta):
        if self.constant_zeta and self._cached is not None:
            return self._cached
        M = self.eye / zeta + admm_cfg.beta_tilde * self.BtB
        if self.constant_zeta:
            self._cached = M
        return M


def stoc_admm_step(spec, prox_spec, admm_cfg, state, rng, plan, workspace=None):
    """One stochastic ADMM step (x linear solve, y prox, multiplier update)."""
    B = spec.B
    if workspace is None:
        workspace = _AdmmWorkspace(spec, admm_cfg)
    beta = admm_cfg.beta_tilde
    zeta = admm_cfg.zeta_schedule.gamma(state.k)
    i = draw_batch_index(plan, rng)
    g = stochastic_gradient(spec, plan, i, state.x)
    rhs = B.rmatvec(beta * state.y + state.multiplier) + state.x / zeta - g
    M = workspace.system(admm_cfg, zeta)
    x_new = np.linalg.solve(M, rhs)
    Bx = B.matvec(x_new)
    y_new = prox(prox_spec, 1.0 / beta, Bx - state.multiplier / beta)
    mult_new = state.multiplier - beta * (Bx - y_new)
    return AdmmState(x=x_new, y=y_new, multiplier=mult_new, k=state.k + 1)


def fixed_point_residual(spec, prox_spec, gamma, lam, x, v):
    """Residual of the stationarity system; zero exactly at fixed pairs.

    With T0 = (I - Prox_{(gamma/lam) f1})(B(x - gamma grad f2(x)) + (I - lam B B^T)v),
    returns ||v - T0|| + ||gamma grad f2(x) + lam B^T T0||.
    """
    if gamma <= 0 or lam <= 0:
        raise ValueError("gamma and lambda must be positive")
    B = spec.B
    g = full_gradient(spec, x)
    arg = B.matvec(x - gamma * g) + _dual_reflect(B, lam, v)
    t0 = prox_residual(prox_spec, gamma / lam, arg)
    return float(np.linalg.norm(v - t0) + np.linalg.norm(gamma * g + lam * B.rmatvec(t0)))


def check_lambda(cfg, B, rho_max=None):
    """Reject lambda outside (0, 1/rho_max(B B^T)). Returns rho_max."""
    if rho_max is None:
        rho_max = estimate_spectrum(B).rho_max
    if rho_max > 0 and cfg.lam >= 1.0 / rho_max:
        raise ValueError(
            f"lambda={cfg.lam} violates lambda < 1/rho_max(BB^T) = {1.0 / rho_max}")
    return rho_max


@dataclass(frozen=True)
class Reference:
    """Optional ground truth attached to a run for error reporting.

    v_star is expected on the subgradient scale (the alg1 dual convention).
    """

    x_star: np.ndarray
    v_star: np.ndarray = None
    objective_star: float = None


@dataclass
class RunRecord:
    """Per-epoch trace row."""

    solver: str
    seed: int
    epoch: int
    wall_time: float
    objective: float
    rel_obj_error: float = None
    iterate_sq_error: float = None
    a_k: float = None


def _dual_on_subgradient_scale(kind, cfg, state):
    # alg2 / pdfp duals carry a factor gamma/lam relative to the alg1 scale
    if kind == "spdfp1" or state.k == 1:
        return state.v
    if kind == "pdfp":
        return (cfg.lam / cfg.schedule.c) * state.v
    gamma_prev = cfg.schedule.gamma(state.k - 1)
    return (cfg.lam / gamma_prev) * state.v


def _record(kind, name, spec, cfg, state, seed, epoch, t0, reference):
    obj = objective_value(spec, state.x)
    rec = RunRecord(solver=name, seed=seed, epoch=epoch,
                    wall_time=time.perf_counter() - t0, objective=obj)
    if reference is not None:
        diff = state.x - reference.x_star
        rec.iterate_sq_error = float(diff @ diff)
        if reference.objective_star is not None:
            f_star = reference.objective_star
            rec.rel_obj_error = (obj - f_star) / max(abs(f_star), 1e-12)
        if reference.v_star is not None and kind != "stoc_admm":
            v1 = _dual_on_subgradient_scale(kind, cfg, state)
            dv = v1 - reference.v_star
            gk = cfg.schedule.gamma(state.k)  # the iterate after step k-1 is x_k
            rec.a_k = float(diff @ diff + gk**2 / cfg.lam * (dv @ dv))
    return rec


def run_solver(kind, spec, prox_spec, cfg, admm_cfg=None, x0=None, v0=None,
               reference=None, rho_max=None, on_step=None, name=None):
    """Run a solver for cfg.max_epochs epochs and return per-epoch records.

    One epoch is one batch step for 'pdfp' and one full pass (n_batches
    stochastic steps) otherwise. PDFP additionally stops once the
    fixed-point residual drops below cfg.stop_tolerance. Records include
    error columns when a Reference is supplied. on_step, when given, is
    called with the state after every step: an IterState, or an AdmmState
    for 'stoc_admm'.
    """
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver kind {kind!r}")
    if kind == "stoc_admm" and admm_cfg is None:
        raise ValueError("stoc_admm requires an AdmmConfig")
    name = name or kind
    if kind != "stoc_admm":
        check_lambda(cfg, spec.B, rho_max=rho_max)
    plan = make_batch_plan(spec.n, cfg.p)
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = 1 if kind == "pdfp" else plan.n_batches
    t0 = time.perf_counter()

    # the step functions are looked up here, once per run, so a module-level
    # replacement of e.g. pdfp_step still takes effect
    if kind == "stoc_admm":
        state = initial_admm_state(spec, x0=x0)
        step = partial(stoc_admm_step, spec, prox_spec, admm_cfg, rng=rng, plan=plan,
                       workspace=_AdmmWorkspace(spec, admm_cfg))
    elif kind == "pdfp":
        state = initial_state(spec, x0=x0, v0=v0)
        step = partial(pdfp_step, spec, prox_spec, cfg)
    else:
        state = initial_state(spec, x0=x0, v0=v0)
        alg = spdfp_step_alg1 if kind == "spdfp1" else spdfp_step_alg2
        step = partial(alg, spec, prox_spec, cfg, rng=rng, plan=plan)

    records = [_record(kind, name, spec, cfg, state, cfg.seed, 0, t0, reference)]
    for epoch in range(1, cfg.max_epochs + 1):
        for _ in range(steps_per_epoch):
            state = step(state)
            if on_step is not None:
                on_step(state)
        records.append(_record(kind, name, spec, cfg, state, cfg.seed, epoch, t0, reference))
        if kind == "pdfp" and cfg.stop_tolerance > 0:
            res = fixed_point_residual(spec, prox_spec, cfg.schedule.c, cfg.lam,
                                       state.x, state.v)
            if res <= cfg.stop_tolerance:
                break
    return records
