"""Iteration engines.

Four solver kinds share the state layout (primal x, dual v, counter k):

* ``pdfp``       batch primal-dual fixed-point step, constant step size
* ``spdfp1``     stochastic variant with gamma_k = c/k^alpha; the dual
                 iterate lives on the subgradient scale (this is the form
                 the convergence analysis tracks)
* ``spdfp2``     the rescaled equivalent used for numerics; the dual carries
                 a factor gamma_k/lambda relative to spdfp1, and its dual
                 memory term the factor gamma_1/lambda at k = 1 and
                 ((k-1)/k)**alpha after
* ``stoc_admm``  stochastic ADMM baseline with a d x d linear solve per step

``run_solver`` is the one entry to all of them: an epoch loop with
per-epoch records, returned as columns (RunRecords) whose RunRecord rows
are built only when one is read. A caller that wants every step's state
passes ``on_step``, which gets an IterState (an AdmmState for 'stoc_admm')
after each step.
It checks its inputs once and builds a _RunContext (the kept row views of A
and B, and scalars), on which the private reference step of each kind runs: one
_pdfp_step for the three PDFP-family kinds, set up as lane.c's step is, and
_stoc_admm. PDFP needs a constant step: run_solver and the ground truth
both refuse any other through _check_constant_step.

_steps alone picks the lane of the steps: the C lane's (_kernels.Steps) for a
'pdfp', 'spdfp1' or 'spdfp2' run without on_step where the lane is built,
else the reference steps behind the same calls (_ReferenceSteps), with the
same bits. ``run_solver`` and the ground truth each drive them in one loop.

``run_solver`` goes through its epochs in blocks: one draw of batch
indices, one steps call and one _block_records call each, whose columns are
one operation over the block each, not one call per epoch. The scalar
factors of the a_k column (a_k weights and dual scales) come from the steps
call too, which writes them beside each epoch's snapshot: in C where the
lane is built, else in Python floats (_record_factors), with the same bits.
"""

import math
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import repeat
from typing import ClassVar

import numpy as np

from spdfp import _kernels
from spdfp.gradients import _draw_batch_indices, _rows_gradient, make_batch_plan
from spdfp.problem import _objective
from spdfp.prox import soft_threshold

SOLVER_KINDS = ("pdfp", "spdfp1", "spdfp2", "stoc_admm")


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing step sizes gamma(k) = c / k**alpha."""

    c: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("schedule constant c must be positive and finite")
        if not 0 < self.alpha <= 1:
            raise ValueError("schedule exponent alpha must lie in (0, 1]")

    def gamma(self, k):
        return self.c / k**self.alpha


@dataclass(frozen=True)
class ConstantSchedule:
    """Constant step size gamma(k) = c, which is c / k**0 bit for bit; it
    stands in for a StepSchedule anywhere, and PDFP's gamma must be one."""

    c: float
    alpha: ClassVar[float] = 0.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("step size must be positive and finite")

    def gamma(self, k):
        return self.c


@dataclass
class IterState:
    """Primal/dual iterates before step k (1-based): what run_solver's
    on_step gets after each step of a PDFP-family run."""

    x: np.ndarray
    v: np.ndarray
    k: int


@dataclass
class AdmmState:
    """ADMM iterates before step k: what on_step gets in a 'stoc_admm' run."""

    x: np.ndarray
    y: np.ndarray
    multiplier: np.ndarray
    k: int


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by PDFP and SPDFP.

    lambda must satisfy 0 < lam < 1/rho_max(B B^T); run_solver enforces this
    before iterating (check_lambda). A pdfp run stops once its
    fixed-point residual is at most stop_tolerance; 0 turns that off.
    """

    schedule: StepSchedule
    lam: float
    p: int
    seed: int = 0
    max_epochs: int = 100
    stop_tolerance: float = 0.0

    def __post_init__(self):
        for name in ("p", "max_epochs", "seed"):  # a NumPy integer is one too
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.p < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.stop_tolerance < math.inf:
            raise ValueError("stop_tolerance must be nonnegative and finite")


@dataclass(frozen=True)
class AdmmConfig:
    """STOC-ADMM parameters: augmented penalty beta_tilde and the zeta_k
    schedule of the proximal term (default form c/sqrt(k))."""

    beta_tilde: float
    zeta_schedule: StepSchedule

    def __post_init__(self):
        if not 0 < self.beta_tilde < math.inf:
            raise ValueError("beta_tilde must be positive and finite")


def _iterate(arr, size, name):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have length {size}, got shape {arr.shape}")
    return arr


def initial_state(spec, x0=None, v0=None):
    x = np.zeros(spec.dim) if x0 is None else _iterate(x0, spec.dim, "x0").copy()
    v = np.zeros(spec.B.n_rows) if v0 is None else _iterate(v0, spec.B.n_rows, "v0").copy()
    return IterState(x=x, v=v, k=1)


def initial_admm_state(spec, x0=None):
    x = np.zeros(spec.dim) if x0 is None else _iterate(x0, spec.dim, "x0").copy()
    m = spec.B.n_rows
    return AdmmState(x=x, y=np.zeros(m), multiplier=np.zeros(m), k=1)


class _RunContext:
    """What the reference steps read, built once per run from checked inputs.

    ``full`` is (RowView of all of A, labels), ``batches`` holds one such
    pair per row range in ``ranges``, in order, and ``B`` is the RowView of
    all of B: each view is the matrix's kept one (SparseMatrix.row_view),
    so a run sets none up that an earlier one on the same matrices did, and
    each builds its arrays on its first product. The dense d x d terms of
    the ADMM x-update (admm_terms) are built on first use. The steps
    convert and check nothing: iterates must be float64 vectors of the
    right lengths.
    """

    def __init__(self, spec, prox_spec, ranges=()):
        A, labels = spec.dataset.samples, spec.dataset.labels
        self.spec = spec
        self.prox_l1 = prox_spec.kind == "l1"
        self.prox_weight = prox_spec.weight
        self.ranges = ranges
        self.B = spec.B.row_view(0, spec.B.n_rows)
        self.full = A.row_view(0, spec.n), labels
        self.batches = [(A.row_view(lo, hi), labels[lo:hi]) for lo, hi in ranges]
        self._admm = None

    def admm_terms(self, beta):
        """(I, beta B^T B), the dense d x d terms of the ADMM x-update with
        penalty beta: built on the first call, and kept while beta stays."""
        if self._admm is None or self._admm[0] != beta:
            Bd = self.spec.B.to_dense()
            self._admm = beta, np.eye(self.spec.dim), beta * (Bd.T @ Bd)
        return self._admm[1:]

    def gradient(self, batch, x):
        rows, labels = batch
        return _rows_gradient(self.spec.loss, self.spec.l2_weight, rows, labels, x)

    def prox(self, tau, y):
        if self.prox_l1:
            return soft_threshold(y, tau * self.prox_weight)
        return y.copy()

    def prox_residual(self, tau, y):
        return y - self.prox(tau, y)

    def dual_reflect(self, lam, v, bt):
        # (I - lam B B^T) v without materializing B B^T, from bt = B^T v
        return v - lam * self.B.matvec(bt)


# Reference steps: (ctx, params, k, batch, *carried) -> new carried values,
# always fresh arrays. k is the 1-based step counter before the step. The
# three PDFP-family kinds carry (x, v, B^T v) and differ in three scalars
# only, which _pdfp_step sets as lane.c's step does before one body; a
# product with 1.0 is exact, so each kind keeps the bits of its own formulas.

def _pdfp_step(kind, ctx, cfg, k, batch, x, v, bt):
    """One step from x and v, with bt = B^T v, as the step before left it;
    returns the new x and v and B^T v of the new v, for the step after. So
    a step makes three B products, as lane.c's does."""
    gamma, lam = cfg.schedule.gamma(k), cfg.lam
    factor, v_scale, x_scale = 1.0, 1.0, lam
    if kind == "spdfp1":
        factor, v_scale, x_scale = gamma / lam, lam / gamma, gamma
    elif kind == "spdfp2":
        factor = gamma / lam if k == 1 else ((k - 1) / k) ** cfg.schedule.alpha
    x_half = x - gamma * ctx.gradient(batch, x)
    arg = ctx.B.matvec(x_half) + factor * ctx.dual_reflect(lam, v, bt)
    v_new = v_scale * ctx.prox_residual(gamma / lam, arg)
    bt_new = ctx.B.rmatvec(v_new)
    return x_half - x_scale * bt_new, v_new, bt_new


def _stoc_admm(ctx, admm_cfg, k, batch, x, y, multiplier):
    beta = admm_cfg.beta_tilde
    zeta = admm_cfg.zeta_schedule.gamma(k)
    eye, beta_BtB = ctx.admm_terms(beta)
    g = ctx.gradient(batch, x)
    rhs = ctx.B.rmatvec(beta * y + multiplier) + x / zeta - g
    x_new = np.linalg.solve(eye / zeta + beta_BtB, rhs)
    Bx = ctx.B.matvec(x_new)
    y_new = ctx.prox(1.0 / beta, Bx - multiplier / beta)
    return x_new, y_new, multiplier - beta * (Bx - y_new)


def _check_constant_step(cfg):
    if cfg.schedule.alpha != 0:
        raise ValueError(f"pdfp needs a constant step, got alpha={cfg.schedule.alpha}")


def _fixed_point_residual(ctx, gamma, lam, x, v):
    g = ctx.gradient(ctx.full, x)
    arg = ctx.B.matvec(x - gamma * g) + ctx.dual_reflect(lam, v, ctx.B.rmatvec(v))
    t0 = ctx.prox_residual(gamma / lam, arg)
    return float(np.linalg.norm(v - t0) + np.linalg.norm(gamma * g + lam * ctx.B.rmatvec(t0)))


def fixed_point_residual(spec, prox_spec, gamma, lam, x, v):
    """Residual of the stationarity system; zero exactly at fixed pairs.

    With T0 = (I - Prox_{(gamma/lam) f1})(B(x - gamma grad f2(x)) + (I - lam B B^T)v),
    returns ||v - T0|| + ||gamma grad f2(x) + lam B^T T0||.
    """
    if not (0 < gamma < math.inf and 0 < lam < math.inf):
        raise ValueError("gamma and lambda must be positive and finite")
    return _fixed_point_residual(_RunContext(spec, prox_spec), gamma, lam,
                                 _iterate(x, spec.dim, "x"), _iterate(v, spec.B.n_rows, "v"))


def check_lambda(cfg, B, rho_max=None):
    """Reject a lambda not shown to lie in (0, 1/rho_max(B B^T)), and a NaN
    lambda or rho_max. A given rho_max is taken as exact. Otherwise lambda
    passes below 1/(theta + r), for B.spectrum theta with residual bound r,
    if that converged, or else (worked out only then) below
    1/(||B||_1 ||B||_inf) <= 1/rho_max."""
    def limit(bound):
        return math.inf if bound == 0 else 1.0 / bound
    if rho_max is not None:
        if 0 < cfg.lam < limit(rho_max):
            return
        limits = f"1/rho_max(BB^T) = {limit(rho_max)}"
    else:
        est = B.spectrum
        lanczos = limit(est.rho_max + est.residual)
        if est.converged and 0 < cfg.lam < lanczos:
            return
        a = np.abs(B.data)
        rows = np.repeat(np.arange(B.n_rows), np.diff(B.indptr))
        norms = limit(float(np.bincount(B.indices, weights=a, minlength=B.n_cols).max()
                            * np.bincount(rows, weights=a, minlength=B.n_rows).max()))
        if 0 < cfg.lam < norms:
            return
        limits = (f"1/(theta + r) = {lanczos} (Lanczos, converged={est.converged}), "
                  f"1/(||B||_1 ||B||_inf) = {norms}")
    raise ValueError(f"lambda={cfg.lam} is not shown to satisfy "
                     f"0 < lambda < 1/rho_max(BB^T): {limits}")


@dataclass(frozen=True)
class Reference:
    """Optional ground truth attached to a run for error reporting.

    v_star is expected on the subgradient scale (the alg1 dual convention).
    """

    x_star: np.ndarray
    v_star: np.ndarray = None
    objective_star: float = None

    def check(self, spec):
        """Refuse, naming the field, an x_star not of shape (spec.dim,), and
        where given a v_star not of shape (spec.B.n_rows,) or an
        objective_star that is not finite."""
        given = [("x_star", self.x_star, spec.dim)]
        if self.v_star is not None:
            given.append(("v_star", self.v_star, spec.B.n_rows))
        for name, value, length in given:
            if np.shape(value) != (length,):
                raise ValueError(f"reference {name} must have shape ({length},), "
                                 f"got {np.shape(value)}")
        if self.objective_star is not None and not math.isfinite(self.objective_star):
            raise ValueError(f"reference objective_star = {self.objective_star} is not finite")


@dataclass
class RunRecord:
    """Per-epoch trace row. wall_time is the time from the start of the run
    to the end of the epoch's steps; building records is not part of it."""

    solver: str
    seed: int
    epoch: int
    wall_time: float
    objective: float
    rel_obj_error: float = None
    iterate_sq_error: float = None
    a_k: float = None


# the fields of RunRecord that a run records per epoch, as float64 columns
COLUMNS = tuple(f.name for f in fields(RunRecord))[3:]


class RunRecords(Sequence):
    """The records of one run: its ``solver`` name, ``seed`` and ``first``
    epoch, and one read-only float64 array per name in COLUMNS, or None
    where the run records no such column (``columns`` lists them in that
    order).

    Its items are RunRecords, with a RunRecord's field types: an int epoch,
    and a float or None for each column. They are built on the first read
    of one, all at once, and kept; a slice is a list of them."""

    def __init__(self, solver, seed, first, columns):
        self.solver, self.seed, self.first, self.columns = solver, seed, first, tuple(columns)
        for name, column in zip(COLUMNS, self.columns):
            if column is not None:
                column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self):
        return len(self.objective)

    def __getitem__(self, i):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def field_values(self):
        """One iterable per field of RunRecord, in field order, of its
        values over the epochs, as a RunRecord holds them."""
        n = len(self)
        return [repeat(self.solver, n), repeat(self.seed, n), range(self.first, self.first + n),
                *(repeat(None, n) if c is None else c.tolist() for c in self.columns)]

    @cached_property
    def _rows(self):
        return list(map(RunRecord, *self.field_values()))


def _record_factors(cfg, k, e, weights, dscales):
    """Row e of weights and of dscales, where given, for the record after
    step k - 1: the a_k weight gamma(k) ** 2 / lam, inf where Python's float
    ** overflows, and lam / gamma(k - 1), 1 at k = 1, which puts the dual on
    alg1's subgradient scale. gamma(k) = c / k**alpha takes libm's pow, not
    NumPy's power, as lane.c's spdfp_run_steps does, with the same bits."""
    if weights is not None:
        try:
            weights[e] = (cfg.schedule.c / k**cfg.schedule.alpha) ** 2 / cfg.lam
        except OverflowError:
            weights[e] = math.inf
    if dscales is not None:
        dscales[e] = cfg.lam / (cfg.schedule.c / (k - 1)**cfg.schedule.alpha) if k > 1 else 1.0


def _block_records(spec, reference, ctx, first, X, V, wall, weights, dscales):
    """The columns (COLUMNS) of the records of epochs first, first + 1, ...,
    up to the first after epoch 0 whose objective is NaN or infinite: row i
    of X, and of V unless it is None ('stoc_admm'), holds the iterates at
    the end of epoch first + i, whose steps ended wall[i] seconds after the
    run started. The a_k column takes row i of weights, and of dscales
    unless it is None ('spdfp1', whose dual is on the subgradient scale),
    where weights is given (_record_factors).

    A x and B x of every row x of X are one RowView.matvecs each, of ctx's
    views of A and B; each column is then one NumPy operation over the
    stacked rows, with the bits it has for each row alone (_objective). No
    per-epoch Python object is built."""
    objective = _objective(spec, X, ctx.full[0].matvecs(X), ctx.B.matvecs(X))
    finite = np.isfinite(objective)
    finite[0] |= first == 0  # epoch 0 runs no step
    n = len(wall) if finite.all() else int(finite.argmin()) + 1
    rel = sq = a_k = None
    if reference is not None:
        diff = X - reference.x_star
        sq = np.vecdot(diff, diff)
        if reference.objective_star is not None:
            f_star = reference.objective_star
            rel = (objective - f_star) / max(abs(f_star), 1e-12)
        if weights is not None:
            dv = (V if dscales is None else V * dscales[:, None]) - reference.v_star
            a_k = sq + weights * np.vecdot(dv, dv)
    return tuple(None if c is None else c[:n] for c in (wall, objective, rel, sq, a_k))


_STEPS = {"pdfp": partial(_pdfp_step, "pdfp"), "spdfp1": partial(_pdfp_step, "spdfp1"),
          "spdfp2": partial(_pdfp_step, "spdfp2"), "stoc_admm": _stoc_admm}

# Doubles a record block holds at most for its snapshots of x and v and
# their products A x and B x: whole epochs, but always at least one.
_RECORD_BLOCK = 1 << 16


class _ReferenceSteps:
    """The reference steps of a run of kind, behind the calls of a
    _kernels.Steps, picks indexing ctx.batches; the time stamps come from
    time.perf_counter. on_step, when given, gets the state after each step;
    ``iterates`` holds the latest iterates, fresh arrays after every step.
    A PDFP-family call works B^T v out once, after checking its picks, and
    each step hands on B^T v of its new v to the next, as on the C lane.
    A run without on_step steps with NumPy's overflow and invalid-value
    warnings off, as on the C lane, so a diverging run warns alike on both
    lanes; with on_step, the callback's own warnings show."""

    def __init__(self, kind, params, ctx, iterates, on_step):
        self._step, self._params, self._ctx, self._on_step = _STEPS[kind], params, ctx, on_step
        self._state = AdmmState if kind == "stoc_admm" else IterState
        self._carry_bt = kind != "stoc_admm"
        self._quiet = {} if on_step is not None else {"over": "ignore", "invalid": "ignore"}
        self.iterates, self._k = iterates, 1

    def __call__(self, picks, X=None, V=None, stamps=None, weights=None, dscales=None):
        """The steps of picks, an int64 array of one row of picks per
        epoch; k counts the steps of all calls from 1. After epoch e, x goes
        to X[e], v to V[e], the seconds since the call began to stamps[e]
        and the factors of the epoch's a_k record (_record_factors) to
        weights[e] and dscales[e], where given. Every pick is checked before
        the first step, as on the C lane: one outside [0, len(ctx.ranges))
        raises ValueError and changes nothing."""
        t0 = time.perf_counter()
        step, params, ctx, on_step = self._step, self._params, self._ctx, self._on_step
        if picks.size and not (0 <= picks.min() and picks.max() < len(ctx.ranges)):
            raise ValueError("batch index or row range out of bounds")
        iterates, k = self.iterates, self._k
        n = len(iterates)
        # B^T v, which each PDFP-family step hands on to the next
        carried = (*iterates, ctx.B.rmatvec(iterates[1])) if self._carry_bt else iterates
        with np.errstate(**self._quiet):
            for e, row in enumerate(picks.tolist()):
                for i in row:
                    carried = step(ctx, params, k, ctx.batches[i], *carried)
                    k += 1
                    if on_step is not None:
                        on_step(self._state(*carried[:n], k))
                if X is not None:
                    X[e] = carried[0]
                if V is not None:
                    V[e] = carried[1]
                _record_factors(params, k, e, weights, dscales)
                if stamps is not None:
                    stamps[e] = time.perf_counter() - t0
        self.iterates, self._k = carried[:n], k


def _steps(kind, spec, prox_spec, params, ctx, iterates, on_step=None):
    """The steps of a run of kind from iterates, over the batch row ranges
    of ctx, with params (a SolverConfig, or an AdmmConfig for 'stoc_admm').

    Where the C lane is built, a 'pdfp', 'spdfp1' or 'spdfp2' run without
    on_step gets the lane's _kernels.Steps, which updates the iterates
    (x, v) in place; any other run gets _ReferenceSteps. Both take the same
    calls and give the same bits."""
    lane = _kernels.LANE
    if lane is not None and kind != "stoc_admm" and on_step is None:
        return lane.steps(kind, spec, prox_spec, params, ctx.ranges, *iterates)
    return _ReferenceSteps(kind, params, ctx, iterates, on_step)


def run_solver(kind, spec, prox_spec, cfg, admm_cfg=None, x0=None, v0=None,
               reference=None, rho_max=None, on_step=None, name=None):
    """Run a solver for cfg.max_epochs epochs and return its per-epoch
    records as a RunRecords: columns, which a sequence of RunRecord rows
    fronts, built on the first read of one.

    One epoch is one batch step for 'pdfp' and one full pass (n_batches
    stochastic steps) otherwise. PDFP needs a constant step and
    additionally stops once the fixed-point residual drops below
    cfg.stop_tolerance. Records include error columns when a Reference is
    supplied.

    Every input (kind, the schedule, the lambda guard, the batch plan, x0,
    v0, which 'stoc_admm' refuses, and the reference) is checked once, before
    the first step; the steps then run unchecked on raw arrays, in the lane
    _steps picks. The lambda guard reads spec.B.spectrum unless rho_max,
    taken as exact, is given. on_step, when given, is called with the state
    after every step: an IterState, or an AdmmState for 'stoc_admm'. Its
    arrays are fresh each step, so a caller may keep them.

    The epochs come in blocks of at most _RECORD_BLOCK doubles of snapshots
    and their products. A block draws the batch indices of its epochs when
    it starts ('pdfp' draws none) and steps them in one call, which copies x
    and v into the block's own arrays, writes the factors of the a_k column
    where a record reads them and stamps the time after each epoch; a
    'pdfp' run that checks its residual makes one call per epoch. The
    block then works out its columns (_block_records), which the run joins
    block by block; wall_time is the stamp plus the time of the call since
    the run started, less the time spent on the columns of earlier blocks.
    A run whose objective is NaN or infinite after an epoch keeps that
    epoch's record, drops the rest of its block, warns (RuntimeWarning) and
    stops.
    """
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver kind {kind!r}")
    if kind == "stoc_admm" and admm_cfg is None:
        raise ValueError("stoc_admm requires an AdmmConfig")
    name = name or kind
    if kind == "pdfp":
        _check_constant_step(cfg)
    if kind != "stoc_admm":
        check_lambda(cfg, spec.B, rho_max=rho_max)
    plan = make_batch_plan(spec.n, cfg.p)
    if reference is not None:
        reference.check(spec)
    if kind == "stoc_admm":
        s = initial_admm_state(spec, x0=x0)
        if v0 is not None:
            raise ValueError("stoc_admm takes no v0: its dual iterates start at zero")
        params, iterates = admm_cfg, (s.x, s.y, s.multiplier)
    else:
        s = initial_state(spec, x0=x0, v0=v0)
        params, iterates = cfg, (s.x, s.v)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    ranges = ((0, spec.n),) if kind == "pdfp" else plan.ranges
    ctx = _RunContext(spec, prox_spec, ranges)
    steps = _steps(kind, spec, prox_spec, params, ctx, iterates, on_step)
    per_epoch = len(ranges)
    rows = max(1, _RECORD_BLOCK // (spec.dim + spec.n + 2 * spec.B.n_rows))
    # a pdfp run that stops on its residual checks it after every epoch
    check_stop = kind == "pdfp" and cfg.stop_tolerance > 0
    span = 1 if check_stop else rows
    # the factors of the a_k column, asked of the steps only where it is recorded
    with_a_k = kind != "stoc_admm" and reference is not None and reference.v_star is not None
    dual_scaled = with_a_k and kind in ("pdfp", "spdfp2")
    blocks, stop = [], False
    for first in range(0, cfg.max_epochs + 1, rows):
        n = min(rows, cfg.max_epochs + 1 - first)
        # the rows the steps fill in per epoch: x, v, time stamp, a_k weight and dual scale
        out = (np.empty((n, spec.dim)),
               None if kind == "stoc_admm" else np.empty((n, spec.B.n_rows)),
               np.empty(n), np.empty(n) if with_a_k else None, np.empty(n) if dual_scaled else None)
        X, V, wall, weights, dscales = out
        skipped = filled = int(first == 0)  # epoch 0 runs no step
        if skipped:
            X[0] = steps.iterates[0]
            if V is not None:
                V[0] = steps.iterates[1]
            _record_factors(cfg, 1, 0, weights, dscales)
            wall[0] = time.perf_counter() - t0
        shape = (n - skipped, per_epoch)
        picks = (np.zeros(shape, dtype=np.int64) if kind == "pdfp"
                 else _draw_batch_indices(plan, rng, shape))
        for lo in range(0, len(picks), span):
            part = slice(skipped + lo, min(n, skipped + lo + span))
            at = time.perf_counter() - t0
            steps(picks[lo:lo + span], *[None if a is None else a[part] for a in out])
            wall[part] += at
            filled = part.stop
            stop = check_stop and _fixed_point_residual(
                ctx, cfg.schedule.c, cfg.lam, *steps.iterates) <= cfg.stop_tolerance
            if stop:
                break
        t = time.perf_counter()
        blocks.append(_block_records(spec, reference, ctx, first,
                                     *[None if a is None else a[:filled] for a in out]))
        t0 += time.perf_counter() - t  # building records is not run time
        objective = blocks[-1][1]
        epoch, last = first + len(objective) - 1, float(objective[-1])
        if epoch and not math.isfinite(last):  # epoch 0 runs no step
            warnings.warn(f"solver {name} (seed {cfg.seed}) diverged: objective "
                          f"{last} at epoch {epoch}; run stopped",
                          RuntimeWarning, stacklevel=2)
            break
        if stop:
            break
    return RunRecords(name, cfg.seed, 0, [None if b[0] is None else np.concatenate(b)
                                          for b in zip(*blocks)])
