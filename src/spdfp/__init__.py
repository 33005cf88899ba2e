"""Primal-dual fixed-point solvers for composite objectives f1(Bx) + f2(x).

The library provides the batch solver (constant step), its stochastic
mini-batch variants with diminishing steps c/k**alpha in two equivalent
forms, a stochastic ADMM baseline, the supporting proximal/gradient
oracles, recursion-bound analysis tools, and an experiment harness.
"""

from spdfp._kernels import backend
from spdfp.gradients import (
    BatchPlan,
    VarianceConstants,
    full_gradient,
    make_batch_plan,
    stochastic_gradient,
    variance_constants,
)
from spdfp.problem import Dataset, ProblemSpec, objective_value
from spdfp.prox import ProxSpec, prox, prox_residual, prox_scaled
from spdfp.rates import (
    ErrorTrace,
    RecursionParams,
    fit_rate,
    joint_error,
    lemma_bound,
    phi_c,
    simulate_recursion,
)
from spdfp.solvers import (
    AdmmConfig,
    AdmmState,
    ConstantSchedule,
    IterState,
    Reference,
    RunRecord,
    SolverConfig,
    StepSchedule,
    fixed_point_residual,
    run_solver,
)
from spdfp.sparse import (
    SparseMatrix,
    SpectralEstimate,
    build_difference_matrix,
    estimate_spectrum,
    identity,
    stack_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "AdmmState", "BatchPlan", "ConstantSchedule", "Dataset",
    "ErrorTrace", "IterState", "ProblemSpec", "ProxSpec",
    "RecursionParams", "Reference", "RunRecord", "SolverConfig",
    "SparseMatrix", "SpectralEstimate", "StepSchedule", "VarianceConstants",
    "backend", "build_difference_matrix", "estimate_spectrum",
    "fit_rate", "fixed_point_residual", "full_gradient", "identity",
    "joint_error", "lemma_bound", "make_batch_plan", "objective_value",
    "phi_c", "prox", "prox_residual", "prox_scaled", "run_solver",
    "simulate_recursion", "stack_identity", "stochastic_gradient",
    "variance_constants",
]
