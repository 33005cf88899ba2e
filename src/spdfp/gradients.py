"""Full and mini-batch gradient oracles.

The sample set is split into contiguous non-overlapping batches of size p
(the final batch keeps the remainder when p does not divide n). A batch is
drawn with probability proportional to its size, which keeps the stochastic
gradient an exactly unbiased estimate of the full gradient.
"""

from dataclasses import dataclass

import numpy as np

from spdfp.problem import loss_weights
from spdfp.sparse import estimate_spectrum


@dataclass(frozen=True)
class BatchPlan:
    """Contiguous batch ranges [(start, stop), ...] covering 0..n-1."""

    n: int
    p: int
    ranges: tuple

    @property
    def n_batches(self):
        return len(self.ranges)


def make_batch_plan(n, p):
    """Split {0..n-1} into ceil(n/p) contiguous batches, the first n//p of
    size p and, when p does not divide n, a final short batch of size n % p."""
    if p <= 0 or p > n:
        raise ValueError("batch size must satisfy 1 <= p <= n")
    starts = list(range(0, n, p))
    ranges = tuple((s, min(s + p, n)) for s in starts)
    return BatchPlan(n=n, p=p, ranges=ranges)


def _draw_batch_indices(plan, rng, size):
    """Batch indices as an int64 array of shape size, an int or a tuple (a
    scalar for None). One draw of K indices in any shape gives the same
    stream, in C order, as K scalar draws, so draws may be split, joined or
    shaped freely."""
    u = rng.integers(0, plan.n, size=size)
    return np.minimum(u // plan.p, plan.n_batches - 1)


def _rows_gradient(loss, l2_weight, rows, labels, x):
    """Mean loss gradient over the rows of a RowView, plus nu*x. Unchecked:
    x must be a float64 vector of the right length."""
    w = loss_weights(loss, rows.matvec(x), labels)
    g = rows.rmatvec(w) / rows.n_rows
    if l2_weight:
        g += l2_weight * x
    return g


def _range_gradient(spec, x, start, stop):
    return _rows_gradient(spec.loss, spec.l2_weight, spec.dataset.samples.row_view(start, stop),
                          spec.dataset.labels[start:stop], x)


def full_gradient(spec, x):
    """(1/n) sum_j grad loss_j(x) + nu*x (hinge uses the 0-at-kink subgradient)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have dimension {spec.dim}")
    return _range_gradient(spec, x, 0, spec.n)


def stochastic_gradient(spec, plan, i, x):
    """Mini-batch gradient over batch i, averaged over the batch, plus nu*x."""
    if not 0 <= i < plan.n_batches:
        raise IndexError(f"batch index {i} out of range")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have dimension {spec.dim}")
    start, stop = plan.ranges[i]
    return _range_gradient(spec, x, start, stop)


@dataclass(frozen=True)
class VarianceConstants:
    """Constants of the second-moment bound
    E ||grad^[i](x)||^2 <= C1 ||x||^2 + C2 for the square loss:
    C1 = 2 L_p^2 / p^2, C2 = (2 L_p / (n p)) ||b||^2, with L_p the largest
    rho_max(A_j A_j^T) over batch blocks A_j."""

    L_p: float
    C1: float
    C2: float


def variance_constants(spec, plan):
    """Evaluate the square-loss variance constants for a batch plan."""
    if spec.loss != "square":
        raise ValueError("variance constants are defined for the square loss only")
    A = spec.dataset.samples
    L_p = 0.0
    for start, stop in plan.ranges:
        block = A.row_block(start, stop)
        if block.nnz == 0:
            continue
        est = estimate_spectrum(block, tol=1e-12, max_iter=50000)
        L_p = max(L_p, est.rho_max)
    n, p = plan.n, plan.p
    b = spec.dataset.labels
    C1 = 2.0 * L_p**2 / p**2
    C2 = (2.0 * L_p / (n * p)) * float(b @ b)
    return VarianceConstants(L_p=L_p, C1=C1, C2=C2)
