"""Step-size recursion machinery and empirical rate fitting.

The convergence analysis reduces to the scalar recursion

    0 <= s_{k+1} <= (1 - eta_k) s_k + tau * eta_k^2,     eta_k = c / k**alpha,

whose closed-form decay bound is evaluated by ``lemma_bound`` and exercised
against the extremal (equality, clipped at zero) sequence produced by
``simulate_recursion``. ``joint_error`` builds the joint primal-dual error
metric a_k from solver traces and ``fit_rate`` extracts its empirical decay
exponent.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def phi_c(c, t):
    """(t**c - 1)/c, extended continuously by log t at c = 0."""
    if t <= 0:
        raise ValueError("phi_c is defined for t > 0 only")
    if c == 0.0:
        return math.log(t)
    # expm1 keeps small-|c| evaluations consistent with the log limit
    return math.expm1(c * math.log(t)) / c


def smallest_step_index(c, alpha):
    """Smallest integer k >= 1 with c / k**alpha <= 1. A ValueError refuses
    c and alpha where c**(1/alpha) passes 2**53, past which float step
    indices are not exact."""
    if math.log2(c) > 53 * alpha:
        raise ValueError(f"c={c} and alpha={alpha} put the first step index c**(1/alpha) "
                         "past 2**53, where float step indices are not exact")
    k = max(1, math.floor(c ** (1.0 / alpha)))
    while c / k**alpha > 1.0:
        k += 1
    while k > 1 and c / (k - 1) ** alpha <= 1.0:
        k -= 1
    return k


@dataclass(frozen=True)
class RecursionParams:
    """Parameters (alpha, c, tau, s_init) of the scalar recursion; k0, the
    first index with eta_k <= 1, is derived from them."""

    alpha: float
    c: float
    tau: float
    s_init: float
    k0: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 < self.c < math.inf and 0 <= self.tau < math.inf
                and 0 <= self.s_init < math.inf):
            raise ValueError("need finite c > 0, tau >= 0, s_init >= 0")
        object.__setattr__(self, "k0", smallest_step_index(self.c, self.alpha))

    def eta(self, k):
        return self.c / k**self.alpha

    @property
    def bound_start(self):
        """The first k at which lemma_bound claims to hold, which it refuses
        below, as bound-check starts there: 2*k0 for alpha = 1, and
        max(2*k0, 3) for alpha < 1, where its (k-2)**alpha term needs k > 2."""
        return 2 * self.k0 if self.alpha == 1.0 else max(2 * self.k0, 3)

    @cached_property
    def s_k0(self):
        """s_{k0} of the extremal recursion started at s_init, which
        lemma_bound reads at every k: simulated on first use, and kept."""
        return simulate_recursion(self, self.k0)[-1]


def simulate_recursion(params, k_max):
    """Extremal sequence s_1..s_{k_max}: equality in the recursion, clipped
    below at zero (eta_k > 1 makes the linear term negative)."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    s = np.empty(k_max)
    s[0] = params.s_init
    for k in range(1, k_max):
        eta = params.eta(k)
        s[k] = max(0.0, (1.0 - eta) * s[k - 1] + params.tau * eta * eta)
    return s


def lemma_bound(params, k):
    """Closed-form decay bound at index k.

    Valid for k >= params.bound_start; below that an error is raised. The
    sequence value s_{k0} entering the bound is that of the extremal
    recursion started at s_init (params.s_k0).
    """
    a, c, tau, k0 = params.alpha, params.c, params.tau, params.k0
    if k < params.bound_start:
        raise ValueError(f"bound valid for k >= {params.bound_start}, got {k}")
    s_k0 = params.s_k0
    if a == 1.0:
        c0 = c
        return (s_k0 * (k0 / (k + 1)) ** c0
                + tau * c0**2 / (k + 1) ** c0 * (1 + 1 / k0) ** c0 * phi_c(c0 - 1, k))
    # s_k0's factor exp(c k0**(1-a) / (1-a)) times the decay, as one exp,
    # since the first alone overflows where the product is finite
    shrink = c * (1 - 2 ** (a - 1)) * (k + 1) ** (1 - a) / (1 - a)
    try:
        start = s_k0 * math.exp(c * k0 ** (1 - a) / (1 - a) - shrink) if s_k0 else 0.0
    except OverflowError:  # a bound past the largest double
        start = math.inf
    return (tau * c * c * phi_c(1 - 2 * a, k) * math.exp(-shrink) + start
            + tau * 2**a * c / (k - 2) ** a)


@dataclass(frozen=True)
class ErrorTrace:
    """Pairs (k, a_k), k strictly increasing, a_k >= 0."""

    k: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.int64)
        a = np.asarray(self.a, dtype=np.float64)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        if k.shape != a.shape or k.ndim != 1:
            raise ValueError("k and a must be 1-d arrays of equal length")
        if len(k) and (np.any(np.diff(k) <= 0) or k[0] < 1):
            raise ValueError("iteration indices must be strictly increasing and >= 1")
        if np.any(a < 0):
            raise ValueError("error values must be nonnegative")

    def thin_log(self, points_per_decade=24):
        """Log-spaced subsample of the trace (for log-log rate fitting)."""
        lo, hi = math.log10(self.k[0]), math.log10(self.k[-1])
        n_pts = max(2, int(points_per_decade * (hi - lo)))
        targets = np.unique(np.round(np.logspace(lo, hi, n_pts)).astype(np.int64))
        pos = np.searchsorted(self.k, targets)
        pos = np.unique(np.clip(pos, 0, len(self.k) - 1))
        return ErrorTrace(k=self.k[pos], a=self.a[pos])


def fit_rate(trace, tail_fraction=0.5):
    """Least-squares slope of log a_k against log k over the final
    tail_fraction of the trace points."""
    if len(trace.k) < 20:
        raise ValueError("rate fit needs at least 20 trace points")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n_tail = max(2, int(math.ceil(tail_fraction * len(trace.k))))
    ks = trace.k[-n_tail:]
    a = trace.a[-n_tail:]
    if np.any(a <= 0):
        raise ValueError("degenerate trace: nonpositive a_k in the fitted tail")
    slope = np.polyfit(np.log(ks.astype(np.float64)), np.log(a), 1)[0]
    return float(slope)


def joint_error(x_traces, v_traces, x_star, v_star, schedule, lam, ks=None):
    """a_k = mean over repetitions of ||x_k - x*||^2 + (gamma_k^2/lam)||v_k - v*||^2.

    x_traces / v_traces are sequences (one entry per repetition) of arrays
    with one row per recorded iterate; v iterates and v_star use the
    subgradient dual scale. ks gives the 1-based iteration index of each
    row (default 1..T).
    """
    X = np.stack([np.asarray(t, dtype=np.float64) for t in x_traces])
    V = np.stack([np.asarray(t, dtype=np.float64) for t in v_traces])
    if X.shape[:2] != V.shape[:2]:
        raise ValueError("x and v traces disagree in repetitions or length")
    if x_star.shape != X.shape[2:] or v_star.shape != V.shape[2:]:
        raise ValueError("reference dimensions do not match the traces")
    T = X.shape[1]
    ks = np.arange(1, T + 1, dtype=np.int64) if ks is None else np.asarray(ks, dtype=np.int64)
    if ks.shape != (T,):
        raise ValueError("ks must index every trace row")
    gam = np.array([schedule.gamma(int(k)) for k in ks])
    x_err = np.sum((X - x_star) ** 2, axis=2)
    v_err = np.sum((V - v_star) ** 2, axis=2)
    a = np.mean(x_err + (gam**2 / lam) * v_err, axis=0)
    return ErrorTrace(k=ks, a=a)
