"""Correctness checks written in dense NumPy, apart from the package.

Nothing here imports spdfp: losses, gradients, the l1 subdifferential test,
the spectral bound and the rate fit are recomputed from the raw arrays, so
a fault in the package cannot hide itself by agreeing with its own output.
"""

import numpy as np

TRUTH_SHARE = 1e-2      # a truth's KKT residual may be this share of the tightest
                        # relative-error target measured against it, times max(1, |f*|)
OBJ_RTOL = 1e-12        # objective_star against the dense recomputation
EQUIV_RTOL = 1e-10      # spdfp1 against spdfp2 per-epoch objectives
SLOPE_RANGE = (-1.05, -0.35)
MIN_FIT_R2 = 0.2        # a shuffled trace fits with R^2 near 0, a genuine tail above 0.5


class Dense:
    """A problem instance as dense arrays: F(x) = mean loss + nu/2 |x|^2 + mu |Bx|_1."""

    def __init__(self, loss, A, b, nu, mu, B):
        self.loss, self.A, self.b = loss, np.asarray(A, float), np.asarray(b, float)
        self.nu, self.mu, self.B = float(nu), float(mu), np.asarray(B, float)

    def smooth(self, x):
        m = self.A @ x
        if self.loss == "square":
            vals = 0.5 * (m - self.b) ** 2
        elif self.loss == "logistic":
            vals = np.logaddexp(0.0, -self.b * m)
        else:
            raise ValueError(f"no dense oracle for loss {self.loss!r}")
        return float(np.mean(vals)) + 0.5 * self.nu * float(x @ x)

    def objective(self, x):
        return self.smooth(x) + self.mu * float(np.sum(np.abs(self.B @ x)))

    def gradient(self, x):
        m = self.A @ x
        if self.loss == "square":
            w = m - self.b
        elif self.loss == "logistic":
            # d/dm log(1 + exp(-b m)) = -b * sigmoid(-b m), sigmoid(t) = exp(-log(1 + e^-t))
            w = -self.b * np.exp(-np.logaddexp(0.0, self.b * m))
        else:
            raise ValueError(f"no dense oracle for loss {self.loss!r}")
        return self.A.T @ w / len(self.b) + self.nu * x


def soft_threshold(y, t):
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def kkt_certificate(prob, x, v):
    """KKT certificate of a primal-dual pair (x, v), v on the subgradient scale.

    With v_hat = clip(v, -mu, mu), convexity gives for every y
        F(y) >= F(x) - gap - r * |y - x|,
        r = |grad f2(x) + B^T v_hat|,  gap = mu |Bx|_1 - v_hat . Bx >= 0,
    so (r, gap) certify x. The residual also reports how far v lies outside
    the l1 ball and the prox test |Bx - soft(Bx + v, mu)|, which is zero
    exactly when v is a subgradient of mu |.|_1 at Bx.
    """
    Bx = prob.B @ x
    v_hat = np.clip(v, -prob.mu, prob.mu)
    r = float(np.linalg.norm(prob.gradient(x) + prob.B.T @ v_hat))
    gap = float(prob.mu * np.sum(np.abs(Bx)) - v_hat @ Bx)
    outside = float(np.max(np.abs(v - v_hat), initial=0.0))
    subgrad = float(np.max(np.abs(Bx - soft_threshold(Bx + v, prob.mu)), initial=0.0))
    return {"r": r, "gap": gap, "residual": max(r, gap, outside, subgrad)}


def kkt_tolerance(target, f_star):
    return TRUTH_SHARE * target * max(1.0, abs(f_star))


def truth_ok(prob, x_star, v_star, objective_star, target):
    """KKT certificate, good enough for errors down to ``target``, plus
    objective_star against the dense recomputation."""
    cert = kkt_certificate(prob, x_star, v_star)
    f_dense = prob.objective(x_star)
    cert["objective_ok"] = abs(f_dense - objective_star) <= OBJ_RTOL * max(1.0, abs(f_dense))
    cert["tolerance"] = kkt_tolerance(target, objective_star)
    cert["ok"] = cert["residual"] <= cert["tolerance"] and cert["objective_ok"]
    return cert


def graph_ok(X, threshold, G):
    """G has one row e_i - e_j for exactly the feature pairs i < j with
    |corr(i, j)| > threshold (all features here have nonzero variance)."""
    corr = np.corrcoef(np.asarray(X, float), rowvar=False)
    i, j = np.nonzero(np.triu(np.abs(corr) > threshold, k=1))
    want = set(zip(i.tolist(), j.tolist()))
    got = set()
    for row in np.asarray(G, float):
        plus, minus = np.flatnonzero(row == 1.0), np.flatnonzero(row == -1.0)
        if len(plus) == 1 and len(minus) == 1 and np.count_nonzero(row) == 2:
            got.add((int(min(plus[0], minus[0])), int(max(plus[0], minus[0]))))
    bad = len(want ^ got) + (len(G) - len(got))
    return bad == 0, bad


def lambda_ok(B, lam):
    """lambda * rho_max(B B^T) < 1, rho_max from a dense eigensolver."""
    B = np.asarray(B, float)
    rho = float(np.linalg.eigvalsh(B @ B.T)[-1])
    return lam * rho < 1.0, lam * rho


def objectives_above_optimum(objectives, sq_errors, f_star, cert):
    """No objective lies below the certified lower bound of the optimum.

    The bound at an iterate y is f* - gap - r |y - x*|, from the truth's
    certificate; |y - x*| comes from the recorded squared iterate error.
    """
    obj = np.asarray(objectives, float)
    dist = np.sqrt(np.asarray(sq_errors, float))
    floor = f_star - cert["gap"] - cert["r"] * dist - OBJ_RTOL * max(1.0, abs(f_star))
    bad = int(np.count_nonzero(~(obj >= floor)))
    return bad == 0, bad


def rel_error(objective, f_star):
    return (objective - f_star) / max(abs(f_star), 1e-12)


def objectives_agree(obj1, obj2):
    """spdfp1 and spdfp2 trajectories are algebraically equal (paper's
    equivalence): per-epoch objectives agree to EQUIV_RTOL."""
    a, b = np.asarray(obj1, float), np.asarray(obj2, float)
    if a.shape != b.shape:
        return False, float("inf")
    dev = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300), initial=0.0))
    return dev <= EQUIV_RTOL, dev


def rate_fit(k, a, tail_fraction=0.5):
    """Least-squares slope and R^2 of log a against log k over the tail."""
    k = np.asarray(k, float)
    a = np.asarray(a, float)
    n_tail = max(2, int(np.ceil(tail_fraction * len(k))))
    lx, ly = np.log(k[-n_tail:]), np.log(a[-n_tail:])
    slope, icept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + icept)
    r2 = 1.0 - float(resid @ resid) / float(np.sum((ly - ly.mean()) ** 2))
    return float(slope), r2


def rate_ok(k, a):
    slope, r2 = rate_fit(k, a)
    ok = SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1] and r2 >= MIN_FIT_R2
    return ok, slope, r2


def self_test(prob, x_star, v_star, target, trace=None):
    """Each check must reject a planted wrong answer.

    A perturbed x*, a lambda above the spectral bound and, when a rate trace
    is given, the same trace shuffled. Returns {name: rejected}.
    """
    rng = np.random.default_rng(12345)
    e = rng.standard_normal(len(x_star))
    x_bad = x_star + 1e-2 * (1.0 + np.linalg.norm(x_star)) * e / np.linalg.norm(e)
    out = {"perturbed_x_star":
           not truth_ok(prob, x_bad, v_star, prob.objective(x_bad), target)["ok"]}
    rho = float(np.linalg.eigvalsh(prob.B @ prob.B.T)[-1])
    out["lambda_above_bound"] = not lambda_ok(prob.B, 1.01 / rho)[0]
    if trace is not None:
        k, a = trace
        out["shuffled_trace"] = not rate_ok(k, rng.permutation(np.asarray(a)))[0]
    return out
