"""Independent oracles used by the tests.

Everything here is a straight-line dense-NumPy or plain-Python computation,
deliberately sharing no code with the library: scalar prox minimization,
dense spectra, step-by-step solver transcriptions, and a token-by-token
LIBSVM reader.
"""

import mpmath
import numpy as np


def batch_probability(plan, i):
    """The chance that a draw picks batch i of plan: the draw takes a
    sample uniformly and its batch, so the batch's share of the samples."""
    start, stop = plan.ranges[i]
    return (stop - start) / plan.n


def libsvm_csr(text):
    """(labels, indptr, indices, data, n_cols) of LIBSVM text, read token by
    token with float() and int(), as Python lists: lines split at \n, \r
    or \r\n only, blank ones skipped; in each row, duplicate indices
    summed from 0.0 in file order, zeros of either sign dropped and the
    columns sorted; n_cols the largest index of any token."""
    labels, indptr, indices, data, n_cols = [], [0], [], [], 0
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        labels.append(float(tokens[0]))
        row = {}
        for tok in tokens[1:]:
            idx, val = tok.split(":")
            j = int(idx) - 1
            row[j] = row.get(j, 0.0) + float(val)
            n_cols = max(n_cols, j + 1)
        kept = sorted((j, v) for j, v in row.items() if v != 0.0)
        indices += [j for j, _ in kept]
        data += [v for _, v in kept]
        indptr.append(len(indices))
    return labels, indptr, indices, data, n_cols


def golden_section_min(f, lo, hi, iters=120):
    """Minimize a scalar unimodal function on [lo, hi].

    Runs in 50-digit arithmetic: a function-value-only search cannot locate
    a smooth minimum better than sqrt(eps), so double precision would cap
    the accuracy near 1e-8.
    """
    with mpmath.workdps(50):
        invphi = (mpmath.sqrt(5) - 1) / 2
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(iters):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        return float((a + b) / 2)


def prox_1d(weight, tau, y):
    """argmin_x tau*weight*|x| + 0.5*(x - y)^2 by golden section."""
    r = abs(y) + 1.0
    return golden_section_min(lambda x: tau * weight * abs(x) + (x - y) ** 2 / 2, -r, r)


def scaled_prox_1d(weight, r, y):
    """argmin_x r*weight*|x/r| + 0.5*(x - y)^2 by golden section."""
    span = abs(y) + 1.0
    return golden_section_min(
        lambda x: r * weight * abs(x / r) + (x - y) ** 2 / 2, -span, span)


def soft(y, t):
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def square_grad(A, b, nu, x):
    return A.T @ (A @ x - b) / A.shape[0] + nu * x


def fused_objective(A, b, Bm, nu, mu, x):
    r = A @ x - b
    return (0.5 * np.mean(r**2) + 0.5 * nu * x @ x + mu * np.sum(np.abs(Bm @ x)))


def pdfp_steps(A, b, Bm, nu, mu, gamma, lam, iters, x0=None, v0=None):
    """Batch primal-dual fixed-point transcription; returns (x, v) lists."""
    d = A.shape[1]
    m = Bm.shape[0]
    x = np.zeros(d) if x0 is None else x0.copy()
    v = np.zeros(m) if v0 is None else v0.copy()
    xs, vs = [x.copy()], [v.copy()]
    for _ in range(iters):
        xh = x - gamma * square_grad(A, b, nu, x)
        arg = Bm @ xh + v - lam * (Bm @ (Bm.T @ v))
        v = arg - soft(arg, gamma / lam * mu)
        x = xh - lam * (Bm.T @ v)
        xs.append(x.copy())
        vs.append(v.copy())
    return xs, vs


def spdfp_alg1_steps(A, b, Bm, nu, mu, c, alpha, lam, p, draws, x0=None, v0=None):
    """Stochastic transcription, subgradient-scale dual, batch draws given."""
    n, d = A.shape
    m = Bm.shape[0]
    x = np.zeros(d) if x0 is None else x0.copy()
    v = np.zeros(m) if v0 is None else v0.copy()
    xs, vs = [x.copy()], [v.copy()]
    for k, i in enumerate(draws, start=1):
        gk = c / k**alpha
        sl = slice(i * p, min((i + 1) * p, n))
        Ai = A[sl]
        g = Ai.T @ (Ai @ x - b[sl]) / (sl.stop - sl.start) + nu * x
        xh = x - gk * g
        arg = Bm @ xh + (gk / lam) * (v - lam * (Bm @ (Bm.T @ v)))
        v = (lam / gk) * (arg - soft(arg, gk / lam * mu))
        x = xh - gk * (Bm.T @ v)
        xs.append(x.copy())
        vs.append(v.copy())
    return xs, vs


def spdfp_alg2_steps(A, b, Bm, nu, mu, c, alpha, lam, p, draws, x0=None, v0=None):
    """Rescaled-form transcription (factor gamma_1/lam at k=1, ((k-1)/k)^alpha after)."""
    n, d = A.shape
    m = Bm.shape[0]
    x = np.zeros(d) if x0 is None else x0.copy()
    v = np.zeros(m) if v0 is None else v0.copy()
    xs, vs = [x.copy()], [v.copy()]
    for k, i in enumerate(draws, start=1):
        gk = c / k**alpha
        sl = slice(i * p, min((i + 1) * p, n))
        Ai = A[sl]
        g = Ai.T @ (Ai @ x - b[sl]) / (sl.stop - sl.start) + nu * x
        xh = x - gk * g
        fac = gk / lam if k == 1 else ((k - 1) / k) ** alpha
        arg = Bm @ xh + fac * (v - lam * (Bm @ (Bm.T @ v)))
        v = arg - soft(arg, gk / lam * mu)
        x = xh - lam * (Bm.T @ v)
        xs.append(x.copy())
        vs.append(v.copy())
    return xs, vs


def proximal_gradient_tv(A, b, nu, mu, Bm, outer_iters, inner_iters=300):
    """Forward-backward oracle for min mean square loss + mu||Bx||_1.

    The prox of mu||B.||_1 is evaluated through its dual: projected gradient
    (FISTA) on min_{|u|_inf <= s*mu} 0.5||B^T u - z||^2.
    """
    n, d = A.shape
    L = np.linalg.eigvalsh(A.T @ A / n).max() + nu
    s = 1.0 / L
    BBt_norm = np.linalg.eigvalsh(Bm @ Bm.T).max()
    x = np.zeros(d)
    for _ in range(outer_iters):
        z = x - s * square_grad(A, b, nu, x)
        u = np.zeros(Bm.shape[0])
        w = u.copy()
        t = 1.0
        bound = s * mu
        for _ in range(inner_iters):
            grad_u = Bm @ (Bm.T @ w - z)
            u_new = np.clip(w - grad_u / BBt_norm, -bound, bound)
            t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
            w = u_new + (t - 1) / t_new * (u_new - u)
            u, t = u_new, t_new
        x = z - Bm.T @ u
    return x
