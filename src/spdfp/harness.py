"""Experiment harness: synthetic problems, dataset I/O, ground truth, CSV runs.

File formats
------------
* LIBSVM text, one sample per line: ``label idx:val idx:val ...`` with
  1-based feature indices; blank lines are skipped.
* Coordinate-list text for operator matrices: ``row col value`` per line,
  0-based, optionally preceded by a ``# shape R C`` line (written by
  ``save_matrix``) so empty trailing rows survive a round trip.
* Problem descriptor: flat ``key = value`` text naming the loss, weights and
  the data/operator files.
* Run output: RFC-4180-style CSV, one row per (solver, repetition, epoch),
  plus a second CSV of per-epoch means across repetitions (over the epochs
  every repetition reached, since a diverging run stops). Leading ``#``
  lines record the experiment and solver parameters.
"""

import csv
import io
import math
import os
import re
import warnings
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, fields, replace
from itertools import chain, repeat

import numpy as np

from spdfp.problem import Dataset, ProblemSpec, objective_value
from spdfp.prox import ProxSpec
from spdfp.solvers import (
    COLUMNS,
    AdmmConfig,
    ConstantSchedule,
    Reference,
    SolverConfig,
    StepSchedule,
    _check_constant_step,
    _fixed_point_residual,
    _RunContext,
    _steps,
    check_lambda,
    initial_state,
    run_solver,
)
from spdfp.sparse import SparseMatrix, SpectralEstimate, build_difference_matrix

DEFAULT_TRUTH_ITERS = 20000
DEFAULT_LAMBDA_FRACTION = 0.9
# the desk-scale fused lasso: synth_fused_lasso's arguments for a 'synth:'
# source and for `spdfp synth`, where a key is not given
SYNTH_DEFAULTS = {"n": 1000, "d": 50, "perturb_frac": 0.05, "noise_sd": 0.01, "seed": 0,
                  "mu": 0.1, "nu": 0.0}
TRUTH_TARGET = 1e-13  # the ground truth's stop: the fixed-point residual it certifies
_TRUTH_CHUNK = 25     # PDFP steps between two checks of that residual


# ---------------------------------------------------------------------------
# synthetic problems

def synth_fused_lasso(n, d, perturb_frac, noise_sd, seed, mu=0.1, nu=0.0):
    """Gaussian design least squares with an l1 penalty on successive
    differences.

    A is n x d standard normal; the generating coefficients are all ones
    with a floor(perturb_frac * d)-subset perturbed by unit Gaussian noise;
    b = A x0 + eps with eps ~ N(0, noise_sd^2).
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if not 0 <= perturb_frac <= 1:
        raise ValueError("perturb_frac must lie in [0, 1]")
    if not math.isfinite(noise_sd):
        raise ValueError("noise_sd must be finite")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    x0 = np.ones(d)
    n_perturb = int(perturb_frac * d)
    if n_perturb:
        idx = rng.choice(d, size=n_perturb, replace=False)
        x0[idx] += rng.standard_normal(n_perturb)
    b = A @ x0 + noise_sd * rng.standard_normal(n)
    dataset = Dataset(samples=SparseMatrix.from_dense(A), labels=b)
    return ProblemSpec(loss="square", dataset=dataset, l2_weight=nu,
                       composite_weight=mu, B=build_difference_matrix(d))


# ---------------------------------------------------------------------------
# LIBSVM text format

def load_libsvm(path, n_features=None):
    """Parse a LIBSVM text file into a Dataset (1-based feature indices).

    The file is read once, and the Dataset's data_sha256 is the digest of
    the bytes parsed. Its lines are converted a chunk of about
    _LIBSVM_CHUNK characters at a time, by one map over the chunk's labels,
    indices or values each, which gives each number the bits float() or
    int() gives it. An index past n_features, or past int64 where that is
    None, is refused. A chunk that fails a check is walked line by line
    with _refuse_line, so the error names the file's first bad line; a
    byte that is not UTF-8 is raised once the lines before it pass."""
    raw, digest = _file_bytes(path)
    lines, undecoded = _text_lines(path, raw), None
    limit = _INDEX_MAX if n_features is None else n_features

    def chunk():  # the (lineno, line) pairs of the next chunk, none at the end
        nonlocal undecoded
        numbered, size = [], 0
        try:
            for lineno, line in lines:
                numbered.append((lineno, line))
                size += len(line)
                if size >= _LIBSVM_CHUNK:
                    break
        except ValueError as err:  # a byte that is not UTF-8, which ends the lines
            undecoded = err
        return numbered

    labels, rows, cols, vals, n = [], [], [], [], 0
    for numbered in iter(chunk, []):
        parts = [line.split() for _, line in numbered]
        try:
            toks = list(chain.from_iterable([p[1:] for p in parts]))
            # each token idx:val has one colon, so 2 pieces when neither is empty
            pieces = " ".join(toks).replace(":", " ").split()
            if (list(map(str.count, toks, repeat(":"))).count(1) != len(toks)
                    or len(pieces) != 2 * len(toks)
                    or not all(map(str.isdecimal, pieces[0::2]))):
                raise ValueError
            label = np.array(list(map(float, [p[0] for p in parts])))
            j = np.array(list(map(int, pieces[0::2])), dtype=np.int64)
            v = np.array(list(map(float, pieces[1::2])))
            if not (np.isfinite(label).all() and np.isfinite(v).all()
                    and np.all((j >= 1) & (j <= limit))):
                raise ValueError
        except (ValueError, OverflowError):  # OverflowError: an index past int64
            for lineno, line in numbered:
                _refuse_line(path, lineno, line, n_features)
            raise
        counts = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts)) - 1
        labels.append(label)
        rows.append(np.repeat(np.arange(n, n + len(parts)), counts))
        cols.append(j - 1)
        vals.append(v)
        n += len(parts)
    if undecoded is not None:
        raise undecoded
    if not n:
        raise ValueError(f"{path}: no samples found")
    cols = np.concatenate(cols)
    dim = n_features if n_features is not None else int(cols.max(initial=-1)) + 1
    samples = SparseMatrix.from_coo(n, dim, np.concatenate(rows), cols, np.concatenate(vals))
    return Dataset.read_from(digest, samples, np.concatenate(labels))


_LIBSVM_CHUNK = 1 << 16  # characters of lines load_libsvm converts at once
_INDEX_MAX = np.iinfo(np.int64).max  # the largest feature index, as a column count


def _text_lines(path, raw=None):
    """(lineno, line) for each line of the text file at path that is not
    blank, stripped; raw, where given, is the file's bytes. They are decoded
    as open() decodes them, as UTF-8 with universal newlines, and a line
    with a byte that is not UTF-8 is a ValueError that names the line."""
    binary = open(path, "rb") if raw is None else io.BytesIO(raw)
    with io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            # surrogateescape decodes a byte that is not UTF-8 to U+DC80..U+DCFF
            bad = None if line.isascii() else re.search("[\udc80-\udcff]", line)
            if bad:
                raise ValueError(f"{path}:{lineno}: byte 0x{ord(bad[0]) - 0xDC00:02x} "
                                 "is not UTF-8")
            if line:
                yield lineno, line


def _refuse_line(path, lineno, line, n_features):
    """Raise the ValueError of the first bad token of line, the stripped line
    lineno of the LIBSVM file at path, if it has one: a label or value that
    float() refuses or that is not finite, a token that is not idx:val, or
    an index below 1, past n_features, or past int64 where that is None."""
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}") from None
    if not math.isfinite(label):
        raise ValueError(f"{path}:{lineno}: label {parts[0]!r} is not finite")
    for tok in parts[1:]:
        # accepts what fullmatch(r"(\d+):([^\s:]+)") does: split()
        # leaves no whitespace, and isdecimal() is \d
        idx, _, val = tok.partition(":")
        if not (idx.isdecimal() and val) or ":" in val:
            raise ValueError(f"{path}:{lineno}: bad feature token {tok!r}")
        try:
            j = int(idx)
        except ValueError:  # more digits than int() converts, so far past int64
            raise ValueError(f"{path}:{lineno}: feature index of {len(idx)} digits "
                             "is too large") from None
        if j < 1:
            raise ValueError(f"{path}:{lineno}: indices are 1-based, got {j}")
        if n_features is not None and j > n_features:
            raise ValueError(f"{path}:{lineno}: feature index {j} exceeds n_features={n_features}")
        if j > _INDEX_MAX:
            raise ValueError(f"{path}:{lineno}: feature index {j} is too large")
        try:
            v = float(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value in {tok!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: value in {tok!r} is not finite")


def save_libsvm(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        A = dataset.samples
        indptr, indices, data = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
        for label, lo, hi in zip(dataset.labels.tolist(), indptr, indptr[1:]):
            toks = [repr(label)] + [f"{j + 1}:{v!r}" for j, v in zip(indices[lo:hi], data[lo:hi])]
            fh.write(" ".join(toks) + "\n")


# ---------------------------------------------------------------------------
# operator matrices as coordinate-list text

def save_matrix(M, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# shape {M.n_rows} {M.n_cols}\n")
        rows, cols, vals = M.entries()
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r} {c} {float(v)!r}\n")


def load_matrix(path):
    """The matrix of a coordinate-list file; without a '# shape' line, which
    may come once and before the first entry, its shape is the smallest
    that holds the entries. A count or an index past int64, where
    SparseMatrix keeps them, is refused with the line."""
    rows, cols, vals, n_rows, n_cols = [], [], [], None, None
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            m = re.match(r"#\s*shape\s+(\d+)\s+(\d+)", line)
            if m and (rows or n_rows is not None):
                raise ValueError(f"{path}:{lineno}: a '# shape' line must come once, "
                                 "before the first entry")
            if m:
                n_rows, n_cols = int(m.group(1)), int(m.group(2))
                if max(n_rows, n_cols) > _INDEX_MAX:
                    raise ValueError(f"{path}:{lineno}: a shape past int64 in {line!r}")
            continue
        try:
            r, c, v = line.split()
            r, c, v = int(r), int(c), float(v)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'row col value', got {line!r}") from None
        # the shape an index implies, index + 1, must fit in int64 too
        if (min(r, c) < 0 or max(r, c) >= _INDEX_MAX or (n_rows is not None and r >= n_rows)
                or (n_cols is not None and c >= n_cols)):
            raise ValueError(f"{path}:{lineno}: index out of range in {line!r}")
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: value in {line!r} is not finite")
        rows.append(r)
        cols.append(c)
        vals.append(v)
    if n_rows is None:
        n_rows = max(rows) + 1 if rows else 0
    if n_cols is None:
        n_cols = max(cols) + 1 if cols else 0
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def build_graph_matrix(dataset, threshold):
    """Feature graph from correlation thresholding: one row e_i - e_j per
    feature pair with |corr(i, j)| > threshold. Zero-variance features are
    excluded with a warning.

    One working copy of the live columns is centred and scaled in place,
    and the dense samples go once it is taken, so at most two dense copies
    of the samples are alive at once: the samples and X.std's temporary,
    then the samples and that copy. The copy is X[:, live] even where every
    feature is live: NumPy lays it out column by column, so its column
    means sum pairwise, and centring X itself would change their bits."""
    if not 0 <= threshold < 1:
        raise ValueError("threshold must lie in [0, 1)")
    X = dataset.samples.to_dense()
    n, d = X.shape
    std = X.std(axis=0)
    ok = std > 0
    if not np.all(ok):
        warnings.warn(f"excluding {int(np.sum(~ok))} zero-variance feature(s) "
                      "from the correlation graph")
    live = np.flatnonzero(ok)
    Xc = X[:, live]
    del X
    Xc -= Xc.mean(axis=0)
    Xc /= std[live]
    corr = (Xc.T @ Xc) / n
    # the pairs a < b of live features, in row-major order
    a, b = np.nonzero(np.triu(np.abs(corr) > threshold, 1))
    r = len(a)
    return SparseMatrix.from_coo(r, d, np.repeat(np.arange(r), 2),
                                 np.column_stack([live[a], live[b]]).ravel(),
                                 np.tile([1.0, -1.0], r))


# ---------------------------------------------------------------------------
# problem descriptors

def save_problem(spec, base_path):
    """Write <base>.problem, <base>.libsvm and <base>.B.txt."""
    base = str(base_path)
    save_libsvm(spec.dataset, base + ".libsvm")
    save_matrix(spec.B, base + ".B.txt")
    with open(base + ".problem", "w", encoding="utf-8") as fh:
        fh.write(f"loss = {spec.loss}\n")
        fh.write(f"l2_weight = {spec.l2_weight!r}\n")
        fh.write(f"composite_weight = {spec.composite_weight!r}\n")
        fh.write(f"data = {os.path.basename(base)}.libsvm\n")
        fh.write(f"b_matrix = {os.path.basename(base)}.B.txt\n")
    return base + ".problem"


def load_problem(path):
    """The ProblemSpec of a .problem file; a missing or unknown key, and a
    value ProblemSpec refuses, is a ValueError that names the file.

    The keys and B are read from text on every call. Where the truth file
    of path (_truth_path) is one _read_truth takes, its stored dataset has
    B's column count and its data_sha256 is the sha256 of the data file's
    bytes, the dataset is built from its arrays instead of parsed; where
    its fingerprint is that of the spec, A and B take its spectral
    estimates and run no Lanczos. With no truth file, or one _read_truth
    refuses (older, damaged or not one at all), it parses and estimates,
    and `spdfp run` refuses that file."""
    return _load_problem(path)[0]


def _load_problem(path):
    """(spec, found, fingerprint): load_problem's spec of path, what
    _read_truth gave for its truth file (a dict, None where there is no
    such file, or the error it raised), and the spec's problem_fingerprint
    where it gave a dict, else None. _ground_truth takes the truth from
    them, so a run reads the file once."""
    kv = _read_kv(path, ("loss", "data", "b_matrix"), ("l2_weight", "composite_weight"),
                  "problem")
    here = os.path.dirname(os.path.abspath(path))
    # LIBSVM cannot record an empty last feature column; B's shape line can
    B = load_matrix(os.path.join(here, kv["b_matrix"]))
    data_path = os.path.join(here, kv["data"])
    try:
        found = _read_truth(_truth_path(path))
    except FileNotFoundError:
        found = None
    except (OSError, ValueError) as err:  # one that load_ground_truth refuses
        found = err
    dataset = found["dataset"] if isinstance(found, dict) else None
    if (dataset is None or dataset.dim != B.n_cols
            or dataset.data_sha256 != _file_bytes(data_path)[1]):
        dataset = load_libsvm(data_path, n_features=B.n_cols)
    l2_weight = _kv_number(path, kv, "l2_weight", float, 0.0)
    composite_weight = _kv_number(path, kv, "composite_weight", float, 0.0)
    try:
        spec = ProblemSpec(loss=kv["loss"], dataset=dataset, l2_weight=l2_weight,
                           composite_weight=composite_weight, B=B)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    fingerprint = problem_fingerprint(spec) if isinstance(found, dict) else None
    if fingerprint is not None and str(found["fingerprint"]) == fingerprint:
        for name, M in (("A", spec.dataset.samples), ("B", B)):
            M.spectrum = SpectralEstimate(**{f.name: found[f"{name}_{f.name}"].item()
                                             for f in fields(SpectralEstimate)})
    return spec, found, fingerprint


def _file_bytes(path):
    """The bytes of the file at path and their sha256 hex digest."""
    import hashlib  # here: loading it costs about 3 ms, at every start-up if at the top

    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, hashlib.sha256(raw).hexdigest()


def _number(where, key, text, kind):
    """text as a finite int or float, else a ValueError naming where the
    text stands (a file, a solver clause or a synth source) and its key."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"{where}: {key} = {text!r} is not a finite {kind.__name__}")


def _kv_number(where, kv, key, kind, default=None):
    """kv.pop(key), or default when absent, as a finite int or float. A
    key occurs once per file or clause, so naming it names its place."""
    return default if key not in kv else _number(where, key, kv.pop(key), kind)


def _read_kv(path, required, optional, what):
    """The 'key = value' lines of path as a dict, blank and '#' lines
    skipped. Another line, an empty value, a key given twice, a missing
    required key and a key in neither tuple are ValueErrors that name the
    file; what names the kind of file ("missing problem key 'loss'")."""
    out, seen = {}, {}
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ValueError(f"{path}:{lineno}: key {key!r} has no value")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    for key in required:
        if key not in out:
            raise ValueError(f"{path}: missing {what} key {key!r}")
    for key in out:
        if key not in required + optional:
            raise ValueError(f"{path}: unknown {what} key {key!r}")
    return out


# ---------------------------------------------------------------------------
# ground truth

@dataclass(frozen=True)
class GroundTruth:
    """Reference optimum from a batch PDFP run to a certified residual.

    v_star is on the subgradient dual scale (the final PDFP dual times
    lambda/gamma). The fixed-point residual of the final pair is the quality
    certificate, and iterations the PDFP steps taken.
    """

    x_star: np.ndarray
    v_star: np.ndarray
    objective_star: float
    residual: float
    gamma: float
    lam: float
    iterations: int

    def reference(self):
        return Reference(x_star=self.x_star, v_star=self.v_star,
                         objective_star=self.objective_star)


def default_gamma(spec, instead="give the step explicitly (pdfp gamma=..., or a SolverConfig "
                                 "as the ground truth's cfg)"):
    """1 / L with L = c rho_max(A A^T)/n + nu, the Lipschitz constant of the
    smooth part's gradient: c = 1/4 for the logistic loss (its second
    derivative is at most 1/4) and 1 for the square loss. PDFP converges
    for any step below 2 / L. The hinge loss has no Lipschitz gradient, so
    it has no such step, nor has a zero A with nu = 0 (L = 0): each raises a
    ValueError that ends in instead, what the caller may do instead."""
    if spec.loss == "hinge":
        raise ValueError("the hinge loss has no Lipschitz gradient, so PDFP has no default "
                         f"step 1/L for it; {instead}")
    c = 0.25 if spec.loss == "logistic" else 1.0
    lipschitz = c * spec.dataset.samples.spectrum.rho_max / spec.n + spec.l2_weight
    if lipschitz == 0:
        raise ValueError("A is zero and l2_weight = 0, so the smooth part's gradient is "
                         f"constant (L = 0) and PDFP has no default step 1/L; {instead}")
    return 1.0 / lipschitz


def default_lambda(spec):
    """DEFAULT_LAMBDA_FRACTION / rho_max(B B^T); a zero B, whose rho_max is
    0, has no such lambda, which raises a ValueError."""
    rho_max = spec.B.spectrum.rho_max
    if rho_max == 0:
        raise ValueError(f"B is zero (rho_max(BB^T) = 0), so there is no default "
                         f"lambda = {DEFAULT_LAMBDA_FRACTION}/rho_max(BB^T)")
    return DEFAULT_LAMBDA_FRACTION / rho_max


def prox_for(spec):
    if spec.composite_weight > 0:
        return ProxSpec(kind="l1", weight=spec.composite_weight)
    return ProxSpec(kind="zero", weight=0.0)


def _step_length(x_prev, v_prev, x, v):
    """||v_prev - v|| + ||x_prev - x|| for one PDFP step (x_prev, v_prev) ->
    (x, v). The step sets v = T0 and x = x_prev - gamma grad f2(x_prev) -
    lam B^T T0, so this is the fixed-point residual of (x_prev, v_prev) up
    to rounding, for the price of two norms."""
    return float(np.linalg.norm(v_prev - v) + np.linalg.norm(x_prev - x))


def compute_ground_truth(spec, cfg=None, iters=DEFAULT_TRUTH_ITERS):
    """Run PDFP on spec's own prox (prox_for) until its fixed-point residual
    is at most TRUTH_TARGET, for at most iters steps, and certify the
    result. A cfg needs a constant step; without one, it steps by
    default_gamma with default_lambda, which read A.spectrum and
    B.spectrum, and refuses a problem with no default step (the hinge loss,
    or L = 0) with a ValueError that names the library route to its truth
    file.

    The residual is checked every _TRUTH_CHUNK steps, through the length of
    the chunk's last step (_step_length). The stored residual is that of
    the final pair and iterations the steps taken. A run that reaches the
    cap first warns (RuntimeWarning) and returns what it has.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    prox_spec = prox_for(spec)
    if cfg is None:
        route = ("compute the ground truth in Python with compute_ground_truth(spec, "
                 "cfg=SolverConfig(...)) and save it with save_ground_truth(gt, "
                 "'<problem>.truth.npz', spec), which `spdfp run` then reads")
        cfg = SolverConfig(schedule=ConstantSchedule(default_gamma(spec, route)),
                           lam=default_lambda(spec), p=spec.n)
    _check_constant_step(cfg)
    check_lambda(cfg, spec.B)
    ctx = _RunContext(spec, prox_spec, ((0, spec.n),))
    state = initial_state(spec)
    steps = _steps("pdfp", spec, prox_spec, cfg, ctx, (state.x, state.v))
    picks = np.zeros((1, _TRUTH_CHUNK), dtype=np.int64)
    x_prev, v_prev = np.empty((1, spec.dim)), np.empty((1, spec.B.n_rows))
    used, reached = 0, False
    while used < iters and not reached:
        n = min(_TRUTH_CHUNK, iters - used)
        steps(picks[:, :n - 1], x_prev, v_prev)  # the chunk but its last step, then a snapshot
        steps(picks[:, :1])
        used += n
        reached = _step_length(x_prev[0], v_prev[0], *steps.iterates) <= TRUTH_TARGET
    x, v = steps.iterates
    gamma, lam = cfg.schedule.c, cfg.lam
    res = _fixed_point_residual(ctx, gamma, lam, x, v)
    if not reached:
        warnings.warn(f"ground truth stopped at its cap of {iters} iterations with "
                      f"fixed-point residual {res:.3e} above the target {TRUTH_TARGET:g}",
                      RuntimeWarning, stacklevel=2)
    return GroundTruth(x_star=x, v_star=(lam / gamma) * v,
                       objective_star=objective_value(spec, x),
                       residual=res, gamma=gamma, lam=lam, iterations=used)


def problem_fingerprint(spec):
    """The sha256 hex digest of what a ground truth of spec depends on: the
    loss, both weights, the labels, and the shape and CSR arrays of A and B."""
    import hashlib  # here: loading it costs about 3 ms, at every start-up if at the top

    h = hashlib.sha256(" ".join([spec.loss, float(spec.l2_weight).hex(),
                                 float(spec.composite_weight).hex()]).encode())
    for M in (spec.dataset.samples, spec.B):
        h.update(np.array([M.n_rows, M.n_cols], dtype=np.int64).tobytes())
        for arr in (M.indptr, M.indices, M.data):
            h.update(arr.tobytes())
    h.update(np.ascontiguousarray(spec.dataset.labels, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_ground_truth(gt, path, spec):
    """Write gt, the ground truth of spec, to an .npz file of the fields
    _TRUTH_FIELDS names: gt's; spec's problem_fingerprint, which
    load_ground_truth checks; and what load_problem would otherwise work
    out again: the data_sha256 of spec's dataset ('' for one not read from
    a file, which no file's bytes hash to), A's shape and CSR arrays, the
    labels, and the SpectralEstimate fields of A and B, as A_rho_max,
    B_residual and so on. Those estimates are the ones computed here, on
    this machine (for a matrix without one, here and now)."""
    A = spec.dataset.samples
    values = {**vars(gt), "fingerprint": problem_fingerprint(spec),
              "data_sha256": spec.dataset.data_sha256 or "", "A_shape": np.array(A.shape),
              "A_indptr": A.indptr, "A_indices": A.indices, "A_data": A.data,
              "labels": spec.dataset.labels}
    for name, M in (("A", A), ("B", spec.B)):
        values.update({f"{name}_{f.name}": getattr(M.spectrum, f.name)
                       for f in fields(SpectralEstimate)})
    np.savez(path, **{key: values[key] for key in _TRUTH_FIELDS})


# the fields of a truth file, the ones save_ground_truth writes and
# _read_truth requires: the kind of each dtype and its shape, with None for
# a length of any size; the fields of GroundTruth first
_TRUTH_FIELDS = {
    "x_star": ("f", (None,)), "v_star": ("f", (None,)), "objective_star": ("f", ()),
    "residual": ("f", ()), "gamma": ("f", ()), "lam": ("f", ()), "iterations": ("i", ()),
    "fingerprint": ("U", ()), "data_sha256": ("U", ()), "A_shape": ("i", (2,)),
    "A_indptr": ("i", (None,)), "A_indices": ("i", (None,)), "A_data": ("f", (None,)),
    "labels": ("f", (None,)),
    **{f"{name}_{f.name}": (np.dtype(f.type).kind, ()) for name in "AB"
       for f in fields(SpectralEstimate)},
}


# what np.load, zipfile and its decompressors raise on a damaged file
_DAMAGED = (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile, zlib.error)


def _read_truth(path):
    """Every field of the truth file at path that _TRUTH_FIELDS names, as a
    dict, from one read, and under "dataset" the Dataset of its stored A,
    labels and data_sha256. A file that cannot be opened is an OSError. A
    file that is not an .npz of plain arrays, lacks a field, holds one of
    another dtype kind or shape than _TRUTH_FIELDS gives, or holds arrays
    that SparseMatrix or Dataset refuses, is a ValueError that names it."""
    with open(path, "rb") as fh:
        try:
            if fh.read(2) != b"PK":  # the start of a zip archive, as an .npz file is
                raise ValueError("not an .npz file")
            fh.seek(0)
            found = {}
            with np.load(fh) as z:
                for key, (kind, shape) in _TRUTH_FIELDS.items():
                    if key not in z.files:
                        raise ValueError(f"no {key} in it")
                    arr = found[key] = z[key]
                    if not (arr.dtype.kind == kind and arr.ndim == len(shape) and all(
                            n is None or n == m for n, m in zip(shape, arr.shape))):
                        raise ValueError(_wrong_field(key, arr))
            samples = SparseMatrix(*found["A_shape"].tolist(), found["A_indptr"],
                                   found["A_indices"], found["A_data"])
            found["dataset"] = Dataset.read_from(str(found["data_sha256"]), samples,
                                                 found["labels"])
            return found
        except _DAMAGED as err:
            raise _not_a_truth(path, err) from None


def _wrong_field(key, arr):
    return f"its {key} is a {arr.dtype} array of shape {arr.shape}"


def _not_a_truth(path, why):
    return ValueError(f"{path}: not a ground truth file: {why}; rerun `spdfp truth`")


def load_ground_truth(path, spec):
    """The GroundTruth of spec saved by save_ground_truth. A file that
    _read_truth refuses, an older one among them, and one whose fingerprint
    is not spec's are a ValueError that names the file and says to rerun
    `spdfp truth`."""
    return _ground_truth(path, _read_truth(path), spec)


def _ground_truth(path, found, spec, fingerprint=None):
    """load_ground_truth from found, what _read_truth gave for path (a dict,
    or the error it raised, which is raised); fingerprint is spec's
    problem_fingerprint, or None to work it out. An x_star or v_star of
    another length than spec's x or B x is refused as a wrong field."""
    if isinstance(found, Exception):
        raise found
    if str(found["fingerprint"]) != (fingerprint or problem_fingerprint(spec)):
        raise ValueError(f"{path}: this ground truth was computed for another problem "
                         "(its fingerprint differs); rerun `spdfp truth`")
    for key, length in (("x_star", spec.dim), ("v_star", spec.B.n_rows)):
        if found[key].shape != (length,):
            raise _not_a_truth(path, _wrong_field(key, found[key]))
    return GroundTruth(**{f.name: found[f.name] if found[f.name].ndim else found[f.name].item()
                          for f in fields(GroundTruth)})


# ---------------------------------------------------------------------------
# experiments

@dataclass(frozen=True)
class SolverEntry:
    """One solver clause of an experiment: kind plus its parameters."""

    kind: str
    label: str
    params: dict


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    solvers: tuple
    repetitions: int
    epochs: int
    output: str
    master_seed: int

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.master_seed < 0:  # NumPy's SeedSequence would refuse it only when the run starts
            raise ValueError(f"master_seed = {self.master_seed} is negative")
        # the rows and means of a run are keyed by label
        repeated = sorted(k for k, n in Counter(e.label for e in self.solvers).items() if n > 1)
        if repeated:
            raise ValueError(f"solvers: label(s) {repeated} name more than one clause; "
                             "give each clause its own label=...")


_SOLVER_RE = re.compile(r"(\w+)\s*\(([^()]*)\)")


def parse_solver_list(text):
    """Parse 'kind(key=val,...)' clauses separated by whitespace, ';' or ','.
    A key given twice in one clause is an error."""
    leftover = re.sub(r"[\s;,]+", " ", _SOLVER_RE.sub(" ", text)).strip()
    if leftover:
        raise ValueError(f"solvers: unexpected text {leftover!r} outside solver clauses")
    entries = []
    for m in _SOLVER_RE.finditer(text):
        kind = m.group(1)
        params = _key_values(m.group(2), f"solvers: clause {m.group(0)!r}")
        label = params.pop("label", kind)
        entries.append(SolverEntry(kind=kind, label=label, params=params))
    if not entries:
        raise ValueError("solvers: no solver clauses found")
    return tuple(entries)


def _key_values(text, where):
    """The comma-separated 'key=value' items of text as a dict, keys and
    values stripped, none for a blank text; an item without '=' or a key
    given twice is an error that names where."""
    out = {}
    for item in text.split(",") if text.strip() else ():
        if "=" not in item:
            raise ValueError(f"{where}: expected key=value, got {item.strip()!r}")
        k, _, v = (part.strip() for part in item.partition("="))
        if k in out:
            raise ValueError(f"{where} gives key {k!r} twice")
        out[k] = v
    return out


def parse_experiment_config(path):
    """The ExperimentConfig of a config file; a missing or unknown key, and
    a value ExperimentConfig refuses, is a ValueError that names the file.
    Relative problem and output paths are taken from the file's directory."""
    kv = _read_kv(path, ("problem", "solvers", "repetitions", "epochs", "output",
                         "master_seed"), (), "config")
    base = os.path.dirname(os.path.abspath(path))
    problem = kv["problem"]
    numbers = {key: _kv_number(path, kv, key, int)
               for key in ("repetitions", "epochs", "master_seed")}
    try:
        return ExperimentConfig(
            problem=problem if problem.startswith("synth:") else os.path.join(base, problem),
            solvers=parse_solver_list(kv["solvers"]), output=os.path.join(base, kv["output"]),
            **numbers)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def resolve_problem(source):
    """A problem source is 'synth:key=val,...' with keys from SYNTH_DEFAULTS
    (omitted ones take its desk-scale defaults) or a path to a .problem file."""
    return _resolve_problem(source)[0]


def _resolve_problem(source):
    """(spec, found, fingerprint) of a problem source: _load_problem's for a
    .problem file; a synth: source has no truth file, so its found and
    fingerprint are None."""
    if source.startswith("synth:"):
        params = _key_values(source[len("synth:"):], source)
        unknown = sorted(set(params) - set(SYNTH_DEFAULTS))
        if unknown:
            raise ValueError(f"{source}: unknown synth key(s) {unknown}")
        return synth_fused_lasso(**{k: _kv_number(source, params, k, type(v), v)
                                    for k, v in SYNTH_DEFAULTS.items()}), None, None
    return _load_problem(source)


def build_solver_configs(entry, spec, seed, epochs):
    """Translate a SolverEntry into (SolverConfig, AdmmConfig-or-None).

    A key the clause's kind does not read is an error: stop_tol is pdfp's
    alone, pdfp steps on every sample and so takes no p, and stoc_admm
    takes no lambda. So is a value that is not a finite number of the
    key's type (p is an int), other than 'auto' for lambda and gamma, and
    a lambda that fails the guard run_solver applies (check_lambda)."""
    params, where = dict(entry.params), f"solver {entry.label}"

    def number(key, kind, default):
        return _kv_number(where, params, key, kind, default)

    def auto(key, default):  # a float, or default(spec) where absent or 'auto'
        text = params.pop(key, "auto")
        return default(spec) if text == "auto" else _number(where, key, text, float)

    def build(fn, *args, **kwargs):  # fn(...), whose ValueError then names the clause
        try:
            return fn(*args, **kwargs)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None

    lam = default_lambda(spec) if entry.kind == "stoc_admm" else auto("lambda", default_lambda)
    p = spec.n if entry.kind == "pdfp" else number("p", int, spec.n)
    if p > spec.n:
        raise ValueError(f"{where}: p = {p} exceeds the {spec.n} samples of the problem")
    stop_tol = number("stop_tol", float, 0.0) if entry.kind == "pdfp" else 0.0
    admm_cfg = None
    if entry.kind == "pdfp":
        schedule = build(ConstantSchedule, c=auto("gamma", default_gamma))
    elif entry.kind in ("spdfp1", "spdfp2"):
        # logistic runs default to the 2/k^0.55 schedule; square-loss runs
        # to 1/k^0.7 (both pilot-tuned, both overridable per clause)
        c_default, a_default = (2.0, 0.55) if spec.loss == "logistic" else (1.0, 0.7)
        schedule = build(StepSchedule, c=number("c", float, c_default),
                         alpha=number("alpha", float, a_default))
    elif entry.kind == "stoc_admm":
        beta = number("beta", float, 1.0)
        zc = number("zeta_c", float, 1.0)
        za = number("zeta_alpha", float, 0.5)
        zeta = build(ConstantSchedule, c=zc) if za == 0 else build(StepSchedule, c=zc, alpha=za)
        admm_cfg = build(AdmmConfig, beta_tilde=beta, zeta_schedule=zeta)
        schedule = StepSchedule(c=1.0, alpha=1.0)  # unused by the ADMM steps
    else:
        raise ValueError(f"unknown solver kind {entry.kind!r}")
    if params:
        raise ValueError(f"{where}: unknown parameter(s) {sorted(params)} for {entry.kind}")
    cfg = build(SolverConfig, schedule=schedule, lam=lam, p=p, seed=seed,
                max_epochs=epochs, stop_tolerance=stop_tol)
    if entry.kind != "stoc_admm":
        build(check_lambda, cfg, spec.B)
    return cfg, admm_cfg


CSV_COLUMNS = ("solver", "seed", "epoch", "wall_time_s", "objective",
               "rel_obj_error", "iterate_sq_error", "a_k")


def _fmt(value):
    return "" if value is None else repr(float(value)) if isinstance(value, float) else str(value)


def _truth_path(problem):
    """The one ground truth file of a .problem file: `spdfp truth` writes
    it, and load_problem and run_experiment read it."""
    return problem + ".truth.npz"


def _write_csv(path, preamble, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _mean_rows(reps):
    """(epoch, mean of each column of COLUMNS) per epoch that every run of
    reps, the RunRecords of the repetitions of one clause, reached; a mean
    is None where the runs have no such column. Each mean is np.mean of one
    row of an (epochs, repetitions) stack, which sums that row as np.mean of
    the row alone does, so it has the bits of one np.mean per cell."""
    n = min(map(len, reps))
    means = [repeat(None, n) if any(c is None for c in columns)
             else np.mean(np.stack([c[:n] for c in columns], axis=1), axis=1).tolist()
             for columns in ([getattr(r, name) for r in reps] for name in COLUMNS)]
    return zip(range(reps[0].first, reps[0].first + n), *means)


def run_experiment(cfg):
    """Execute every (solver, repetition) run and write the two CSV files.

    Every clause goes through build_solver_configs before the ground truth
    is loaded or computed and before any run, so a bad clause fails first.
    The truth is read from _truth_path(cfg.problem) where that file exists,
    else computed, as for a synth: source. Returns (rows_path, mean_path).
    Data columns are deterministic given the master seed; the wall-time
    column is not.
    """
    spec, found, fingerprint = _resolve_problem(cfg.problem)
    seeds = [int(s) for s in np.random.SeedSequence(cfg.master_seed).generate_state(
        cfg.repetitions, dtype=np.uint64) >> 1]
    solver_lines, clauses = [], []
    for entry in cfg.solvers:
        run_cfg, admm_cfg = build_solver_configs(entry, spec, seeds[0], cfg.epochs)
        shown = [f"kind={entry.kind}"] + [f"{k}={v}" for k, v in sorted(entry.params.items())
                                          if k not in ("lambda", "p")]
        if entry.kind != "stoc_admm":  # which never reads lambda
            shown.append(f"lambda={run_cfg.lam!r}")
        if entry.kind != "pdfp":  # which steps on every sample
            shown.append(f"p={run_cfg.p}")
        solver_lines.append(f"# solver {entry.label}: " + " ".join(shown))
        clauses.append((entry, run_cfg, admm_cfg))

    ground_truth = (compute_ground_truth(spec) if found is None
                    else _ground_truth(_truth_path(cfg.problem), found, spec, fingerprint))
    prox_spec, reference = prox_for(spec), ground_truth.reference()
    runs = {entry.label: [run_solver(entry.kind, spec, prox_spec, replace(run_cfg, seed=seed),
                                     admm_cfg=admm_cfg, reference=reference, name=entry.label)
                          for seed in seeds]
            for entry, run_cfg, admm_cfg in clauses}

    preamble = [f"# problem={cfg.problem} repetitions={cfg.repetitions} "
                f"epochs={cfg.epochs} master_seed={cfg.master_seed}",
                f"# truth: iterations={ground_truth.iterations} "
                f"residual={ground_truth.residual!r} "
                f"objective={ground_truth.objective_star!r}", *solver_lines]
    rows_path, mean_path = cfg.output + ".csv", cfg.output + "_mean.csv"
    os.makedirs(os.path.dirname(os.path.abspath(rows_path)), exist_ok=True)
    _write_csv(rows_path, preamble, CSV_COLUMNS,
               (list(map(_fmt, row)) for reps in runs.values() for recs in reps
                for row in zip(*recs.field_values())))
    # the means stop at the epochs every repetition reached, as a diverged
    # one stops early
    _write_csv(mean_path, preamble, [c for c in CSV_COLUMNS if c != "seed"],
               ([label, epoch, *map(_fmt, means)] for label, reps in runs.items()
                for epoch, *means in _mean_rows(reps)))
    return rows_path, mean_path
