"""One round of one workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --mode MODE --workdir DIR

MODE is ``plain`` (untraced; the CLI workload runs each ``spdfp`` step as
its own process), ``inproc`` (untraced, the CLI steps through
``spdfp.cli.main`` in this process) or ``traced`` (as ``inproc``, with the
layer wrappers of spans.py installed). The last line of standard output is
one JSON object: metrics, operation counts, check results and a digest of
every trajectory and CSV data column, which must not depend on the mode.
``run.py`` starts these rounds; the spdfp package is found on PYTHONPATH.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("fused-lasso-cli", "graph-rate-small", "logistic-graph")
# the calibration loop's mix for each workload, (Python-loop steps, matrix
# products) (refclock.py): dispatch-bound small steps for graph-rate-small,
# half and half where kernels over mid-sized data take much of the time
CALIBRATION = {"graph-rate-small": (100, 0), "logistic-graph": (50, 1),
               "fused-lasso-cli": (50, 1)}
TARGET_REPEATS = 3   # timed reruns of the headline solve per round, each one sample

# graph-rate-small: the criterion-7 instance of the acceptance suite
RATE_DATA_SEED = 11
RATE_HEADLINE_SEED = 5000
RATE_REPS = 5            # repetition 0 uses RATE_HEADLINE_SEED, the rest come from --seed
RATE_STEPS = 8000
RATE_EQUIV_EPOCHS = 100
RATE_TARGET = 5e-5

# logistic-graph: one generated instance, fixed because the epochs its solves
# need to reach the target vary by up to 45% between instances. The first
# LOGI_HEADLINE repetitions use fixed seeds and are the headline solves that
# time_to_target_s reruns, because their summed stopping epochs vary by about
# 10% between seeds; --seed draws the seeds of the other repetitions
LOGI_DATA_SEED = 1
LOGI_N, LOGI_D, LOGI_GROUP = 2000, 100, 5
LOGI_KEEP = 0.5          # share of nonzero entries
LOGI_NU, LOGI_MU = 1e-3, 0.01
LOGI_THRESHOLD = 0.2     # |corr| above which build_graph_matrix joins two features
LOGI_REPS, LOGI_EPOCHS, LOGI_P = 12, 30, 100
LOGI_HEADLINE = 6
LOGI_TARGET = 1e-2

# fused-lasso-cli: the desk instance of the acceptance suite, n=1000, d=50, synth seed 7.
# It is fixed because the cost of its spectrum estimates varies up to 4x between
# synth seeds; --seed draws the master seed of the runs.
CLI_N, CLI_D, CLI_SYNTH_SEED = 1000, 50, 7
# (label, clause, batch size); spdfp2 is the headline clause
CLI_CLAUSES = (("spdfp2", "spdfp2(c=1.0,alpha=0.7,p=100)", 100),
               ("spdfp1", "spdfp1(c=1.0,alpha=0.7,p=100)", 100),
               ("stoc_admm", "stoc_admm(beta=30,zeta_c=0.5,p=100)", 100),
               ("pdfp", "pdfp()", CLI_N))
CLI_REPS, CLI_EPOCHS = 2, 20
CLI_TARGET = 3e-2


def derived_seeds(seed, count, salt):
    """Seeds for the program's inputs, a pure function of --seed."""
    state = np.random.SeedSequence([seed, salt]).generate_state(count, dtype=np.uint64)
    return [int(s >> 33) for s in state]


class Round:
    """Operation counts, check results and the trajectory digest of one round."""

    def __init__(self, planned, clock):
        self.planned = planned
        self.clock = clock   # converts wall intervals to reference seconds
        self.done = 0
        self.checks = {}
        self.details = {}
        self.samples = {}   # metric -> values; run.py takes the median over all rounds
        self.layer_extra = {}
        self._digest = hashlib.sha256()

    def op(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.done += 1
        return out

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def ref_since(self, t0):
        """Reference seconds from wall instant t0 until now."""
        return self.clock.ref(t0, time.perf_counter())

    def check(self, name, ok, detail=None):
        self.checks[name] = bool(ok)
        if detail is not None:
            self.details[name] = detail

    def feed(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._digest.update(np.ascontiguousarray(item, dtype=np.float64).tobytes())
            else:
                self._digest.update(repr(item).encode())

    def feed_records(self, records):
        for r in records:
            self.feed(r.epoch, r.objective, r.rel_obj_error, r.iterate_sq_error, r.a_k)

    def digest(self):
        return self._digest.hexdigest()


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def check_truth(rnd, prob, gt, lam_values, target, trace=None):
    """KKT certificate, objective_star, the lambda bound and the self-tests."""
    cert = checks.truth_ok(prob, gt.x_star, gt.v_star, gt.objective_star, target)
    rnd.check("truth_kkt", cert["ok"], {k: cert[k] for k in ("r", "gap", "residual", "tolerance")})
    rnd.check("objective_star_dense", cert["objective_ok"])
    rnd.layer_extra["harness.truth_kkt"] = cert["residual"]
    worst = max(checks.lambda_ok(prob.B, lam)[1] for lam in lam_values)
    rnd.check("lambda_bound", worst < 1.0, {"max_lambda_rho": worst})
    planted = checks.self_test(prob, gt.x_star, gt.v_star, target, trace)
    rnd.check("self_test", all(planted.values()), planted)
    return cert


def steps_in(records, n_batches):
    return (len(records) - 1) * n_batches


def first_epoch_meeting(records, f_star, target):
    for r in records:
        if r.epoch > 0 and checks.rel_error(r.objective, f_star) <= target:
            return r.epoch
    return None


def timed_solve(rnd, solve, n_batches, *args):
    """One solve as an operation, sampling its steps per second of solve time."""
    t = time.perf_counter()
    records = rnd.op(solve, *args)
    rnd.sample("steps_per_s", steps_in(records, n_batches) / rnd.ref_since(t))
    return records


def timed_target(rnd, solve, runs):
    """Sample the wall time of TARGET_REPEATS reruns of the headline solve(s).

    ``runs`` is a list of (seed, epochs, full-run records); each rerun must
    reproduce the full run's records up to its stopping epoch.
    """
    same = True
    for _ in range(TARGET_REPEATS):
        t = time.perf_counter()
        outs = [rnd.op(solve, seed, epochs) for seed, epochs, _ in runs]
        rnd.sample("time_to_target_s", rnd.ref_since(t))
        for out, (_, epochs, full) in zip(outs, runs):
            same &= [(r.epoch, r.objective) for r in out] == [
                (r.epoch, r.objective) for r in full[:epochs + 1]]
    rnd.check("target_rerun_reproduces", same)


# ---------------------------------------------------------------------------
# graph-rate-small

RATE_EDGES = ((0, 1), (2, 3), (4, 7))


def rate_instance():
    """(spec, dense copy) of the criterion-7 instance, both built from the raw arrays."""
    from spdfp.problem import Dataset, ProblemSpec
    from spdfp.sparse import SparseMatrix, stack_identity
    rng = np.random.default_rng(RATE_DATA_SEED)
    n, d = 64, 8
    A = rng.standard_normal((n, d))
    x_true = rng.standard_normal(d)
    b = A @ x_true + 0.05 * rng.standard_normal(n)
    rows = np.repeat(np.arange(len(RATE_EDGES)), 2)
    cols = np.ravel(RATE_EDGES)
    vals = np.tile([1.0, -1.0], len(RATE_EDGES))
    G = SparseMatrix.from_coo(len(RATE_EDGES), d, rows, cols, vals)
    spec = ProblemSpec(loss="square", dataset=Dataset(samples=SparseMatrix.from_dense(A), labels=b),
                       l2_weight=1.0, composite_weight=0.1, B=stack_identity(G))
    G_dense = np.zeros((len(RATE_EDGES), d))
    G_dense[rows, cols] = vals
    return spec, checks.Dense("square", A, b, 1.0, 0.1, np.vstack([G_dense, np.eye(d)]))


def graph_rate_small(rnd, seed):
    from spdfp import harness, rates, solvers, sparse
    spec, prob = rate_instance()
    prox_spec = harness.prox_for(spec)
    gt = rnd.op(harness.compute_ground_truth, spec)
    lam = harness.default_lambda(spec)
    rho_max = sparse.estimate_spectrum(spec.B).rho_max
    reference = gt.reference()
    schedule = solvers.StepSchedule(c=0.5, alpha=0.7)
    p = 8
    n_batches = -(-spec.n // p)
    epochs = RATE_STEPS // n_batches
    seeds = [RATE_HEADLINE_SEED] + derived_seeds(seed, RATE_REPS - 1, 7)
    rnd.sample("setup_s", rnd.ref_since(T_START))

    def solve(kind, s, n_epochs):
        cfg = solvers.SolverConfig(schedule=schedule, lam=lam, p=p, seed=s, max_epochs=n_epochs)
        return solvers.run_solver(kind, spec, prox_spec, cfg, reference=reference, rho_max=rho_max)

    runs = [timed_solve(rnd, solve, n_batches, "spdfp1", s, epochs) for s in seeds]
    alg2 = timed_solve(rnd, solve, n_batches, "spdfp2", RATE_HEADLINE_SEED, RATE_EQUIV_EPOCHS)

    # error trace from the per-epoch a_k records: after epoch e the iterate is x_k, k = e*nb + 1
    a = np.mean([[r.a_k for r in recs[1:]] for recs in runs], axis=0)
    k = np.arange(1, epochs + 1) * n_batches + 1

    def fit():
        thin = rates.ErrorTrace(k=k, a=a).thin_log()
        return thin, rates.fit_rate(thin, tail_fraction=0.5)

    thin, slope = rnd.op(fit)

    headline = runs[0]
    target_epoch = first_epoch_meeting(headline, gt.objective_star, RATE_TARGET)
    cert = check_truth(rnd, prob, gt, [lam, gt.lam], RATE_TARGET, trace=(thin.k, thin.a))
    ok, own_slope, r2 = checks.rate_ok(thin.k, thin.a)
    rnd.check("rate_slope", ok and abs(own_slope - slope) <= 1e-9 * abs(slope),
              {"slope": slope, "own_slope": own_slope, "r2": r2})
    good, dev = checks.objectives_agree([r.objective for r in headline[:RATE_EQUIV_EPOCHS + 1]],
                                        [r.objective for r in alg2])
    rnd.check("spdfp1_spdfp2_equal", good, {"max_rel_dev": dev})
    all_recs = [r for recs in runs + [alg2] for r in recs]
    good, bad = checks.objectives_above_optimum([r.objective for r in all_recs],
                                                [r.iterate_sq_error for r in all_recs],
                                                gt.objective_star, cert)
    rnd.check("objectives_above_optimum", good, {"below": bad})
    rnd.check("headline_reaches_target", target_epoch is not None,
              {"target": RATE_TARGET, "epoch": target_epoch})
    if target_epoch is None:
        raise RuntimeError("headline solve never met its target")
    timed_target(rnd, lambda s, e: solve("spdfp1", s, e),
                 [(RATE_HEADLINE_SEED, target_epoch, headline)])

    rnd.feed(gt.x_star, gt.v_star, gt.objective_star, slope)
    for recs in runs + [alg2]:
        rnd.feed_records(recs)
    rnd.layer_extra["solvers.epochs_to_target"] = target_epoch
    rnd.details["slope"] = slope


# ---------------------------------------------------------------------------
# logistic-graph

def logistic_data(seed):
    """Correlated feature groups, half of the entries zeroed, labels +-1 drawn
    from a logistic model whose coefficients are shared within a group."""
    rng = np.random.default_rng(derived_seeds(seed, 1, 11)[0])
    groups = LOGI_D // LOGI_GROUP
    latent = rng.standard_normal((LOGI_N, groups))
    X = np.repeat(latent, LOGI_GROUP, axis=1) + 0.5 * rng.standard_normal((LOGI_N, LOGI_D))
    X *= rng.random((LOGI_N, LOGI_D)) < LOGI_KEEP
    w_group = rng.standard_normal(groups)
    w_group[rng.random(groups) < 0.3] = 0.0
    w = 0.5 * np.repeat(w_group, LOGI_GROUP)
    prob = 1.0 / (1.0 + np.exp(-(X @ w)))
    y = np.where(rng.random(LOGI_N) < prob, 1.0, -1.0)
    return X, y


def logistic_graph(rnd, seed):
    from spdfp import harness, solvers, sparse
    from spdfp.problem import Dataset, ProblemSpec
    X, y = logistic_data(LOGI_DATA_SEED)
    dataset = Dataset(samples=sparse.SparseMatrix.from_dense(X), labels=y)
    G = rnd.op(harness.build_graph_matrix, dataset, LOGI_THRESHOLD)
    spec = ProblemSpec(loss="logistic", dataset=dataset, l2_weight=LOGI_NU,
                       composite_weight=LOGI_MU, B=sparse.stack_identity(G))
    prox_spec = harness.prox_for(spec)
    gt = rnd.op(harness.compute_ground_truth, spec)
    lam = harness.default_lambda(spec)
    rho_max = sparse.estimate_spectrum(spec.B).rho_max
    reference = gt.reference()
    schedule = solvers.StepSchedule(c=2.0, alpha=0.55)
    n_batches = -(-spec.n // LOGI_P)
    seeds = (derived_seeds(LOGI_DATA_SEED, LOGI_HEADLINE, 17)
             + derived_seeds(seed, LOGI_REPS - LOGI_HEADLINE, 13))
    rnd.sample("setup_s", rnd.ref_since(T_START))

    def solve(s, n_epochs):
        cfg = solvers.SolverConfig(schedule=schedule, lam=lam, p=LOGI_P, seed=s,
                                   max_epochs=n_epochs)
        return solvers.run_solver("spdfp2", spec, prox_spec, cfg, reference=reference,
                                  rho_max=rho_max)

    runs = [timed_solve(rnd, solve, n_batches, s, LOGI_EPOCHS) for s in seeds]

    G_dense = G.to_dense()
    good, missed = checks.graph_ok(X, LOGI_THRESHOLD, G_dense)
    rnd.check("graph_edges", good, {"edges": G.n_rows, "differing_pairs": missed})
    prob = checks.Dense("logistic", X, y, LOGI_NU, LOGI_MU, np.vstack([G_dense, np.eye(LOGI_D)]))
    cert = check_truth(rnd, prob, gt, [lam, gt.lam], LOGI_TARGET)
    all_recs = [r for recs in runs for r in recs]
    good, bad = checks.objectives_above_optimum([r.objective for r in all_recs],
                                                [r.iterate_sq_error for r in all_recs],
                                                gt.objective_star, cert)
    rnd.check("objectives_above_optimum", good, {"below": bad})
    stops = [first_epoch_meeting(recs, gt.objective_star, LOGI_TARGET) for recs in runs]
    rnd.check("headline_reaches_target", None not in stops, {"target": LOGI_TARGET, "epochs": stops})
    if None in stops:
        raise RuntimeError("a headline repetition never met its target")
    timed_target(rnd, solve, list(zip(seeds, stops, runs))[:LOGI_HEADLINE])

    rnd.feed(G.indptr, G.indices, gt.x_star, gt.v_star, gt.objective_star)
    for recs in runs:
        rnd.feed_records(recs)
    rnd.layer_extra["solvers.epochs_to_target"] = sum(stops[:LOGI_HEADLINE])
    rnd.details["graph_edges"] = G.n_rows


# ---------------------------------------------------------------------------
# fused-lasso-cli

def read_problem_dense(base):
    """Read <base>.problem and the files it names with this file's own parsers."""
    kv = {}
    with open(base + ".problem", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line and not line.lstrip().startswith("#"):
                key, _, val = line.partition("=")
                kv[key.strip()] = val.strip()
    here = os.path.dirname(base)
    labels, rows = [], []
    with open(os.path.join(here, kv["data"]), encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                labels.append(float(parts[0]))
                rows.append([(int(j) - 1, float(v)) for j, v in (t.split(":") for t in parts[1:])])
    entries = []
    shape = None
    with open(os.path.join(here, kv["b_matrix"]), encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts[:2] == ["#", "shape"]:
                shape = (int(parts[2]), int(parts[3]))
            elif parts and not parts[0].startswith("#"):
                entries.append((int(parts[0]), int(parts[1]), float(parts[2])))
    d = shape[1]
    A = np.zeros((len(labels), d))
    for i, row in enumerate(rows):
        for j, v in row:
            A[i, j] += v
    B = np.zeros(shape)
    for r, c, v in entries:
        B[r, c] += v
    return checks.Dense(kv["loss"], A, np.array(labels), float(kv.get("l2_weight", 0.0)),
                        float(kv.get("composite_weight", 0.0)), B)


def read_csv(path):
    """(preamble lines, header, data rows) of a run CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    pre = [ln for ln in lines if ln.startswith("#")]
    body = list(csv.reader([ln for ln in lines if not ln.startswith("#")]))
    return pre, body[0], body[1:]


def solver_lambdas(preamble):
    return [float(tok.split("=", 1)[1]) for ln in preamble if ln.startswith("# solver ")
            for tok in ln.split() if tok.startswith("lambda=")]


class CliRunner:
    """Runs ``spdfp <args>`` as a process (plain) or through cli.main (inproc, traced)."""

    def __init__(self, mode, workdir):
        self.mode = mode
        self.workdir = workdir

    def __call__(self, *args):
        if self.mode == "plain":
            proc = subprocess.run([sys.executable, "-m", "spdfp.cli", *args], cwd=self.workdir,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"spdfp {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
            return proc.stdout
        from spdfp import cli
        code = cli.main(list(args))
        if code != 0:
            raise RuntimeError(f"spdfp {args[0]} returned {code}")
        return ""


def csv_steps(rows):
    """Solver steps behind the CSV rows: (epochs run) x (steps per epoch)."""
    epochs = {}
    for row in rows:
        key = (row[0], row[1])
        epochs[key] = max(epochs.get(key, 0), int(row[2]))
    batch = {label: p for label, _, p in CLI_CLAUSES}
    return sum(e * -(-CLI_N // batch[label]) for (label, _), e in epochs.items())


def fused_lasso_cli(rnd, seed, mode, workdir):
    spdfp = CliRunner(mode, workdir)
    master_seed, = derived_seeds(seed, 1, 3)
    base = os.path.join(workdir, "prob")
    t = time.perf_counter()
    rnd.op(spdfp, "synth", "--out", base, "--n", str(CLI_N), "--d", str(CLI_D), "--perturb-frac", "0.05",
           "--noise-sd", "0.01", "--seed", str(CLI_SYNTH_SEED), "--mu", "0.1")
    rnd.op(spdfp, "truth", "--problem", base + ".problem")
    rnd.sample("setup_s", rnd.ref_since(t))

    def config(name, solvers, reps, epochs):
        path = os.path.join(workdir, name + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"problem = prob.problem\nsolvers = {solvers}\nrepetitions = {reps}\n"
                     f"epochs = {epochs}\noutput = out/{name}\nmaster_seed = {master_seed}\n")
        return path

    run_cfg = config("run", "; ".join(c for _, c, _ in CLI_CLAUSES), CLI_REPS, CLI_EPOCHS)
    t = time.perf_counter()
    rnd.op(spdfp, "run", "--config", run_cfg)
    run_s = rnd.ref_since(t)

    prob = read_problem_dense(base)
    z = np.load(base + ".problem.truth.npz")
    x_star, v_star, f_star = z["x_star"], z["v_star"], float(z["objective_star"])
    pre, header, rows = read_csv(os.path.join(workdir, "out", "run.csv"))
    col = {name: i for i, name in enumerate(header)}
    steps = csv_steps(rows)
    gt = types.SimpleNamespace(x_star=x_star, v_star=v_star, objective_star=f_star,
                               lam=float(z["lam"]))
    cert = check_truth(rnd, prob, gt, [gt.lam] + solver_lambdas(pre), CLI_TARGET)
    obj = [float(r[col["objective"]]) for r in rows]
    sq = [float(r[col["iterate_sq_error"]]) for r in rows]
    good, bad = checks.objectives_above_optimum(obj, sq, f_star, cert)
    rnd.check("objectives_above_optimum", good, {"below": bad})

    def series(label, seed_str):
        return [float(r[col["objective"]]) for r in rows if r[0] == label and r[1] == seed_str]

    rep_seeds = list(dict.fromkeys(r[1] for r in rows if r[0] == "spdfp2"))
    dev = 0.0
    equal = bool(rep_seeds)
    for s in rep_seeds:
        good, d = checks.objectives_agree(series("spdfp1", s), series("spdfp2", s))
        equal &= good
        dev = max(dev, d)
    rnd.check("spdfp1_spdfp2_equal", equal, {"max_rel_dev": dev})

    head = [r for r in rows if r[0] == "spdfp2" and r[1] == rep_seeds[0]]
    stop = next((int(r[col["epoch"]]) for r in head[1:]
                 if checks.rel_error(float(r[col["objective"]]), f_star) <= CLI_TARGET), None)
    rnd.check("headline_reaches_target", stop is not None, {"target": CLI_TARGET, "epoch": stop})
    if stop is None:
        raise RuntimeError("headline clause never met its target")
    target_cfg = config("target", CLI_CLAUSES[0][1], 1, stop)
    data = [i for name, i in col.items() if name != "wall_time_s"]
    same = True
    for _ in range(TARGET_REPEATS):
        t = time.perf_counter()
        rnd.op(spdfp, "run", "--config", target_cfg)
        rnd.sample("time_to_target_s", rnd.ref_since(t))
        _, _, trows = read_csv(os.path.join(workdir, "out", "target.csv"))
        same &= [[r[i] for i in data] for r in trows] == [[r[i] for i in data] for r in head[:stop + 1]]
    rnd.check("target_rerun_reproduces", same)

    with open(base + ".libsvm", "rb") as fh:
        rnd.feed(fh.read())
    rnd.feed(x_star, v_star, f_star)
    for name in ("run.csv", "run_mean.csv", "target.csv"):
        _, hdr, body = read_csv(os.path.join(workdir, "out", name))
        keep = [i for i, h in enumerate(hdr) if h != "wall_time_s"]
        rnd.feed([[r[i] for i in keep] for r in body])
    rnd.sample("steps_per_s", steps / run_s)
    rnd.layer_extra["solvers.epochs_to_target"] = stop


# ---------------------------------------------------------------------------

PLANNED_OPS = {
    # truth, rate solves, the spdfp2 solve, the rate fit, headline reruns
    "graph-rate-small": 1 + RATE_REPS + 1 + 1 + TARGET_REPEATS,
    # graph, truth, solves, reruns of the headline repetitions
    "logistic-graph": 2 + LOGI_REPS + TARGET_REPEATS * LOGI_HEADLINE,
    # synth, truth, run, headline reruns
    "fused-lasso-cli": 3 + TARGET_REPEATS,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "inproc", "traced"), default="plain")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None, help="write the spans here (.npz)")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
    # the untraced subprocess rounds give the end-to-end metrics, in reference
    # seconds; the in-process rounds give per-layer wall times, where the
    # calibration handler would show up inside the layers' spans
    clock = refclock.RefClock(*CALIBRATION[args.workload])
    rnd = Round(PLANNED_OPS[args.workload], clock)
    error = None
    if args.mode == "plain":
        clock.start()
    try:
        if args.workload == "fused-lasso-cli":
            fused_lasso_cli(rnd, args.seed, args.mode, os.path.abspath(args.workdir))
        elif args.workload == "graph-rate-small":
            graph_rate_small(rnd, args.seed)
        else:
            logistic_graph(rnd, args.seed)
    except Exception:  # a failed operation ends the round; it is counted, not hidden
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    t_end = time.perf_counter()
    clock.stop()
    if tracer is not None:
        tracer.uninstall()

    import spdfp
    wall_s = t_end - T_START
    rnd.sample("wall_s", clock.ref(T_START, t_end))
    rnd.details["raw_wall_s"] = wall_s
    rnd.details["clock"] = clock.summary()
    rnd.sample("peak_rss_mib", peak_rss_mib())
    out = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "attempted": rnd.planned, "failed": rnd.planned - rnd.done if error else 0,
        "error": error, "checks": rnd.checks, "details": rnd.details,
        "samples": rnd.samples, "digest": rnd.digest(), "backend": spdfp.backend(),
    }
    if tracer is not None:
        layers, accounting = spans.summarise(tracer, wall_s)
        layers.update(rnd.layer_extra)
        out["layers"] = layers
        out["accounting"] = accounting
        if args.trace_out:
            tracer.save(args.trace_out)
    else:
        out["layer_extra"] = rnd.layer_extra
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
