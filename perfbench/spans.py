"""Span tracing of spdfp's layers, from wrappers patched in by the benchmark.

Each wrapper is installed where the caller looks the name up (for example
``spdfp.solvers.stochastic_gradient`` and ``spdfp._kernels.csr_matvec_range``),
so the library itself is unchanged. A span is (name, start, end, parent);
spans are kept in memory and summarised, or written out, when the run ends.
A function that a later version of the package no longer has is skipped,
and its metrics read zero calls.
"""

import array
import collections
import importlib
import time

import numpy as np

# (module, attribute, span name). Class attributes are given as "Class.attr".
PATCHES = (
    ("spdfp._kernels", "csr_matvec_range", "_kernels.matvec"),
    ("spdfp._kernels", "csr_rmatvec_range", "_kernels.rmatvec"),
    ("spdfp._kernels", "soft_threshold", "_kernels.soft_threshold"),
    ("spdfp.sparse", "SparseMatrix.matvec_range", "sparse.products"),
    ("spdfp.sparse", "SparseMatrix.rmatvec_range", "sparse.products"),
    ("spdfp.sparse", "estimate_spectrum", "sparse.estimate_spectrum"),
    ("spdfp.solvers", "estimate_spectrum", "sparse.estimate_spectrum"),
    ("spdfp.gradients", "estimate_spectrum", "sparse.estimate_spectrum"),
    ("spdfp.harness", "estimate_spectrum", "sparse.estimate_spectrum"),
    ("spdfp.problem", "objective_value", "problem.objective_value"),
    ("spdfp.solvers", "objective_value", "problem.objective_value"),
    ("spdfp.harness", "objective_value", "problem.objective_value"),
    ("spdfp.gradients", "loss_weights", "problem.loss_weights"),
    ("spdfp.prox", "prox", "prox.prox"),
    ("spdfp.solvers", "prox", "prox.prox"),
    ("spdfp.solvers", "prox_residual", "prox.prox_residual"),
    ("spdfp.solvers", "stochastic_gradient", "gradients.stochastic_gradient"),
    ("spdfp.solvers", "full_gradient", "gradients.full_gradient"),
    ("spdfp.solvers", "pdfp_step", "solvers.step"),
    ("spdfp.harness", "pdfp_step", "solvers.step"),
    ("spdfp.solvers", "spdfp_step_alg1", "solvers.step"),
    ("spdfp.solvers", "spdfp_step_alg2", "solvers.step"),
    ("spdfp.solvers", "stoc_admm_step", "solvers.stoc_admm_step"),
    ("spdfp.solvers", "run_solver", "solvers.run_solver"),
    ("spdfp.harness", "run_solver", "solvers.run_solver"),
    ("spdfp.solvers", "check_lambda", "solvers.check_lambda"),
    ("spdfp.harness", "check_lambda", "solvers.check_lambda"),
    ("spdfp.harness", "compute_ground_truth", "harness.compute_ground_truth"),
    ("spdfp.harness", "build_graph_matrix", "harness.build_graph_matrix"),
    ("spdfp.harness", "build_solver_configs", "harness.build_solver_configs"),
    ("spdfp.harness", "synth_fused_lasso", "harness.synth"),
    ("spdfp.harness", "run_experiment", "harness.run_experiment"),
    ("spdfp.harness", "parse_experiment_config", "harness.io"),
    ("spdfp.harness", "save_problem", "harness.io"),
    ("spdfp.harness", "load_problem", "harness.io"),
    ("spdfp.harness", "save_libsvm", "harness.io"),
    ("spdfp.harness", "load_libsvm", "harness.io"),
    ("spdfp.harness", "save_matrix", "harness.io"),
    ("spdfp.harness", "load_matrix", "harness.io"),
    ("spdfp.harness", "save_ground_truth", "harness.io"),
    ("spdfp.harness", "load_ground_truth", "harness.io"),
    ("spdfp.rates", "ErrorTrace.thin_log", "rates"),
    ("spdfp.rates", "fit_rate", "rates"),
    ("spdfp.rates", "joint_error", "rates"),
    ("spdfp.cli", "main", "cli.main"),
)

# Per-layer metrics: name -> unit. Every workload reports all of them.
PER_LAYER = {
    "kernels.matvec.calls": "count",
    "kernels.matvec.s": "s",
    "kernels.rmatvec.calls": "count",
    "kernels.rmatvec.s": "s",
    "kernels.soft_threshold.calls": "count",
    "kernels.soft_threshold.s": "s",
    "kernels.nnz": "count",
    "kernels.bytes_computed": "B",
    "sparse.products.self_s": "s",
    "sparse.estimate_spectrum.calls": "count",
    "sparse.estimate_spectrum.s": "s",
    "sparse.power_iters": "count",
    "problem.objective_value.calls": "count",
    "problem.objective_value.s": "s",
    "problem.loss_weights.s": "s",
    "prox.calls": "count",
    "prox.self_s": "s",
    "gradients.stochastic_gradient.calls": "count",
    "gradients.stochastic_gradient.self_s": "s",
    "gradients.full_gradient.calls": "count",
    "gradients.full_gradient.self_s": "s",
    "solvers.steps": "count",
    "solvers.step.self_s": "s",
    "solvers.stoc_admm_step.self_s": "s",
    "solvers.run_solver.self_s": "s",
    "solvers.check_lambda.s": "s",
    "solvers.epochs_to_target": "count",
    "harness.compute_ground_truth.s": "s",
    "harness.truth_iters": "count",
    "harness.truth_kkt": "1",
    "harness.build_graph_matrix.s": "s",
    "harness.build_solver_configs.s": "s",
    "harness.synth.s": "s",
    "harness.io.s": "s",
    "harness.run_experiment.self_s": "s",
    "rates.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _kernel_counts(counters, args, _out):
    """CSR nonzeros read and bytes computed from the kernel's array sizes:
    (indptr, indices, data, vec, out, row_start, row_stop)."""
    if len(args) != 7:
        return
    indptr, _, _, _, out, row_start, row_stop = args
    nnz = int(indptr[row_stop] - indptr[row_start])
    rows = row_stop - row_start
    counters["kernels.nnz"] += nnz
    # data + indices + gathered vector entries per nonzero, indptr slice, output
    counters["kernels.bytes_computed"] += 8 * (3 * nnz + rows + 1 + out.shape[0])


def _threshold_counts(counters, args, _out):
    if len(args) == 3:
        counters["kernels.bytes_computed"] += 16 * np.asarray(args[0]).size


def _spectrum_counts(counters, _args, out):
    counters["sparse.power_iters"] += getattr(out, "iterations_used", 0)


def _truth_counts(counters, _args, out):
    counters["harness.truth_iters"] += getattr(out, "iterations", 0)


COUNTERS = {
    "_kernels.matvec": _kernel_counts,
    "_kernels.rmatvec": _kernel_counts,
    "_kernels.soft_threshold": _threshold_counts,
    "sparse.estimate_spectrum": _spectrum_counts,
    "harness.compute_ground_truth": _truth_counts,
}


class Tracer:
    """In-memory span recorder with patch/unpatch of the layer functions."""

    def __init__(self):
        self.table = []                  # span names; a span stores its index here
        self.codes = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self._stack = []
        self.counters = collections.Counter()
        self._saved = []
        self.missing = []

    def _wrap(self, name, fn):
        if name not in self.table:
            self.table.append(name)
        code = self.table.index(name)
        codes, starts, ends, parents, stack = (
            self.codes, self.starts, self.ends, self.parents, self._stack)
        counter = COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counters, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for mod_name, attr, span in PATCHES:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def arrays(self):
        """Spans as arrays: name codes, the code table, start, end, parent."""
        return (np.array(self.codes, dtype=np.int32), list(self.table),
                np.array(self.starts), np.array(self.ends),
                np.array(self.parents, dtype=np.int64))

    def save(self, path):
        codes, table, starts, ends, parents = self.arrays()
        np.savez_compressed(path, name=codes, names=np.array(table), start=starts,
                            end=ends, parent=parents)


def summarise(tracer, wall_s):
    """Per-layer metrics from the spans, plus the time-accounting check.

    Returns (metrics, accounting) where accounting holds the layers' self
    times, the benchmark's own time and whether they sum to ``wall_s``.
    """
    codes, table, starts, ends, parents = tracer.arrays()
    dur = ends - starts
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_t = dur - child_time
    parent_code = np.where(has_parent, codes[np.maximum(parents, 0)], -1)
    nested_ok = bool(np.all(dur >= 0) and np.all(
        (starts[has_parent] >= starts[parents[has_parent]])
        & (ends[has_parent] <= ends[parents[has_parent]])))

    def pick(name):
        return codes == table.index(name) if name in table else np.zeros(len(codes), bool)

    def calls(name):
        return int(np.count_nonzero(pick(name)))

    def total(name, arr):
        return float(np.sum(arr[pick(name)]))

    def outer(name):
        # inclusive time of the outermost spans of a name (nested ones excluded)
        sel = pick(name)
        if name in table:
            sel &= parent_code != table.index(name)
        return float(np.sum(dur[sel]))

    prox_codes = [table.index(n) for n in ("prox.prox", "prox.prox_residual") if n in table]
    prox_sel = np.isin(codes, prox_codes)
    prox_outer = prox_sel & ~np.isin(parent_code, prox_codes)

    m = {
        "kernels.matvec.calls": calls("_kernels.matvec"),
        "kernels.matvec.s": total("_kernels.matvec", dur),
        "kernels.rmatvec.calls": calls("_kernels.rmatvec"),
        "kernels.rmatvec.s": total("_kernels.rmatvec", dur),
        "kernels.soft_threshold.calls": calls("_kernels.soft_threshold"),
        "kernels.soft_threshold.s": total("_kernels.soft_threshold", dur),
        "kernels.nnz": tracer.counters.get("kernels.nnz", 0),
        "kernels.bytes_computed": tracer.counters.get("kernels.bytes_computed", 0),
        "sparse.products.self_s": total("sparse.products", self_t),
        "sparse.estimate_spectrum.calls": calls("sparse.estimate_spectrum"),
        "sparse.estimate_spectrum.s": outer("sparse.estimate_spectrum"),
        "sparse.power_iters": tracer.counters.get("sparse.power_iters", 0),
        "problem.objective_value.calls": calls("problem.objective_value"),
        "problem.objective_value.s": outer("problem.objective_value"),
        "problem.loss_weights.s": total("problem.loss_weights", dur),
        "prox.calls": int(np.count_nonzero(prox_outer)),
        "prox.self_s": float(np.sum(self_t[prox_sel])),
        "gradients.stochastic_gradient.calls": calls("gradients.stochastic_gradient"),
        "gradients.stochastic_gradient.self_s": total("gradients.stochastic_gradient", self_t),
        "gradients.full_gradient.calls": calls("gradients.full_gradient"),
        "gradients.full_gradient.self_s": total("gradients.full_gradient", self_t),
        "solvers.steps": calls("solvers.step") + calls("solvers.stoc_admm_step"),
        "solvers.step.self_s": total("solvers.step", self_t),
        "solvers.stoc_admm_step.self_s": total("solvers.stoc_admm_step", self_t),
        "solvers.run_solver.self_s": total("solvers.run_solver", self_t),
        "solvers.check_lambda.s": outer("solvers.check_lambda"),
        "harness.compute_ground_truth.s": outer("harness.compute_ground_truth"),
        "harness.truth_iters": tracer.counters.get("harness.truth_iters", 0),
        "harness.build_graph_matrix.s": outer("harness.build_graph_matrix"),
        "harness.build_solver_configs.s": outer("harness.build_solver_configs"),
        "harness.synth.s": outer("harness.synth"),
        "harness.io.s": outer("harness.io"),
        "harness.run_experiment.self_s": total("harness.run_experiment", self_t),
        "rates.s": outer("rates"),
        "cli.main.self_s": total("cli.main", self_t),
    }

    layer_self = {}
    for i, name in enumerate(table):
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(np.sum(self_t[codes == i]))
    own = wall_s - float(np.sum(dur[~has_parent]))
    accounted = sum(layer_self.values()) + own
    accounting = {
        "wall_s": wall_s,
        "benchmark_own_s": own,
        "layer_self_s": layer_self,
        "spans": int(len(codes)),
        "missing_functions": list(tracer.missing),
        "nested_ok": nested_ok,
        "ok": nested_ok and own >= 0 and abs(accounted - wall_s) <= 1e-6 * max(wall_s, 1.0),
    }
    return m, accounting
