"""Command-line harness.

Subcommands: ``synth`` (emit a synthetic problem to files), ``truth``
(compute the ground truth of a .problem file and cache it in
<problem>.truth.npz), ``run`` (execute an experiment config),
``bound-check`` (verify the recursion decay bound on a parameter grid).
A refused input, a file that cannot be read or an input too large for
memory is reported as one line, ``spdfp: error: <message>``, on standard
error, with exit status 2.
"""

import argparse
import sys

from spdfp import harness
from spdfp.rates import RecursionParams, lemma_bound, simulate_recursion


def _cmd_synth(args):
    spec = harness.synth_fused_lasso(**{k: getattr(args, k) for k in harness.SYNTH_DEFAULTS})
    path = harness.save_problem(spec, args.out)
    print(f"wrote {path} (A: {spec.n}x{spec.dim}, B: {spec.B.n_rows}x{spec.B.n_cols})")
    return 0


def _cmd_truth(args):
    if args.problem.startswith("synth:"):
        raise ValueError(f"truth: {args.problem} is no .problem file; `spdfp run` computes "
                         "its truth")
    spec = harness.load_problem(args.problem)
    gt = harness.compute_ground_truth(spec, iters=args.iters)
    out = harness._truth_path(args.problem)
    harness.save_ground_truth(gt, out, spec)
    print(f"wrote {out}: objective={gt.objective_star!r} residual={gt.residual:.3e} "
          f"(gamma={gt.gamma:.4g}, lambda={gt.lam:.4g}, {gt.iterations} iterations)")
    return 0


def _cmd_run(args):
    cfg = harness.parse_experiment_config(args.config)
    rows, means = harness.run_experiment(cfg)
    print(f"wrote {rows}")
    print(f"wrote {means}")
    return 0


def _cmd_bound_check(args):
    alphas, cs, taus, s_inits = (
        [harness._number("bound-check", flag, x, float) for x in text.split(",")]
        for flag, text in (("--alphas", args.alphas), ("--cs", args.cs),
                           ("--taus", args.taus), ("--s-inits", args.s_inits)))
    failures = 0
    for alpha in alphas:
        for c in cs:
            for tau in taus:
                for s_init in s_inits:
                    params = RecursionParams(alpha=alpha, c=c, tau=tau, s_init=s_init)
                    s = simulate_recursion(params, args.k_max)
                    bad = 0
                    worst = 0.0
                    for k in range(params.bound_start, args.k_max + 1):
                        gap = s[k - 1] - lemma_bound(params, k)
                        if gap > 0:
                            bad += 1
                            worst = max(worst, gap)
                    tag = "PASS" if bad == 0 else f"FAIL ({bad} k's, worst excess {worst:.3e})"
                    print(f"alpha={alpha} c={c} tau={tau} s_init={s_init} "
                          f"k0={params.k0}: {tag}")
                    failures += bad
    print(f"total violations: {failures}")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="spdfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fused-lasso problem")
    p.add_argument("--out", required=True, help="base path for the emitted files")
    helps = {"mu": "weight on ||Bx||_1", "nu": "weight on the l2 term"}
    for key, default in harness.SYNTH_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default,
                       help=helps.get(key))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("truth", help="compute the reference optimum of a .problem file and "
                                     "cache it in <problem>.truth.npz, which `spdfp run` reads")
    p.add_argument("--problem", required=True,
                   help="path to a .problem file (not a synth: source)")
    p.add_argument("--iters", type=int, default=harness.DEFAULT_TRUTH_ITERS,
                   help="cap on the PDFP iterations; the run stops earlier once its "
                        f"fixed-point residual is at most {harness.TRUTH_TARGET:g}, "
                        "and warns if the cap comes first (default %(default)s)")
    p.set_defaults(func=_cmd_truth)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bound-check", help="verify the recursion decay bound on a grid")
    p.add_argument("--alphas", default="0.3,0.6,0.9,1.0")
    p.add_argument("--cs", default="0.5,2")
    p.add_argument("--taus", default="0.1,1")
    p.add_argument("--s-inits", default="0,1")
    p.add_argument("--k-max", type=int, default=5000)
    p.set_defaults(func=_cmd_bound_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        # a refused input, a file that cannot be read, or an input too large
        # to hold (NumPy's MemoryError names the size; a bare one is empty)
        print(f"{parser.prog}: error: {err or type(err).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
