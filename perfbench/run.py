#!/usr/bin/env python3
"""The spdfp benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout of the repository. It builds the package
in place (``setup.py build_ext --inplace``, which compiles the kernels only
where a compiled lane can be built), then repeats whole rounds of the chosen
workload, each round in a fresh process (workload.py), for about
``--seconds``, pinned to one CPU. Each end-to-end metric is the median of
its samples pooled over the rounds, with times in reference seconds
(refclock.py); each per-layer metric is the median over the traced rounds.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced in-process rounds and prints the per-layer
metrics, including the tracing overhead. Without ``--workload`` every
workload runs in turn. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Full results,
including the machine details, go to .perfbench_out/results/.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workload import PLANNED_OPS, WORKLOADS  # noqa: E402

# name -> unit
END_TO_END = {"setup_s": "s", "steps_per_s": "steps/s", "time_to_target_s": "s",
              "wall_s": "s", "peak_rss_mib": "MiB"}
BUDGET_S = 170.0          # every invocation ends well within 180 s
OUT_DIR = ".perfbench_out"


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Build the package from source in the checkout."""
    if not os.path.isfile(os.path.join(root, "src", "spdfp", "__init__.py")):
        fail("no spdfp sources under ./src; run from the root of a checkout", 2)
    if os.path.isfile(os.path.join(root, "setup.py")):
        proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            fail(f"build failed:\n{proc.stdout[-4000:]}", 3)


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU.

    The calibration samples of refclock.py then see the same core as the
    work, also while a child process does the work.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"   # one CPU, one thread
    return env


def machine(nproc, cpu):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc, "pinned_cpu": cpu, "platform": platform.platform(),
            "processor": platform.processor() or platform.machine()}


def run_round(root, env, workload, seed, mode, deadline):
    workdir = os.path.join(root, OUT_DIR, "work", f"{workload}-{seed}-{mode}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    if mode == "traced":
        cmd += ["--trace-out", os.path.join(root, OUT_DIR, "results",
                                            f"spans-{workload}-seed{seed}.npz")]
    # a session of its own, so that a round out of time is killed with its children
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def pooled(rounds, name):
    return [v for r in rounds for v in r["samples"].get(name, [])]


def median(values):
    return statistics.median(values) if values else None


def measure(root, env, workload, seed, seconds, traced, deadline, host):
    """Repeat whole rounds for about `seconds`; aggregate them."""
    modes = ("inproc", "traced") if traced else ("plain",)
    rounds, attempted, failed, lengths = [], 0, 0, []
    t0 = time.monotonic()
    # start another round while at least half of it fits in `seconds`
    while not lengths or time.monotonic() - t0 + 0.5 * median(lengths) < seconds:
        t_round = time.monotonic()
        for mode in modes:
            res = run_round(root, env, workload, seed, mode, deadline)
            if res is None:   # crashed or ran out of time: the whole round failed
                attempted += PLANNED_OPS[workload]
                failed += PLANNED_OPS[workload]
                continue
            rounds.append(res)
            attempted += res["attempted"]
            failed += res["failed"]
        lengths.append(time.monotonic() - t_round)
        if time.monotonic() > deadline - 1.0:
            break

    done = [r for r in rounds if not r["error"]]
    problems = [f"{r['mode']}: {name}" for r in rounds for name, ok in r["checks"].items() if not ok]
    if len({r["digest"] for r in done}) > 1:
        problems.append("outputs differ between rounds" +
                        (" (tracing on and off)" if traced else ""))
    metrics = {}
    if traced:
        plain = [r for r in done if r["mode"] == "inproc"]
        spans = [r for r in done if r["mode"] == "traced"]
        problems += [f"traced: time accounting {r['accounting']}" for r in spans
                     if not r["accounting"]["ok"]]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                traced_wall = median(pooled(spans, "wall_s"))
                plain_wall = median(pooled(plain, "wall_s"))
                value = None if None in (traced_wall, plain_wall) else traced_wall - plain_wall
            else:
                value = median([r["layers"].get(name, 0) for r in spans])
                if unit in ("count", "B") and value is not None:
                    value = int(value)   # counts repeat exactly from round to round
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            value = median(pooled(done, name))
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
               "machine": host, "backend": sorted({r["backend"] for r in rounds}),
               "problems": problems, "rounds": rounds, "result": result}
    return result, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # end as a whole on SIGTERM, so that the running round is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    build(root)
    nproc = len(os.sched_getaffinity(0))
    host = machine(nproc, pin_to_one_cpu())
    env = child_env(root)
    os.makedirs(os.path.join(root, OUT_DIR, "results"), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        result, details = measure(root, env, name, args.seed, args.seconds, bool(args.trace),
                                  deadline, host)
        path = os.path.join(root, OUT_DIR, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1, default=float)
        for problem in details["problems"]:
            print(f"perfbench: {name}: check failed: {problem}", file=sys.stderr)
        print(json.dumps({"workload": name, "machine": details["machine"],
                          "backend": details["backend"]}))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
