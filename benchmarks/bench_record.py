"""Join perfbench results of a parent checkout and a changed one into one file.

    python3 benchmarks/bench_record.py PARENT_ROOT CHANGE_ROOT [PARENT_ROOT CHANGE_ROOT ...] \
        --seed N --out BENCH_<n>.json

Reads ``<root>/.perfbench_out/results/<workload>-seed<N>-trace<T>.json``, as
written by ``python3 perfbench/run.py --seed N --trace T``, from both roots
of each pair. Every (workload, trace) present in both roots of a pair
becomes one entry with the pair's index, which side's result was written
first, the machine line, the kernel lane, whether the checks passed, the
round digests and, per metric, the parent and change medians. With more than
one pair, ``summary`` gives per (workload, trace, metric) the median and
quartiles of each side over the pairs and in how many pairs the change was
better, which way is better being the metric's ``better`` in the repository's
BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import re
import statistics

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def directions():
    """Metric name -> 'higher' or 'lower', the better way, for every
    end-to-end and per-layer metric that BENCHMARK.json declares."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def load(root, seed):
    """(workload, trace) -> (result, modification time of its file)."""
    runs = {}
    for path in glob.glob(os.path.join(root, ".perfbench_out", "results", f"*-seed{seed}-trace*.json")):
        m = re.fullmatch(rf"(.+)-seed{seed}-trace([01])\.json", os.path.basename(path))
        if m:
            with open(path, encoding="utf-8") as fh:
                runs[(m.group(1), int(m.group(2)))] = json.load(fh), os.path.getmtime(path)
    return runs


def side(run):
    return {"machine": run["machine"], "lane": run["backend"],
            "correct": run["result"]["correct"], "failed": run["result"]["failed"],
            "attempted": run["result"]["attempted"],
            "digests": sorted({r["digest"] for r in run["rounds"] if not r.get("error")})}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summary(entries):
    better, groups = directions(), {}
    for e in entries:
        for name, m in e["metrics"].items():
            groups.setdefault((e["workload"], e["trace"], name), []).append(m)
    out = []
    for (workload, trace, name), ms in sorted(groups.items()):
        pairs = [(m["parent"], m["change"]) for m in ms
                 if m["parent"] is not None and m["change"] is not None]
        if not pairs:
            continue
        if name not in better:
            raise ValueError(f"metric {name!r} is not declared in {BENCHMARK}, so which "
                             "way is better is unknown")
        sign = 1 if better[name] == "higher" else -1
        out.append({"workload": workload, "trace": trace, "metric": name,
                    "unit": ms[0]["unit"], "pairs": len(pairs),
                    "change_better": sum(sign * (c - p) > 0 for p, c in pairs),
                    "parent_quartiles": quartiles([p for p, _ in pairs]),
                    "change_quartiles": quartiles([c for _, c in pairs])})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("roots", nargs="+", metavar="PARENT_ROOT CHANGE_ROOT")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if len(args.roots) % 2:
        ap.error("give the roots in pairs: PARENT_ROOT CHANGE_ROOT ...")
    entries = []
    for pair in range(len(args.roots) // 2):
        parent = load(args.roots[2 * pair], args.seed)
        change = load(args.roots[2 * pair + 1], args.seed)
        for key in sorted(parent.keys() & change.keys()):
            (p, p_time), (c, c_time) = parent[key], change[key]
            pm, cm = p["result"]["metrics"], c["result"]["metrics"]
            entries.append({
                "workload": key[0], "trace": key[1], "seconds": c["seconds"], "pair": pair,
                "first": "parent" if p_time <= c_time else "change",
                "parent": side(p), "change": side(c),
                "metrics": {name: {"unit": cm[name]["unit"], "parent": pm[name]["value"],
                                   "change": cm[name]["value"]}
                            for name in sorted(pm.keys() & cm.keys())}})
    record = {"seed": args.seed, "runs": entries}
    if len(args.roots) > 2:
        record["summary"] = summary(entries)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
