"""Join perfbench results of a parent checkout and a changed one into one file.

    python3 benchmarks/bench_record.py PARENT_ROOT CHANGE_ROOT --seed N --out BENCH_<pr>.json

Reads ``<root>/.perfbench_out/results/<workload>-seed<N>-trace<T>.json``, as
written by ``python3 perfbench/run.py --seed N --trace T``, from both roots.
Every (workload, trace) pair present in both becomes one entry with the
machine line, the kernel lane, whether the checks passed, the round digests
and, per metric, the parent and change medians.
"""

import argparse
import glob
import json
import os
import re


def load(root, seed):
    runs = {}
    for path in glob.glob(os.path.join(root, ".perfbench_out", "results", f"*-seed{seed}-trace*.json")):
        m = re.fullmatch(rf"(.+)-seed{seed}-trace([01])\.json", os.path.basename(path))
        if m:
            with open(path, encoding="utf-8") as fh:
                runs[(m.group(1), int(m.group(2)))] = json.load(fh)
    return runs


def side(run):
    return {"machine": run["machine"], "lane": run["backend"],
            "correct": run["result"]["correct"], "failed": run["result"]["failed"],
            "attempted": run["result"]["attempted"],
            "digests": sorted({r["digest"] for r in run["rounds"] if not r.get("error")})}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    parent, change = load(args.parent, args.seed), load(args.change, args.seed)
    entries = []
    for key in sorted(parent.keys() & change.keys()):
        p, c = parent[key], change[key]
        pm, cm = p["result"]["metrics"], c["result"]["metrics"]
        entries.append({
            "workload": key[0], "trace": key[1], "seconds": c["seconds"],
            "parent": side(p), "change": side(c),
            "metrics": {name: {"unit": cm[name]["unit"], "parent": pm[name]["value"],
                               "change": cm[name]["value"]}
                        for name in sorted(pm.keys() & cm.keys())}})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "runs": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
