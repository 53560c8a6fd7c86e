"""Run sets of benchmark runs and compare them.

    python3 perfbench/compare.py run DIR [--seeds 1-10] [--workloads a,b]
    python3 perfbench/compare.py summary DIR [OTHER_DIR]

`run` runs perfbench/run.py once per workload and seed (one at a time, from
the root of the checkout) and keeps each result line as DIR/<workload>-<seed>.json.
`summary` prints, per workload and end-to-end metric, the median of a set,
its spread (distance between the first and third quartile, as a share of the
median) against a third of the metric's bound, and with a second set the
share by which its median is worse than the first's, against the bound.
It also compares the share of failed operations between the sets.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(args):
    bench = load_bench()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(args.dir, exist_ok=True)
    for seed in seeds_of(args.seeds):
        for name in names:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (name, seed, proc.returncode), file=sys.stderr)
                continue
            line = proc.stdout.strip().splitlines()[-1]
            with open(os.path.join(args.dir, "%s-%d.json" % (name, seed)), "w") as handle:
                handle.write(line + "\n")
            print("%s seed %d: correct=%s" % (name, seed, json.loads(line)["correct"]), flush=True)
    return 0


def load_set(path):
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        workload = os.path.basename(name).rsplit("-", 1)[0]
        with open(name) as handle:
            runs.setdefault(workload, []).append(json.load(handle))
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(args):
    bench = load_bench()
    sets = [load_set(args.dir)] + ([load_set(args.other)] if args.other else [])
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [s.get(workload, []) for s in sets]
        if any(len(r) < 2 for r in runs):
            print("%s: fewer than two runs" % workload)
            ok = False
            continue
        shares = ["%d/%d" % (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for rs in runs]
        fails = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        ok &= correct and len(set(fails)) == 1
        print("%s: runs %s, failed %s, all correct %s" % (
            workload, "/".join(str(len(r)) for r in runs), " vs ".join(shares), correct))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            medians = []
            for rs in runs:
                values = [r["metrics"][name]["value"] for r in rs]
                medians.append(statistics.median(values))
                s = spread(values)
                if name != "setup_s":
                    ok &= s <= bound
                cols.append("median %-12.6g spread %6.2f%%" % (medians[-1], 100 * s))
            line = "  %-18s %s  (bound %.0f%%, a third %.1f%%)" % (
                name, "  |  ".join(cols), 100 * bound, 100 * bound / 3)
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                ok &= worse <= bound
                line += "  second worse by %+.2f%%" % (100 * worse)
            print(line)
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("dir")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.set_defaults(func=run)
    p = sub.add_parser("summary")
    p.add_argument("dir")
    p.add_argument("other", nargs="?")
    p.set_defaults(func=summary)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
