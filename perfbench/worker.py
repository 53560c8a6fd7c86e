"""One fresh interpreter: set up a workload, run its rounds, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]

Run from the root of a checkout. It prints READY once set up, then (unless
--setup-only) one JSON line of raw metric values. With --trace 1 rounds
alternate between untraced and traced, the traced ones with every
rieszlab function of tracer.py wrapped, and the metrics are per layer.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def end_to_end(rounds, rss_who):
    median = statistics.median
    return {
        "batch_s": median(r["wall"] for r in rounds),
        "cpu_s": median(r["cpu"] for r in rounds),
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
        "mc_time_to_1pct_s": median(r["t1pct"] for r in rounds),
        "evals_per_s": median(r["evals"] / r["wall"] for r in rounds),
        "call_s_p50": median(dt for r in rounds for dt, _ in r["calls"]),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.makedirs(RESULTS, exist_ok=True)

    # the CLI workload's untraced rounds run rieszlab in child processes only
    in_process = args.trace == 1 or args.workload != "cz-pipeline"
    rz = None
    if in_process:
        sys.path.insert(0, os.path.abspath("src"))
        before = len(sys.modules)
        start = time.perf_counter()
        import rieszlab

        import_s = time.perf_counter() - start
        modules = len(sys.modules) - before
        import rieszlab.cli  # noqa: F401  (cli is not imported by the package)

        rz = rieszlab
    workload = WORKLOADS[args.workload](args.seed, rz, RESULTS)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(rz) if args.trace else None
    rounds, start = [], time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.round = index
            tracer.install()
        try:
            rounds.append(workload.run_round(index, in_process=in_process))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        # stop once the next round would end more than half a round late
        enough = tracer is None or len(rounds) >= 2
        if enough and elapsed * (len(rounds) + 0.5) / len(rounds) >= args.seconds:
            break

    faults = [f for f in workload.check(rounds) if f]
    for fault in faults:
        print("check failed: %s" % fault, file=sys.stderr)
    if tracer is None:
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        metrics = end_to_end(rounds, who)
    else:
        traced = rounds[1::2]
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics.update({
            "import.rieszlab_s": import_s,
            "import.modules_loaded": modules,
            "cli.output_mb": statistics.mean(r.get("output_mb", 0.0) for r in traced),
            "trace.overhead_s": statistics.median(r["wall"] for r in traced)
            - statistics.median(r["wall"] for r in rounds[0::2]),
        })
        tracer.write(os.path.join(RESULTS, "trace-%s-%d.json" % (args.workload, args.seed)))
    print(json.dumps({
        "correct": not faults,
        "attempted": sum(len(r["calls"]) for r in rounds),
        "failed": sum(failed for r in rounds for _, failed in r["calls"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
