"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rieszlab is imported from its src/. The
workload runs in a fresh interpreter (worker.py) that makes one call at a
time. Set-up is timed from the start of that interpreter until it reports
READY, three times over (two set-up-only interpreters and the measured one),
and setup_s is their median. The last line printed is
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1, named and given units as in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
TIMEOUT_S = 170


def spawn(args, setup_only, deadline):
    """(set-up seconds, last line printed) of one worker interpreter."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    # a worker that overruns is killed, which also ends the reads below
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise RuntimeError("the %s worker exited with code %d" % (args.workload, code))
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIMEOUT_S

    if not os.path.isfile(os.path.join("src", "rieszlab", "__init__.py")):
        print("no rieszlab sources under src/ in %s" % os.getcwd(), file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    table = bench["per_layer" if args.trace else "end_to_end"]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn(args, True, deadline)[0])
        setup, line = spawn(args, False, deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    result = json.loads(line)
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [setup])
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
