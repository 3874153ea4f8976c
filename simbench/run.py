#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 simbench/run.py --workload hashjoin --seed 1 --seconds 30 --trace 0

Configures and builds simbench/ (which compiles the simulator from
src/) into .bench_build/simbench with optimisation, then runs the
benchmark binary. Its stdout passes through unchanged; the last line
is the JSON result. With --trace 1 the spans are written to
.bench_build/simbench/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("hashjoin", "fabric_offload", "lb_churn")
# Headroom past --seconds for the last batch and the layer probes.
RUN_SLACK_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: the simulator sources (src/) are missing from %s" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", str(BUILD), "--target", "simbench", "-j", jobs],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("error: build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1

    cmd = [str(BUILD / "simbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("error: benchmark exceeded %d s" % (args.seconds + RUN_SLACK_S))
        return 1


if __name__ == "__main__":
    sys.exit(main())
