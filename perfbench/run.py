#!/usr/bin/env python3
"""ProxyGrid benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the repository's libraries
plus the benchmark program) into .bench_build/, runs one workload, and checks
the program's report against BENCHMARK.json: every metric the file names for
this mode (end_to_end for --trace 0, per_layer for --trace 1) must be
present with its unit. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are the program's own transcript (host fingerprint, windows, self-check and
every metric it computed, including goodput_MBps and error_rate).

Traced runs also write their spans to .bench_build/traces/.
Exits non-zero without a result line when the build fails or a metric is
missing, and with a result line reading "correct": false when an output
check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "proxygrid_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds the program; output goes to stderr."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "proxygrid_bench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"proxygrid_bench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"proxygrid_bench printed nothing (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"proxygrid_bench exited {proc.returncode} without a report")

    # Every metric BENCHMARK.json names must come out with its own unit.
    metrics = {}
    for entry in wanted:
        got = report["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} missing from the report")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} in {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        if not math.isfinite(got["value"]):
            fail(f"metric {entry['name']} is not finite")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}), flush=True)
    # Any failed output check (error_rate > 0) fails the command.
    sys.exit(0 if proc.returncode == 0 and report["correct"] else 1)


if __name__ == "__main__":
    main()
