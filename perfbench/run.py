#!/usr/bin/env python3
"""End-to-end STENSO synthesis benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_heavy --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the repository's src/ tree) into
.bench_build/, measures the workload's set-up time over several fresh
processes, runs the workload once more in its own process, and prints one
JSON object as the last line of stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "stenso-perfbench")
EXPECTED = os.path.join(HERE, "expected_outcomes.tsv")
# Fresh processes whose set-up is timed; the median is setup_s.
SETUP_REPEATS = 7
# Set-up and measurement together must end well inside the 180 s a run
# may take after the build.
RUN_DEADLINE_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no STENSO source tree next to perfbench/; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "stenso-perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def child(args, extra, capture, deadline):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", EXPECTED] + extra
    try:
        return subprocess.run(command, stdout=subprocess.PIPE if capture else
                              subprocess.DEVNULL, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("stenso-perfbench did not finish within %d s" % RUN_DEADLINE_S)


def setup_seconds(args, deadline):
    """Median wall time from process start to the first timed synthesis."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if child(args, ["--setup-only"], False, deadline).returncode != 0:
            fail("set-up failed")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_s = None if args.trace else setup_seconds(args, deadline)
    result = child(args, [], True, deadline)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail("stenso-perfbench exited with code %d" % result.returncode)
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    if setup_s is not None:
        report["metrics"] = dict(
            {"setup_s": {"value": setup_s, "unit": "s"}}, **report["metrics"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
