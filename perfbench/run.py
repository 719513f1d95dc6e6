#!/usr/bin/env python3
"""Builds the host-cost benchmark driver from source and runs it.

    python3 perfbench/run.py --workload write_sf1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
driver (Release) and the program libraries it links under
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line on stdout is the driver's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "runner.h")):
        sys.exit("perfbench: program sources (src/) not found beside perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_checks_test")]).returncode
    driver = build("perfbench_driver")
    sys.stdout.flush()
    return subprocess.run([driver] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
