#!/usr/bin/env python3
"""Build the ordo_bench harness from this checkout and run one workload.

    python3 ordo_bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures ordo_bench/ (whose
CMakeLists.txt pulls in the library from the repository root) into
.bench_build/, builds the harness, and runs it with the given arguments;
see main.cpp for them. The harness prints its metrics and, as the last line
of standard output, a JSON summary. Build output goes to standard error; a
failed build exits non-zero without printing a summary.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "--target", "ordo_bench", "-j",
                  str(min(4, os.cpu_count() or 1))]]
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("Makefile", "build.ninja")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit(f"run.py: {' '.join(step)} failed")


def main():
    build()
    return subprocess.run([os.path.join(BUILD, "ordo_bench")] + sys.argv[1:]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())
