#!/usr/bin/env python3
"""Builds and runs vdb's wall-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of olap_warm, olap_cold_4t, advisor_search, tenants_wire.
The first call builds vdb from this checkout's sources (CMake, Release)
into .bench_build/perfbench; later calls only re-check the build. The
benchmark binary then runs with the same arguments, and the last line of
its standard output is the JSON result. Build output goes to stderr.
See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vdb_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns an exit code."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: vdb sources not found under " + ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = subprocess.call(configure, stdout=sys.stderr)
        if code != 0:
            # A failed configure must not leave a cache that skips it.
            shutil.rmtree(BUILD, ignore_errors=True)
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "vdb_perfbench", "-j", jobs],
        stdout=sys.stderr)


def main():
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code if code > 0 else 1
    sys.stdout.flush()
    return subprocess.call(
        [BINARY] + sys.argv[1:] +
        ["--tenants", os.path.join(HERE, "tenants.conf"),
         "--trace-dir", os.path.join(BUILD, "traces")])


if __name__ == "__main__":
    sys.exit(main())
