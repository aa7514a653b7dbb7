#!/usr/bin/env python3
"""Builds the tick benchmark from source and runs one workload.

Run from the repository root:

    python3 tickbench/run.py --workload twoin1-week --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/tickbench (default .bench_build/tickbench)
and is incremental. Build output goes to stderr; the benchmark's stdout is
passed through unchanged, so its last line is the JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("tickbench: cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("tickbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode:
        sys.exit("tickbench: build failed")
    binary = os.path.join(build_dir, "tickbench")
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr).returncode != 0:
        sys.exit("tickbench: span-fold self-test failed")
    return binary


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(os.path.abspath(target), "tickbench"))
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
