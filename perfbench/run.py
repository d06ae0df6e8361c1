#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the `ta` library, ta_serve, ta_pack,
ta_trace and the ta_perfbench driver) in Release mode into the
directory named by CARGO_TARGET_DIR, or .bench_build at the repository
root, then replaces itself with ta_perfbench. The build log goes to
stderr; the driver's last stdout line is the result JSON. Scratch files
live in .bench_work/ and are removed by the driver.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    work = os.path.join(ROOT, ".bench_work")
    # No catalog, trace or plan-cache file survives from an earlier run.
    shutil.rmtree(work, ignore_errors=True)
    driver = os.path.join(build, "ta_perfbench")
    argv = [driver] + sys.argv[1:] + [
        "--bin-dir", os.path.join(build, "repo"),
        "--work-dir", os.path.join(work, "run"),
    ]
    sys.stdout.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    sys.exit(main())
