#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload swarm|bulk|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The library (src/) and the perfbench
driver are built with CMake into .bench_build, or $CARGO_TARGET_DIR when it
is set, then the driver runs the workload. With --trace 1 the driver's
spans are written to <build dir>/spans-<workload>-<seed>.jsonl. The
driver's output is passed through; its last line is the result JSON.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KEYS = ("--workload", "--seed", "--seconds", "--trace")


def parse(argv):
    if len(argv) % 2:
        return None
    args = dict(zip(argv[0::2], argv[1::2]))
    return args if sorted(args) == sorted(KEYS) else None


def build(build_dir):
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = parse(argv)
    if args is None:
        sys.stderr.write("usage: run.py --workload swarm|bulk|churn "
                         "--seed N --seconds S --trace 0|1\n")
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.stderr.write("run.py: build failed: %s\n" % error)
        return 1
    command = [binary] + [item for key in KEYS for item in (key, args[key])]
    if args["--trace"] == "1":
        command += ["--trace-out", os.path.join(
            build_dir,
            "spans-%s-%s.jsonl" % (args["--workload"], args["--seed"]))]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
