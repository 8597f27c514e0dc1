#!/usr/bin/env python3
"""Builds the fedbench benchmark from source and runs one measurement.

Usage, from the root of the repository:

    python3 fedbench/run.py --workload mnist_logreg --seed 1 --seconds 20 --trace 0

The first call configures and builds fedbench (and the fedprox library it
links) in Release mode under .bench_build/; later calls only rebuild what
changed. The build log goes to stderr, so the last line of stdout is the
benchmark's JSON result. See fedbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "fedbench"
WORKLOADS = ("mnist_logreg", "shakespeare_lstm")


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: the fedprox sources (src/) are missing; "
                 "run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-G", generator, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "fedbench", "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD_DIR / "fedbench"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"run.py: build failed ({err})")

    runs_dir = ROOT / ".bench_build" / "runs"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", str(BENCH_DIR / "reference.json"),
        "--manifest", str(ROOT / "BENCHMARK.json"),
        "--run-dir", str(runs_dir / f"{args.workload}-{os.getpid()}"),
    ]
    if args.trace:
        command += ["--spans-out", str(ROOT / ".bench_build" / "spans" /
                                       f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    # Replace this process: the benchmark is the only process left running.
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
