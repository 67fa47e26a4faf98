#!/usr/bin/env python3
"""Build and run the path-query benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hit_view|miss_answer|fault_churn \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the benchmark program) into .bench_build/perfbench;
later runs rebuild only what changed. The program's report goes to stdout
and its last line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is the program's: 0 only when every
answer was correct. Build failures and a checkout without src/ exit non-zero
before anything is measured.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hit_view", "miss_answer", "fault_churn")
RUN_TIMEOUT_S = 175


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The git commit when ROOT is a work tree, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "path_service.hpp")):
        die(f"no library sources under {os.path.join(ROOT, 'src')}; "
            "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as error:
                die(f"cannot run {step[0]}: {error}")
            if done.returncode != 0:
                log.flush()
                with open(log.name) as text:
                    sys.stderr.write(text.read()[-4000:])
                die(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", source_revision(), "--out", BUILD]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"the run exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
