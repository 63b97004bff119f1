#!/usr/bin/env python3
"""Builds and runs the coopfs benchmark.

Run from the root of a coopfs checkout:

    python3 coopbench/run.py --workload replay_sprite --seed 1 --seconds 30 --trace 0

The first run configures and builds coopbench/ (which compiles the
checkout's src/ libraries) into .bench_build/coopbench; later runs rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. A traced run (--trace 1) writes its spans to
.bench_build/spans/. Exits non-zero without a result if the build fails,
for example when the checkout has no src/ tree.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "coopbench")
BINARY = os.path.join(BUILD_DIR, "coopbench")


def build():
    """Configures (once) and builds the benchmark binary. Returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", "coopbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay_sprite", "serve_sprite", "serve_spill"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input (the benchmark's own tests)")
    parser.add_argument("--corrupt", default="",
                        help="feed this output check a deliberately inconsistent result")
    args = parser.parse_args()

    if not build():
        print("coopbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--scale", args.scale]
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
