#!/usr/bin/env python3
"""Build and run the quamax wall-clock serving benchmark.

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 40 --trace 0

Configures and builds perfbench/ (Release, into .bench_build/perfbench under
the repository root) on first use, then runs quamax_perfbench with the given
arguments.  Build output goes to stderr; stdout carries the benchmark's
context line, its metric table and, as the last line, the JSON result.  The
exit code is the benchmark's (non-zero on a failed correctness check), or 2
when the build fails.

--jobs N runs the workload at N jobs instead of its fixed count (the smoke
test uses this).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "quamax_perfbench")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    step = lambda cmd: subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      env=env).returncode == 0
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not step(cmd):
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return step(["cmake", "--build", BUILD, "--target", "quamax_perfbench",
                 "-j", str(os.cpu_count() or 1)])


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["backlog", "large_mimo", "coherent_duplex"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--jobs", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.jobs < 0:
        parser.error("--seed and --jobs must be >= 0, --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
