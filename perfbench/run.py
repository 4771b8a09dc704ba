#!/usr/bin/env python3
"""Build and run the cloudtx benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (release profile, build
directory .bench_build, shared cache off), runs it, and passes its output
through.  The
last line of standard output is the JSON result.  Exits non-zero, without
printing a result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    cmd = dune_command() + [
        "build", "--root", ".", "--profile", "release", "--cache=disabled",
        "--build-dir", BUILD_DIR, "./perfbench/main.exe",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.isfile(os.path.join(ROOT, EXE)):
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    build()
    proc = subprocess.run(
        [os.path.join(".", EXE), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: run failed (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: the last output line is not a result")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
