#!/usr/bin/env python3
"""Builds the PMWare benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cohort|cloud_replay|cloud_durable> \
        --seed N --seconds S --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root); the
build's output goes to standard error. The built program prints its
summary and, as the last line of standard output, the JSON result. Result
files and span traces go to perfbench/out/. The exit code is the
program's: 0 when every check passed, 1 when one failed; a failed build
exits 3 without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cohort", "cloud_replay", "cloud_durable")
# The program itself must end well within the 180 s a run may take.
RUN_TIMEOUT_S = 170


def source_digest():
    """Short hash of the sources the benchmark builds from."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(ROOT, "vendor"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")]
    for root in roots:
        for directory, dirs, names in os.walk(root):
            dirs.sort()
            files.extend(os.path.join(directory, n) for n in sorted(names))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def git_rev():
    """The checkout's git commit, without looking above the repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return out.stdout.strip() if out.returncode == 0 else "nogit"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(HERE, "out"),
        "--rev", "{}+src-{}".format(git_rev(), source_digest()),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
