#!/usr/bin/env python3
"""Build and run one workload of the PriSTI-rs benchmark.

    python3 benchmark/run.py --workload train_eval|serve|stream \
        --seed N --seconds S --trace 0|1

Builds the repository's `pristi` binary and the benchmark package in this
directory (release, offline, into $CARGO_TARGET_DIR, default `.bench_build`
at the repository root), then runs the workload. Build output goes to
stderr; the last stdout line is the run's JSON result. Exits non-zero,
printing no result, when the repository sources are not there to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pristi",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train_eval", "serve", "stream"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"no repository sources next to {HERE}: nothing to build")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)

    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "pristi-e2e-bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--pristi", os.path.join(release, "pristi"),
        "--out-dir", os.path.join(target_dir, "bench-out"),
    ]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
