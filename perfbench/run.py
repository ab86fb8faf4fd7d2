#!/usr/bin/env python3
"""Build the program and the benchmark driver, then run one workload.

    python3 perfbench/run.py --workload offline_suite|cold_fleet|warm_fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `cactus-serve`, `cactus-gateway` and
the `perfbench` driver in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the driver with scratch space under `.bench_work/`,
and leaves the driver's JSON result as the last line of standard output.
Build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("offline_suite", "cold_fleet", "warm_fleet")
# Whole-run ceiling for the driver once built; it normally needs
# --seconds plus set-up and checks.
RUN_TIMEOUT_S = 170


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "cactus-serve",
         "-p", "cactus-gateway", "--bin", "cactus-serve", "--bin", "cactus-gateway"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (no Cargo.toml here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target)

    release = os.path.join(target, "release")
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    cmd = [
        os.path.join(release, "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin-dir", release,
        "--work-dir", work,
        "--digest-dir", os.path.join(root, "perfbench", "digests"),
    ]
    # Its own process group, so a timeout also reaches the daemons it
    # started.
    child = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        code = 1
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
