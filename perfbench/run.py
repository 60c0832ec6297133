#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package in release mode from the sources in this
checkout (into $CARGO_TARGET_DIR, default `.bench_build`), then runs it
with the given arguments. The benchmark prints human-readable lines and,
last, one JSON result line; its exit code is passed through. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generous ceilings: the first build in a fresh checkout compiles the
# whole workspace; a run itself measures for --seconds plus set-up.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # Cargo's own lock and cache files go under the build directory too,
    # so a run writes nothing outside the checkout.
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))
    try:
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
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
