#!/usr/bin/env python3
"""Builds psserve and the perfbench load generator from source, then runs one
benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload implies_stream --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn, each printing its own result.

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build in the checkout).
The last line of standard output is the JSON result of the run; build output
goes to standard error.  Exits non-zero, without a result, if the sources are
missing, the build fails, or the run fails its correctness gate.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("implies_stream", "bulk_check")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    for needed in (manifest, os.path.join(root, "crates", "ps-server", "Cargo.toml")):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} is missing; run from the root of a full checkout",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
         "-p", "perfbench", "-p", "ps-server", "--bins"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    release = os.path.join(target, "release")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [
            os.path.join(release, "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--psserve", os.path.join(release, "psserve"),
            "--spans", os.path.join(target, "perfbench-spans", f"{workload}-{args.seed}.tsv"),
        ]
        sys.stdout.flush()
        code = subprocess.run(command, env=env).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
