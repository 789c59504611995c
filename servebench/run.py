#!/usr/bin/env python3
"""Builds the serving-stack benchmark from source and runs one workload.

    python3 servebench/run.py --workload tune_cycle --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/servebench-<source root digest> (default .bench_build/...),
work files to .bench_work/<workload>.
The last line of standard output is the JSON result; build output goes to
standard error. See servebench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_cycle", "ingest_flood", "restart_recover")
RUN_TIMEOUT_S = 170


def source_id():
    """Digest of every file the benchmark build reads (not a git repo)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", os.path.basename(HERE)):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(base, name) for name in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def build_dir_for(target_dir):
    """This source tree's build directory under `target_dir`. The name holds
    a digest of the source root, so checkouts sharing one target directory
    never build each other's sources."""
    tag = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    return os.path.join(target_dir, "servebench-" + tag)


def build(build_dir):
    """Configures (once) and builds; returns the binaries' directory."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "servebench_selftest", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "net", "server.h"))):
        print("servebench: the rockhopper sources are not next to "
              "servebench/; nothing to build", file=sys.stderr)
        return 2

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    try:
        bin_dir = build(build_dir_for(target_dir))
        subprocess.run([os.path.join(bin_dir, "servebench_selftest")],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"servebench: build or self-test failed: {error}",
              file=sys.stderr)
        return 1

    command = [os.path.join(bin_dir, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(ROOT, ".bench_work", args.workload),
               "--source-id", source_id()]
    try:
        completed = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
