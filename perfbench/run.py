#!/usr/bin/env python3
"""Builds and runs the FastZ repository benchmark.

    python3 perfbench/run.py --workload nematode_pair --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which pulls in the FastZ libraries from the repository's own
CMake project) into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench
when that is set; later calls only let the build check its timestamps.
Build output goes to stderr, so the benchmark's last stdout line stays its
JSON result. Exits nonzero, without a result, when the build fails (for
example when the FastZ sources are not beside perfbench/).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "fastz_perfbench", "-j", JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "fastz_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--default-seed", type=int, default=1,
                        help="seed used when --seed is not given")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-ms", type=float, default=250.0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    if args.selftest:
        cmd = [binary, "--selftest", "--trace-dir", os.path.join(out, "traces")]
    else:
        seed = args.seed if args.seed is not None else args.default_seed
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--latency-limit-ms", str(args.latency_limit_ms),
               "--trace-dir", os.path.join(out, "traces")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
