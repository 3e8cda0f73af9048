#!/usr/bin/env python3
"""Builds and runs the dfgen wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload insitu_step --seed 1 --seconds 10 --trace 0

Builds the dfgen library from src/ together with the benchmark (CMake,
into .bench_build/ or $CARGO_TARGET_DIR), then runs one workload. The last
line of standard output is the benchmark's JSON result. With --trace 1 the
span trace is written to .bench_build/trace-<workload>-<seed>.json.
`--self-test` builds and runs the benchmark's own helper tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("insitu_step", "oneshot_explore", "service_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dfgen sources (src/) not found next to perfbench/")
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        build_dir = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode)

    # JIT artifacts go under the build tree, inside the checkout.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-file", os.path.join(
            build_root, f"trace-{args.workload}-{args.seed}.json")]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
