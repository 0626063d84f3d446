#!/usr/bin/env python3
"""Runs one workload of the p2prange benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
runner and the node daemon from source with CMake (RelWithDebInfo, no
sanitizers) under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild only what changed. The runner's stdout is relayed;
its last line is the result object {"correct", "attempted", "failed",
"metrics"}. Any failed build, failed check or timeout exits non-zero and
prints no result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("live_read", "live_cache_on_miss", "engine_churn")
HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# A run must end within 180 s; this leaves headroom for shutdown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures (once) and builds perfbench_runner; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", HERE, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DP2PRANGE_SANITIZE=",
        ]
        if subprocess.run(configure, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench_runner"]
    return subprocess.run(command, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def run_benchmark(command, env):
    """Runs the runner in its own process group, so every daemon it
    forks is stopped with it. Returns (exit code, stdout lines)."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("runner timed out after %d s" % RUN_TIMEOUT_S)
        out, code = "", 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code, out.splitlines()


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"} and
            result["correct"] is True and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(REPO, needed)):
            log("no p2prange source tree next to perfbench/ (missing %s)"
                % needed)
            return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "perfbench-work")
    tmp_dir = os.path.join(build_root, "tmp")
    for d in (build_dir, work_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    try:
        built = build(build_dir, env)
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        log("build failed")
        return 2

    code, lines = run_benchmark(
        [os.path.join(build_dir, "perfbench_runner"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work_dir", work_dir], env)
    ok = code == 0 and lines and valid_result(lines[-1])
    for line in lines if ok else lines[:-1]:
        print(line)
    if not ok:
        log("runner failed (exit %d); no result" % code)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
