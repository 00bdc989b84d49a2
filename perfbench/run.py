#!/usr/bin/env python3
"""Builds and runs the DFENCE benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite_seq --seed 1 --seconds 45 --trace 0

Configures and builds perfbench/CMakeLists.txt (Release) under
$CARGO_TARGET_DIR (default .bench_build), then runs the driver, whose last
stdout line is the JSON result. Build output goes to stderr. Exits non-zero
without a result when the source tree is missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("suite_seq", "suite_par")
# The driver's own budget: its window plus set-up and result checking
# stays well below this; a run that exceeds it is killed and fails.
DRIVER_TIMEOUT_S = 170
# On the shared host this was tuned on, runs started right after a build
# measured up to 30% slower for one to two minutes (the build keeps every
# vCPU busy for a minute). A run that had to compile waits this long
# before it measures.
SETTLE_AFTER_BUILD_S = 60
# A no-op build finishes well within this; a longer one compiled.
NOOP_BUILD_S = 20


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_dir):
    """Configures (once) and builds; returns the seconds it took."""
    start = time.monotonic()
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no DFENCE source tree (src/CMakeLists.txt) next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_driver", "dfence"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = f.read()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail("build tree is not a Release build; refusing to time it")
    return time.monotonic() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench-release")
    out_dir = os.path.join(target, "perfbench-out")
    if build(root, build_dir) > NOOP_BUILD_S:
        time.sleep(SETTLE_AFTER_BUILD_S)
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dfence", os.path.join(build_dir, "dfence_tools", "dfence"),
           "--out", out_dir, "--git-sha", git_sha(root)]
    # Own process group, so a timeout also stops the serve daemon a traced
    # run spawns.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
