#!/usr/bin/env python3
"""Builds and runs the vmsv repository benchmark (see README.md here).

    python3 perfbench/run.py --workload drift_adapt --seed 1 --seconds 30 --trace 0

Run from the root of a vmsv source tree. The harness is built from source
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then run once under a watchdog. Its metric lines and, last, its one-line
JSON result are passed through on standard output.

A run that passes its deadline is killed (with every process it started)
and reported as failed, with its seed; it is never retried. Exit status: 0
when every answer was correct, non-zero otherwise (including when the tree
holds no engine sources to build).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("drift_adapt", "ingest_rw", "shard_scan", "shard_fanout")
# A run must end within 180 s of starting, build check included.
RUN_DEADLINE_S = 170.0


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log(f"no engine sources next to {HERE}; nothing to build")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(
        ["cmake", "--build", build_dir, "--target", "vmsv_perfbench", "-j", "3"]
    )
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    binary = os.path.join(build_dir, "vmsv_perfbench")
    return binary if os.path.isfile(binary) else None


def run(binary, args, work_dir, deadline_s):
    """Runs the harness under the watchdog; returns (exit code, stdout)."""
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(work_dir, f"spans-{args.workload}-{args.seed}.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(
            f"watchdog: workload {args.workload} seed {args.seed} passed its "
            f"{deadline_s:.0f} s deadline and was killed"
        )
        return None, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    binary = build(os.path.join(out_root, "perfbench"))
    if binary is None:
        return 2
    work_dir = os.path.join(out_root, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    started = time.monotonic()
    code, out = run(binary, args, work_dir, RUN_DEADLINE_S)
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        # Killed by the watchdog, crashed, or stopped without a result: a
        # failed run, reported with its seed, never retried.
        if code is not None:
            log(
                f"workload {args.workload} seed {args.seed}: harness exited "
                f"{code} after {time.monotonic() - started:.1f} s without a result"
            )
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 3
    if code != 0:
        log(
            f"workload {args.workload} seed {args.seed}: {result['failed']} of "
            f"{result['attempted']} operations failed"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
