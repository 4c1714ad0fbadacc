#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the library and the benchmark runner from source (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload and relays the runner's output, whose last line is the JSON
result.

    python3 perfbench/run.py --workload mps_steady --seed 1 --seconds 10 --trace 0
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mps_steady", "shape_stream", "comm_batch", "fault_recovery")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_checked(cmd):
    # Build chatter goes to stderr: stdout carries only the runner's output.
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise SystemExit(f"perfbench: command failed ({result.returncode}): "
                         + " ".join(cmd))


def build() -> Path:
    """Configure once, then build the runner (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: library sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(out), "--target", "mgs_perfbench",
                 "-j", jobs])
    return out / "mgs_perfbench"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                                 "HEAD"], capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    binary = build()
    reports = build_dir() / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report", str(report), "--git-sha", git_sha()]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {args.workload} exceeded "
                         f"{RUN_TIMEOUT_S}s\n")
        return 1
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        return result.returncode or 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
