#!/usr/bin/env python3
"""Rack-epoch benchmark for the GreenHetero library.

Builds the benchmark (rackbench/CMakeLists.txt, which compiles ../src in
Release) under .bench_build/ in the checkout, runs one workload or all of
them, and relays the result.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 rackbench/run.py --workload rack_epoch_1t --seed 1 --seconds 10 --trace 0
    python3 rackbench/run.py                      # every workload, e2e table
    python3 rackbench/run.py --trace 1            # every workload, per layer

Seed 7919 is held out: never tune on it; verify claimed gains on it.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "rackbench"
WORKLOADS = ["rack_epoch_1t", "hetero_churn_1t", "fleet_ops_2t"]
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; build output goes to stderr
    so the result stays the last line of stdout."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_workload(name, args):
    """Run one workload; returns (human-readable lines, result dict)."""
    scratch = ROOT / ".bench_build" / f"scratch-{os.getpid()}"
    cmd = [str(BUILD_DIR / "rackbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{name}: rackbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{name}: malformed result keys {sorted(result)}")
    for metric, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or not entry["unit"]:
            raise RuntimeError(f"{name}: metric {metric} lacks a unit")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one record before the output check")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args)
            print("\n".join(lines), flush=True)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(f"\n{'workload':<16} {'metric':<32} {'value':>14}  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<32} {entry['value']:>14.6g}  "
                  f"{entry['unit']}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"correct: {all(r['correct'] for r in results.values())}, "
          f"{failed} of {attempted} rack-epochs failed")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}.{m}": e for n, r in results.items()
                                  for m, e in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
