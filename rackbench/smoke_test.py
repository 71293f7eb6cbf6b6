#!/usr/bin/env python3
"""Smoke self-test of the rack-epoch benchmark.

Runs every workload at a tiny size, untraced and traced, and fails when a
run is incorrect or when a metric named in BENCHMARK.json is missing or has
the wrong unit.  Then plants one record mismatch and fails unless the
output check reports it.

    python3 rackbench/smoke_test.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "rackbench" / "run.py")]
WORKLOADS = ["rack_epoch_1t", "hetero_churn_1t", "fleet_ops_2t"]


def run(workload, trace, *extra):
    cmd = [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output check failed: {result}")
            got = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append(f"{label}: metric {name} missing")
                elif got[name].get("unit") != unit:
                    problems.append(f"{label}: metric {name} has unit "
                                    f"{got[name].get('unit')!r}, not {unit!r}")
            for name in set(got) - set(expected[trace]):
                problems.append(f"{label}: metric {name} not in BENCHMARK.json")
            print(f"ok {label}: {result['attempted']} rack-epochs checked",
                  flush=True)

    planted = run("rack_epoch_1t", 0, "--plant-mismatch")
    if planted["failed"] == 0 or planted["correct"]:
        problems.append(f"planted mismatch not detected: {planted}")
    elif planted["metrics"]["pass_frac"]["value"] >= 1.0:
        problems.append("planted mismatch did not lower pass_frac")
    else:
        print(f"ok planted mismatch: {planted['failed']} rack-epoch(s) failed")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
