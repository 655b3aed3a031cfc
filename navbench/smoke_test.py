#!/usr/bin/env python3
"""Smoke test of the benchmark command on a tiny site.

    python3 navbench/smoke_test.py

Runs BENCHMARK.json's command from the root of the checkout with --smoke
(a 20-painting site, short phases) on every workload, untraced and
traced, and checks the contract of the result line: exactly the keys
correct/attempted/failed/metrics, every end-to-end metric (untraced) or
every per-layer metric (traced) with BENCHMARK.json's unit, no failure,
and non-zero end-to-end values. Then it checks the correctness gate: a
run told to corrupt one expected body must report the failure and exit
non-zero, and an unknown workload must exit non-zero without a result.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    command = SPEC["command"] + ["--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke", *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    failures = []
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            code, result, stderr = run(workload, trace)
            check(code == 0, f"{label}: exit {code}\n{stderr}", failures)
            if result is None:
                failures.append(f"{label}: no result line")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: keys {sorted(result)}", failures)
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: correct={result['correct']} "
                  f"failed={result['failed']}", failures)
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1,
                  f"{label}: attempted={result['attempted']}", failures)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  f"{label}: metrics/units differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(expected[trace]))}", failures)
            for name, metric in result["metrics"].items():
                value = metric["value"]
                check(isinstance(value, (int, float)),
                      f"{label}: {name} is not a number", failures)
                if trace == 0:
                    check(value > 0, f"{label}: {name} = {value}", failures)
            print(f"ok {label}: attempted {result['attempted']}", flush=True)

    code, result, _ = run("edit_solo", 0, "--inject-fault")
    check(code != 0, "injected fault: exit code 0", failures)
    check(result is not None and result["correct"] is False
          and result["failed"] >= 1,
          f"injected fault: result {result}", failures)
    print("ok injected fault fails the run", flush=True)

    code, result, _ = run("no_such_workload", 0)
    check(code != 0 and result is None,
          f"unknown workload: exit {code}, result {result}", failures)
    print("ok unknown workload is refused", flush=True)

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
