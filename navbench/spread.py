#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 navbench/spread.py edit_solo --seeds 1-10 [--trace 1]

Runs BENCHMARK.json's command once per seed (from the root of the
checkout), then prints per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. For end-to-end metrics it also
prints the metric's bound and whether the spread is under a third of it,
the margin the benchmark is tuned to. Exits 1 when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)

    print(f"\n{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line = (f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                f"{spread:8.4f}")
        if name in bounds:
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
            line += f" {bounds[name]:6.2f} {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
