#!/usr/bin/env python3
"""Build and run the navsep benchmark (see navbench/README.md).

    python3 navbench/run.py --cxxflags="-O2 -DNDEBUG" \
        --workload edit_solo --seed 1 --seconds 30 --trace 0

Builds navbench/ (the navsep sources plus the navbench program) with the
given compile flags into the benchmark build directory — $CARGO_TARGET_DIR
when set, else .bench_build at the root of the checkout — then runs one
workload in a fresh process. The program's last stdout line is the result
JSON; this script passes it through and exits with the program's code.

A traced run (--trace 1) writes its spans to
<build>/traces/<workload>-seed<N>.json and, when an untraced result of the
same workload and seed is in <build>/results/, prints the tracing
overhead on stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
OVERHEAD_METRICS = ("edit_p50_ms", "visible_p50_ms", "read_p50_us", "read_rps")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_logged(command, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"navbench: timed out: {' '.join(command)}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(cxxflags, out):
    """Configure (when the flags changed) and build; the program's path."""
    if not (ROOT / "src").is_dir():
        print(f"navbench: no navsep sources under {ROOT}", file=sys.stderr)
        return None
    binary_dir = out / "navbench"
    stamp = binary_dir / "cxxflags.txt"
    if not stamp.is_file() or stamp.read_text() != cxxflags:
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(binary_dir),
                           f"-DNAVBENCH_CXX_FLAGS={cxxflags}"],
                          BUILD_TIMEOUT_S):
            return None
        stamp.write_text(cxxflags)
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", str(binary_dir), "-j", jobs],
                      BUILD_TIMEOUT_S):
        return None
    return binary_dir / "navbench"


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def print_overhead(traced, untraced_path):
    """Traced end-to-end figures against an untraced run of the same seed."""
    if not untraced_path.is_file():
        print("navbench: no untraced result of this seed to price tracing "
              "against", file=sys.stderr)
        return
    untraced = json.loads(untraced_path.read_text())["metrics"]
    for name in OVERHEAD_METRICS:
        plain = untraced.get(name, {}).get("value")
        traced_value = traced.get("trace." + name, {}).get("value")
        if plain and traced_value is not None:
            print(f"navbench: tracing overhead {name}: {plain:.4g} -> "
                  f"{traced_value:.4g} ({100 * (traced_value / plain - 1):+.1f}%)",
                  file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cxxflags", default="-O2 -DNDEBUG")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    out = build_dir()
    program = build(args.cxxflags, out)
    if program is None:
        return 2

    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + passthrough
    trace_path = out / "traces" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"navbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()

    result = last_json_line(done.stdout)
    if done.returncode == 0 and result is not None and not passthrough:
        results = out / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(result) + "\n")
        if args.trace:
            print(f"navbench: spans written to {trace_path}", file=sys.stderr)
            print_overhead(result["metrics"], results /
                           f"{args.workload}-seed{args.seed}-trace0.json")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
