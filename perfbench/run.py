#!/usr/bin/env python3
"""Builds and runs the stack benchmark; prints one JSON result as its last line.

    python3 perfbench/run.py --workload chirper-4p --seed 7 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the simulator sources plus the harness) into
.bench_build/perfbench; later runs only re-check the build. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics and
writes the traced run's spans to .bench_build/perfbench/traces/. The binary
reports bare values; this script checks their names against BENCHMARK.json and
attaches the units recorded there. Any build, run or schema failure exits
non-zero without a result line.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170  # the benchmark process, after the build is up to date
BUILD_LIMIT_S = 850  # a first build from scratch


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then brings the binary up to date. Returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not (out / "CMakeCache.txt").exists():
        configure = [cmake, "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", str(out), "--parallel", "2"])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = out / "stack_bench"
    if not binary.exists():
        fail(f"{binary} was not built")
    return binary


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}, [w["name"] for w in spec["workloads"]]


def check_result(result, units):
    """Returns a problem description, or None when the result is well formed."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "nothing was attempted"
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units, workloads = expected_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json lists {workloads}")
    out = build_dir()
    binary = build(out)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode} without a JSON result")
    problem = check_result(result, units)
    if problem is not None:
        sys.stderr.write(proc.stdout)
        fail(problem)
    for line in lines[:-1]:
        print(line)
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
