#!/usr/bin/env python3
"""Build and run the chisel repository benchmark.

    python3 perfbench/run.py --workload <lookup-dfz|churn|service-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the chisel library from src/ plus chisel_perfbench) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally.  Build output goes to stderr.  Scratch files
(journals, snapshots, span traces) go under .bench_build/runs.

An untraced run (--trace 0) starts chisel_perfbench PROCESSES times in
turn, each measuring --seconds / PROCESSES, and reports the medians over
all their windows and set-ups.  On a shared virtual machine a process
keeps its speed for its whole life, so a run of one process would carry
the full process-to-process spread.  A traced run (--trace 1) is one
process.

Standard output carries chisel_perfbench's lines for a human reader, one
"metric <name> <value> <unit>" line per metric and, last, the JSON
result.  Exits 1 on an oracle mismatch, and nonzero without a result
line when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lookup-dfz", "churn", "service-mixed")
PROCESSES = 3
RUN_LIMIT_S = 165


def build(root: Path, build_dir: Path) -> Path:
    subprocess.run(["cmake", "-S", str(root / "perfbench"),
                    "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir / "chisel_perfbench"


def run_bench(command, deadline):
    """Run chisel_perfbench once; return (exit code, its JSON last line)."""
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    lines = run.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        print(lines[-1] if lines else "", file=sys.stderr)
        raise RuntimeError(
            f"chisel_perfbench exited {run.returncode} without a result")
    return run.returncode, result


def window_median(figures, load, column):
    return statistics.median(w[column] for f in figures for w in f[load])


def combine(parts):
    """End-to-end metrics from the processes' windows and set-ups."""
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    figures = [p["part"] for p in parts]
    rate, p50, p90, p99 = range(4)
    metrics = [
        ("setup_s", statistics.median(
            s for f in figures for s in f["setup_s"]), "s"),
        ("lookups_per_s", window_median(figures, "lookup", rate),
         "lookups/s"),
        ("lookup_p50_us", window_median(figures, "lookup", p50), "us"),
        ("lookup_p99_us", window_median(figures, "lookup", p99), "us"),
        ("updates_per_s", window_median(figures, "update", rate),
         "updates/s"),
        ("update_p50_us", window_median(figures, "update", p50), "us"),
        ("update_p99_us", window_median(figures, "update", p99), "us"),
        ("mem_mb", statistics.median(
            m for f in figures for m in f["mem_mb"]), "MiB"),
        ("success_ratio", 1.0 - failed / attempted, "ratio"),
    ]
    print("window median p90: lookup %.3fus update %.3fus" % (
        window_median(figures, "lookup", p90),
        window_median(figures, "update", p90)))
    for name, value, unit in metrics:
        print(f"metric {name:<36} {value:.6g} {unit}")
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    try:
        binary = build(root, target / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    processes = 1 if args.trace == "1" else PROCESSES
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds / processes),
               "--trace", args.trace, "--out", str(target / "runs")]
    parts = []
    try:
        for _ in range(processes):
            code, result = run_bench(command, deadline)
            parts.append(result)
            if code != 0:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3

    if args.trace == "1":
        result = parts[0]
    elif all("part" in p for p in parts):
        result = combine(parts)
    else:
        print("perfbench: a chisel_perfbench process reported no figures",
              file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
