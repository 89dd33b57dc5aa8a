#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 12 \
        --trace 0

The build goes to .bench_build/perfbench (CMake, RelWithDebInfo). The run
starts the benchmark binary PROCESSES times in a row, each for an equal share
of --seconds with its own set-up, and pools the jobs of all of them: each
process's allocator arenas and set-up settle differently, and pooling
averages that out of every figure. It prints a readable summary with the
environment block and, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": 66, "failed": 0,
     "metrics": {"job_s": {"value": 0.1789, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(README.md defines both). Every value is the median over the pooled
samples. The exit status is 0 only when every job's output matched the
oracle; a failed build exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "supmr_perfbench"
WORKLOADS = ("wordcount", "terasort", "pmi", "cluster_sort")
PROCESSES = 3
# A run must finish within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "supmr_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_sha():
    """The checkout's git commit, or None outside a git repository."""
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_jiffies():
    """(steal, total) from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def pool(reports, group):
    """Per metric: unit and the samples of every process, in order."""
    pooled = {}
    for report in reports:
        for name, m in report[group].items():
            entry = pooled.setdefault(name, {"unit": m["unit"], "all": []})
            entry["all"].extend(m["all"])
    return pooled


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    steal0, total0 = cpu_jiffies()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reports, exit_codes, trace_files = [], [], []
    for k in range(PROCESSES):
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds / PROCESSES),
                   "--trace", str(args.trace)]
        if args.trace:
            trace_files.append(
                BUILD / f"trace-{args.workload}-{args.seed}-{k}.json")
            command += ["--trace-out", str(trace_files[-1])]
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"perfbench: {args.workload} did not finish in "
                f"{RUN_TIMEOUT_S} s")
            return 2
        sys.stderr.write(proc.stderr)
        try:
            reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            log(f"perfbench: no report from {BINARY.name} "
                f"(exit {proc.returncode})")
            return 2
        exit_codes.append(proc.returncode)
    steal1, total1 = cpu_jiffies()

    environment = reports[0]["environment"]
    environment["git_sha"] = git_sha()
    environment["processes"] = PROCESSES
    environment["cpu_steal_frac"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    group = "per_layer" if args.trace else "end_to_end"
    metrics = pool(reports, group)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print("inputs: " + json.dumps(reports[0]["inputs"], sort_keys=True))
    for name, m in metrics.items():
        m["value"] = statistics.median(m["all"])
        low, high = (statistics.quantiles(m["all"], n=4)[::2]
                     if len(m["all"]) > 1 else (m["value"], m["value"]))
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}  (median of "
              f"{len(m['all'])}, quartiles {low:.6g} .. {high:.6g})")
    print(f"  {'fail_rate':28s} {failed / attempted:.6g} fraction  "
          f"({failed} of {attempted} jobs)")
    for report in reports:
        for error in report["errors"]:
            print(f"  error: {error}")
    for path in trace_files:
        print(f"spans: {path.relative_to(ROOT)} (Chrome trace JSON)")

    correct = failed == 0 and all(code == 0 for code in exit_codes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
