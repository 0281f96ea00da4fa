#!/usr/bin/env python3
"""End-to-end benchmark of the gossip_run trial path.

Run from the repository root:

    python3 perfbench/run.py --workload pushpull_1e6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (the gossip library from
src/ plus perfbench/driver.cpp) into $CARGO_TARGET_DIR, default
.bench_build. The driver then runs the workload, and this script checks
that every metric it printed carries the name and unit BENCHMARK.json
declares for that mode (--trace 0: end_to_end, --trace 1: per_layer). The
last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts checked trial executions and `failed` those that failed
an output check; the exit code is non-zero when any check failed.
--self-check runs every workload at a tiny n in both modes and verifies
the metric names and units only.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = HERE.parent / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path.name}: {e}")


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    driver = build_dir / "perfbench_driver"
    if not driver.exists():
        fail(f"build produced no {driver.name}")
    return driver


def run_driver(driver, workload, seed, seconds, trace, tiny=False):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    if not proc.stdout.strip():
        fail(f"{workload}: driver exited {proc.returncode} without output")
    try:
        doc = json.loads(proc.stdout)
    except ValueError as e:
        fail(f"{workload}: unreadable driver output: {e}")
    return doc, proc.returncode


def declared_units(bench, trace):
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def metric_mismatches(doc, bench, trace):
    """Names/units the driver printed that BENCHMARK.json does not declare,
    and declared ones it did not print."""
    printed = {name: m["unit"] for name, m in doc["metrics"].items()}
    declared = declared_units(bench, trace)
    problems = []
    for name, unit in sorted(printed.items()):
        if name not in declared:
            problems.append(f"printed metric {name} is not declared")
        elif declared[name] != unit:
            problems.append(f"{name}: printed unit {unit}, declared {declared[name]}")
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"declared metric {name} was not printed")
    return problems


def self_check(bench, driver):
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            doc, code = run_driver(driver, workload, DEFAULT_SEED, 1, trace, tiny=True)
            label = f"{workload} --trace {trace}"
            if code != 0 or doc["failed_trials"] != 0:
                problems.append(f"{label}: output checks failed: {doc['check_failures']}")
            problems += [f"{label}: {p}" for p in metric_mismatches(doc, bench, trace)]
            print(f"self-check {label}: {len(doc['metrics'])} metrics, "
                  f"{doc['checked_trials']} trials checked")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    bench = load_benchmark()
    driver = build()
    if args.self_check:
        return self_check(bench, driver)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    doc, code = run_driver(driver, args.workload, args.seed, seconds, args.trace)
    problems = metric_mismatches(doc, bench, args.trace)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    for msg in doc["check_failures"]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    correct = code == 0 and doc["failed_trials"] == 0 and not problems
    # Context for the reader (host calibration, raw samples); the result
    # line the harness parses is the last one.
    print(json.dumps({"context": {"workload": doc["workload"], "seed": doc["seed"],
                                  "n": doc["n"], "trials": doc["trials"],
                                  "host": doc["host"], "samples": doc["samples"]}}))
    print(json.dumps({"correct": correct, "attempted": doc["checked_trials"],
                      "failed": doc["failed_trials"], "metrics": doc["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
