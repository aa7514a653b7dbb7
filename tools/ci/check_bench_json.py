#!/usr/bin/env python3
"""Validate BENCH_*.json reports.

Every perf-bearing bench emits a flat JSON report via bench/bench_report.h:

  {"bench": "monte_carlo", "git_sha": "...", "jobs": 2, "runs": 8,
   "reps": 3, "wall_s": 0.7, "metrics": {"mc_cell_steps_per_s": 3.1e6, ...}}

The check verifies the report is well-formed: every top-level key present
with the right type, every metric a finite number, and — for benches that
declare required metrics below — the headline metrics present and positive.
Nanosecond and throughput figures are not gated here: they do not hold
across machines. The cross-machine perf gate is the tick_budget_test ctest,
which checks exact work counts per tick.

Usage:
  check_bench_json.py BENCH_monte_carlo.json --schema-only
"""

import argparse
import json
import math
import sys

# Metrics that must be present and strictly positive, per bench id.
REQUIRED_METRICS = {
    "monte_carlo": ["mc_cell_steps_per_s"],
    "weekly_wear": [],
    "fig13_smartwatch": [],
}


def fail(msg):
    sys.exit(f"check_bench_json: FAIL: {msg}")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot parse: {e}")


def check_schema(doc, path):
    for key, kind in (("bench", str), ("git_sha", str), ("jobs", int), ("runs", int),
                      ("reps", int), ("wall_s", (int, float)), ("metrics", dict)):
        if key not in doc:
            fail(f"{path}: missing key '{key}'")
        if not isinstance(doc[key], kind):
            fail(f"{path}: key '{key}' has type {type(doc[key]).__name__}")
    if not doc["bench"]:
        fail(f"{path}: empty bench id")
    if doc["jobs"] < 1:
        fail(f"{path}: jobs must be >= 1, got {doc['jobs']}")
    if not math.isfinite(doc["wall_s"]) or doc["wall_s"] < 0.0:
        fail(f"{path}: wall_s must be finite and >= 0, got {doc['wall_s']}")
    # "build" (sdb_threads / tracing / journal flags) is validated when
    # present; older reports without it stay acceptable.
    if "build" in doc:
        build = doc["build"]
        if not isinstance(build, dict):
            fail(f"{path}: key 'build' has type {type(build).__name__}")
        for key in ("sdb_threads", "tracing", "journal"):
            if key not in build:
                fail(f"{path}: build block missing key '{key}'")
            if not isinstance(build[key], int):
                fail(f"{path}: build key '{key}' has type {type(build[key]).__name__}")
        if build["sdb_threads"] < 0:
            fail(f"{path}: build sdb_threads must be >= 0, got {build['sdb_threads']}")
        for key in ("tracing", "journal"):
            if build[key] not in (0, 1):
                fail(f"{path}: build key '{key}' must be 0 or 1, got {build[key]}")
    for name, value in doc["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{path}: metric '{name}' is not a finite number: {value!r}")
    for name in REQUIRED_METRICS.get(doc["bench"], []):
        if name not in doc["metrics"]:
            fail(f"{path}: bench '{doc['bench']}' missing required metric '{name}'")
        if doc["metrics"][name] <= 0.0:
            fail(f"{path}: required metric '{name}' must be > 0, got {doc['metrics'][name]}")
    print(f"check_bench_json: {path}: schema OK "
          f"(bench={doc['bench']}, {len(doc['metrics'])} metrics)")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", help="BENCH_*.json to validate")
    parser.add_argument("--schema-only", action="store_true",
                        help="validate the report shape (the only mode; kept for callers)")
    args = parser.parse_args()

    check_schema(load(args.report), args.report)
    print("check_bench_json: PASS")


if __name__ == "__main__":
    main()
