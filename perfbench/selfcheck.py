#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 perfbench/selfcheck.py

Builds perfbench like run.py, then runs every workload run.py knows (the
BENCHMARK.json ones and serve_warm) at tiny scale (a few ops, fixed op
counts, the same code paths): twice untraced with one seed, once with
another seed, and once traced. It checks that

  - the last stdout line is the JSON result, correct, with exactly the
    end-to-end metrics of BENCHMARK.json untraced and exactly its per-layer
    metrics traced, each with the unit BENCHMARK.json names;
  - every metric is also printed as a `metric <name> <value> <unit>` line;
  - the same seed gives an identical schedule and identical modeled digests,
    and another seed gives another schedule.

Exits 0 when all checks pass, 1 otherwise.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module)


def drive(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--digests", os.path.join(run.BENCH_DIR, "data", "digests.tsv"),
           "--trace-out", os.path.join(run.build_dir(), "traces",
                                       f"selfcheck-{workload}.json")]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                       timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    fields = {}
    for line in lines:
        key, _, value = line.partition(": ")
        if key in ("schedule", "digests"):
            fields[key] = value
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    return p.returncode, json.loads(lines[-1]) if lines else None, fields, printed


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = run.build()
    if binary is None:
        print("selfcheck: build failed")
        return 1
    os.makedirs(os.path.join(run.build_dir(), "traces"), exist_ok=True)

    # serve_warm is not (yet) a BENCHMARK.json workload but stays runnable.
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += [w for w in run.WORKLOADS if w not in workloads]
    problems = []
    for wl in workloads:
        runs = {
            "a": drive(binary, wl, 7, 0),
            "b": drive(binary, wl, 7, 0),
            "other": drive(binary, wl, 8, 0),
            "traced": drive(binary, wl, 7, 1),
        }
        for tag, (code, result, fields, printed) in runs.items():
            trace = 1 if tag == "traced" else 0
            where = f"{wl}/{tag}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"{where}: not correct")
            metrics = result.get("metrics", {})
            if set(metrics) != set(expected[trace]):
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for name, unit in expected[trace].items():
                if metrics.get(name, {}).get("unit") != unit:
                    problems.append(f"{where}: {name} lacks unit {unit}")
                if printed.get(name) != unit:
                    problems.append(f"{where}: no printed line for {name} [{unit}]")
        a, b, other = runs["a"][2], runs["b"][2], runs["other"][2]
        for key in ("schedule", "digests"):
            if not a.get(key) or a.get(key) != b.get(key):
                problems.append(f"{wl}: same seed gave different {key}")
        if a.get("schedule") == other.get("schedule"):
            problems.append(f"{wl}: another seed gave the same schedule")
        print(f"selfcheck {wl}: schedule {a.get('schedule')} "
              f"digests {a.get('digests')}", flush=True)

    for p in problems:
        print("selfcheck FAILED:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
