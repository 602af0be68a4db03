#!/usr/bin/env python3
"""Smoke test of the wall-clock serving benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny job count in both modes and asserts that:
  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, correct = true and failed = 0;
  * --trace 0 prints every end_to_end metric of BENCHMARK.json and --trace 1
    every per_layer metric, each with the unit BENCHMARK.json gives it;
  * the context line records the box and the workload config;
  * both modes report the same ServiceStats digest at the same seed.
Exits non-zero on the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_JOBS = {"backlog": 200, "large_mimo": 4, "coherent_duplex": 48}
CONTEXT_KEYS = {"workload", "seed", "jobs", "lanes", "nproc", "compiler",
                "build_type", "commit", "trace", "seconds"}


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--jobs", str(TINY_JOBS[workload])]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, f"{cmd} exited {out.returncode}:\n{out.stderr}"
    assert lines, f"{cmd} printed nothing"
    return lines


def check(workload, trace, expected, seed=7):
    lines = run(workload, trace, seed)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= TINY_JOBS[workload], result
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{workload} trace={trace}: metric names differ: "
        f"missing {set(expected) - set(metrics)}, extra {set(metrics) - set(expected)}")
    for name, unit in expected.items():
        m = metrics[name]
        assert set(m) == {"value", "unit"}, m
        assert m["unit"] == unit, f"{name}: unit {m['unit']!r}, expected {unit!r}"
        assert isinstance(m["value"], (int, float)), m

    context = json.loads(lines[0])["context"]
    assert set(context) == CONTEXT_KEYS, context
    assert context["workload"] == workload and context["seed"] == seed
    assert context["jobs"] == TINY_JOBS[workload] and context["trace"] == trace
    digest = [l for l in lines if l.startswith("digest ")]
    assert len(digest) == 1, lines
    return re.search(r"fnv1a=(\w+)", digest[0]).group(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = check(workload, 0, end_to_end)
        traced = check(workload, 1, per_layer)
        assert untraced == traced, f"{workload}: digest {untraced} != {traced}"
        print(f"ok  {workload}: {len(end_to_end)} end-to-end and "
              f"{len(per_layer)} per-layer metrics, digest {untraced}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
