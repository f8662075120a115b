#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny budget.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py once with
--trace 0 and once with --trace 1, at one second and a small access budget,
and checks that:

* each run is correct, with no failed simulation;
* every end-to-end metric (trace 0) and every per-layer metric (trace 1)
  named in BENCHMARK.json is printed, with the unit BENCHMARK.json gives;
* the per-access layer times plus sim.remainder_ns_per_access add up to
  sim.ns_per_access, the host ns per access of the same process's untraced
  runs (1000 / maccess_per_s).

Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ACCESSES = 300_000
# The disjoint top-level spans whose per-access times, with the
# remainder, make up the end-to-end host ns per access.
PER_ACCESS_LAYERS = [
    "workloads.ns_per_access",
    "cache.tlb_ns_per_access",
    "kernel.ns_per_access",
    "cache.hier_ns_per_access",
    "mem.ns_per_access",
    "policies.access_ns_per_access",
    "policies.tick_ns_per_access",
]


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--accesses", str(ACCESSES)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None, f"run.py exited with {done.returncode}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def check(workload, trace, expected):
    result, error = run(workload, trace)
    if error:
        return [error]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{spec['name']} missing")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']} unit {got.get('unit')!r}, expected {spec['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{spec['name']} value {got.get('value')!r}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    if trace == 1 and not problems:
        total = sum(metrics[name]["value"] for name in PER_ACCESS_LAYERS)
        total += metrics["sim.remainder_ns_per_access"]["value"]
        whole = metrics["sim.ns_per_access"]["value"]
        if not math.isclose(total, whole, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"layers + remainder = {total} ns, end to end {whole} ns")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check(workload, trace, expected)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
