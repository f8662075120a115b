#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --seconds 30
    python3 perfbench/spread.py --runs 5 --workloads churn-corun-neomem-ca

Runs perfbench/run.py --trace 0 once per seed (seeds 1..runs) on each
workload of BENCHMARK.json, then prints, for every end-to-end metric, the
median of the runs and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, next to the metric's
bound. A spread is flagged when it is not below a third of the bound
(setup_s is exempt from the spread rule, as its bound limits only drift).
Exits 1 when a run fails or a spread is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result if result["correct"] and result["failed"] == 0 else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", help="comma-separated subset of the workloads")
    args = parser.parse_args()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    flagged = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            result = run(workload, seed, args.seconds)
            if result is None:
                print(f"{workload} seed {seed}: run failed")
                flagged += 1
                continue
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            series = values[m["name"]]
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / q2 if q2 else float("inf")
            limit = m["bound"] / 3
            bad = m["name"] != "setup_s" and share >= limit
            flagged += bad
            print(f"{workload:<24} {m['name']:<16} median {q2:<12.6g} iqr/median {share:7.4f} "
                  f"bound/3 {limit:.4f} {'FLAG' if bad else 'ok'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
