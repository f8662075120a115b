#!/usr/bin/env python3
"""Builds and runs the simulator benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gups-large-neomem --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then run
for --seconds; with --trace 0 a second process runs the cell once for its
peak resident memory. Progress, the host tag and a readable metric table go
to stderr. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the trace spans are written to
$CARGO_TARGET_DIR/perfbench-traces/<workload>-seed<seed>.json.

Seeds: 1 is the default seed used while tuning; 20261016 is held out for
confirming a claimed gain and must not be used to tune a change.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016
PROFILE = "release"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        done = subprocess.run(["rustc", "--version"], cwd=ROOT, capture_output=True, text=True, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_tag():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": rustc_version(),
        "profile": PROFILE,
    }


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir(), PROFILE, "perfbench")


def run_bench(binary, argv):
    """Runs the benchmark binary; returns (result, peak RSS in MiB) or None."""
    proc = subprocess.Popen([binary, *argv], cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports the resource usage of this one child, so the peak
    # resident set excludes the build.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
        return None
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        log("benchmark printed no result")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"benchmark result is not JSON: {e}")
        return None
    # ru_maxrss is in KiB on Linux.
    return result, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--accesses", type=int, help="override the workload's access budget (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    tag = host_tag()
    log(f"host {json.dumps(tag)}")
    log(f"workload {args.workload} seed {args.seed} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    binary = build()
    if binary is None:
        return 1
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.accesses is not None:
        argv += ["--accesses", str(args.accesses)]
    ran = run_bench(binary, argv)
    if ran is None:
        return 1
    result, _ = ran
    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = bool(result["correct"])

    metrics = dict(result["metrics"])
    if args.trace == 0:
        # Peak memory comes from a process that runs the cell exactly
        # once: the timed process's peak depends on how the allocator
        # happened to reuse memory between its repeats.
        single = run_bench(binary, argv + ["--single"])
        if single is None:
            return 1
        once, peak_rss_mib = single
        attempted += int(once["attempted"])
        failed += int(once["failed"])
        correct = correct and bool(once["correct"])
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    else:
        traces = os.path.join(target_dir(), "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": str(args.seed), "host": tag,
                       "metrics": metrics, "spans": result["spans"]}, f, indent=1)
        log(f"trace spans written to {path}")
    numeric = all(isinstance(m.get("value"), (int, float)) for m in metrics.values())
    print(json.dumps({"correct": correct and numeric, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
