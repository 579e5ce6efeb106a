#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload metro_rush --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (its own Cargo workspace, path
dependencies on the crates) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

* `--trace 0`: four `setup` processes and one `measure` process
  (tracing off), and prints the end-to-end metrics: `setup_s` is the
  median of the five cold starts (the measure process's first scenario
  included), `peak_rss_mb` the median peak memory of the four set-up
  processes;
* `--trace 1`: one `trace` process, and prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Exits non-zero, printing no result, when the repository
sources are missing, the build fails, or a run crashes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROCESSES = 4  # cold processes; the measure run gives a fifth set-up sample
PROCESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(binary, args, deadline, echo=True):
    """Runs the benchmark binary, echoes its report, returns its last line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(args[:1]))
    try:
        proc = subprocess.run(
            [binary] + args, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        fail(f"{args[0]} run exceeded its time limit")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args[0]} run exited with code {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args[0]} run printed no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--workers",
        type=int,
        help="intra-round workers for engine workloads (default: available_parallelism)",
    )
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/Cargo.toml", "crates/scenario/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")

    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    print(
        "host: rustc={!r} commit={} nproc={} seed={} workload={}".format(
            command_output(["rustc", "--version"]),
            command_output(["git", "-C", root, "rev-parse", "--short", "HEAD"]),
            os.cpu_count(),
            args.seed,
            args.workload,
        )
    )
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.workers is not None:
        common += ["--workers", str(args.workers)]

    if args.trace:
        result = run_binary(binary, ["trace"] + common, deadline)
        expected = [m["name"] for m in declared["per_layer"]]
    else:
        setups = [run_binary(binary, ["setup"] + common, deadline, echo=False)
                  for _ in range(SETUP_PROCESSES)]
        result = run_binary(binary, ["measure"] + common, deadline)
        samples = [result["metrics"]["setup_s"]["value"]] + [s["setup_s"] for s in setups]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        rss = [s["peak_rss_mb"] for s in setups]
        result["metrics"]["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        print("setup_s samples (s): " + ", ".join(f"{s:.6f}" for s in samples))
        print("peak_rss_mb samples (MB): " + ", ".join(f"{r:.3f}" for r in rss))
        if any(s["digest"] != result["digest"] for s in setups):
            print("CHECK FAILED: outcome digests differ between processes")
            result["correct"] = False
        expected = [m["name"] for m in declared["end_to_end"]]

    if sorted(result["metrics"]) != sorted(expected):
        fail("printed metrics differ from BENCHMARK.json")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
