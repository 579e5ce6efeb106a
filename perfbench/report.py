#!/usr/bin/env python3
"""Traced-run report: each workload's time split across the layers.

Usage, from the repository root:

    python3 perfbench/report.py [--seed 1] [--seconds 10]

Runs `run.py --trace 1` on every workload in BENCHMARK.json and prints
one row per workload: each layer's share of the traced time, the
unaccounted share, and the tracing overhead. A workload whose
unaccounted share exceeds 5% is flagged.
"""

import argparse
import json
import os
import subprocess
import sys

LAYERS = ["scenario", "radio", "cha", "vi", "traffic", "audit"]
UNACCOUNTED_LIMIT = 0.05


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    header = ["workload"] + LAYERS + ["unaccounted", "overhead", "correct"]
    rows = []
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, run, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"report: {name} failed")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        pct = lambda v: f"{100 * v:.1f}%"
        rows.append([name] + [pct(m["share." + layer]) for layer in LAYERS]
                    + [pct(m["unaccounted_frac"]), pct(m["telemetry.overhead_frac"]),
                       str(result["correct"]).lower()])
        if abs(m["unaccounted_frac"]) > UNACCOUNTED_LIMIT:
            rows[-1][0] += " (FLAG)"

    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.rjust(w) if i else cell.ljust(w)
                        for i, (cell, w) in enumerate(zip(row, widths))))


if __name__ == "__main__":
    main()
