"""Record the benchmark's reference numbers into perfbench/baseline.json.

    python3 perfbench/record.py

For every workload in BENCHMARK.json: one untraced run per seed, with the
median and the quartile spread (Q3 - Q1 over the median, as
statistics.quantiles gives them) of each end-to-end metric; one untraced
run on a held-out seed; and one traced run on the first seed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(101, 111)
HELD_OUT = 777


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "git_sha": sha, "run_seconds": seconds, "seeds": list(SEEDS),
              "held_out_seed": HELD_OUT, "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = []
        for seed in SEEDS:
            result, _ = run(name, seed, seconds, 0)
            runs.append(values(result))
            print(name, seed, runs[-1], flush=True)
        summary = {}
        for metric in runs[0]:
            vals = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[metric] = {"median": med, "spread": (q3 - q1) / med}
        held, _ = run(name, HELD_OUT, seconds, 0)
        traced, lines = run(name, SEEDS[0], seconds, 1)
        record["workloads"][name] = {
            "why": wl["why"],
            "end_to_end": summary,
            "held_out": values(held),
            "per_layer": {k: v for k, v in values(traced).items() if v},
            "traced_report": lines,
        }
        print(name, json.dumps(summary), flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
