#!/usr/bin/env python3
"""Steadiness check: runs each workload k times, with seeds 1..k, and
prints for every metric its median, quartiles and spread (the
distance between the quartiles as a share of the median), next to the
bound BENCHMARK.json gives it.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve --seconds 10

The bounds in BENCHMARK.json were set from this output: a metric's bound
should be at least three times the spread seen here.  The share of failed
operations must be identical in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    host = next((l[5:] for l in lines if l.startswith("host ")), "{}")
    return json.loads(lines[-1]), json.loads(host), wall


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    opts = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in opts.workloads.split(","):
        values = {name: [] for name in bounds}
        shares, steal, walls = set(), [], []
        for seed in range(1, opts.runs + 1):
            result, host, wall = run_once(spec["command"], workload, seed,
                                          opts.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs are wrong")
            shares.add((result["failed"], result["attempted"]))
            steal.append(host.get("steal_s") or 0.0)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        failed_shares = {f / a for f, a in shares}
        print(f"\n{workload}: {opts.runs} runs of {opts.seconds} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"steal {min(steal):.2f}-{max(steal):.2f} s per run, "
              f"failed share {sorted(failed_shares)}")
        print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  above a third of its bound"
            print(f"  {name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {bound:>6.2f}{flag}")


if __name__ == "__main__":
    main()
