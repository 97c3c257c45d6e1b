#!/usr/bin/env python3
"""Steadiness check for one workload of the repository benchmark.

    python3 perfbench/steady.py --workload paper_grid --runs 10
    python3 perfbench/steady.py --workload paper_grid --runs 10 \
        --save a.json --against b.json

Runs the workload --runs times, each in a fresh process through
perfbench/run.py with seeds 0, 1, ..., --runs - 1, and
prints each run's end-to-end metrics next to its involuntary context
switches and the 1-minute load average before it started, so a
disturbed run is visible rather than silently averaged in.  Then, per
metric: the median, quartiles and range, and the spread (Q3 - Q1) as a
share of the median against the metric's bound in BENCHMARK.json.
--save writes the values; --against compares this set's medians with
a saved set's, as a second set of runs of the same code must agree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread_of(v):
    if len(v) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(v, n=4)
    return (q3 - q1) / statistics.median(v)


def run_once(workload, seed, seconds):
    load1 = os.getloadavg()[0]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[5:])
    return result, info, load1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", help="write the measured values here (JSON)")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    names = list(specs)

    values = {n: [] for n in names}
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    print("  seed  ok  " + "  ".join(f"{n:>16}" for n in names) +
          "  invol_cs  load1")
    for seed in range(args.runs):
        result, info, load1 = run_once(args.workload, seed, seconds)
        for n in names:
            values[n].append(result["metrics"][n]["value"])
        ok = "y" if result["correct"] else "N"
        print(f"  {seed:4d}  {ok:>2}  " +
              "  ".join(f"{values[n][-1]:16.6g}" for n in names) +
              f"  {info['invol_ctx_switches']:8d}  {load1:5.2f}",
              flush=True)

    other = None
    if args.against:
        with open(args.against) as f:
            other = json.load(f)
    print("\nmetric                         median          q1          q3"
          "   spread   range    bound  verdict")
    for n in names:
        v = values[n]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, 0, med)
        spread = spread_of(v)
        rng = (max(v) - min(v)) / med if med else 0.0
        bound = specs[n]["bound"]
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        line = (f"{n:28s} {med:11.5g} {q1:11.5g} {q3:11.5g}  {spread:6.2%}"
                f"  {rng:6.2%}  {bound:6.2%}  {verdict}")
        if other is not None and n in other:
            base = statistics.median(other[n])
            worse = (med - base) / base if specs[n]["better"] == "lower" \
                else (base - med) / base
            line += f"  vs saved: {worse:+.2%} worse" + \
                (" (BEYOND BOUND)" if worse > bound else "")
        print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
