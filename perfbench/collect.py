#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/collect.py --workloads release-cold,serve-mixed \
        --seeds 1-10 [--trace 0] [--out perfbench/baseline]

For every workload it runs perfbench/run.py once per seed, sequentially,
with the run length from BENCHMARK.json. It prints each metric's median
and quartile spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them) next to its bound. With
--out it writes <out>/<workload>[-trace].json holding every run's result
and provenance line plus the summary. Exits non-zero if a run fails or
reports correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(runs, bounds):
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        entry = {"median": median, "min": min(vals), "max": max(vals)}
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            entry["q1"], entry["q3"] = q[0], q[2]
            entry["spread"] = (q[2] - q[0]) / median if median else None
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            start = time.time()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            wall = time.time() - start
            lines = proc.stdout.strip().split("\n")
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                                                  proc.returncode,
                                                  proc.stderr[-2000:]))
                ok = False
                continue
            result = json.loads(lines[-1])
            provenance = next((l for l in lines if l.startswith(
                "# provenance")), "")
            runs.append({"seed": seed, "wall_s": wall, "result": result,
                         "provenance": provenance[2:]})
            ok = ok and result["correct"]
            print("%s seed %d: %.1f s correct=%s" % (
                workload, seed, wall, result["correct"]), flush=True)
        summary = summarize(runs, bounds)
        for name, entry in summary.items():
            spread = entry.get("spread")
            print("  %-34s median %-12.6g spread %-8s bound %s" % (
                name, entry["median"],
                "%.4f" % spread if spread is not None else "-",
                entry.get("bound", "-")))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            suffix = "-trace" if args.trace else ""
            path = os.path.join(args.out, workload + suffix + ".json")
            with open(path, "w") as f:
                json.dump({"workload": workload,
                           "run_seconds": spec["run_seconds"],
                           "summary": summary, "runs": runs}, f, indent=1)
                f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
