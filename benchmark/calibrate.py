#!/usr/bin/env python3
"""Runs every workload in BENCHMARK.json several times on one seed and
reports, per metric, the median, the quartiles and the relative spread
(q3 - q1) / median: the run-to-run noise the bounds are set against.

    python3 benchmark/calibrate.py [--runs 10] [--trace] [--out FILE]

Each run measures BENCHMARK.json's run_seconds on seed 42, the seed the
recorded digests are for. One more run per workload, on seed 43, checks
correctness on another seed; its numbers are not kept. Quartiles are
statistics.quantiles(values, n=4). --out writes the summary as JSON with the
provenance of the runs (commit, CPU, cores, build type).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 42
CHECK_SEED = 43


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    summary = {"runs": args.runs, "seconds": seconds, "trace": args.trace,
               "seed": SEED, "check_seed": CHECK_SEED, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, walls = {}, []
        for _ in range(args.runs):
            result, wall = run_once(workload, SEED, seconds, args.trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        run_once(workload, CHECK_SEED, seconds, args.trace)
        rows = {}
        print(f"{workload}: {args.runs} runs, wall max {max(walls):.1f} s, "
              f"total {sum(walls):.0f} s; seed {CHECK_SEED} correct")
        for name, (unit, vals) in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "rel_iqr": spread, "values": vals}
            print(f"  {name:32s} {med:14.6g} {unit:6s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {100 * spread:6.2f}%")
        summary["workloads"][workload] = {"wall_s_max": max(walls), "metrics": rows}

    # Provenance from the last run's results file.
    name = f"results-{workload}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(HERE, "out", name)) as f:
        provenance = json.load(f)
    for key in ("commit", "cpu_model", "nproc", "build_type"):
        summary[key] = provenance[key]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
