#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
reports, for every end-to-end metric, the median, the quartiles and the
inter-quartile range as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound. With
--trace it also makes one traced run per workload and lists the
per-layer metrics, including the drift register (drift.*).

Run from the repository root:

    python3 ccbench/steadiness.py --seeds 10 [--workloads wrf_slp,...]
        [--trace] [--out ccbench/STEADINESS.md]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    drift = [l.strip() for l in proc.stdout.splitlines() if l.strip().startswith("drift ")]
    return result, elapsed, drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lines = ["# Benchmark steadiness", "",
             f"{opts.seeds} runs per workload, seeds {opts.first_seed}.."
             f"{opts.first_seed + opts.seeds - 1}, {bench['run_seconds']} s each.", ""]
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        times, failed, drifts = [], 0, []
        for k in range(opts.seeds):
            seed = opts.first_seed + k
            result, elapsed, drift = run(bench["command"], name, seed, bench["run_seconds"], False)
            times.append(elapsed)
            failed += result["failed"]
            drifts.append(drift)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        lines += [f"## {name}", "",
                  f"Run time per run: {min(times):.1f}-{max(times):.1f} s; failed checks: {failed}.", "",
                  "| metric | median | q1 | q3 | (q3-q1)/median | bound | share of bound |",
                  "|---|---|---|---|---|---|---|"]
        for m, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            share = spread / bounds[m]
            if m != "setup_s":
                worst = max(worst, share)
            lines.append(f"| {m} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bounds[m]} | {share:.2f} |")
        lines += ["", "Drift register (per-pass virtual values within each run):", ""]
        for k, d in enumerate(drifts):
            for entry in d:
                lines.append(f"- seed {opts.first_seed + k}: {entry}")
        lines.append("")
        if opts.trace:
            result, elapsed, drift = run(bench["command"], name, opts.first_seed, bench["run_seconds"], True)
            lines += [f"Traced run (seed {opts.first_seed}, {elapsed:.1f} s):", "",
                      "| per-layer metric | value | unit |", "|---|---|---|"]
            for m, v in result["metrics"].items():
                lines.append(f"| {m} | {v['value']:.6g} | {v['unit']} |")
            lines += ["", "Drift of every virtual-time field over the traced run's passes:", ""]
            lines += [f"- {entry}" for entry in drift]
            lines.append("")
    lines.append(f"Largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    text = "\n".join(lines) + "\n"
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text)
    print(text)


if __name__ == "__main__":
    main()
