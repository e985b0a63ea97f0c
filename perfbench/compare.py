#!/usr/bin/env python3
"""Compare benchmark results of two commits on the same host.

    python3 perfbench/compare.py --base A1.json [A2.json ...] --head B1.json [B2.json ...]

Inputs are result files written by run.py (.bench_build/results/*.json).
Refuses (exit 2) when the files do not share one host block: CPU model,
nproc, compiler, build type and flags, and SIMD backend must all agree, so an
absolute rate is never compared across hosts. Commit and source digest may
differ; that is the point. Also refuses mixed workloads, trace modes or run
lengths. For each metric it prints the median and quartiles of both sides;
for end-to-end metrics it flags a regression (exit 1) when the head median is
worse than the base median by more than the metric's bound in BENCHMARK.json.
Any head result with a failed cell is a regression too, whatever its bound:
the workloads are deterministic, so one failed cell is a defect.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type", "cxx_flags", "simd_backend")
RUN_KEYS = ("workload", "trace", "seconds")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()
    base, head = load(args.base), load(args.head)

    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS}, sort_keys=True)
             for r in base + head}
    if len(hosts) != 1:
        print("refusing to compare: results come from different hosts or builds:",
              *sorted(hosts), sep="\n  ", file=sys.stderr)
        return 2
    runs = {tuple(r[k] for k in RUN_KEYS) for r in base + head}
    if len(runs) != 1:
        print(f"refusing to compare: mixed workload/trace/seconds {sorted(runs)}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    regressed = False
    print(f"{'metric':34s} {'base q1/med/q3':>36s} {'head q1/med/q3':>36s}  verdict")
    for name in base[0]["metrics"]:
        b = quartiles([r["metrics"][name]["value"] for r in base])
        h = quartiles([r["metrics"][name]["value"] for r in head])
        spec = specs.get(name, {})
        verdict = ""
        if "bound" in spec and b[1] != 0:
            worse = (h[1] - b[1]) / abs(b[1]) * (1 if spec["better"] == "lower" else -1)
            verdict = f"{'REGRESSION' if worse > spec['bound'] else 'ok'} ({worse:+.1%} worse, bound {spec['bound']:.0%})"
            regressed |= worse > spec["bound"]
        print(f"{name:34s} {b[0]:11.5g} {b[1]:11.5g} {b[2]:11.5g}  {h[0]:11.5g} {h[1]:11.5g} {h[2]:11.5g}  {verdict}")
    broken = [r.get("seed") for r in head if not r["correct"] or r["failed"]]
    if broken:
        print(f"REGRESSION: head results with failed cells (seeds {broken})")
    return 1 if regressed or broken else 0


if __name__ == "__main__":
    sys.exit(main())
