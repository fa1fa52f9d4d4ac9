#!/usr/bin/env python3
"""Pool benchmark result files into medians and quartiles per workload.

    python3 perfbench/summarize.py [--write FILE] [RESULT.json ...]

Reads ``bench_out/result-*.json`` unless files are named. Untraced runs give
each metric's median, quartiles (``statistics.quantiles(n=4)``) and spread
(interquartile range over median); traced runs give the per-layer values
of the last traced run of each workload. Results from different IoU
backends are never pooled: they differ by 10-100x, so a mix is flagged and
nothing is summarised. ``--write`` stores the summary (this is how
``baseline.json`` is made).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), "bench_out")


def summarize(runs):
    workloads, per_layer = {}, {}
    for run in runs:
        man = run["manifest"]
        if man["trace"]:
            per_layer[man["workload"]] = {
                "seed": man["seed"],
                "metrics": {k: m["value"] for k, m in run["all_metrics"].items()}}
            continue
        rows = workloads.setdefault(man["workload"], {})
        for name, m in run["all_metrics"].items():
            rows.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
        rows.setdefault("seeds", []).append(man["seed"])
    for rows in workloads.values():
        seeds = rows.pop("seeds")
        for name, row in rows.items():
            values = row.pop("values")
            q1, median, q3 = (statistics.quantiles(values, n=4)
                              if len(values) > 1 else values * 3)
            row.update(median=median, q1=q1, q3=q3, n=len(values),
                       spread=(q3 - q1) / median if median else 0.0)
        rows["seeds"] = seeds
    return workloads, per_layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--write", help="store the summary as JSON here")
    args = parser.parse_args(argv)
    files = args.files or sorted(glob.glob(os.path.join(OUT_DIR, "result-*.json")))
    runs = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        print("no result files", file=sys.stderr)
        return 2
    backends = sorted({r["manifest"]["backend"] for r in runs})
    if len(backends) > 1:
        print(f"FLAG: results from different IoU backends {backends}; "
              "not pooled or compared", file=sys.stderr)
        return 1

    workloads, per_layer = summarize(runs)
    for workload, rows in sorted(workloads.items()):
        print(f"{workload} (seeds {rows['seeds']})")
        for name, row in rows.items():
            if name != "seeds":
                print(f"  {name:22s} median {row['median']:.6g} {row['unit']}"
                      f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                      f"  spread {row['spread']:.3f}  n {row['n']}")
    if args.write:
        first = runs[0]["manifest"]
        summary = {
            "manifest": {k: first[k] for k in
                         ("backend", "nproc", "python", "numpy", "scipy", "commit")},
            "workloads": workloads,
            "per_layer": per_layer,
        }
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
