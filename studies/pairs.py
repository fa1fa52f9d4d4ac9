#!/usr/bin/env python3
"""Alternated benchmark runs of two trees, summarised per metric.

Usage, from anywhere in a git checkout:

    python3 studies/pairs.py --base REV [--change REV] --pairs N --workload W [--native]

Each side is extracted with ``git archive`` under ``bench_out/pairs/`` (the
change side defaults to the working tree: tracked and untracked files that
git does not ignore), so the checkout and ``.git`` are left as they are.
Each pair runs both trees' own ``perfbench/run.py --trace 0`` for the
workload, with the run length of the base tree's ``BENCHMARK.json``; the
side that runs first alternates from pair to pair. The benchmark is a black
box: only its ``manifest``, ``FAILED``, ``metric`` and last (JSON result)
lines are read, and the parsed runs are kept in ``bench_out/pairs/runs-W.json``. With
``--native``, ``python3 setup.py build_ext --inplace`` compiles the IoU kernel
in both trees before the first run; a build that fails, or that ends without
the module (setup.py's extension is optional), stops the script with one
``error:`` line and exit code 2.

Per metric it prints the base's median [q1, q3] and the change's median.
For each metric that BENCHMARK.json declares, it adds the change's wins
(pairs in which it is better; ties count for neither), the two-sided exact
sign-test p of those wins against the losses (ties dropped), and ``gain``
when, over at least ten pairs, the change wins at least nine tenths of them
and the medians differ by more than the base's interquartile range.
``peak_rss_mb`` grows with the number of units a run fits into its time,
so it is compared only over the pairs whose two runs have equal ``units``.
The summary line counts each side's failed operations; after it, a side
that failed any has its runs' ``FAILED`` lines printed with their pair
numbers. After the table, one line gives BENCHMARK.json's end-to-end
metrics in the form a change note quotes them.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS_DIR = os.path.join(ROOT, "bench_out", "pairs")
NATIVE = os.path.join("src", "coopmot", "geometry", "_native")  # the module, less its suffix
UNIT_SENSITIVE = "peak_rss_mb"  # grows with units: compared at equal unit counts
MIN_PAIRS = 10  # fewer pairs claim no gain
SIGN = {"lower": -1.0, "higher": 1.0}  # a declared direction, as the sign of a win


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def extract(side, rev) -> str:
    """A fresh copy of rev (None: the working tree) in PAIRS_DIR/side."""
    tree = os.path.join(PAIRS_DIR, side)
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for path in filter(None, listed.decode().split("\0")):
            if os.path.isfile(os.path.join(ROOT, path)):  # skip deleted files
                os.makedirs(os.path.dirname(os.path.join(tree, path)), exist_ok=True)
                shutil.copy2(os.path.join(ROOT, path), os.path.join(tree, path))
    else:
        proc = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                stdout=subprocess.PIPE)
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(tree, filter="data")
        if proc.wait():
            raise RuntimeError(f"git archive {rev} failed")
    return tree


def build_native(tree) -> None:
    """Compile the IoU kernel in tree with setup.py build_ext --inplace;
    RuntimeError, in one line, when the build fails or leaves no module."""
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode == 0 and any(os.path.exists(os.path.join(tree, NATIVE + suffix))
                                    for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        return
    last = (proc.stderr.strip() or proc.stdout.strip()).splitlines()[-1:]
    raise RuntimeError(f"native build failed in {tree} (exit {proc.returncode})"
                       + "".join(f": {line.strip()}" for line in last))


def parse_run(stdout: str) -> dict:
    """{"units", "failed", "problems", "metrics": {name: value}, "units_of":
    {name: unit}} from the standard output of one run.py --trace 0 run;
    problems holds the text of its FAILED lines, in order."""
    run = {"problems": [], "metrics": {}, "units_of": {}}
    for line in stdout.splitlines():
        if line.startswith("manifest "):
            run["units"] = json.loads(line[len("manifest "):])["units"]
        elif line.startswith("FAILED "):
            run["problems"].append(line[len("FAILED "):])
        elif line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            run["metrics"][name] = float(value)
            run["units_of"][name] = unit
    run["failed"] = json.loads(stdout.splitlines()[-1])["failed"]
    return run


def quartiles(values):
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_p(wins, losses) -> float:
    """The two-sided exact sign-test p of wins against losses: twice the
    chance that a fair coin gives at least max(wins, losses) of the
    wins + losses tosses to one side, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2 ** n)


def paired(pairs, name):
    """(base values, change values) of name over the pairs that compare it."""
    used = [(b, c) for b, c in pairs if name in b["metrics"] and name in c["metrics"]
            and (name != UNIT_SENSITIVE or b["units"] == c["units"])]
    return [b["metrics"][name] for b, _ in used], [c["metrics"][name] for _, c in used]


def sign_tests(pairs, better) -> dict:
    """{name: sign-test p} of each declared metric that a pair compares."""
    ps = {}
    for name in pairs[0][0]["units_of"]:
        sign = SIGN.get(better.get(name))
        base, change = paired(pairs, name)
        if sign is not None and base:
            diffs = [sign * (c - b) for b, c in zip(base, change)]
            ps[name] = sign_p(sum(d > 0 for d in diffs), sum(d < 0 for d in diffs))
    return ps


def summarize(pairs, better) -> list:
    """One row per metric that both sides report, in the base's order.

    pairs: [(base run, change run)] as parse_run gives them; better: metric
    name -> "lower" or "higher", as BENCHMARK.json declares it. A row is
    (name, unit, pairs compared, base (q1, median, q3), change median, wins,
    gain); wins is None for an undeclared metric, which has no direction."""
    rows = []
    for name, unit in pairs[0][0]["units_of"].items():
        base, change = paired(pairs, name)
        if not base:
            rows.append((name, unit, 0, None, None, None, False))
            continue
        q1, median, q3 = quartiles(base)
        change_median = statistics.median(change)
        sign = SIGN.get(better.get(name))
        wins, gain = None, False
        if sign is not None:
            wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
            gain = (len(base) >= MIN_PAIRS and 10 * wins >= 9 * len(base)
                    and sign * (change_median - median) > q3 - q1)
        rows.append((name, unit, len(base), (q1, median, q3), change_median, wins, gain))
    return rows


def format_rows(rows, n_pairs, ps=None) -> str:
    """The rows as a table; ps, as sign_tests gives it, adds each p after the wins."""
    ps = ps or {}
    out = [f"{'metric':<22}{'unit':<10}{'base median [q1, q3]':<34}"
           f"{'change median':<16}wins"]
    for name, unit, used, base, change, wins, gain in rows:
        if base is None:
            out.append(f"{name:<22}{unit:<10}no pair with equal units")
            continue
        q1, median, q3 = base
        note = "-" if wins is None else f"{wins}/{used}"
        if used < n_pairs:
            note += f" (the {used} of {n_pairs} pairs with equal units)"
        if name in ps:
            note += f"  p={ps[name]:.3g}"
        out.append(f"{name:<22}{unit:<10}{f'{median:.4g} [{q1:.4g}, {q3:.4g}]':<34}"
                   f"{change:<16.4g}{note}{'  gain' if gain else ''}")
    return "\n".join(out)


def format_line(workload, rows, n_pairs, names) -> str:
    """The named metrics' rows on one line, in the form a change note quotes:
    "W: name median [q1, q3] → change median (wins/pairs), ...", with
    "equal-unit pairs" after the count when fewer than n_pairs compare."""
    parts = []
    for name, _, used, base, change, wins, _ in rows:
        if name not in names:
            continue
        if base is None:
            parts.append(f"{name} no pair with equal units")
            continue
        q1, median, q3 = base
        note = f"{wins}/{used}" + (" equal-unit pairs" if used < n_pairs else "")
        parts.append(f"{name} {median:.4g} [{q1:.4g}, {q3:.4g}] → {change:.4g} ({note})")
    return f"{workload}: " + ", ".join(parts)


def format_problems(pairs) -> list:
    """The FAILED lines of each side whose runs failed operations, as
    "<side> pair <k>: FAILED <problem>", pairs numbered from 1."""
    lines = []
    for side, runs in zip(("base", "change"), zip(*pairs)):
        if any(run["failed"] for run in runs):
            lines += [f"{side} pair {k}: FAILED {problem}"
                      for k, run in enumerate(runs, start=1) for problem in run["problems"]]
    return lines


def run_tree(tree, workload, seconds) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except (ValueError, KeyError, IndexError) as exc:
        raise RuntimeError(f"{tree}: no benchmark result (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", help="the changed revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--native", action="store_true",
                        help="compile the IoU kernel in both trees before the first run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = extract("base", args.base), extract("change", args.change)
    if args.native:
        try:
            for tree in trees:
                build_native(tree)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    with open(os.path.join(trees[0], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    pairs = []
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        runs = {side: run_tree(trees[side], args.workload, bench["run_seconds"])
                for side in order}
        pairs.append((runs[0], runs[1]))
        print(f"pair {k + 1}/{args.pairs}: units {runs[0]['units']} / {runs[1]['units']}",
              file=sys.stderr)
    with open(os.path.join(PAIRS_DIR, f"runs-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(pairs, fh, indent=1)
    failed = [sum(run["failed"] for run in side) for side in zip(*pairs)]
    print(f"{args.workload}: {args.pairs} alternated pairs, base {args.base}, change "
          f"{args.change or 'working tree'}; failed operations {failed[0]} / {failed[1]}")
    for line in format_problems(pairs):
        print(line)
    rows = summarize(pairs, better)
    print(format_rows(rows, args.pairs, sign_tests(pairs, better)))
    print(format_line(args.workload, rows, args.pairs,
                      [m["name"] for m in bench["end_to_end"]]))
    return 1 if failed[1] > failed[0] else 0


if __name__ == "__main__":
    sys.exit(main())
