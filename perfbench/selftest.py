#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every declared metric is printed with its unit, that every
wrapper records calls on the workloads that should exercise it (a name
bound by ``from x import y`` would escape its wrapper), that per-layer
counts repeat exactly between two traced runs with one seed, that an
injected output mismatch is counted and gives a nonzero exit, and that no
wrapper is left installed after a traced run.
"""

from __future__ import annotations

import contextlib
import gzip
import io as _io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 3
WORKLOADS = ("directional", "dense", "cli")
EVERYWHERE = ("geometry.iou_matrix", "assign.associate",
              "assign.hungarian_min_cost", "graphlap.refine", "kalman.predict",
              "kalman.update", "kalman.init_track", "tracker.run_sequence",
              "tracker.manage_lifecycle", "sim.generate")
EXPECTED_CALLS = {
    "directional": EVERYWHERE + ("metrics.amota_family", "metrics.evaluate_sequence"),
    "dense": EVERYWHERE,
    "cli": EVERYWHERE + ("metrics.evaluate_sequence", "cli.main",
                         "io.read_detections", "io.merge_detection_files",
                         "io.read_gt", "io.read_tracks", "io.write_detections",
                         "io.write_gt", "io.write_tracks"),
}

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace):
    """Run the benchmark at tiny size; returns (exit code, stdout lines)."""
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)], tiny=True)
    return code, out.getvalue().splitlines()


def printed_units(lines):
    return {p[1]: p[3] for p in (line.split() for line in lines)
            if len(p) == 4 and p[0] == "metric"}


def span_names(workload):
    path = os.path.join(run.OUT_DIR, f"spans-{workload}-{SEED}.jsonl.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return {json.loads(line)["name"] for line in fh}


def main():
    spec = run._benchmark_spec()
    run._load_package()
    import tracing
    from coopmot import tracker

    for workload in WORKLOADS:
        code, lines = bench(workload, 0)
        result = json.loads(lines[-1])
        check(code == 0 and result["correct"], f"{workload}: untraced run passes")
        units = printed_units(lines)
        for m in spec["end_to_end"]:
            check(result["metrics"][m["name"]]["unit"] == m["unit"]
                  and units.get(m["name"]) == m["unit"],
                  f"{workload}: {m['name']} printed in {m['unit']}")
        check("failed_frac" in units, f"{workload}: failed_frac printed")

        counts = []
        for _ in range(2):
            code, lines = bench(workload, 1)
            result = json.loads(lines[-1])
            check(code == 0 and result["correct"], f"{workload}: traced run passes")
            check(not tracing.installed_wrappers(),
                  f"{workload}: no wrapper left installed")
            units = printed_units(lines)
            check(all(units.get(m["name"]) == m["unit"] for m in spec["per_layer"]),
                  f"{workload}: every per-layer metric printed with its unit")
            counts.append([line for line in lines if line.startswith("counts ")])
        check(counts[0] == counts[1] and counts[0],
              f"{workload}: exact counts repeat ({counts[0][0][7:] if counts[0] else ''})")
        seen = span_names(workload)
        missing = [n for n in EXPECTED_CALLS[workload] if n not in seen]
        check(not missing, f"{workload}: every expected wrapper called"
                           + (f" (missing {missing})" if missing else ""))

    never = set(tracing.WRAPPED) - set().union(*EXPECTED_CALLS.values())
    check(not never, "every wrapper is expected to be called somewhere"
                     + (f" (never: {sorted(never)})" if never else ""))

    original = tracker.run_sequence

    def corrupted(frames, cfg, model=None):
        outs = original(frames, cfg, model)
        for k, out in enumerate(outs):
            if out.emitted:
                outs[k] = type(out)(frame=out.frame,
                                    emitted=out.emitted + out.emitted[:1])
                break
        return outs

    tracker.run_sequence = corrupted
    try:
        code, lines = bench("dense", 0)
    finally:
        tracker.run_sequence = original
    result = json.loads(lines[-1])
    frac = [line for line in lines if line.startswith("metric failed_frac ")]
    check(code == 1 and not result["correct"] and result["failed"] >= 1
          and frac and float(frac[0].split()[2]) > 0,
          "injected duplicate track id: failed_frac > 0 and exit code 1")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
